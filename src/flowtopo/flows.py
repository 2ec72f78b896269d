"""Netflow CSV ingest: record parsing, bidirectional session pairing, time windows.

Input logs are unidirectional flow records.  A client request and the server's
response show up as two separate records with mirrored endpoints; downstream
analysis wants one session per communication, so overlapping mirrored records
are merged and the originating side is designated the client.

Ingest is the first step of every pipeline, so both steps work on columns.
parse_flows reads the lines in blocks of _BLOCK rows: one split per block,
each column converted with the converters of the row path.  _flow_records,
the one maker of flow records from columns (synth builds its days and scans
with it too), checks the columns as a whole (ports by their minimum and
maximum, times as one float64 array, each distinct address and flags string
once); when that fails, FlowRecord builds each record and names the first
bad one.  Records share one str per distinct address and flags value, and
only one block's field strings are alive at a time.  On any failure the row
path (csv_rows and _record) parses the whole input again; it names the first
bad line and field, so an error does not depend on which path found it.
pair_bidirectional sorts and groups the records with numpy and sweeps only
the endpoint groups of more than two records in Python; every session field
is one of its records' own values.
"""

from __future__ import annotations

import functools
import heapq
import ipaddress
import math
import numbers
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Iterator

import numpy as np

FLOW_HEADER = "sTime,eTime,sIP,dIP,sPort,dPort,flags"
SESSION_HEADER = (
    "window_start,client_ip,server_ip,client_port,server_port,"
    "start,end,constituent_count"
)
# the most windows a gap-filled timeline may hold: a leap year of 300-second
# windows is 105,408, while a million empty windows took 30 s and 869 MiB
MAX_WINDOWS = 120_000


def fmt(x: float) -> str:
    """Render a float with enough digits to round-trip exactly."""
    return format(float(x), ".17g")


class FlowFormatError(ValueError):
    """Malformed flow or session record, or malformed CSV input of any format.

    Carries the CSV field name and, for parsed input, the 1-based line number.
    """

    def __init__(self, message: str, line_number: int | None = None,
                 field: str | None = None):
        super().__init__(message)
        self.line_number = line_number
        self.field = field


@functools.lru_cache(maxsize=4096)
def _is_ipv4(text: str) -> bool:
    # memoized: a day's records repeat a few hundred addresses, and the
    # address parser is the most expensive part of a record check.  The
    # cache hashes its argument, so a record tests `type(x) is str` first
    # and an unhashable field never gets here.  Only a str is an address:
    # IPv4Address also takes an int or 4 packed bytes, which serialize as
    # something no reader takes back
    if type(text) is not str:
        return False
    try:
        ipaddress.IPv4Address(text)
    except ipaddress.AddressValueError:
        return False
    return True


@functools.lru_cache(maxsize=256)
def _is_flags(text: str) -> bool:
    # memoized like _is_ipv4, and called on a str only: records repeat a
    # handful of flag strings.  A CSV field survives a write and a read
    # only without a comma, a line break (what str.splitlines splits on) or
    # padding, which reading strips
    return "," not in text and text == text.strip() and len(text.splitlines()) < 2


def _is_real(value) -> bool:
    """Whether value is a real number but not a bool; nan and +-inf are."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_int_in(value, lo: float = -math.inf, hi: float = math.inf) -> bool:
    """Whether value is an integer, not a bool, in [lo, hi]: a port, a count
    or a seed as every record and settings class checks it."""
    return isinstance(value, numbers.Integral) and _is_real(value) and lo <= value <= hi


def _check_record(names: tuple[str, ...], values: tuple) -> None:
    """Check one record's (address, address, port, port, start, end) values,
    named as its format names them: IPv4, integers 0-65535 but not bools,
    real numbers but not bools, finite with end >= start.

    One chained test accepts a valid record; the chained time comparison is
    false for NaN, for +-inf and for end < start, and raises TypeError (for
    an array, ValueError) for most values that are not numbers.  Only a
    record that fails it or raises runs the named checks, ports then
    addresses then times, which raise FlowFormatError naming the first bad
    field.
    """
    ip_a, ip_b, port_a, port_b, start, end = values
    try:
        if (type(port_a) is int and type(port_b) is int
                and 0 <= port_a <= 65535 and 0 <= port_b <= 65535
                and type(ip_a) is str and type(ip_b) is str
                and _is_ipv4(ip_a) and _is_ipv4(ip_b)
                and -math.inf < start <= end < math.inf
                and type(start) is not bool and type(end) is not bool):
            return
    except (TypeError, ValueError):
        pass
    for field, port in zip(names[2:4], values[2:4]):
        if not _is_int_in(port):
            raise FlowFormatError(f"{field} {port!r} is not an integer", field=field)
        if not 0 <= port <= 65535:
            raise FlowFormatError(f"{field} {port} out of range 0-65535", field=field)
    for field, ip in zip(names[:2], values[:2]):
        if not (type(ip) is str and _is_ipv4(ip)):
            raise FlowFormatError(f"{field} {ip!r} is not a dotted-quad IPv4 address",
                                  field=field)
    for field, t in zip(names[4:], values[4:]):
        if not _is_real(t):
            raise FlowFormatError(f"{field} {t!r} is not a number", field=field)
        if not math.isfinite(t):
            raise FlowFormatError(f"{field} {t} is not finite", field=field)
    if values[5] < values[4]:
        raise FlowFormatError(f"{names[5]} {values[5]} precedes {names[4]} {values[4]}",
                              field=names[5])


@dataclass(frozen=True)
class FlowRecord:
    """One unidirectional netflow record (one CSV data line)."""

    s_time: float
    e_time: float
    s_ip: str
    d_ip: str
    s_port: int
    d_port: int
    flags: str

    def __post_init__(self):
        _check_record(("sIP", "dIP", "sPort", "dPort", "sTime", "eTime"),
                      (self.s_ip, self.d_ip, self.s_port, self.d_port,
                       self.s_time, self.e_time))
        if not (type(self.flags) is str and _is_flags(self.flags)):
            raise FlowFormatError(f"flags {self.flags!r} is not a string without a "
                                  "comma, a line break or surrounding whitespace",
                                  field="flags")


@dataclass(frozen=True)
class SessionRecord:
    """One bidirectional communication, merged from one or more flow records."""

    client_ip: str
    server_ip: str
    client_port: int
    server_port: int
    start: float
    end: float
    constituent_count: int

    def __post_init__(self):
        _check_record(("client_ip", "server_ip", "client_port", "server_port",
                       "start", "end"),
                      (self.client_ip, self.server_ip, self.client_port,
                       self.server_port, self.start, self.end))
        if self.constituent_count < 1:
            raise FlowFormatError("constituent_count must be >= 1", field="constituent_count")


@dataclass(frozen=True)
class TimeWindow:
    """A half-open interval [start, start + width) with the sessions starting in it."""

    start: float
    width: float
    sessions: tuple[SessionRecord, ...]


_session_order = attrgetter("start", "client_ip", "server_ip", "client_port",
                            "server_port")


def _check_width(width: float) -> None:
    if not 0 < width < math.inf:
        raise ValueError(f"window width must be finite and > 0, got {width}")


def csv_rows(lines: Iterable[str], header: str | None = None
             ) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, fields) for each line that is not empty or whitespace.

    Every row must have as many fields as the first, which must equal the
    header if one is given and is then not yielded; FlowFormatError otherwise.
    """
    width = None
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        line = line.rstrip("\r\n")
        fields = line.split(",")
        if width is None:
            width = len(fields)
            if header is not None:
                if line != header:
                    raise FlowFormatError(f"line {lineno}: bad header "
                                          f"{line.rstrip()!r}, expected {header!r}",
                                          lineno)
                continue
        elif len(fields) != width:
            raise FlowFormatError(f"line {lineno}: expected {width} comma-separated "
                                  f"fields, got {len(fields)}", lineno)
        yield lineno, fields
    if width is None and header is not None:
        raise FlowFormatError("empty input: missing header line", 1)


def _record(cls, table, fields: list[str], lineno: int):
    """Convert fields by the (name, converter) table and build cls from them.

    All fields convert in one try, without stripping the numeric ones:
    float and int skip the same padding as str.strip, except U+001C-U+001F,
    which they refuse.  Only after a ValueError does the named loop run,
    stripping each field first; it accepts such padding and otherwise
    names the first field that does not convert.
    """
    try:
        values = [kind(raw) for (_, kind), raw in zip(table, fields)]
    except ValueError:
        values = []
        for (name, kind), raw in zip(table, fields):
            try:
                values.append(kind(raw.strip()))
            except ValueError:
                raise FlowFormatError(
                    f"line {lineno}: field {name} has unparseable value {raw.strip()!r}",
                    lineno, name) from None
    try:
        return cls(*values)
    except FlowFormatError as exc:
        raise FlowFormatError(f"line {lineno}: {exc}", lineno, exc.field) from None


# text fields convert with str.strip; numeric ones strip only on the slow path
_FLOW_FIELDS = (("sTime", float), ("eTime", float), ("sIP", str.strip),
                ("dIP", str.strip), ("sPort", int), ("dPort", int),
                ("flags", str.strip))


def parse_flows(lines: Iterable[str]) -> list[FlowRecord]:
    """Parse flow CSV lines into records.

    The first non-blank line must be exactly ``sTime,eTime,sIP,dIP,sPort,dPort,flags``.
    Raises FlowFormatError naming the offending line (and field, if one) on
    malformed input.
    """
    if not isinstance(lines, list):  # the row path may read them again
        lines = list(lines)
    try:
        return _flow_columns(lines)
    except (TypeError, ValueError):
        pass
    # outside the except clause, so an error raised here carries no context
    return [_record(FlowRecord, _FLOW_FIELDS, fields, lineno)
            for lineno, fields in csv_rows(lines, FLOW_HEADER)]


# data lines per block of the column reader: one block's field strings are
# alive at a time, so a long input's peak memory stays near its records'
_BLOCK = 2048


def _flow_columns(lines: list[str]) -> list[FlowRecord]:
    """The records of flow CSV lines, read a block of lines at a time as
    columns and built by _flow_records; ValueError or TypeError on anything
    that is off, and parse_flows then names it by the row path.

    A block converts with the converters of _FLOW_FIELDS, so each field
    gives the value the row path gives it.  Addresses and flags are
    interned: records share one str per distinct value.
    """
    start = next((i for i, line in enumerate(lines) if line.strip()), None)
    if start is None or lines[start].rstrip("\r\n") != FLOW_HEADER:
        raise ValueError("no header")
    shared: dict[str, str] = {}
    records = []
    for lo in range(start + 1, len(lines), _BLOCK):
        block = lines[lo:lo + _BLOCK]
        commas = [line.count(",") for line in block]
        if commas.count(6) != len(block):
            if any(c != 6 and line.strip() for line, c in zip(block, commas)):
                raise ValueError("ragged row")
            block = [line for line, c in zip(block, commas) if c == 6]
            if not block:
                continue
        # a row's line ending stays on its flags field, which str.strip drops
        fields = ",".join(block).split(",")
        columns = [list(map(kind, fields[k::7])) for k, (_, kind) in enumerate(_FLOW_FIELDS)]
        for k in (2, 3, 6):  # the addresses and the flags
            columns[k] = list(map(shared.setdefault, columns[k], columns[k]))
        records += _flow_records(*columns)
    return records


def _flow_records(s_time, e_time, s_ip, d_ip, s_port, d_port, flags) -> list[FlowRecord]:
    """The records of columns (lists of one length) of float times, int
    ports and str addresses and flags, checked as a whole: ports by their
    minimum and maximum, times as one float64 array, each distinct address
    and flags string once.

    On such columns the check accepts exactly what _check_record and the
    flags check accept.  When it fails, or a value of another type makes it
    raise TypeError, FlowRecord builds the records instead, so the first
    bad record raises FlowRecord's own error.
    """
    try:
        ports, times = s_port + d_port, np.array((s_time, e_time))
        checked = (0 <= min(ports, default=0) and max(ports, default=0) <= 65535
                   and np.isfinite(times).all() and (times[0] <= times[1]).all()
                   and all(map(_is_ipv4, {*s_ip, *d_ip})) and all(map(_is_flags, {*flags})))
    except TypeError:
        checked = False
    return list(map(_flow_record if checked else FlowRecord,
                    s_time, e_time, s_ip, d_ip, s_port, d_port, flags))


_new = object.__new__
_set = object.__setattr__


def _flow_record(s_time, e_time, s_ip, d_ip, s_port, d_port, flags) -> FlowRecord:
    # a FlowRecord without __post_init__, for values that are checked already
    r = _new(FlowRecord)
    _set(r, "s_time", s_time)
    _set(r, "e_time", e_time)
    _set(r, "s_ip", s_ip)
    _set(r, "d_ip", d_ip)
    _set(r, "s_port", s_port)
    _set(r, "d_port", d_port)
    _set(r, "flags", flags)
    return r


def _session_record(client_ip, server_ip, client_port, server_port, start, end,
                    constituent_count) -> SessionRecord:
    # a SessionRecord without __post_init__, for values of checked records
    r = _new(SessionRecord)
    _set(r, "client_ip", client_ip)
    _set(r, "server_ip", server_ip)
    _set(r, "client_port", client_port)
    _set(r, "server_port", server_port)
    _set(r, "start", start)
    _set(r, "end", end)
    _set(r, "constituent_count", constituent_count)
    return r


def serialize_flows(records: Iterable[FlowRecord]) -> str:
    """Render records in the flow CSV format (inverse of parse_flows)."""
    out = [FLOW_HEADER]
    for r in records:
        out.append(f"{fmt(r.s_time)},{fmt(r.e_time)},{r.s_ip},{r.d_ip},"
                   f"{r.s_port},{r.d_port},{r.flags}")
    return "\n".join(out) + "\n"


_RECORD_FIELDS = ("s_time", "e_time", "s_ip", "d_ip", "s_port", "d_port", "flags")


def find(root, a: int) -> int:
    """Root of a's set; root (a list or dict) maps each element to its parent."""
    while root[a] != a:
        root[a] = a = root[root[a]]
    return a


def union(root, a: int, b: int) -> int | None:
    """Hang the larger root of a and b under the smaller and return it, or
    None when they share a root.  Path halving, as in find (Tarjan & van
    Leeuwen, "Worst-case analysis of set union algorithms", JACM 1984)."""
    # the walks are inline: barcode calls union once per edge, and two find
    # calls per union cost its H0 loop about 30%
    while root[a] != a:
        root[a] = a = root[root[a]]
    while root[b] != b:
        root[b] = b = root[root[b]]
    if a == b:
        return None
    if a > b:
        a, b = b, a
    root[b] = a
    return b


def pair_bidirectional(records: Iterable[FlowRecord]) -> list[SessionRecord]:
    """Merge mirrored, time-overlapping flow records into sessions.

    Two records pair when one's (sIP, sPort, dIP, dPort) equals the other's
    reversed tuple and their [sTime, eTime] intervals overlap; pairing is
    closed transitively, so a request, its response, and a retransmit all
    land in one session.  Unmatched records become singleton sessions.
    Never drops a record: constituent counts sum to the input length.

    The records are put in record order (start time first) by one lexsort
    and grouped by unordered endpoint pair, so within a group an earlier
    record overlaps a later one exactly when it has not ended before the
    later one starts.  A group of two pairs when its records come from
    opposite ends (or both from one, a record whose endpoints are equal
    being its own mirror) and overlap, which is decided for all such groups
    at once.  A larger group is swept in record order with one min-heap of
    end times per direction: a record first pops the opposite direction's
    entries that ended before it starts (they can overlap no later record
    either), then joins every entry left, and is pushed onto its own
    direction's heap.  The work follows the number of overlapping mirrored
    pairs, not the square of the group size.

    A session takes its start, client and server from its first record,
    its end from the first record with the largest end, each the record's
    own value.  When both ends send at the earliest start, the end with
    the only ephemeral port (1024 and up) is the client, else the smaller
    end, by address and then port.
    """
    recs = records if isinstance(records, list) else list(records)
    n = len(recs)
    if not n:
        return []
    # each field as an array of the records' own objects
    s_time, e_time, s_ip, d_ip, s_port, d_port, flags = (
        np.fromiter(map(attrgetter(name), recs), object, n) for name in _RECORD_FIELDS)
    times = _time_keys(s_time, e_time)
    # a record's source at its index i, its destination at n + i
    ips, ports = np.concatenate((s_ip, d_ip)), np.concatenate((s_port, d_port))
    addr, port = _ranks(ips), ports.astype(np.int64)
    order = np.lexsort((_ranks(flags), port[n:], port[:n], addr[n:], addr[:n],
                        times[1], times[0]))
    # from here on a record is named by its position in record order
    s, e = times[:, order]
    endpoint = addr * 65536 + port
    src, dst = endpoint[order], endpoint[n + order]
    root = _first_records(s, e, src, dst)

    roots = np.flatnonzero(root == np.arange(n))
    component = np.searchsorted(roots, root)
    count = np.bincount(component)
    # each session's first record with the largest end: lexsort keeps ties
    # in record order
    latest = np.lexsort((-e, component))[np.cumsum(count) - count]

    swap = np.zeros(len(roots), dtype=bool)  # the client is the first record's destination
    for c in np.unique(component[(s == s[root]) & (src != src[root])]).tolist():
        i = order[roots[c]]
        client, server = (s_ip[i], s_port[i]), (d_ip[i], d_port[i])
        a, b = sorted((client, server))
        swap[c] = (b if a[1] < 1024 <= b[1] else a) == server

    first = order[roots]
    client, server = first + n * swap, first + n * ~swap
    final = np.lexsort((port[server], port[client], addr[server], addr[client], s[roots]))
    client, server = client[final], server[final]
    first, latest = first[final], order[latest[final]]
    return list(map(_session_record, ips[client], ips[server], ports[client], ports[server],
                    s_time[first], e_time[latest], count[final].tolist()))


def _first_records(s: np.ndarray, e: np.ndarray, src: np.ndarray,
                   dst: np.ndarray) -> np.ndarray:
    """For each record, the position of its session's first record.

    The records are in record order, given by their start and end keys
    and their source and destination endpoint ids; two records are in one
    endpoint group when their ids are the same two, in either direction.
    """
    n = len(s)
    low, high = np.minimum(src, dst), np.maximum(src, dst)
    grouped = np.lexsort((high, low))  # each group in record order
    first = np.flatnonzero(np.diff(low[grouped], prepend=-1)
                           | np.diff(high[grouped], prepend=-1))
    size = np.diff(first, append=n)
    root = np.arange(n)
    p, q = grouped[first[size == 2]], grouped[first[size == 2] + 1]
    join = ((src[p] != src[q]) | (src[p] == dst[p])) & (e[p] >= s[q])
    root[q[join]] = p[join]

    members = grouped[np.repeat(size > 2, size)]
    if not members.size:
        return root
    # the heap sweep over the larger groups, whose records are numbered by
    # their place in members, so a group's first record has its smallest number
    s_list, e_list = s[members].tolist(), e[members].tolist()
    src_list, dst_list = src[members].tolist(), dst[members].tolist()
    parent = list(range(len(members)))
    bounds = np.cumsum(size[size > 2]).tolist()
    for lo, hi in zip([0] + bounds, bounds):
        side = src_list[lo]
        loop = side == dst_list[lo]
        heaps = ([], [])  # (end, number) of records sent from side, from the other end
        for j in range(lo, hi):
            own = heaps[src_list[j] != side]
            opposite = own if loop else heaps[src_list[j] == side]
            while opposite and opposite[0][0] < s_list[j]:
                heapq.heappop(opposite)
            for _, i in opposite:
                union(parent, i, j)
            heapq.heappush(own, (e_list[j], j))
    root[members] = members[[find(parent, j) for j in range(len(members))]]
    return root


def _time_keys(s_time: np.ndarray, e_time: np.ndarray) -> np.ndarray:
    """The start and end times as a (2, n) array that orders and equates
    them as the times themselves do: the times as float64 when each is one
    exactly (a float always is), else the ranks of their values."""
    times = np.stack((s_time, e_time))
    try:
        keys = times.astype(np.float64)
        if keys.tolist() == times.tolist():
            return keys
    except (TypeError, ValueError, OverflowError):
        pass
    return _ranks(times.ravel()).reshape(2, -1)


def _ranks(values: np.ndarray) -> np.ndarray:
    """Each value's rank among the distinct values, sorted."""
    distinct = sorted(set(values))
    rank = dict(zip(distinct, range(len(distinct))))
    return np.fromiter(map(rank.__getitem__, values), np.int64, len(values))


def window(sessions: Iterable[SessionRecord], width: float,
           origin: float = 0.0) -> list[TimeWindow]:
    """Partition sessions into fixed-width half-open windows by start time.

    A session starting at t goes into window floor((t - origin) / width).
    Empty windows between the first and last occupied one are emitted
    explicitly so the downstream detector sees an unbroken timeline.
    """
    _check_width(width)
    if not math.isfinite(origin):
        raise ValueError(f"window origin must be finite, got {origin}")
    by_index: dict[int, list[SessionRecord]] = {}
    for s in sessions:
        by_index.setdefault(math.floor((s.start - origin) / width), []).append(s)
    return _timeline(by_index, origin, width) if by_index else []


def _timeline(by_index: dict[int, list[SessionRecord]], origin: float,
              width: float) -> list[TimeWindow]:
    """A window at origin + i * width for every i from the smallest key of
    by_index to the largest, holding by_index.get(i) in session order.
    Raises ValueError, before building any, if that is more than MAX_WINDOWS."""
    lo, hi = min(by_index), max(by_index)
    if hi - lo + 1 > MAX_WINDOWS:
        raise ValueError(f"the timeline spans {hi - lo + 1} windows of {width} seconds, "
                         f"more than the limit of {MAX_WINDOWS}")
    return [TimeWindow(start=origin + i * width, width=width,
                       sessions=tuple(sorted(by_index.get(i, ()), key=_session_order)))
            for i in range(lo, hi + 1)]


def serialize_windowed_sessions(windows: Iterable[TimeWindow]) -> str:
    """Render windowed sessions as CSV with a leading window_start column."""
    out = [SESSION_HEADER]
    for w in windows:
        for s in w.sessions:
            out.append(f"{fmt(w.start)},{s.client_ip},{s.server_ip},"
                       f"{s.client_port},{s.server_port},{fmt(s.start)},"
                       f"{fmt(s.end)},{s.constituent_count}")
    return "\n".join(out) + "\n"


_SESSION_FIELDS = (("window_start", float), ("client_ip", str.strip),
                   ("server_ip", str.strip), ("client_port", int), ("server_port", int),
                   ("start", float), ("end", float), ("constituent_count", int))


def _windowed_session(window_start: float, *fields) -> tuple[float, SessionRecord]:
    if not math.isfinite(window_start):
        raise FlowFormatError(f"window_start '{window_start}' is not finite",
                              field="window_start")
    return window_start, SessionRecord(*fields)


def parse_windowed_sessions(lines: Iterable[str], width: float) -> list[TimeWindow]:
    """Rebuild TimeWindows from the windowed-session CSV.

    Empty windows carry no rows, so the gap-filled timeline is reconstructed
    from the window_start values and the given width.
    """
    _check_width(width)
    rows: dict[float, list[SessionRecord]] = {}
    first_line: dict[float, int] = {}
    for lineno, fields in csv_rows(lines, SESSION_HEADER):
        ws, session = _record(_windowed_session, _SESSION_FIELDS, fields, lineno)
        rows.setdefault(ws, []).append(session)
        first_line.setdefault(ws, lineno)
    if not rows:
        return []
    first = min(rows)
    by_index: dict[int, list[SessionRecord]] = {}
    for ws, sessions in rows.items():
        idx = round((ws - first) / width)
        if abs(first + idx * width - ws) > width * 1e-9:
            raise FlowFormatError(
                f"line {first_line[ws]}: window_start {ws} is not on the "
                f"{width}-second grid from {first}", first_line[ws], "window_start")
        by_index.setdefault(idx, []).extend(sessions)
    return _timeline(by_index, first, width)
