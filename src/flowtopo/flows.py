"""Netflow CSV ingest: record parsing, bidirectional session pairing, time windows.

Input logs are unidirectional flow records.  A client request and the server's
response show up as two separate records with mirrored endpoints; downstream
analysis wants one session per communication, so overlapping mirrored records
are merged and the originating side is designated the client.

read_csv reads every CSV input a block of lines at a time as columns, and
reads a block again, row by row, only when it fails, to name its first bad
row.  The record rules are written once, in _check_record and the record
classes.
"""

from __future__ import annotations

import functools
import heapq
import ipaddress
import math
import numbers
from dataclasses import dataclass
from itertools import chain, filterfalse, groupby, islice
from operator import attrgetter, itemgetter, le
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
    # memoized: a day's records repeat a few hundred addresses, and parsing
    # one is the dearest part of a record check; so hashable arguments only.
    # Only a str is an address: IPv4Address also takes an int or 4 packed
    # bytes, which serialize as something no reader takes back
    if type(text) is not str:
        return False
    try:
        ipaddress.IPv4Address(text)
    except ipaddress.AddressValueError:
        return False
    return True


@functools.lru_cache(maxsize=256)
def _is_flags(text: str) -> bool:
    # memoized like _is_ipv4.  A CSV field survives a write and a read
    # without a comma, a line break (for str.splitlines) or padding
    return (type(text) is str and "," not in text and text == text.strip()
            and len(text.splitlines()) < 2)


def _is_real(value) -> bool:
    """Whether value is a real number but not a bool; nan and +-inf are."""
    # an exact float or int first: testing against the abstract classes is slow
    return type(value) in (float, int) or (isinstance(value, numbers.Real)
                                           and not isinstance(value, bool))


def _is_int_in(value, lo: float = -math.inf, hi: float = math.inf) -> bool:
    """Whether value is an integer, not a bool, in [lo, hi]: a port, a count
    or a seed as every record and settings class checks it."""
    return (type(value) is int or isinstance(value, numbers.Integral) and _is_real(value)
            ) and lo <= value <= hi


def _check_record(names: tuple[str, ...], values: tuple) -> None:
    """Raise FlowFormatError for the first bad one of a record's (address,
    address, port, port, start, end), named as in its format: integer ports
    0-65535, dotted-quad IPv4 str addresses, real times finite as floats
    with end >= start, no bools.  Each type is checked before comparing."""
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
        try:
            finite = math.isfinite(t)
        except OverflowError:  # an int too large for a float
            raise FlowFormatError(f"{field} is an integer too large for a float",
                                  field=field) from None
        if not finite:
            raise FlowFormatError(f"{field} {t} is not finite", field=field)
    if values[5] < values[4]:
        raise FlowFormatError(f"{names[5]} {values[5]} precedes {names[4]} {values[4]}",
                              field=names[5])


def _endpoints_fit(ip_a, ip_b, port_a, port_b, start, end) -> bool:
    """Whether every row of these columns passes _check_record, told from
    whole columns: int ports by their extremes, each distinct address once,
    float times pairwise ordered and bounded by their extremes.  A value of
    another type makes it false or raise TypeError."""
    ports, times = port_a + port_b, start + end
    return ({*map(type, ports)} <= {int} and {*map(type, times)} <= {float}
            and 0 <= min(ports, default=0) and max(ports, default=0) <= 65535
            and all(map(_is_ipv4, {*ip_a, *ip_b})) and all(map(le, start, end))
            and -math.inf < min(start, default=0.0) and max(end, default=0.0) < math.inf)


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
        if not _is_int_in(self.constituent_count):
            raise FlowFormatError(f"constituent_count {self.constituent_count!r} is not "
                                  "an integer", field="constituent_count")
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


# lines per block of read_csv: one block's field strings are alive at a
# time, so a long input's peak memory stays near its records'
_BLOCK = 2048


def read_csv(lines: Iterable[str], header, table, make
             ) -> tuple[list[str] | None, list, Iterator[int]]:
    """The header's fields, the records and their line numbers of CSV lines.

    header is the line the input starts with, a function of the first
    line's fields (None for none) that raises ValueError unless they are a
    header, or None: no header.  table is each field's (name, converter),
    or one converter for all, naming fields by the header or by number.
    Blank lines are skipped, and rows have as many fields as the first.

    A block of _BLOCK lines is split once and converted by columns, text
    (str.strip) columns interned, and make(*columns) returns its records.
    If that raises ValueError or TypeError, the block is read row by row:
    fields convert stripped (float and int refuse U+001C-U+001F), make gets
    one-row columns, and the first bad row raises FlowFormatError.
    """
    lines = iter(lines)
    lineno, first = next(((n, line) for n, line in enumerate(lines, 1) if line.strip()),
                         (1, ""))
    fields = first.rstrip("\r\n").split(",") if first else None
    if isinstance(header, str):
        if first.rstrip("\r\n") != header:
            raise FlowFormatError(f"line {lineno}: bad header {first.rstrip()!r}, expected "
                                  f"{header!r}" if first else "empty input: missing header line",
                                  lineno)
    elif header:
        header(fields)
    if not first:
        return None, [], iter(())
    if header is None:
        lines, lineno, fields = chain([first], lines), lineno - 1, None
    if not isinstance(table, tuple):
        table = tuple((name, table) for name in fields or map(str, range(1, first.count(",") + 2)))
    width, interned = len(table), _Interned()
    converters = [interned.__getitem__ if kind is str.strip else kind for _, kind in table]
    records, numbers = [], []
    while block := list(islice(lines, _BLOCK)):
        start, lineno = lineno + 1, lineno + len(block)
        try:
            rows, numbered = block, range(start, lineno + 1)
            if [line.count(",") for line in block].count(width - 1) != len(block):
                # blank lines, which are left out, or a ragged row
                numbered = [n for n, line in zip(numbered, block) if line.strip()]
                rows = [block[n - start] for n in numbered]
                if not rows or any(line.count(",") != width - 1 for line in rows):
                    raise ValueError("no rows, or a ragged one")
            # a row's line ending stays on its last field, which every converter strips
            values = ",".join(rows).split(",")
            columns = [list(map(kind, values[k::width])) for k, kind in enumerate(converters)]
            records += make(*columns)
            numbers.append(numbered)
            continue
        except (TypeError, ValueError):
            pass
        numbered = []
        for n, line in enumerate(block, start):
            if not line.strip():
                continue
            row = line.rstrip("\r\n").split(",")
            if len(row) != width:
                raise FlowFormatError(f"line {n}: expected {width} comma-separated fields, "
                                      f"got {len(row)}", n)
            values = []
            for (name, kind), raw in zip(table, row):
                try:
                    values.append([kind(raw.strip())])
                except ValueError:
                    raise FlowFormatError(f"line {n}: field {name} has unparseable value "
                                          f"{raw.strip()!r}", n, name) from None
            try:
                records += make(*values)
            except ValueError as exc:
                raise FlowFormatError(f"line {n}: {exc}", n, getattr(exc, "field", None)) from None
            numbered.append(n)
        numbers.append(numbered)
    return fields, records, chain.from_iterable(numbers)


class _Interned(dict):
    """A text field's stripped value by the field, one str per value."""

    def __missing__(self, raw: str) -> str:
        text = raw.strip()
        self[raw] = text = self.setdefault(text, text)
        return text


# float and int skip the padding that str.strip removes, U+001C-U+001F aside
_FLOW_FIELDS = (("sTime", float), ("eTime", float), ("sIP", str.strip),
                ("dIP", str.strip), ("sPort", int), ("dPort", int),
                ("flags", str.strip))


def parse_flows(lines: Iterable[str]) -> list[FlowRecord]:
    """Parse flow CSV lines, under the FLOW_HEADER line, into records;
    FlowFormatError names the first bad line (and field, if one)."""
    return read_csv(lines, FLOW_HEADER, _FLOW_FIELDS, _flow_records)[1]


def _flow_records(*columns) -> list[FlowRecord]:
    """The records of columns (lists in field order), tested as a whole;
    failing that, FlowRecord checks each, and the first bad one raises."""
    s_time, e_time, s_ip, d_ip, s_port, d_port, flags = columns
    try:
        fit = (_endpoints_fit(s_ip, d_ip, s_port, d_port, s_time, e_time)
               and all(map(_is_flags, {*flags})))
    except TypeError:  # an unhashable value, or one of another type
        fit = False
    return list(map(_flow_record if fit else FlowRecord, *columns))


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
    # a SessionRecord without __post_init__, for values that are checked already
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
    return "\n".join([FLOW_HEADER, *(f"{fmt(r.s_time)},{fmt(r.e_time)},{r.s_ip},{r.d_ip},"
                                      f"{r.s_port},{r.d_port},{r.flags}" for r in records)]) + "\n"


def find(root, a: int) -> int:
    """Root of a's set; root (a list or dict) maps each element to its parent."""
    while root[a] != a:
        root[a] = a = root[root[a]]
    return a


def union(root, a: int, b: int) -> int | None:
    """Hang the larger root of a and b under the smaller and return it, or
    None when they share a root.  Path halving, as in find (Tarjan & van
    Leeuwen, JACM 1984), inline: two find calls cost barcode's H0 loop 30%."""
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
    reversed tuple and their [sTime, eTime] intervals overlap, transitively;
    an unmatched record is a session of its own, so constituent counts sum
    to the input length.  A session takes its start,
    client and server from its first record in record order (start first),
    its end from the first with the largest end, each the record's own
    value.  When both ends send at the earliest start, the end with the only
    ephemeral port (1024 and up) is the client, else the smaller endpoint.
    """
    recs = records if isinstance(records, list) else list(records)
    n = len(recs)
    if not n:
        return []
    # each field as an array of the records' own objects
    s_time, e_time, s_ip, d_ip, s_port, d_port, flags = (
        np.fromiter(map(attrgetter(name), recs), object, n)
        for name in FlowRecord.__match_args__)
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
    """For each record, in record order with start and end keys and source
    and destination endpoint ids, the position of its session's first record.

    In a group of one unordered endpoint pair an earlier record overlaps a
    later one when it has not ended before the later one starts.  Groups of
    two are decided at once: they pair from opposite ends (or a record that
    is its own mirror) when they overlap.  A larger group is swept with one
    min-heap of ends per direction: a record pops the opposite direction's
    entries that ended before it starts (they overlap no later record
    either), joins those left and is pushed, so the work follows the number
    of overlapping mirrored pairs, not the square of the group size.
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
    keys = times.astype(np.float64)  # a record's times are finite as floats
    if keys.tolist() == times.tolist():
        return keys
    return _ranks(times.ravel()).reshape(2, -1)


def _ranks(values: np.ndarray) -> np.ndarray:
    """Each value's rank among the distinct values, sorted."""
    distinct = sorted(set(values))
    rank = dict(zip(distinct, range(len(distinct))))
    return np.fromiter(map(rank.__getitem__, values), np.int64, len(values))


def window(sessions: Iterable[SessionRecord], width: float,
           origin: float = 0.0) -> list[TimeWindow]:
    """Partition sessions into fixed-width half-open windows by start time:
    a session starting at t goes into window floor((t - origin) / width),
    and the empty windows between occupied ones are emitted too, so the
    detector sees an unbroken timeline."""
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
    return "\n".join([SESSION_HEADER, *(
        f"{fmt(w.start)},{s.client_ip},{s.server_ip},{s.client_port},{s.server_port},"
        f"{fmt(s.start)},{fmt(s.end)},{s.constituent_count}"
        for w in windows for s in w.sessions)]) + "\n"


_SESSION_FIELDS = (("window_start", float), ("client_ip", str.strip),
                   ("server_ip", str.strip), ("client_port", int), ("server_port", int),
                   ("start", float), ("end", float), ("constituent_count", int))


def _session_pairs(window_start, *columns) -> list[tuple[float, SessionRecord]]:
    """The (window start, session) pairs of session CSV columns, the
    sessions made from columns as _flow_records makes flows."""
    for ws in filterfalse(math.isfinite, window_start):
        raise FlowFormatError(f"window_start '{ws}' is not finite", field="window_start")
    try:
        fit = (_endpoints_fit(*columns[:6]) and {*map(type, columns[6])} <= {int}
               and min(columns[6], default=1) >= 1)
    except TypeError:  # an unhashable value, or one of another type
        fit = False
    return list(zip(window_start, map(_session_record if fit else SessionRecord, *columns)))


def parse_windowed_sessions(lines: Iterable[str], width: float) -> list[TimeWindow]:
    """Rebuild TimeWindows from the windowed-session CSV; the empty windows,
    which have no rows, come from the window starts and the width."""
    _check_width(width)
    _, records, numbers = read_csv(lines, SESSION_HEADER, _SESSION_FIELDS, _session_pairs)
    rows: dict[float, list[SessionRecord]] = {}
    for ws, pairs in groupby(records, itemgetter(0)):
        rows.setdefault(ws, []).extend(map(itemgetter(1), pairs))
    if not rows:
        return []
    first = min(rows)
    by_index: dict[int, list[SessionRecord]] = {}
    for ws, sessions in rows.items():
        idx = round((ws - first) / width)
        if abs(first + idx * width - ws) > width * 1e-9:
            lineno = next(n for n, (w, _) in zip(numbers, records) if w == ws)
            raise FlowFormatError(f"line {lineno}: window_start {ws} is not on the "
                                  f"{width}-second grid from {first}", lineno, "window_start")
        by_index.setdefault(idx, []).extend(sessions)
    return _timeline(by_index, first, width)
