"""Independent oracles: plain, slow implementations that the library's
faster paths must agree with, record for record and error for error.

They share no code path with what they check beyond the record,
feature-vector, order and complex classes they build, the memoized address
test and the window timeline.  edge_level_oracle is the one exception: it is
the edge-level path build_ecp -> order_complex -> betti, which the twin rule
replaces and which the other topology oracles check in turn.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

from flowtopo.detector import FeatureVector
from flowtopo.flows import (
    FLOW_HEADER,
    SESSION_HEADER,
    FlowFormatError,
    FlowRecord,
    SessionRecord,
    _check_width,
    _is_ipv4,
    _timeline,
)
from flowtopo.topology import Ecp, SimplicialComplex, betti, build_ecp, order_complex

# ------------------------------------------------------------------ parsing
# The row conversion and record check that the one-try conversion and the
# one-test record check replaced, kept verbatim: parsing must return the
# same records and raise the same errors (message, line and field).

def oracle_check_record(names: tuple[str, ...], values: tuple) -> None:
    """Check one record's (address, address, port, port, start, end) values,
    named as its format names them: IPv4, 0-65535, finite with end >= start."""
    for field, port in zip(names[2:4], values[2:4]):
        if not 0 <= port <= 65535:
            raise FlowFormatError(f"{field} {port} out of range 0-65535", field=field)
    for field, ip in zip(names[:2], values[:2]):
        if not _is_ipv4(ip):
            raise FlowFormatError(f"{field} {ip!r} is not a dotted-quad IPv4 address",
                                  field=field)
    for field, t in zip(names[4:], values[4:]):
        if not math.isfinite(t):
            raise FlowFormatError(f"{field} {t} is not finite", field=field)
    if values[5] < values[4]:
        raise FlowFormatError(f"{names[5]} {values[5]} precedes {names[4]} {values[4]}",
                              field=names[5])


def oracle_record(cls, table, fields: list[str], lineno: int):
    """Convert fields by the (name, type) table and build cls from them."""
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


_FLOW_FIELDS = (("sTime", float), ("eTime", float), ("sIP", str), ("dIP", str),
                ("sPort", int), ("dPort", int), ("flags", str))
_SESSION_FIELDS = (("window_start", float), ("client_ip", str), ("server_ip", str),
                   ("client_port", int), ("server_port", int), ("start", float),
                   ("end", float), ("constituent_count", int))
FLOW_NAMES = ("sIP", "dIP", "sPort", "dPort", "sTime", "eTime")
SESSION_NAMES = ("client_ip", "server_ip", "client_port", "server_port", "start", "end")


def oracle_flow_record(s_time, e_time, s_ip, d_ip, s_port, d_port, flags):
    oracle_check_record(FLOW_NAMES, (s_ip, d_ip, s_port, d_port, s_time, e_time))
    return FlowRecord(s_time, e_time, s_ip, d_ip, s_port, d_port, flags)


def oracle_windowed_session(window_start, client_ip, server_ip, client_port,
                            server_port, start, end, constituent_count):
    if not math.isfinite(window_start):
        raise FlowFormatError(f"window_start '{window_start}' is not finite",
                              field="window_start")
    oracle_check_record(SESSION_NAMES, (client_ip, server_ip, client_port,
                                        server_port, start, end))
    if constituent_count < 1:
        raise FlowFormatError("constituent_count must be >= 1", field="constituent_count")
    return window_start, SessionRecord(client_ip, server_ip, client_port, server_port,
                                       start, end, constituent_count)


def oracle_parse_flows(lines):
    return [oracle_record(oracle_flow_record, _FLOW_FIELDS, fields, lineno)
            for lineno, fields in oracle_csv_rows(lines, FLOW_HEADER)]


def oracle_parse_windowed_sessions(lines, width):
    _check_width(width)
    rows = {}
    first_line = {}
    for lineno, fields in oracle_csv_rows(lines, SESSION_HEADER):
        ws, session = oracle_record(oracle_windowed_session, _SESSION_FIELDS, fields,
                                    lineno)
        rows.setdefault(ws, []).append(session)
        first_line.setdefault(ws, lineno)
    if not rows:
        return []
    first = min(rows)
    by_index = {}
    for ws, sessions in rows.items():
        idx = round((ws - first) / width)
        if abs(first + idx * width - ws) > width * 1e-9:
            raise FlowFormatError(
                f"line {first_line[ws]}: window_start {ws} is not on the "
                f"{width}-second grid from {first}", first_line[ws], "window_start")
        by_index.setdefault(idx, []).extend(sessions)
    return _timeline(by_index, first, width)


def oracle_csv_rows(lines: Iterable[str], header: str | None = None
                    ) -> Iterator[tuple[int, list[str]]]:
    # the row reader every CSV input once went through, kept verbatim
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


def _oracle_feature_vector(window_start, *values):
    try:
        return FeatureVector(window_start, values)
    except ValueError as exc:
        raise FlowFormatError(str(exc)) from None


def oracle_parse_feature_csv(lines):
    """A feature CSV's column names and vectors, row by row: a header whose
    first field is window_start, then rows of floats named by it."""
    rows = oracle_csv_rows(lines)
    _, header = next(rows, (None, None))
    if header is None or header[0] != "window_start":
        raise ValueError("feature CSV must start with a window_start column")
    table = [(name, float) for name in header]
    return tuple(header[1:]), [oracle_record(_oracle_feature_vector, table, fields, lineno)
                               for lineno, fields in rows]


def oracle_parse_points(lines):
    """A point-cloud CSV's points, row by row: rows of floats named by their
    column numbers, without a header."""
    return [oracle_record(lambda *values: values,
                          [(str(k), float) for k in range(1, len(fields) + 1)], fields, lineno)
            for lineno, fields in oracle_csv_rows(lines)]


# ------------------------------------------------------------------ pairing

def _reverse_match(a, b):
    return (a.s_ip, a.s_port, a.d_ip, a.d_port) == (b.d_ip, b.d_port, b.s_ip, b.s_port)


def _overlaps(a, b):
    # intervals [s, e] overlap if max(starts) <= min(ends)
    return max(a.s_time, b.s_time) <= min(a.e_time, b.e_time)


def oracle_component_session(members: list[FlowRecord]) -> SessionRecord:
    # the session rule before it relied on members arriving in record order,
    # kept verbatim so the oracle does not check the code with itself
    t0 = min(r.s_time for r in members)
    earliest_sources = {(r.s_ip, r.s_port) for r in members if r.s_time == t0}
    if len(earliest_sources) == 1:
        client = earliest_sources.pop()
    else:
        # both directions start simultaneously: ephemeral-port side is the
        # client, and as a last resort the lexicographically smaller IP
        a, b = sorted(earliest_sources)
        if (a[1] >= 1024) != (b[1] >= 1024):
            client = a if a[1] >= 1024 else b
        elif a[0] != b[0]:
            client = a if a[0] < b[0] else b
        else:
            client = a
    probe = members[0]
    if (probe.s_ip, probe.s_port) == client:
        server = (probe.d_ip, probe.d_port)
    else:
        server = (probe.s_ip, probe.s_port)
    return SessionRecord(
        client_ip=client[0], server_ip=server[0],
        client_port=client[1], server_port=server[1],
        start=t0, end=max(r.e_time for r in members),
        constituent_count=len(members))


def oracle_pair_bidirectional(records):
    """Quadratic pairing: test every record pair inside an endpoint group."""
    recs = sorted(records, key=lambda r: (r.s_time, r.e_time, r.s_ip, r.d_ip,
                                          r.s_port, r.d_port, r.flags))
    n = len(recs)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    groups = {}
    for i, r in enumerate(recs):
        key = tuple(sorted([(r.s_ip, r.s_port), (r.d_ip, r.d_port)]))
        groups.setdefault(key, []).append(i)
    for idxs in groups.values():
        for a in range(len(idxs)):
            for b in range(a + 1, len(idxs)):
                i, j = idxs[a], idxs[b]
                if _reverse_match(recs[i], recs[j]) and _overlaps(recs[i], recs[j]):
                    union(i, j)

    components = {}
    for i in range(n):
        components.setdefault(find(i), []).append(recs[i])
    sessions = [oracle_component_session(members) for members in components.values()]
    sessions.sort(key=lambda s: (s.start, s.client_ip, s.server_ip,
                                 s.client_port, s.server_port))
    return sessions


def oracle_components(records):
    # connected components of the pairwise compatibility graph, computed by
    # explicit closure over all record pairs
    n = len(records)
    adj = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            ri, rj = records[i], records[j]
            mirrored = (ri.s_ip, ri.s_port, ri.d_ip, ri.d_port) == \
                       (rj.d_ip, rj.d_port, rj.s_ip, rj.s_port)
            overlap = max(ri.s_time, rj.s_time) <= min(ri.e_time, rj.e_time)
            if i != j and mirrored and overlap:
                adj[i][j] = True
    seen, comps = set(), []
    for i in range(n):
        if i in seen:
            continue
        stack, comp = [i], set()
        while stack:
            u = stack.pop()
            if u in comp:
                continue
            comp.add(u)
            stack.extend(v for v in range(n) if adj[u][v])
        seen |= comp
        comps.append(comp)
    return sorted(len(c) for c in comps)


# ------------------------------------------------------------------ topology

def oracle_build_ecp(h):
    """All-pairs containment arcs: every ordered pair of distinct edges."""
    labels = sorted(h.edges)
    arcs = set()
    for e in labels:
        for f in labels:
            if e != f and h.edges[e] < h.edges[f]:
                arcs.add((e, f))
    return Ecp(supports=dict(h.edges), arcs=frozenset(arcs))


def edge_level_oracle(h):
    """(max in-degree, max out-degree), (beta0, beta1) from the order on h's
    edges themselves: the path the twin rule replaces."""
    ecp = build_ecp(h)
    degrees = (max(ecp.in_degrees().values(), default=0),
               max(ecp.out_degrees().values(), default=0))
    return degrees, betti(order_complex(ecp, max_dim=2), 1)


def oracle_order_complex(ecp, max_dim=None):
    """Order complex from the memoized transitive closure of the arcs, with
    chains grown on a stack; assumes nothing about the arcs being closed."""
    nodes = ecp.nodes()
    index = {lab: i for i, lab in enumerate(nodes)}
    direct = {n: set() for n in nodes}
    for e, f in ecp.arcs:
        direct[e].add(f)
    reach = {}

    def successors(n):
        if n not in reach:
            acc = set(direct[n])
            for m in direct[n]:
                acc |= successors(m)
            reach[n] = acc
        return reach[n]

    max_len = None if max_dim is None else max_dim + 1
    by_dim = {}
    stack = [(lab,) for lab in nodes]
    while stack:
        chain = stack.pop()
        k = len(chain) - 1
        by_dim.setdefault(k, []).append(tuple(sorted(index[l] for l in chain)))
        if max_len is None or len(chain) < max_len:
            for nxt in successors(chain[-1]):
                stack.append(chain + (nxt,))
    return SimplicialComplex({k: tuple(sorted(v)) for k, v in sorted(by_dim.items())},
                             labels=tuple(nodes))


def transitive_closure(arcs, nodes):
    reach = {n: {f for (e, f) in arcs if e == n} for n in nodes}
    changed = True
    while changed:
        changed = False
        for n in nodes:
            grown = set(reach[n])
            for m in reach[n]:
                grown |= reach[m]
            if grown != reach[n]:
                reach[n] = grown
                changed = True
    return {(n, m) for n in nodes for m in reach[n]}


def naive_gf2_rank(mat):
    """Textbook row reduction over GF(2) on a dense 0/1 list-of-rows."""
    m = [row[:] for row in mat]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    rank = 0
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(n_rows):
            if i != r and m[i][c]:
                m[i] = [x ^ y for x, y in zip(m[i], m[r])]
        r += 1
        rank += 1
    return rank


def dense_boundary_gf2(K, k):
    sk = K.simplices.get(k, ())
    faces = K.simplices.get(k - 1, ())
    if k <= 0 or not sk or not faces:
        return None
    fi = {f: i for i, f in enumerate(faces)}
    mat = [[0] * len(sk) for _ in faces]
    for j, s in enumerate(sk):
        for drop in range(len(s)):
            mat[fi[s[:drop] + s[drop + 1:]]][j] = 1
    return mat


def oracle_betti(K, max_dim):
    def rk(k):
        mat = dense_boundary_gf2(K, k)
        return naive_gf2_rank(mat) if mat is not None else 0

    return tuple(K.count(k) - rk(k) - rk(k + 1) for k in range(max_dim + 1))
