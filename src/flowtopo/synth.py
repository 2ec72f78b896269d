"""Seeded synthetic netflow generation: background traffic plus injected port scans.

Clients contact a small palette of common server ports with Poisson counts per
window; every flow is emitted as a forward/reverse record pair so the ingest
pairing sees realistic bidirectional traffic.  A scan adds one unanswered flow
per port in its range inside the chosen window.

Both draw their records into columns and build them with flows._flow_records,
the one maker of flow records from columns, which checks each column as a
whole and names the first bad record as FlowRecord does.  TrafficProfile and
ScanSpec check their own fields, and name the one that is bad.

Two invariants keep every generated day byte-identical to the plain
construction (tests/test_synth.py holds both against oracles):

- generate_normal draws each uniform as lo + (hi - lo) * rng.random(),
  which is numpy's scalar rng.uniform(lo, hi): the same double of the
  seeded stream, scaled and shifted by the same two operations.
- inject_scan splices the scan into an already sorted day: only the records
  whose start times fall in the scan's span are sorted with the scan's, and
  the result is the list that the stable sort of records + scan gives.
  Records not in _sort_records order take that full sort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .detector import DEFAULTS
from .flows import FlowRecord, _flow_records, _is_int_in, _is_real


@dataclass(frozen=True)
class TrafficProfile:
    n_clients: int = 12
    n_servers: int = 3
    common_ports: tuple[int, ...] = (22, 53, 80, 443)
    mean_flows: float = 3.0  # per client per window, Poisson
    duration: float = 18000.0
    window_width: float = DEFAULTS["window_width"]
    seed: int = 7

    def __post_init__(self):
        # client_ip and server_ip number hosts 1-65535 in the last two octets
        for name in ("n_clients", "n_servers"):
            value = getattr(self, name)
            if not _is_int_in(value, 1, 65535):
                raise ValueError(f"{name} must be an integer in 1-65535, got {value!r}")
        if not (isinstance(self.common_ports, (tuple, list)) and self.common_ports):
            raise ValueError("common_ports must be a nonempty tuple or list, "
                             f"got {self.common_ports!r}")
        for port in self.common_ports:
            if not _is_int_in(port, 0, 65535):
                raise ValueError(f"common_ports entry {port!r} is not an integer in 0-65535")
        if not (_is_real(self.mean_flows) and 0 <= self.mean_flows < math.inf):
            raise ValueError(f"mean_flows must be finite and >= 0, got {self.mean_flows!r}")
        for name in ("duration", "window_width"):
            value = getattr(self, name)
            if not (_is_real(value) and 0 < value < math.inf):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if not _is_int_in(self.seed, 0):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")

    @property
    def n_windows(self) -> int:
        return int(self.duration // self.window_width)

    def client_ip(self, i: int) -> str:
        return f"10.0.{(i + 1) // 256}.{(i + 1) % 256}"

    def server_ip(self, i: int) -> str:
        return f"10.1.{(i + 1) // 256}.{(i + 1) % 256}"


@dataclass(frozen=True)
class ScanSpec:
    scanner_ip: str = "10.9.9.9"
    target_ip: str = "10.1.0.1"
    port_range: tuple[int, int] = (1, 100)
    window_index: int = 0

    def __post_init__(self):
        if not _is_int_in(self.window_index):
            raise ValueError(f"window_index must be an integer, got {self.window_index!r}")
        if not (isinstance(self.port_range, (tuple, list)) and len(self.port_range) == 2):
            raise ValueError(f"port_range must be a (lo, hi) pair, got {self.port_range!r}")
        lo, hi = self.port_range
        if not (_is_int_in(lo) and _is_int_in(hi)):
            raise ValueError(f"port_range {lo!r}:{hi!r} must be integers")
        if not 0 <= lo <= hi <= 65535:
            raise ValueError(f"port_range {lo}:{hi} must have 0 <= lo <= hi <= 65535")

    @property
    def n_ports(self) -> int:
        return self.port_range[1] - self.port_range[0] + 1


_record_key = attrgetter("s_time", "s_ip", "d_ip", "s_port", "d_port", "flags")
_s_time = attrgetter("s_time")


def _sort_records(records):
    return sorted(records, key=_record_key)


def _sorted_start_times(records):
    """The start times of records as one float64 array when records are in
    _sort_records order, else None.

    Rounding to float64 is monotone, so a falling pair of rounded times is
    a falling pair of times, and a rising one a rising one; only at equal
    rounded times are the whole keys compared.
    """
    times = np.fromiter(map(_s_time, records), float, len(records))
    steps = np.diff(times)
    # false for a NaN step too
    if not (steps >= 0).all():
        return None
    for i in np.flatnonzero(steps == 0).tolist():
        if _record_key(records[i + 1]) < _record_key(records[i]):
            return None
    return times


def generate_normal(profile: TrafficProfile) -> list[FlowRecord]:
    """Deterministic background traffic for every window of the profile."""
    rng = np.random.default_rng(profile.seed)
    poisson, integers, random = rng.poisson, rng.integers, rng.random
    width = profile.window_width
    span = width * 0.95
    ports = [int(port) for port in profile.common_ports]
    clients = [profile.client_ip(i) for i in range(profile.n_clients)]
    servers = [profile.server_ip(i) for i in range(profile.n_servers)]
    starts, durs, client_col, server_col, port_col, sport_col = [], [], [], [], [], []
    for w in range(profile.n_windows):
        origin = w * width
        for client in clients:
            for _ in range(int(poisson(profile.mean_flows))):
                # one scalar draw at a time, in this order: the seeded
                # stream, and so every generated day, depends on it.  The
                # scaled random() is uniform(0.0, span) and uniform(0.05,
                # 3.0) at a third of the call's cost
                server_col.append(servers[integers(len(servers))])
                port_col.append(ports[integers(len(ports))])
                starts.append(origin + span * random())
                durs.append(0.05 + (3.0 - 0.05) * random())
                sport_col.append(int(integers(1024, 65536)))
                client_col.append(client)
    n = len(starts)
    ends = [t + dur for t, dur in zip(starts, durs)]
    # server reply starts inside the request interval so the two records
    # pair into one session
    reply_starts = [t + dur * 0.1 for t, dur in zip(starts, durs)]
    # the requests, then their replies: a request never ties with a reply
    # (their flags differ) and each kind keeps its order, so the stable sort
    # gives the list that interleaved pairs give
    return _sort_records(_flow_records(
        starts + reply_starts, ends + ends, client_col + server_col, server_col + client_col,
        sport_col + port_col, port_col + sport_col, ["FSPA"] * n + ["FSA"] * n))


def inject_scan(records, scan: ScanSpec, profile: TrafficProfile) -> list[FlowRecord]:
    """Merge one short unanswered flow per scanned port into the chosen window.

    Adds exactly (hi - lo + 1) records, touches nothing existing, and returns
    a new list: the stable sort of records + scan, so an existing record
    comes before a probe with an equal key.  Sorted records keep their
    order outside the scan's span and only the span is sorted.
    """
    if not 0 <= scan.window_index < profile.n_windows:
        raise ValueError(
            f"scan window {scan.window_index} outside 0..{profile.n_windows - 1}")
    width = profile.window_width
    start = scan.window_index * width
    lo, hi = scan.port_range
    n = scan.n_ports
    starts = [start + (j + 1) * width / (n + 1) for j in range(n)]
    added = _flow_records(starts, [t + 0.01 for t in starts], [scan.scanner_ip] * n,
                          [scan.target_ip] * n, [54321] * n, list(range(lo, hi + 1)), ["S"] * n)
    records = list(records)
    times = _sorted_start_times(records) if added else None
    if times is None:
        return _sort_records(records + added)
    # the scan's starts rise with j; records before `left` start strictly
    # before the first probe and records from `right` on strictly after
    # the last, so neither can tie with a probe
    left = int(np.searchsorted(times, float(starts[0]), "left"))
    right = int(np.searchsorted(times, float(starts[-1]), "right"))
    return records[:left] + _sort_records(records[left:right] + added) + records[right:]
