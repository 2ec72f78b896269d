"""Seeded synthetic netflow generation: background traffic plus injected port scans.

Clients contact a small palette of common server ports with Poisson counts per
window; every flow is emitted as a forward/reverse record pair so the ingest
pairing sees realistic bidirectional traffic.  A scan adds one unanswered flow
per port in its range inside the chosen window.

Background records are drawn into columns and built from them without the
per-record FlowRecord check: TrafficProfile checks what generation relies
on (client and server counts whose addresses are dotted quads, integer ports
in 0-65535, a finite positive duration and window width), so every
generated field is valid by construction.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .flows import FlowRecord, _flow_record


def _is_int_in(value, lo: int, hi: int) -> bool:
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and lo <= value <= hi)


@dataclass(frozen=True)
class TrafficProfile:
    n_clients: int = 12
    n_servers: int = 3
    common_ports: tuple[int, ...] = (22, 53, 80, 443)
    mean_flows: float = 3.0  # per client per window, Poisson
    duration: float = 18000.0
    window_width: float = 300.0
    seed: int = 7

    def __post_init__(self):
        # client_ip and server_ip number hosts 1-65535 in the last two octets
        for name in ("n_clients", "n_servers"):
            value = getattr(self, name)
            if not _is_int_in(value, 1, 65535):
                raise ValueError(f"{name} must be an integer in 1-65535, got {value!r}")
        if not self.common_ports:
            raise ValueError("common_ports must be nonempty")
        for port in self.common_ports:
            if not _is_int_in(port, 0, 65535):
                raise ValueError(f"common_ports entry {port!r} is not an integer in 0-65535")
        if not 0 <= self.mean_flows < math.inf:
            raise ValueError(f"mean_flows must be finite and >= 0, got {self.mean_flows}")
        for name in ("duration", "window_width"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")

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
        lo, hi = self.port_range
        if not 0 <= lo <= hi <= 65535:
            raise ValueError(f"port_range {lo}:{hi} must have 0 <= lo <= hi <= 65535")

    @property
    def n_ports(self) -> int:
        return self.port_range[1] - self.port_range[0] + 1


def _sort_records(records):
    return sorted(records, key=lambda r: (r.s_time, r.s_ip, r.d_ip,
                                          r.s_port, r.d_port, r.flags))


def generate_normal(profile: TrafficProfile) -> list[FlowRecord]:
    """Deterministic background traffic for every window of the profile."""
    rng = np.random.default_rng(profile.seed)
    poisson, integers, uniform = rng.poisson, rng.integers, rng.uniform
    width = profile.window_width
    span = width * 0.95
    n_servers = profile.n_servers
    ports = [int(port) for port in profile.common_ports]
    n_ports = len(ports)
    clients = [profile.client_ip(i) for i in range(profile.n_clients)]
    servers = [profile.server_ip(i) for i in range(n_servers)]
    starts, durs, client_col, server_col, port_col, sport_col = [], [], [], [], [], []
    for w in range(profile.n_windows):
        origin = w * width
        for client in clients:
            for _ in range(int(poisson(profile.mean_flows))):
                # one scalar draw at a time, in this order: the seeded
                # stream, and so every generated day, depends on it
                server_col.append(servers[integers(n_servers)])
                port_col.append(ports[integers(n_ports)])
                starts.append(origin + float(uniform(0.0, span)))
                durs.append(float(uniform(0.05, 3.0)))
                sport_col.append(int(integers(1024, 65536)))
                client_col.append(client)
    ends = [t + dur for t, dur in zip(starts, durs)]
    # server reply starts inside the request interval so the two records
    # pair into one session
    reply_starts = [t + dur * 0.1 for t, dur in zip(starts, durs)]
    # each request before its reply, the order that ties in the sort keep
    records = [None] * (2 * len(starts))
    records[0::2] = map(_flow_record, starts, ends, client_col, server_col,
                        sport_col, port_col, repeat("FSPA"))
    records[1::2] = map(_flow_record, reply_starts, ends, server_col, client_col,
                        port_col, sport_col, repeat("FSA"))
    return _sort_records(records)


def inject_scan(records, scan: ScanSpec, profile: TrafficProfile) -> list[FlowRecord]:
    """Merge one short unanswered flow per scanned port into the chosen window.

    Adds exactly (hi - lo + 1) records, touches nothing existing, and returns
    a freshly sorted list.
    """
    if not 0 <= scan.window_index < profile.n_windows:
        raise ValueError(
            f"scan window {scan.window_index} outside 0..{profile.n_windows - 1}")
    width = profile.window_width
    start = scan.window_index * width
    lo, hi = scan.port_range
    n = scan.n_ports
    added = []
    for j, port in enumerate(range(lo, hi + 1)):
        t = start + (j + 1) * width / (n + 1)
        added.append(FlowRecord(t, t + 0.01, scan.scanner_ip, scan.target_ip,
                                54321, port, "S"))
    return _sort_records(list(records) + added)
