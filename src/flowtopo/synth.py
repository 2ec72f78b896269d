"""Seeded synthetic netflow generation: background traffic plus injected port scans.

Clients contact a small palette of common server ports with Poisson counts per
window; every flow is emitted as a forward/reverse record pair so the ingest
pairing sees realistic bidirectional traffic.  A scan adds one unanswered flow
per port in its range inside the chosen window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flows import FlowRecord


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
        if self.n_clients < 1 or self.n_servers < 1 or not self.common_ports:
            raise ValueError("n_clients, n_servers and common_ports must be nonempty")
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
    width = profile.window_width
    records = []
    for w in range(profile.n_windows):
        for ci in range(profile.n_clients):
            count = int(rng.poisson(profile.mean_flows))
            for _ in range(count):
                si = int(rng.integers(profile.n_servers))
                port = int(profile.common_ports[rng.integers(len(profile.common_ports))])
                t = w * width + float(rng.uniform(0.0, width * 0.95))
                dur = float(rng.uniform(0.05, 3.0))
                sport = int(rng.integers(1024, 65536))
                client = profile.client_ip(ci)
                server = profile.server_ip(si)
                records.append(FlowRecord(t, t + dur, client, server,
                                          sport, port, "FSPA"))
                # server reply starts inside the request interval so the
                # two records pair into one session
                records.append(FlowRecord(t + dur * 0.1, t + dur, server, client,
                                          port, sport, "FSA"))
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
