import math

import pytest

from flowtopo.flows import pair_bidirectional, serialize_flows, window
from flowtopo.synth import ScanSpec, TrafficProfile, generate_normal, inject_scan


SMALL = TrafficProfile(n_clients=4, n_servers=2, duration=1200.0,
                       window_width=300.0, seed=5)


class TestProfile:
    def test_window_count(self):
        assert SMALL.n_windows == 4
        assert TrafficProfile(duration=18000.0, window_width=300.0).n_windows == 60

    def test_ip_layout(self):
        p = TrafficProfile()
        assert p.client_ip(0) == "10.0.0.1"
        assert p.client_ip(255) == "10.0.1.0"
        assert p.server_ip(0) == "10.1.0.1"

    def test_validation(self):
        with pytest.raises(ValueError):
            TrafficProfile(n_clients=0)
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="mean_flows"):
                TrafficProfile(mean_flows=bad)
        for bad in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="window_width"):
                TrafficProfile(window_width=bad)
            with pytest.raises(ValueError, match="duration"):
                TrafficProfile(duration=bad)


class TestGenerate:
    def test_deterministic(self):
        a = generate_normal(SMALL)
        b = generate_normal(SMALL)
        assert serialize_flows(a) == serialize_flows(b)

    def test_seed_changes_output(self):
        other = TrafficProfile(n_clients=4, n_servers=2, duration=1200.0,
                               window_width=300.0, seed=6)
        assert serialize_flows(generate_normal(SMALL)) != \
               serialize_flows(generate_normal(other))

    def test_zero_mean_is_silent(self):
        p = TrafficProfile(mean_flows=0.0, duration=600.0)
        assert generate_normal(p) == []

    def test_ports_and_ips_in_palette(self):
        p = SMALL
        clients = {p.client_ip(i) for i in range(p.n_clients)}
        servers = {p.server_ip(i) for i in range(p.n_servers)}
        for r in generate_normal(p):
            if r.flags == "FSPA":
                assert r.s_ip in clients and r.d_ip in servers
                assert r.d_port in p.common_ports
                assert r.s_port >= 1024
            else:
                assert r.flags == "FSA"
                assert r.s_ip in servers and r.d_ip in clients

    def test_pairs_into_sessions(self):
        records = generate_normal(SMALL)
        sessions = pair_bidirectional(records)
        # every forward record found its reply: no singleton sessions
        assert all(s.constituent_count >= 2 for s in sessions)
        assert sum(s.constituent_count for s in sessions) == len(records)

    def test_sorted_by_time(self):
        records = generate_normal(SMALL)
        times = [r.s_time for r in records]
        assert times == sorted(times)

    def test_times_inside_profile_span(self):
        for r in generate_normal(SMALL):
            assert 0.0 <= r.s_time < SMALL.duration


class TestInjectScan:
    def test_adds_one_record_per_port(self):
        base = generate_normal(SMALL)
        merged = inject_scan(base, ScanSpec(port_range=(1, 100), window_index=2), SMALL)
        assert len(merged) == len(base) + 100
        added = [r for r in merged if r.flags == "S"]
        assert sorted(r.d_port for r in added) == list(range(1, 101))
        assert {r.s_ip for r in added} == {"10.9.9.9"}

    def test_existing_records_untouched(self):
        base = generate_normal(SMALL)
        merged = inject_scan(base, ScanSpec(window_index=1), SMALL)
        assert sorted(merged, key=id) != base  # new list
        assert [r for r in merged if r.flags != "S"] == base

    def test_scan_lands_in_window(self):
        merged = inject_scan([], ScanSpec(port_range=(10, 20), window_index=3), SMALL)
        ws = window(pair_bidirectional(merged), SMALL.window_width)
        # all probes fall inside window 3 as unanswered singleton sessions
        assert len(ws) == 1
        assert ws[0].start == 3 * SMALL.window_width
        assert len(ws[0].sessions) == 11
        assert all(s.constituent_count == 1 for s in ws[0].sessions)
        assert all(s.client_ip == "10.9.9.9" for s in ws[0].sessions)

    def test_window_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            inject_scan([], ScanSpec(window_index=4), SMALL)
        with pytest.raises(ValueError):
            inject_scan([], ScanSpec(window_index=-1), SMALL)

    def test_port_range_validation(self):
        for bad in ((100, 1), (-1, 5), (1, 65536)):
            with pytest.raises(ValueError, match="port_range"):
                ScanSpec(port_range=bad)

    def test_deterministic_merge(self):
        base = generate_normal(SMALL)
        m1 = inject_scan(base, ScanSpec(window_index=0), SMALL)
        m2 = inject_scan(base, ScanSpec(window_index=0), SMALL)
        assert serialize_flows(m1) == serialize_flows(m2)
