import math
import re
from dataclasses import fields
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowtopo.flows import (
    FlowFormatError,
    FlowRecord,
    pair_bidirectional,
    serialize_flows,
    window,
)
from flowtopo.synth import (
    ScanSpec,
    TrafficProfile,
    _sorted_start_times,
    generate_normal,
    inject_scan,
)


def _oracle_sort_records(records):
    return sorted(records, key=lambda r: (r.s_time, r.s_ip, r.d_ip,
                                          r.s_port, r.d_port, r.flags))


def oracle_generate_normal(profile: TrafficProfile) -> list[FlowRecord]:
    """The reference generator: record by record, each record checked by
    FlowRecord, with the same draws in the same order."""
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
    return _oracle_sort_records(records)


def oracle_inject_scan(records, scan: ScanSpec, profile: TrafficProfile) -> list[FlowRecord]:
    """The reference scan: one FlowRecord per port, each checked."""
    width = profile.window_width
    start = scan.window_index * width
    lo, hi = scan.port_range
    added = []
    for j, port in enumerate(range(lo, hi + 1)):
        t = start + (j + 1) * width / (hi - lo + 2)
        added.append(FlowRecord(t, t + 0.01, scan.scanner_ip, scan.target_ip,
                                54321, port, "S"))
    return _oracle_sort_records(list(records) + added)


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
        with pytest.raises(ValueError, match=r"^common_ports must be a nonempty tuple or list, "
                                             r"got \(\)$"):
            TrafficProfile(common_ports=())
        for bad in (-1.0, math.nan, math.inf, "3", None, True):
            with pytest.raises(ValueError, match="^mean_flows must be finite and >= 0, "
                                                 f"got {re.escape(repr(bad))}$"):
                TrafficProfile(mean_flows=bad)
        for bad in (0.0, math.inf, math.nan, "300", None):
            for name in ("window_width", "duration"):
                with pytest.raises(ValueError, match=f"^{name} must be finite and > 0, "
                                                     f"got {re.escape(repr(bad))}$"):
                    TrafficProfile(**{name: bad})

    @pytest.mark.parametrize("name", ["n_clients", "n_servers"])
    @pytest.mark.parametrize("bad", [0, -1, 65536, True, 2.0, "3", None])
    def test_host_count_checked(self, name, bad):
        # 65536 clients would number the last one 10.0.256.0
        with pytest.raises(ValueError, match=f"^{name} must be an integer in 1-65535, "
                                             f"got {re.escape(repr(bad))}$"):
            TrafficProfile(**{name: bad})

    @pytest.mark.parametrize("bad", [80.5, "443", True, -1, 65536, None])
    def test_port_palette_checked(self, bad):
        # generation's int() would make port 80 of 80.5 and port 443 of "443"
        with pytest.raises(ValueError, match=f"^common_ports entry {re.escape(repr(bad))} "
                                             "is not an integer in 0-65535$"):
            TrafficProfile(common_ports=(22, bad))
        # nor is a port (or a str of ports) a palette
        with pytest.raises(ValueError, match="^common_ports must be a nonempty tuple or list, "
                                             f"got {re.escape(repr(bad))}$"):
            TrafficProfile(common_ports=bad)

    @pytest.mark.parametrize("bad", [-1, 1.5, True, "7", None])
    def test_seed_checked(self, bad):
        # numpy's own refusal of -1 names neither the field nor the value,
        # and it comes only when generation starts
        with pytest.raises(ValueError, match=f"^seed must be an integer >= 0, "
                                             f"got {re.escape(repr(bad))}$"):
            TrafficProfile(seed=bad)

    def test_numpy_integers_accepted(self):
        p = TrafficProfile(n_clients=np.int64(5), n_servers=np.int64(2),
                           common_ports=(np.int64(0), 65535), duration=600.0,
                           seed=np.int64(7))
        ports = {r.d_port for r in generate_normal(p) if r.flags == "FSPA"}
        assert ports <= {0, 65535}
        assert {type(port) for port in ports} == {int}
        assert generate_normal(p) == generate_normal(
            TrafficProfile(n_clients=5, n_servers=2, common_ports=(0, 65535),
                           duration=600.0, seed=7))
        assert generate_normal(TrafficProfile(duration=300.0, seed=2 ** 70))


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

    def test_records_are_checked(self, monkeypatch):
        # an address past the profile's host numbering: the records are
        # checked as FlowRecord checks them, not trusted
        monkeypatch.setattr(TrafficProfile, "client_ip", lambda self, i: "10.0.256.0")
        with pytest.raises(FlowFormatError) as err:
            generate_normal(SMALL)
        assert str(err.value) == "sIP '10.0.256.0' is not a dotted-quad IPv4 address"
        assert err.value.field == "sIP"

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
        for bad in ((100, 1), (-1, 5), (1, 65536), (True, 3), (1.5, 3), (1, 3.0)):
            with pytest.raises(ValueError, match="port_range"):
                ScanSpec(port_range=bad)
        for bad in (5, (1, 2, 3), (1,), "1:5", None):
            with pytest.raises(ValueError, match="^port_range must be a \\(lo, hi\\) pair, "
                                                 f"got {re.escape(repr(bad))}$"):
                ScanSpec(port_range=bad)
        for lo, hi in ((True, 3), (1.5, 3), (1, 3.0)):
            with pytest.raises(ValueError, match=f"^port_range {lo!r}:{hi!r} must be "
                                                 "integers$"):
                ScanSpec(port_range=(lo, hi))
        assert ScanSpec(port_range=(np.int64(1), np.int64(3))).n_ports == 3

    @pytest.mark.parametrize("bad", [1.5, True, 2.0, "1", None])
    def test_window_index_must_be_an_integer(self, bad):
        # 1.5 would start the scan at 450 s, splitting it between two windows
        with pytest.raises(ValueError, match=f"^window_index must be an integer, "
                                             f"got {re.escape(repr(bad))}$"):
            ScanSpec(window_index=bad)

    @pytest.mark.parametrize("address", ["bogus", "10.9.9.256", ["10.9.9.9"]])
    def test_bad_scanner_address_named(self, address):
        with pytest.raises(FlowFormatError) as err:
            inject_scan([], ScanSpec(scanner_ip=address, port_range=(1, 5)), SMALL)
        assert str(err.value) == f"sIP {address!r} is not a dotted-quad IPv4 address"
        assert err.value.field == "sIP"

    def test_deterministic_merge(self):
        base = generate_normal(SMALL)
        m1 = inject_scan(base, ScanSpec(window_index=0), SMALL)
        m2 = inject_scan(base, ScanSpec(window_index=0), SMALL)
        assert serialize_flows(m1) == serialize_flows(m2)


RECORD_FIELDS = [f.name for f in fields(FlowRecord)]


def record_fields(records):
    """Per field, the type and the repr of its value in each record."""
    columns = {}
    for name in RECORD_FIELDS:
        column = list(map(attrgetter(name), records))
        columns[name] = (list(map(type, column)), list(map(repr, column)))
    return columns


@st.composite
def profiles(draw):
    port = st.one_of(st.sampled_from([0, 65535]), st.integers(0, 65535),
                     st.integers(0, 65535).map(np.int64))
    width = draw(st.floats(1.0, 1e4))
    # from less than one window to six, mostly not a whole number of them
    duration = width * draw(st.floats(0.1, 6.0))
    return TrafficProfile(n_clients=draw(st.integers(1, 150)),
                          n_servers=draw(st.integers(1, 5)),
                          common_ports=tuple(draw(st.lists(port, min_size=1, max_size=6))),
                          mean_flows=draw(st.floats(0.0, 6.0)), duration=duration,
                          window_width=width, seed=draw(st.integers(0, 2 ** 64 - 1)))


class TestColumnsMatchOracle:
    """generate_normal and inject_scan build their records from columns,
    checked as a whole; every field must equal the record-by-record
    oracle's, each record checked by FlowRecord, with the same type and
    repr, before and after chained scans."""

    @settings(max_examples=40, deadline=None, database=None)
    @given(profiles(), st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 4000)),
                                max_size=2))
    @example(TrafficProfile(n_clients=65535, n_servers=5, mean_flows=0.5, duration=300.0,
                            window_width=300.0, seed=11), [])
    @example(TrafficProfile(n_clients=7, n_servers=2, duration=3000.0, window_width=300.0,
                            seed=3), [(0, 1), (-1, 4000)])
    @example(TrafficProfile(n_clients=7, n_servers=2, duration=3000.0, window_width=300.0,
                            seed=4), [(0, 4000), (-1, 1)])
    @example(TrafficProfile(duration=250.0, window_width=300.0), [(0, 5)])
    @example(TrafficProfile(n_clients=3, common_ports=(0, np.int64(65535)), duration=1000.0,
                            window_width=300.0, seed=5), [(-1, 10)])
    def test_equal_to_oracle(self, profile, scans):
        got, want = generate_normal(profile), oracle_generate_normal(profile)
        for where, n_ports in scans if profile.n_windows else ():
            # a negative index counts back from the last window
            scan = ScanSpec(port_range=(1, n_ports), window_index=where % profile.n_windows)
            got, want = inject_scan(got, scan, profile), oracle_inject_scan(want, scan, profile)
        assert record_fields(got) == record_fields(want)
        assert serialize_flows(got) == serialize_flows(want)


def assert_inject_as_oracle(records, scan, profile):
    records = list(records)
    got, want = inject_scan(records, scan, profile), oracle_inject_scan(records, scan, profile)
    assert record_fields(got) == record_fields(want)
    assert serialize_flows(got) == serialize_flows(want)
    return got


def probe(t, s_ip="10.9.9.9", d_port=3):
    """A record starting at t that ties with SMALL's scan of ports 1-5 in
    window 1 on start time; with the defaults it ties on the whole key
    with the probe of port 3."""
    return FlowRecord(t, t + 1, s_ip, "10.1.0.1", 54321, d_port, "S")


# ports 1-5 in window 1 of SMALL: probes at 350, 400, 450, 500 and 550 s
SPAN_SCAN = ScanSpec(port_range=(1, 5), window_index=1)


class TestSpliceMatchesOracle:
    """inject_scan sorts only the scan's span of a sorted day; every result
    must equal the oracle's stable sort of records + scan, field for field
    and byte for byte."""

    def test_shuffled_input_takes_the_full_sort(self):
        base = generate_normal(SMALL)
        shuffled = list(base)
        np.random.default_rng(1).shuffle(shuffled)
        assert _sorted_start_times(base) is not None
        assert _sorted_start_times(shuffled) is None
        assert inject_scan(shuffled, SPAN_SCAN, SMALL) == inject_scan(base, SPAN_SCAN, SMALL)
        assert_inject_as_oracle(shuffled, SPAN_SCAN, SMALL)

    def test_ties_inside_and_at_the_edges_of_the_span(self):
        edges = [349.99999999999994, 350.0, 450.0, 550.0, 550.0000000000001]
        ties = [probe(t, s_ip, port) for t in edges
                for s_ip in ("10.0.0.1", "10.9.9.9", "10.9.9.99") for port in (1, 3, 5)]
        records = _oracle_sort_records(generate_normal(SMALL) + ties)
        assert _sorted_start_times(records) is not None
        merged = assert_inject_as_oracle(records, SPAN_SCAN, SMALL)
        # an existing record comes before the probe whose key it equals
        at_450 = [r for r in merged if r.s_time == 450.0 and r.s_ip == "10.9.9.9"
                  and r.d_port == 3]
        assert [r.e_time for r in at_450] == [451.0, 450.01]

    @pytest.mark.parametrize("first, second", [
        # equal start times, keys out of order: only the whole keys show it
        (probe(450.0, "10.9.9.99"), probe(450.0, "10.0.0.1")),
        # start times one ulp out of order
        (probe(450.00000000000006), probe(450.0))])
    def test_one_pair_out_of_order_takes_the_full_sort(self, first, second):
        records = [probe(300.0), first, second, probe(600.0)]
        assert _sorted_start_times(records) is None
        assert_inject_as_oracle(records, SPAN_SCAN, SMALL)

    def test_same_scan_twice(self):
        once = inject_scan(generate_normal(SMALL), SPAN_SCAN, SMALL)
        twice = assert_inject_as_oracle(once, SPAN_SCAN, SMALL)
        assert len(twice) == len(once) + 5
        assert_inject_as_oracle(twice, SPAN_SCAN, SMALL)

    @pytest.mark.parametrize("kind", [int, np.float64, np.int64])
    def test_other_real_start_times(self, kind):
        records = [probe(kind(t)) for t in (0, 349, 350, 450, 550, 551, 1100)]
        assert _sorted_start_times(records) is not None
        assert_inject_as_oracle(records, SPAN_SCAN, SMALL)
        # and probes of those kinds, from a window width of that kind
        profile = TrafficProfile(n_clients=3, duration=1200, window_width=kind(300), seed=2)
        assert_inject_as_oracle(generate_normal(profile) + records, SPAN_SCAN, profile)

    def test_times_float64_does_not_tell_apart(self):
        # 2**53 and 2**53 + 1 round to one float64; 10**400 rounds to none,
        # and no record holds it
        big = 2 ** 53
        records = [probe(big), probe(big + 1)]
        assert _sorted_start_times(records) is not None
        assert_inject_as_oracle(records, SPAN_SCAN, SMALL)
        assert _sorted_start_times(records[::-1]) is None
        assert_inject_as_oracle(records[::-1], SPAN_SCAN, SMALL)
        with pytest.raises(FlowFormatError, match="^sTime is an integer too large"):
            probe(10 ** 400)

    def test_no_records(self):
        assert_inject_as_oracle([], SPAN_SCAN, SMALL)
        assert inject_scan(iter([]), SPAN_SCAN, SMALL) == inject_scan([], SPAN_SCAN, SMALL)

    @pytest.mark.parametrize("window_index", [0, SMALL.n_windows - 1])
    @pytest.mark.parametrize("port_range", [(1, 1), (1, 100), (7, 4000)])
    def test_first_and_last_window(self, window_index, port_range):
        scan = ScanSpec(port_range=port_range, window_index=window_index)
        base = generate_normal(SMALL)
        merged = assert_inject_as_oracle(base, scan, SMALL)
        assert inject_scan(iter(base), scan, SMALL) == merged


class TestUniformIdentity:
    """generate_normal draws lo + (hi - lo) * rng.random() for
    rng.uniform(lo, hi); the generated days, and every sha256 pin of them,
    rest on the two being one double of one stream."""

    @settings(max_examples=30, deadline=None, database=None)
    @given(st.integers(0, 2 ** 64 - 1), st.floats(1.0, 1e4))
    @example(7, 300.0)
    @example(0, 1.0)
    @example(2 ** 64 - 1, 1e4)
    def test_scaled_random_is_uniform(self, seed, width):
        scaled, uniform = np.random.default_rng(seed), np.random.default_rng(seed)
        bounds = [(0.0, width * 0.95), (0.05, 3.0), (0.0, 285.0), (-1.0, 1e300)]
        for i in range(200):
            # interleaved with the generator's other draws, as generate_normal does
            assert scaled.poisson(3.0) == uniform.poisson(3.0)
            assert scaled.integers(1024, 65536) == uniform.integers(1024, 65536)
            lo, hi = bounds[i % len(bounds)]
            got, want = lo + (hi - lo) * scaled.random(), uniform.uniform(lo, hi)
            assert type(got) is type(want) is float
            assert got.hex() == want.hex(), (
                f"numpy {np.__version__}: lo + (hi - lo) * random() is {got!r} but "
                f"uniform({lo!r}, {hi!r}) is {want!r} (seed {seed}, draw {i}); "
                "generate_normal no longer draws the days that uniform drew")
