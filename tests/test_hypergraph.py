import random
import tracemalloc
from collections import Counter
from dataclasses import fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowtopo import detector
from flowtopo.flows import SessionRecord, TimeWindow
from flowtopo.hypergraph import (Hypergraph, HypergraphStats, build_hypergraph, dump,
                                 stats)


def oracle_build_hypergraph(w: TimeWindow) -> Hypergraph:
    """One frozenset per port, the vertex set as the union of every port's."""
    by_port: dict[int, set[str]] = {}
    for s in w.sessions:
        by_port.setdefault(s.server_port, set()).add(s.client_ip)
    edges = {p: frozenset(v) for p, v in by_port.items()}
    return Hypergraph(frozenset().union(*edges.values()), edges)


def oracle_vertex_degrees(h: Hypergraph) -> dict[str, int]:
    deg = dict.fromkeys(h.vertices, 0)
    for support in h.edges.values():
        for v in support:
            deg[v] += 1
    return deg


def oracle_stats(h: Hypergraph) -> HypergraphStats:
    """Every count taken port by port."""
    if not h.edges:
        return HypergraphStats(0, 0, 0, 0, 0.0, 0)
    sizes = [len(s) for s in h.edges.values()]
    return HypergraphStats(
        n_vertices=len(h.vertices),
        n_edges=len(h.edges),
        max_vertex_degree=max(oracle_vertex_degrees(h).values()),
        max_edge_size=max(sizes),
        mean_edge_size=sum(sizes) / len(sizes),
        max_support_multiplicity=max(Counter(h.edges.values()).values()),
    )


def sess(client, port, start=10.0):
    return SessionRecord(client, "10.1.0.1", 51515, port, start, start + 1.0, 2)


def three_session_window():
    return TimeWindow(0.0, 300.0, (
        sess("10.0.0.1", 80),
        sess("10.0.0.2", 80),
        sess("10.0.0.1", 443),
    ))


def random_hypergraph(rng):
    ips = [f"10.0.0.{i}" for i in range(1, 9)]
    edges = {}
    for port in rng.sample(range(1, 1024), rng.randint(1, 10)):
        support = frozenset(rng.sample(ips, rng.randint(1, len(ips))))
        edges[port] = support
    return Hypergraph.from_edges(edges)


def client(i):
    return f"10.0.{i // 256}.{i % 256}"


@st.composite
def windows(draw):
    """A window of 1-150 clients: background sessions on a small port pool,
    one-client scans, ports shared by many clients and repeated sessions,
    1-5,000 ports in all (or none: the empty window)."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n_clients = draw(st.integers(1, 150))
    pool = rng.sample(range(1, 65536), draw(st.integers(1, 60)))
    pairs = [(rng.randrange(n_clients), rng.choice(pool))
             for _ in range(draw(st.integers(0, 300)))]
    for _ in range(draw(st.integers(0, 3))):
        lo = draw(st.integers(1, 60000))
        scanner = rng.randrange(n_clients)
        pairs += [(scanner, p) for p in range(lo, lo + draw(st.integers(1, 1600)))]
    for _ in range(draw(st.integers(0, 3))):
        port = rng.choice(pool)
        pairs += [(c, port) for c in rng.sample(range(n_clients),
                                                 rng.randint(1, n_clients))]
    pairs += rng.choices(pairs, k=draw(st.integers(0, len(pairs))))
    rng.shuffle(pairs)
    return TimeWindow(0.0, 300.0, tuple(sess(client(c), p, 1.0 + k % 250)
                                        for k, (c, p) in enumerate(pairs)))


def scan_window(ports: int) -> TimeWindow:
    return TimeWindow(0.0, 300.0, tuple(sess("10.9.9.9", p) for p in range(1, ports + 1)))


class TestEqualsOracle:
    @settings(max_examples=120, deadline=None)
    @given(windows())
    @example(TimeWindow(0.0, 300.0, ()))
    @example(scan_window(5000))
    def test_window(self, w):
        h, oracle = build_hypergraph(w), oracle_build_hypergraph(w)
        assert h == oracle
        assert list(h.edges) == list(oracle.edges)
        assert h.vertex_degrees() == oracle_vertex_degrees(oracle)
        got, want = stats(h), oracle_stats(oracle)
        for f in fields(HypergraphStats):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert type(a) is type(b) and repr(a) == repr(b), f.name
        assert dump(h) == dump(oracle)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(detector, "build_hypergraph", oracle_build_hypergraph)
            mp.setattr(detector, "stats", oracle_stats)
            want_vector = detector.summarize_window(w)
        assert detector.summarize_window(w) == want_vector


class TestSharedSupports:
    def test_scan_ports_share_one_support(self):
        h = build_hypergraph(scan_window(4000))
        scanner = h.edges[1]
        assert all(support is scanner for support in h.edges.values())

    def test_equal_supports_share_one_object(self):
        rng = random.Random(3)
        w = TimeWindow(0.0, 300.0, tuple(
            sess(client(rng.randrange(3)), rng.randrange(1, 200)) for _ in range(600)))
        h = build_hypergraph(w)
        shared = {}
        for support in h.edges.values():
            assert shared.setdefault(support, support) is support

    def test_peak_at_most_the_oracles(self):
        w = scan_window(4000)

        def peak(build):
            tracemalloc.start()
            try:
                build(w)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak(build_hypergraph) <= peak(oracle_build_hypergraph)


class TestBuild:
    def test_three_sessions(self):
        h = build_hypergraph(three_session_window())
        assert h.vertices == frozenset({"10.0.0.1", "10.0.0.2"})
        assert h.edges == {
            80: frozenset({"10.0.0.1", "10.0.0.2"}),
            443: frozenset({"10.0.0.1"}),
        }

    def test_empty_window(self):
        h = build_hypergraph(TimeWindow(0.0, 300.0, ()))
        assert h.n_vertices == 0 and h.n_edges == 0

    def test_duplicate_sessions_collapse(self):
        w = TimeWindow(0.0, 300.0, (sess("10.0.0.1", 80), sess("10.0.0.1", 80, 20.0)))
        h = build_hypergraph(w)
        assert h.edges == {80: frozenset({"10.0.0.1"})}

    def test_session_order_irrelevant(self):
        w = three_session_window()
        shuffled = TimeWindow(w.start, w.width, tuple(reversed(w.sessions)))
        assert build_hypergraph(w) == build_hypergraph(shuffled)

    def test_scanner_touches_many_ports(self):
        sessions = tuple(sess("10.9.9.9", p) for p in range(1, 21))
        h = build_hypergraph(TimeWindow(0.0, 300.0, sessions))
        assert h.n_edges == 20
        assert h.vertex_degrees() == {"10.9.9.9": 20}


class TestConstructorMessages:
    # each message names the first bad label in edge (insertion) order,
    # however many labels share the bad support
    @pytest.mark.parametrize("edges, message", [
        ({443: frozenset({"10.0.0.1"}), 80: frozenset(), 22: frozenset(), 8080: frozenset()},
         "edge 80 has empty support"),
        ({80: frozenset(), 22: frozenset(), 443: frozenset({"10.0.0.9"})},
         "edge 80 has empty support"),
        ({22: frozenset({"10.0.0.1"}), 443: frozenset({"10.0.0.1", "10.0.0.9"}),
          80: frozenset({"10.0.0.1", "10.0.0.9"}), 8080: frozenset({"10.0.0.1", "10.0.0.9"})},
         "edge 443 support not contained in vertex set"),
        ({22: frozenset({"10.0.0.9"}), 80: frozenset(), 443: frozenset({"10.0.0.9"})},
         "edge 22 support not contained in vertex set"),
        ({22: frozenset({"10.0.0.1"}), 80: frozenset({"10.0.0.9"}), 443: frozenset(),
          8080: frozenset({"10.0.0.9"})},
         "edge 80 support not contained in vertex set"),
        ({22: frozenset({"10.0.0.1"}), 80: frozenset({"10.0.0.1"})},
         "every vertex must appear in at least one edge"),
        ({}, "every vertex must appear in at least one edge"),
    ])
    def test_first_bad_label_named(self, edges, message):
        with pytest.raises(ValueError) as err:
            Hypergraph(frozenset({"10.0.0.1", "10.0.0.2"}), edges)
        assert str(err.value) == message

    def test_first_of_many_bad_supports_named(self):
        outside = [frozenset({f"10.0.1.{i}"}) for i in range(20)]
        edges = {22: frozenset({"10.0.0.1"}), **dict(zip(range(5000, 5020), outside)),
                 80: frozenset(), **dict(zip(range(6000, 6020), outside))}
        with pytest.raises(ValueError) as err:
            Hypergraph(frozenset({"10.0.0.1"}), edges)
        assert str(err.value) == "edge 5000 support not contained in vertex set"
        edges = {22: frozenset({"10.0.0.1"}), 80: frozenset(), **dict(zip(range(5000, 5020), outside))}
        with pytest.raises(ValueError) as err:
            Hypergraph(frozenset({"10.0.0.1"}), edges)
        assert str(err.value) == "edge 80 has empty support"

    def test_shared_bad_support_object(self):
        # one support object under several labels, as build_hypergraph shares them
        outside = frozenset({"10.0.0.9"})
        edges = {22: frozenset({"10.0.0.1"}), **dict.fromkeys(range(1000, 1100), outside)}
        with pytest.raises(ValueError) as err:
            Hypergraph(frozenset({"10.0.0.1"}), edges)
        assert str(err.value) == "edge 1000 support not contained in vertex set"


class TestInvariants:
    def test_empty_support_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph(frozenset({"10.0.0.1"}), {80: frozenset()})

    def test_support_outside_vertices_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph(frozenset({"10.0.0.1"}), {80: frozenset({"10.0.0.2"})})

    def test_isolated_vertex_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph(frozenset({"10.0.0.1", "10.0.0.2"}),
                       {80: frozenset({"10.0.0.1"})})

    def test_degree_sum_equals_support_sum(self):
        # both sides count incidences, once per vertex and once per edge
        rng = random.Random(5)
        for _ in range(50):
            h = random_hypergraph(rng)
            assert sum(h.vertex_degrees().values()) == \
                   sum(len(s) for s in h.edges.values())


class TestStats:
    def test_three_sessions(self):
        st = stats(build_hypergraph(three_session_window()))
        assert st.n_vertices == 2
        assert st.n_edges == 2
        assert st.max_vertex_degree == 2
        assert st.max_edge_size == 2
        assert st.mean_edge_size == 1.5
        assert st.max_support_multiplicity == 1

    def test_empty(self):
        st = stats(build_hypergraph(TimeWindow(0.0, 300.0, ())))
        assert st == type(st)(0, 0, 0, 0, 0.0, 0)

    def test_multiplicity_counts_equal_supports(self):
        h = Hypergraph.from_edges({
            80: frozenset({"10.0.0.1", "10.0.0.2"}),
            8080: frozenset({"10.0.0.1", "10.0.0.2"}),
            22: frozenset({"10.0.0.3"}),
        })
        assert stats(h).max_support_multiplicity == 2


class TestDump:
    def test_golden(self):
        h = build_hypergraph(three_session_window())
        assert dump(h) == "80: 10.0.0.1 10.0.0.2\n443: 10.0.0.1\n"

    def test_empty(self):
        assert dump(Hypergraph.from_edges({})) == ""

    def test_deterministic(self):
        rng = random.Random(9)
        for _ in range(10):
            h = random_hypergraph(rng)
            assert dump(h) == dump(Hypergraph.from_edges(dict(h.edges)))
