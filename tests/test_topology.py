import math
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtopo.detector import _containment_features, window_statistics
from flowtopo.flows import SessionRecord, TimeWindow
from flowtopo.hypergraph import Hypergraph, build_hypergraph
from flowtopo.persistence import MAX_LAYER
from flowtopo.topology import (
    SimplicialComplex,
    _boundary_matrix,
    betti,
    build_ecp,
    hasse,
    hodge,
    order_complex,
    spectrum,
    twin_betti,
    twin_degrees,
)
from oracles import (
    edge_level_oracle,
    oracle_betti,
    oracle_build_ecp,
    oracle_order_complex,
    transitive_closure,
)

# ---------------------------------------------------------------- helpers


def hg(supports):
    return Hypergraph.from_edges({p: frozenset(s) for p, s in supports.items()})


def random_supports(rng, universe=4, n_edges=None):
    ips = [f"10.0.0.{i}" for i in range(universe)]
    n = n_edges if n_edges is not None else rng.randint(1, 7)
    out = {}
    ports = rng.sample(range(1, 2000), n)
    for p in ports:
        out[p] = frozenset(rng.sample(ips, rng.randint(1, universe)))
    return out


def random_layered_supports(rng, universe=8, max_ports=40):
    """Supports drawn from a small pool, so duplicates, nested chains and
    singletons all occur; one edge per label."""
    ips = [f"10.0.0.{i}" for i in range(universe)]
    pool = []
    for _ in range(rng.randint(1, 5)):
        # a nested chain: each support adds vertices to the previous one
        order = rng.sample(ips, rng.randint(1, universe))
        cuts = sorted(rng.sample(range(1, len(order) + 1),
                                 rng.randint(1, len(order))))
        pool.extend(frozenset(order[:c]) for c in cuts)
    pool.extend(frozenset([v]) for v in rng.sample(ips, rng.randint(0, 3)))
    ports = rng.sample(range(1, 65536), rng.randint(1, max_ports))
    return {p: rng.choice(pool) for p in ports}


def scan_supports(rng):
    """A scan-shaped window: many ports touched only by the scanner, under
    common ports whose supports are partly nested and partly incomparable."""
    clients = [f"10.0.0.{i}" for i in range(1, 6)]
    supports = {p: {"10.9.9.9"} for p in range(1, 41)}
    for p in rng.sample(range(20000, 20100), rng.randint(1, 6)):
        supports[p] = {"10.9.9.9"} | set(rng.sample(clients, rng.randint(1, 5)))
    for p in rng.sample(range(30000, 30100), rng.randint(0, 3)):
        supports[p] = set(rng.sample(clients, rng.randint(1, 5)))
    return supports


def nested_twin_supports(rng, max_scanners=5, max_step=6):
    """Nested scans: scanner j of k scans ports 1..j*step, so the ports form
    k nested supports of step twins each, beside a few ordinary clients'
    ports, some of them sharing a support and some touched by a scanner."""
    k = rng.randint(1, max_scanners)
    step = rng.randint(1, max_step)
    scanners = [f"10.9.9.{j}" for j in range(1, k + 1)]
    supports = {p: set(scanners[(p - 1) // step:]) for p in range(1, k * step + 1)}
    clients = [f"10.0.0.{i}" for i in range(1, 6)]
    for p in rng.sample(range(20000, 20100), rng.randint(0, 6)):
        supports[p] = set(rng.sample(clients, rng.randint(1, 3)))
        if rng.random() < 0.3:
            supports[p].add(rng.choice(scanners))
    return supports


GENERATORS = (random_supports, random_layered_supports, scan_supports,
              nested_twin_supports)


def assert_same_complex(got, expect):
    # labels are excluded from SimplicialComplex equality, so compare both
    assert got.simplices == expect.simplices
    assert got.labels == expect.labels


def random_complex(rng, n_vertices=6):
    top = []
    for _ in range(rng.randint(1, 8)):
        size = rng.randint(1, 4)
        top.append(tuple(rng.sample(range(n_vertices), size)))
    return SimplicialComplex.from_simplices(top)


def real_rank_betti(K, max_dim):
    """Same rank formula but over the reals with signed matrices; agrees with
    the GF(2) answer exactly when the complex has no 2-torsion."""
    def rk(k):
        m = _boundary_matrix(K, k)
        return int(np.linalg.matrix_rank(m)) if m.size else 0

    return tuple(K.count(k) - rk(k) - rk(k + 1) for k in range(max_dim + 1))


# ---------------------------------------------------------------- ECP


class TestEcp:
    def test_three_session_arc(self):
        ecp = build_ecp(hg({80: {"10.0.0.1", "10.0.0.2"}, 443: {"10.0.0.1"}}))
        assert ecp.arcs == frozenset({(443, 80)})
        assert ecp.in_degrees() == {80: 1, 443: 0}
        assert ecp.out_degrees() == {80: 0, 443: 1}
        assert ecp.max_in_degree() == 1
        assert ecp.max_out_degree() == 1

    def test_equal_supports_incomparable(self):
        ecp = build_ecp(hg({80: {"a"}, 8080: {"a"}}))
        assert ecp.arcs == frozenset()

    def test_chain_is_transitively_closed(self):
        ecp = build_ecp(hg({1: {"a"}, 2: {"a", "b"}, 3: {"a", "b", "c"}}))
        assert ecp.arcs == frozenset({(1, 2), (1, 3), (2, 3)})

    def test_scan_fixture_in_degree(self):
        # ten scanned ports answered only by the scanner, two common ports
        # shared with everyone: every singleton sits under both common ports
        supports = {p: {"10.9.9.9"} for p in range(1, 11)}
        supports[80] = {"10.9.9.9", "10.0.0.1", "10.0.0.2"}
        supports[443] = {"10.9.9.9", "10.0.0.1", "10.0.0.2"}
        ecp = build_ecp(hg(supports))
        assert ecp.max_in_degree() == 10
        assert ecp.in_degrees()[80] == 10
        assert ecp.max_out_degree() == 2

    def test_empty(self):
        ecp = build_ecp(Hypergraph.from_edges({}))
        assert ecp.max_in_degree() == 0 and ecp.max_out_degree() == 0

    def test_arcs_match_pairwise_subset_check(self):
        rng = random.Random(21)
        for _ in range(100):
            supports = random_supports(rng)
            ecp = build_ecp(hg(supports))
            expect = {(e, f) for e in supports for f in supports
                      if e != f and supports[e] < supports[f]}
            assert set(ecp.arcs) == expect


    def test_equals_all_pairs_oracle(self):
        rng = random.Random(2024)
        cases = [{}, {1: {"a"}}, {1: {"a"}, 2: {"a"}, 3: {"a", "b"}, 4: {"a", "b"}}]
        cases += [random_layered_supports(rng) for _ in range(300)]
        cases += [random_supports(rng, universe=6, n_edges=rng.randint(1, 30))
                  for _ in range(100)]
        for supports in cases:
            h = hg(supports)
            assert build_ecp(h) == oracle_build_ecp(h)

    def test_scan_window_arcs(self):
        # 4000 scanned ports with the scanner as their only vertex, under the
        # four common ports the scanner also touched
        supports = {p: {"10.9.9.9"} for p in range(1, 4001)}
        for k, p in enumerate((8080, 8443, 9000, 9001)):
            supports[p] = {"10.9.9.9"} | {f"10.0.0.{i}" for i in range(k + 1)}
        ecp = build_ecp(hg(supports))
        assert len(ecp.arcs) == 4000 * 4 + 6
        assert ecp.max_in_degree() == 4003
        assert ecp.out_degrees()[1] == 4

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.dictionaries(st.integers(0, 60),
                           st.frozensets(st.sampled_from("abcdef"), min_size=1),
                           max_size=25))
    def test_equals_all_pairs_oracle_property(self, supports):
        h = hg(supports)
        assert build_ecp(h) == oracle_build_ecp(h)


class TestHasse:
    def test_chain_reduces_to_covers(self):
        ecp = build_ecp(hg({1: {"a"}, 2: {"a", "b"}, 3: {"a", "b", "c"}}))
        assert hasse(ecp).arcs == frozenset({(1, 2), (2, 3)})

    def test_diamond(self):
        ecp = build_ecp(hg({
            1: {"a"}, 2: {"a", "b"}, 3: {"a", "c"}, 4: {"a", "b", "c"},
        }))
        assert hasse(ecp).arcs == frozenset({(1, 2), (1, 3), (2, 4), (3, 4)})

    def test_idempotent(self):
        rng = random.Random(33)
        for _ in range(50):
            h = hasse(build_ecp(hg(random_supports(rng))))
            assert hasse(h).arcs == h.arcs

    def test_reduction_is_minimal_generator(self):
        # oracle characterization: the Hasse arcs are the unique minimal
        # relation whose transitive closure recovers the full order
        rng = random.Random(34)
        for _ in range(100):
            ecp = build_ecp(hg(random_supports(rng)))
            red = hasse(ecp)
            nodes = ecp.nodes()
            assert transitive_closure(red.arcs, nodes) == set(ecp.arcs)
            for dropped in red.arcs:
                thinner = set(red.arcs) - {dropped}
                assert transitive_closure(thinner, nodes) != set(ecp.arcs)


# ---------------------------------------------------------------- order complex


class TestOrderComplex:
    def test_three_session(self):
        ecp = build_ecp(hg({80: {"10.0.0.1", "10.0.0.2"}, 443: {"10.0.0.1"}}))
        K = order_complex(ecp)
        assert K.labels == (80, 443)
        assert K.simplices == {0: ((0,), (1,)), 1: ((0, 1),)}
        assert betti(K, 1) == (1, 0)

    def test_empty(self):
        K = order_complex(build_ecp(Hypergraph.from_edges({})))
        assert K.simplices == {}
        assert K.dim == -1

    def test_antichain_gives_points(self):
        ecp = build_ecp(hg({1: {"a"}, 2: {"b"}, 3: {"c"}}))
        K = order_complex(ecp)
        assert K.simplices == {0: ((0,), (1,), (2,))}
        assert betti(K, 1) == (3, 0)

    def test_chain_gives_solid_simplex(self):
        ecp = build_ecp(hg({1: {"a"}, 2: {"a", "b"}, 3: {"a", "b", "c"}}))
        K = order_complex(ecp)
        assert K.count(2) == 1
        assert betti(K, 2) == (1, 0, 0)

    def test_max_dim_caps(self):
        ecp = build_ecp(hg({1: {"a"}, 2: {"a", "b"}, 3: {"a", "b", "c"},
                            4: {"a", "b", "c", "d"}}))
        K = order_complex(ecp, max_dim=1)
        assert K.dim == 1
        full = order_complex(ecp)
        assert K.simplices[0] == full.simplices[0]
        assert K.simplices[1] == full.simplices[1]

    def test_matches_exhaustive_chain_enumeration(self):
        rng = random.Random(55)
        for _ in range(60):
            supports = random_supports(rng, universe=4, n_edges=rng.randint(1, 6))
            ecp = build_ecp(hg(supports))
            for cap in (None, 0, 1, 2):
                K = order_complex(ecp, max_dim=cap)
                keys = sorted(supports)
                index = {k: i for i, k in enumerate(keys)}
                limit = len(keys) if cap is None else min(cap + 1, len(keys))
                expect = set()
                for r in range(1, limit + 1):
                    for sub in combinations(keys, r):
                        chain = all(supports[a] < supports[b] or
                                    supports[b] < supports[a]
                                    for a, b in combinations(sub, 2))
                        if chain:
                            expect.add(tuple(sorted(index[k] for k in sub)))
                got = {s for sims in K.simplices.values() for s in sims}
                assert got == expect

    def test_equals_closure_oracle(self):
        rng = random.Random(4242)
        cases = [{}, {1: {"a"}, 2: {"a"}, 3: {"a", "b"}, 4: {"a", "b"},
                      5: {"a", "b", "c"}, 6: {"a", "b", "c", "d"}}]
        # sizes keep the dense oracle_betti to a few seconds in all
        cases += [random_layered_supports(rng, max_ports=15) for _ in range(150)]
        cases += [random_supports(rng, universe=6, n_edges=rng.randint(1, 15))
                  for _ in range(60)]
        cases += [scan_supports(rng) for _ in range(10)]
        for supports in cases:
            ecp = build_ecp(hg(supports))
            for cap in (None, 0, 1, 2):
                K = order_complex(ecp, max_dim=cap)
                assert_same_complex(K, oracle_order_complex(ecp, max_dim=cap))
                d = max(K.dim, 0)
                assert betti(K, d) == oracle_betti(K, d)

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.dictionaries(st.integers(0, 60),
                           st.frozensets(st.sampled_from("abcdef"), min_size=1),
                           max_size=15),
           st.sampled_from((None, 0, 1, 2)))
    def test_equals_closure_oracle_property(self, supports, cap):
        ecp = build_ecp(hg(supports))
        K = order_complex(ecp, max_dim=cap)
        assert_same_complex(K, oracle_order_complex(ecp, max_dim=cap))
        d = max(K.dim, 0)
        assert betti(K, d) == oracle_betti(K, d)

    def test_long_chain_refused(self):
        # 240 nested supports: C(240, 3) = 2,275,280 chains of three
        h = hg({p: {f"10.9.0.{j}" for j in range(p)} for p in range(1, 241)})
        ecp = build_ecp(h)
        with pytest.raises(ValueError) as err:
            order_complex(ecp, max_dim=2)
        assert str(err.value) == ("the order complex has 2275280 2-simplices, more "
                                  f"than the limit of {MAX_LAYER} simplices per dimension")
        assert order_complex(ecp, max_dim=1).count(1) == 240 * 239 // 2


# ---------------------------------------------------------------- twin rule


def session_window(supports):
    """A window holding one session per (vertex, port) incidence."""
    return TimeWindow(0.0, 300.0, tuple(
        SessionRecord(ip, "10.1.0.1", 51515, port, 10.0, 11.0, 1)
        for port, ips in sorted(supports.items()) for ip in sorted(ips)))


def distinct_order(supports):
    """The order of the distinct supports, labelled 0.., and multiplicities."""
    classes = sorted({frozenset(s) for s in supports.values()}, key=sorted)
    mult = {i: sum(frozenset(s) == c for s in supports.values())
            for i, c in enumerate(classes)}
    return build_ecp(hg(dict(enumerate(classes)))), mult


class TestTwinRule:
    @pytest.mark.parametrize("supports, beta", [
        # two minimal twins under two maximal twins: a 4-cycle
        ({1: {"a"}, 2: {"a"}, 3: {"a", "b"}, 4: {"a", "b"}}, (1, 1)),
        # three isolated twins, and one more port
        ({1: {"a"}, 2: {"a"}, 3: {"a"}, 4: {"b"}}, (4, 0)),
        # a maximal class of 3 over two incomparable classes: 2 independent cycles
        ({1: {"a"}, 2: {"b"}, 3: {"a", "b"}, 4: {"a", "b"}, 5: {"a", "b"}}, (1, 2)),
        # {a} is expanded first, so the term of {a, b} counts its 3 twins
        ({1: {"a", "b"}, 2: {"a", "b"}, 3: {"a"}, 4: {"a"}, 5: {"a"}}, (1, 2)),
        # three nested classes of two twins: a join of three 2-point sets, a 2-sphere
        ({p: set("abc"[:(p + 1) // 2]) for p in range(1, 7)}, (1, 0)),
    ])
    def test_small_cases(self, supports, beta):
        q, mult = distinct_order(supports)
        b = betti(order_complex(q, max_dim=2), 1)
        assert twin_betti(q, mult, b) == beta
        assert edge_level_oracle(hg(supports))[1] == beta

    def test_degrees_are_multiplicity_sums(self):
        supports = {p: {"s"} for p in range(1, 6)}
        supports.update({80: {"s", "a"}, 443: {"s", "a"}, 22: {"s", "a", "b"}})
        q, mult = distinct_order(supports)
        # port 22 sits over 5 + 2 ports, each singleton port under 3
        assert twin_degrees(q, mult) == (7, 3)
        assert twin_degrees(q, mult) == edge_level_oracle(hg(supports))[0]

    def test_equals_edge_level_oracle(self):
        rng = random.Random(16)
        for gen in GENERATORS:
            for _ in range(150):
                h = hg(gen(rng))
                assert _containment_features(h) == edge_level_oracle(h), gen.__name__

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(GENERATORS))
    def test_window_statistics_equal_edge_level_oracle(self, seed, gen):
        supports = gen(random.Random(seed))
        w = session_window(supports)
        (in_deg, out_deg), (b0, b1) = edge_level_oracle(build_hypergraph(w))
        stats = window_statistics(w)
        assert (stats["max_ecp_in_degree"], stats["max_ecp_out_degree"],
                stats["rbs_beta0"], stats["rbs_beta1"]) == (in_deg, out_deg, b0, b1)

    def test_no_arcs(self):
        assert _containment_features(hg({1: {"a"}, 2: {"a"}, 3: {"b"}})) == \
            ((0, 0), (3, 0))
        assert _containment_features(Hypergraph.from_edges({})) == ((0, 0), (0, 0))


# ---------------------------------------------------------------- homology


class TestBetti:
    def test_hollow_triangle(self):
        K = SimplicialComplex.from_simplices([(0, 1), (0, 2), (1, 2)])
        assert betti(K, 1) == (1, 1)

    def test_filled_triangle(self):
        K = SimplicialComplex.from_simplices([(0, 1, 2)])
        assert betti(K, 2) == (1, 0, 0)

    def test_tetrahedron_boundary(self):
        K = SimplicialComplex.from_simplices(combinations(range(4), 3))
        assert betti(K, 2) == (1, 0, 1)

    def test_two_points(self):
        K = SimplicialComplex.from_simplices([(0,), (5,)])
        assert betti(K, 1) == (2, 0)

    def test_square_cycle(self):
        K = SimplicialComplex.from_simplices([(0, 1), (1, 2), (2, 3), (0, 3)])
        assert betti(K, 1) == (1, 1)

    def test_empty_complex_all_zeros(self):
        for K in (SimplicialComplex({}),
                  order_complex(build_ecp(Hypergraph.from_edges({})), max_dim=2)):
            for d in range(3):
                assert betti(K, d) == (0,) * (d + 1)

    def test_negative_max_dim(self):
        with pytest.raises(ValueError):
            betti(SimplicialComplex.from_simplices([(0,)]), -1)

    def test_matches_naive_elimination(self):
        rng = random.Random(77)
        for _ in range(60):
            K = random_complex(rng)
            d = max(K.dim, 0)
            assert betti(K, d) == oracle_betti(K, d)

    def test_graph_betti_equals_oracle(self):
        # boundary_1 ranked by the spanning forest against dense GF(2)
        # elimination, on graphs with negative labels, isolated vertices,
        # several components and cycles
        rng = random.Random(80)
        for _ in range(200):
            labels = rng.sample(range(-3, 60), rng.randint(1, 14))
            edges = [e for e in combinations(labels, 2) if rng.random() < rng.random()]
            K = SimplicialComplex.from_simplices([(v,) for v in labels] + edges)
            assert betti(K, 1) == oracle_betti(K, 1)

    def test_euler_characteristic_alternating_sum(self):
        rng = random.Random(78)
        for _ in range(40):
            K = random_complex(rng)
            b = betti(K, max(K.dim, 0))
            assert sum((-1) ** k * bk for k, bk in enumerate(b)) == \
                   K.euler_characteristic()

    def test_boundary_of_boundary_vanishes(self):
        rng = random.Random(79)
        for _ in range(30):
            K = random_complex(rng)
            for k in range(1, K.dim + 1):
                prod = _boundary_matrix(K, k) @ _boundary_matrix(K, k + 1)
                assert not prod.size or np.all(prod == 0)

    def test_repeated_vertices_rejected(self):
        with pytest.raises(ValueError):
            SimplicialComplex.from_simplices([(0, 0, 1)])


class TestHodge:
    def test_single_edge_graph_laplacian(self):
        K = SimplicialComplex.from_simplices([(0, 1)])
        L = hodge(K, 0)
        assert np.array_equal(L.matrix, np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert np.allclose(spectrum(L), [0.0, 2.0])

    def test_triangle_graph_spectrum(self):
        K = SimplicialComplex.from_simplices([(0, 1), (0, 2), (1, 2)])
        assert np.allclose(spectrum(hodge(K, 0)), [0.0, 3.0, 3.0])

    def test_filled_triangle_l1(self):
        K = SimplicialComplex.from_simplices([(0, 1, 2)])
        assert np.allclose(spectrum(hodge(K, 1)), [3.0, 3.0, 3.0])

    def test_out_of_range(self):
        K = SimplicialComplex.from_simplices([(0, 1)])
        with pytest.raises(ValueError):
            hodge(K, 2)
        with pytest.raises(ValueError):
            hodge(K, -1)

    def test_symmetric_psd(self):
        rng = random.Random(91)
        for _ in range(25):
            K = random_complex(rng)
            for k in range(K.dim + 1):
                L = hodge(K, k)
                assert np.allclose(L.matrix, L.matrix.T)
                assert spectrum(L).min(initial=0.0) > -1e-10

    def test_kernel_dimension_is_betti(self):
        # holds whenever GF(2) and real ranks agree (no 2-torsion)
        rng = random.Random(92)
        checked = 0
        while checked < 25:
            K = random_complex(rng)
            d = max(K.dim, 0)
            if betti(K, d) != real_rank_betti(K, d):
                continue
            b = betti(K, d)
            for k in range(K.dim + 1):
                nulls = int(np.sum(spectrum(hodge(K, k)) < 1e-8))
                assert nulls == b[k]
            checked += 1

    def test_spectrum_rejects_asymmetric(self):
        from flowtopo.topology import HodgeLaplacian
        with pytest.raises(ValueError):
            spectrum(HodgeLaplacian(0, np.array([[0.0, 1.0], [0.0, 0.0]])))
        with pytest.raises(ValueError):
            spectrum(HodgeLaplacian(0, np.zeros((2, 3))))

    def test_connected_components_counted_by_l0_kernel(self):
        K = SimplicialComplex.from_simplices([(0, 1), (2, 3), (4,)])
        assert int(np.sum(spectrum(hodge(K, 0)) < 1e-8)) == 3
