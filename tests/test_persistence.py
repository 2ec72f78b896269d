import copy
import math
import pickle
import random
import re
import sys
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from flowtopo import persistence
from flowtopo.persistence import (
    DISTANCE_BLOCK,
    MAX_LAYER,
    Filtration,
    PersistenceDiagram,
    barcode,
    diagram_to_csv,
    euclidean_distances,
    rips_diagram,
    vietoris_rips,
    wasserstein,
)
from flowtopo.topology import SimplicialComplex, betti

# ---------------------------------------------------------------- helpers


def euclid(a, b):
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def oracle_rips(points, max_eps, max_dim):
    """All vertex subsets of diameter <= max_eps, birth = diameter."""
    n = len(points)
    sims = {}
    for card in range(1, max_dim + 3):
        for sub in combinations(range(n), card):
            diam = max((euclid(points[i], points[j])
                        for i, j in combinations(sub, 2)), default=0.0)
            if diam <= max_eps:
                sims[sub] = diam
    return sims


def reference_rips(points, max_eps, max_dim):
    """Every clique of the eps-graph, births from the same distance expression."""
    pts = np.asarray(points, dtype=float)
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1))
    sims = []
    for card in range(1, max_dim + 3):
        for sub in combinations(range(len(pts)), card):
            birth = max((dist[i, j] for i, j in combinations(sub, 2)), default=0.0)
            if birth <= max_eps:
                sims.append((sub, birth))
    return Filtration.from_simplices(sims)


def oracle_barcode(simps):
    """Left-to-right GF(2) reduction of the boundary matrix over int bitmasks.

    simps holds (sorted vertex tuple, birth) pairs in filtration order.
    Columns are bit-packed over row indices in filtration order; each column
    is XOR-reduced against earlier columns sharing its lowest set row.  A
    pairing (i, j) gives the bar [birth_i, birth_j) in dimension dim(i);
    unpaired creators give [birth, inf).
    """
    index = {verts: pos for pos, (verts, _) in enumerate(simps)}
    if len(index) != len(simps):
        raise ValueError("a simplex is listed twice")
    columns = []
    for verts, birth in simps:
        mask = 0
        if len(verts) > 1:
            for i in range(len(verts)):
                face = verts[:i] + verts[i + 1:]
                fpos = index.get(face)
                if fpos is None:
                    raise ValueError(f"filtration is missing face {face} of {verts}")
                if simps[fpos][1] > birth:
                    raise ValueError(f"face {face} born after coface {verts}")
                mask |= 1 << fpos
        columns.append(mask)

    low_owner = {}
    killed = set()
    bars = {}
    for j, col in enumerate(columns):
        while col:
            owner = low_owner.get(col.bit_length() - 1)
            if owner is None:
                break
            col ^= columns[owner]
        columns[j] = col
        if col:
            low = col.bit_length() - 1
            low_owner[low] = j
            killed.add(low)
            birth, death = simps[low][1], simps[j][1]
            if death > birth:
                bars.setdefault(len(simps[low][0]) - 1, []).append((birth, death))
    for pos, (verts, birth) in enumerate(simps):
        if columns[pos] == 0 and pos not in killed:
            bars.setdefault(len(verts) - 1, []).append((birth, math.inf))
    return PersistenceDiagram({k: tuple(sorted(v)) for k, v in sorted(bars.items())})


def random_filtration(rng, n_max=8, card_max=4):
    """Random simplicial complex with random monotone births.

    Vertices are born at different times and births take few values, so
    ties between simplices of every dimension are common.
    """
    labels = rng.sample(range(-5, 40), rng.randint(1, n_max))
    births = {(v,): float(rng.randint(0, 3)) for v in labels}
    for card in range(2, rng.randint(2, card_max) + 1):
        for sub in combinations(sorted(labels), card):
            facets = list(combinations(sub, card - 1))
            if all(f in births for f in facets) and rng.random() < 0.6:
                births[sub] = max(births[f] for f in facets) + rng.randint(0, 2)
    return list(births.items())


def random_cloud(rng, n_max=7, dim=2):
    n = rng.randint(1, n_max)
    return [tuple(rng.uniform(0, 3) for _ in range(dim)) for _ in range(n)]


def oracle_wasserstein(bars_a, bars_b, p):
    """Factorial search over partial matchings, same float cost terms."""
    n, m = len(bars_a), len(bars_b)
    diag_a = [((d - b) / 2.0) ** p for b, d in bars_a]
    diag_b = [((d - b) / 2.0) ** p for b, d in bars_b]
    best = None
    for k in range(min(n, m) + 1):
        for sub_a in combinations(range(n), k):
            for sub_b in combinations(range(m), k):
                for perm in permutations(sub_b):
                    terms = []
                    for i, j in zip(sub_a, perm):
                        bi, di = bars_a[i]
                        bj, dj = bars_b[j]
                        terms.append(max(abs(bi - bj), abs(di - dj)) ** p)
                    terms += [diag_a[i] for i in range(n) if i not in sub_a]
                    terms += [diag_b[j] for j in range(m) if j not in sub_b]
                    total = math.fsum(terms)
                    if best is None or total < best:
                        best = total
    return (best or 0.0) ** (1.0 / p)


def loop_wasserstein(a, b, dim, p):
    """The cost matrix built entry by entry, solved by the same assignment."""
    bars_a, bars_b = a.in_dim(dim), b.in_dim(dim)
    n, m = len(bars_a), len(bars_b)
    if n == 0 and m == 0:
        return 0.0
    size = n + m
    cost = np.zeros((size, size))
    for i, (bi, di) in enumerate(bars_a):
        for j, (bj, dj) in enumerate(bars_b):
            cost[i, j] = max(abs(bi - bj), abs(di - dj)) ** p
    diag_a = [((d - b) / 2.0) ** p for b, d in bars_a]
    diag_b = [((d - b) / 2.0) ** p for b, d in bars_b]
    big = max([c for row in cost[:n, :m] for c in row] + diag_a + diag_b, default=0.0) + 1.0
    cost[:n, m:] = big
    for i in range(n):
        cost[i, m + i] = diag_a[i]
    cost[n:, :m] = big
    for j in range(m):
        cost[n + j, j] = diag_b[j]
    rows, cols = linear_sum_assignment(cost)
    total = math.fsum(cost[r, c] for r, c in zip(rows, cols))
    return total ** (1.0 / p)


def random_diagram(rng, max_bars=5):
    bars = []
    for _ in range(rng.randint(0, max_bars)):
        b = rng.uniform(0, 2)
        bars.append((b, b + rng.uniform(0.01, 2)))
    return PersistenceDiagram({0: tuple(sorted(bars))} if bars else {})


# ---------------------------------------------------------------- rips


class TestVietorisRips:
    def test_two_points(self):
        f = vietoris_rips([(0.0, 0.0), (1.0, 0.0)], max_eps=2.0, max_dim=1)
        assert f.simplices == (((0,), 0.0), ((1,), 0.0), ((0, 1), 1.0))

    def test_eps_cutoff(self):
        f = vietoris_rips([(0.0, 0.0), (5.0, 0.0)], max_eps=2.0, max_dim=1)
        assert f.simplices == (((0,), 0.0), ((1,), 0.0))

    def test_triangle_birth_is_diameter(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 2.0)]
        f = vietoris_rips(pts, max_eps=10.0, max_dim=1)
        births = dict(f.simplices)
        assert births[(0, 1, 2)] == max(euclid(pts[1], pts[2]),
                                        euclid(pts[0], pts[2]))

    def test_counts_on_dense_cloud(self):
        # five mutually close points, max_dim=1: all edges and triangles appear
        pts = [(0.1 * i, 0.0) for i in range(5)]
        f = vietoris_rips(pts, max_eps=1.0, max_dim=1)
        cards = {}
        for verts, _ in f.simplices:
            cards[len(verts)] = cards.get(len(verts), 0) + 1
        assert cards == {1: 5, 2: 10, 3: 10}

    def test_matches_exhaustive_enumeration(self):
        rng = random.Random(13)
        for _ in range(40):
            dim = rng.choice([2, 3])
            pts = random_cloud(rng, n_max=6, dim=dim)
            max_eps = rng.uniform(0.5, 4.0)
            max_dim = rng.choice([0, 1, 2])
            f = vietoris_rips(pts, max_eps=max_eps, max_dim=max_dim)
            got = {verts: b for verts, b in f.simplices}
            expect = oracle_rips(pts, max_eps, max_dim)
            assert set(got) == set(expect)
            for verts in got:
                assert got[verts] == pytest.approx(expect[verts], abs=1e-12)

    def test_sorted_faces_first(self):
        rng = random.Random(14)
        for _ in range(20):
            f = vietoris_rips(random_cloud(rng), max_eps=2.5, max_dim=2)
            seen = set()
            last = (-1.0, 0)
            for verts, b in f.simplices:
                assert (b, len(verts)) >= last
                last = (b, len(verts))
                for i in range(len(verts)):
                    face = verts[:i] + verts[i + 1:]
                    assert not face or face in seen
                seen.add(verts)

    def test_equals_reference_filtration(self):
        # same simplices, same birth floats, same (birth, dim, verts) order
        rng = random.Random(15)
        for _ in range(60):
            pts = random_cloud(rng, n_max=9, dim=rng.choice([1, 2, 3]))
            max_eps = rng.choice([0.5, 1.0, 2.0, 5.0])
            max_dim = rng.choice([0, 1, 2])
            assert (vietoris_rips(pts, max_eps, max_dim)
                    == reference_rips(pts, max_eps, max_dim))

    def test_arrays_equal_reference_and_tuple_round_trip(self):
        # the arrays vietoris_rips builds directly equal those the tuple
        # constructor builds, and the tuple view rebuilds the same filtration
        rng = random.Random(16)
        for _ in range(60):
            pts = random_cloud(rng, n_max=9, dim=rng.choice([1, 2, 3]))
            max_eps = rng.choice([0.5, 1.0, 2.0, 5.0])
            max_dim = rng.choice([0, 1, 2])
            f = vietoris_rips(pts, max_eps, max_dim)
            ref = reference_rips(pts, max_eps, max_dim)
            for name in ("births", "sizes", "vertices"):
                assert np.array_equal(getattr(f, name), getattr(ref, name))
            assert f.births.dtype == np.float64
            assert f.sizes.sum() == len(f.vertices)
            assert Filtration.from_simplices(f.simplices) == f
            assert Filtration.from_simplices(f.simplices).simplices == f.simplices
            assert len(f) == len(f.simplices)

    def test_filtration_read_only_and_copyable(self):
        f = vietoris_rips([(0.0, 0.0), (1.0, 0.0)], max_eps=2.0, max_dim=1)
        with pytest.raises(ValueError):
            f.births[0] = 5.0
        with pytest.raises(AttributeError):
            f.births = np.zeros(3)
        assert f.births.tolist() == [0.0, 0.0, 1.0]
        for twin in (f, copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert twin == f and twin.simplices == f.simplices
            for name in ("births", "sizes", "vertices"):
                assert not getattr(twin, name).flags.writeable
            # the positions and facets barcode() reads, rebuilt with each copy
            for derived, want in ((twin.positions, ([0, 1], [2])),
                                  (twin.facets, ([[], []], [[1, 0]]))):
                assert [arr.tolist() for arr in derived] == list(want)
                assert not any(arr.flags.writeable for arr in derived)

    def test_non_integer_vertex_label_rejected(self):
        # int64 would truncate 0.5 to vertex 0
        with pytest.raises(TypeError):
            Filtration.from_simplices([((0.5,), 0.0)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="point 1 has a non-finite"):
            vietoris_rips([(0.0, 0.0), (bad, 1.0), (1.0, 1.0)], max_eps=2.0, max_dim=1)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            vietoris_rips([], max_eps=1.0, max_dim=1)
        for bad in (0.0, -math.inf, math.nan):
            with pytest.raises(ValueError, match="max_eps"):
                vietoris_rips([(0.0, 0.0)], max_eps=bad, max_dim=1)
        with pytest.raises(ValueError):
            vietoris_rips([(0.0, 0.0)], max_eps=1.0, max_dim=-1)


# ---------------------------------------------------------------- filtration


def as_arrays(pairs):
    """The constructor's three arrays for pairs taken in the given order."""
    return (np.array([b for _, b in pairs], dtype=np.float64),
            np.array([len(v) for v, _ in pairs], dtype=np.int64),
            np.array([u for v, _ in pairs for u in v], dtype=np.int64))


class TestFiltration:
    # edge (0, 2) listed before the two edges born earlier
    UNSORTED = [((0,), 0.0), ((1,), 0.0), ((2,), 0.0), ((0, 2), 0.8), ((0, 1), 0.5),
                ((1, 2), 0.5), ((0, 1, 2), 1.0)]

    def test_unsorted_pairs_sorted_and_unsorted_arrays_rejected(self):
        d = barcode(Filtration.from_simplices(self.UNSORTED))
        assert d.in_dim(0) == ((0.0, 0.5), (0.0, 0.5), (0.0, math.inf))
        assert d.in_dim(1) == ((0.8, 1.0),)
        with pytest.raises(ValueError, match=r"simplex \(0, 1\) born at 0.5 comes after "
                                             r"\(0, 2\) born at 0.8"):
            Filtration(*as_arrays(self.UNSORTED))

    def test_coface_before_face_at_equal_birth_rejected(self):
        with pytest.raises(ValueError, match=r"simplex \(1,\) born at 0.0 comes after "
                                             r"\(0, 1\)"):
            Filtration(*as_arrays([((0,), 0.0), ((0, 1), 0.0), ((1,), 0.0)]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_birth_rejected(self, bad):
        pairs = [((0,), 0.0), ((1,), bad), ((0, 1), 1.0)]
        for build in (Filtration.from_simplices, lambda p: Filtration(*as_arrays(p))):
            with pytest.raises(ValueError, match=r"simplex \(1,\) has non-finite birth"):
                build(pairs)

    def test_vertices_must_increase(self):
        # facet keys read vertices in order, so (1, 0) would be a second (0, 1)
        with pytest.raises(ValueError, match=r"^simplex \(1, 0\) has repeated or unsorted"):
            Filtration(*as_arrays([((0,), 0.0), ((1,), 0.0), ((0, 1), 1.0), ((1, 0), 1.0)]))
        with pytest.raises(ValueError, match=r"^simplex \(0, 0\) has repeated or unsorted"):
            Filtration.from_simplices([((0,), 0.0), ((0, 0), 1.0)])
        # a larger simplex out of order lacks the facet spelled out of order
        edges = [((0,), 0.0), ((1,), 0.0), ((2,), 0.0), ((0, 1), 1.0), ((0, 2), 1.0),
                 ((1, 2), 1.0)]
        for verts, face in (((0, 2, 1), r"\(2, 1\)"), ((0, 1, 1), r"\(1, 1\)")):
            with pytest.raises(ValueError, match=rf"^filtration is missing face {face} of "):
                Filtration(*as_arrays(edges + [(verts, 2.0)]))

    def test_keeps_its_own_arrays(self):
        base, sizes, vertices = as_arrays([((0,), 0.0), ((1,), 0.0), ((0, 1), 1.0)])
        view = base[:]
        f = Filtration(view, sizes, vertices)
        base[2] = -1.0
        sizes[0], vertices[0] = 2, 7
        assert f.simplices == (((0,), 0.0), ((1,), 0.0), ((0, 1), 1.0))
        for arr in (base, view, sizes, vertices):
            assert arr.flags.writeable

    @pytest.mark.parametrize("arrays, message", [
        ((np.zeros(2), np.ones(1, np.int64), np.zeros(1, np.int64)),
         "2 births, 1 sizes summing to 1 and 1 vertices do not match"),
        ((np.zeros(2), np.ones(2, np.int64), np.arange(3)),
         "2 births, 2 sizes summing to 2 and 3 vertices do not match"),
        ((np.zeros(2), np.array([1, 0]), np.zeros(1, np.int64)), "simplex 1 has 0 vertices"),
        ((np.zeros(1), np.ones(1, np.int64), np.zeros(1)),
         "vertices must be a 1-D integer array"),
        ((np.zeros((1, 1)), np.ones(1, np.int64), np.zeros(1, np.int64)),
         "births must be a 1-D float64 array"),
    ])
    def test_malformed_arrays_rejected(self, arrays, message):
        with pytest.raises(ValueError, match=message):
            Filtration(*arrays)


# ---------------------------------------------------------------- barcode


class TestBarcode:
    def test_hollow_triangle_by_hand(self):
        f = Filtration.from_simplices([
            ((0,), 0.0), ((1,), 0.0), ((2,), 0.0),
            ((0, 1), 1.0), ((0, 2), 2.0), ((1, 2), 3.0),
        ])
        d = barcode(f)
        assert d.in_dim(0) == ((0.0, 1.0), (0.0, 2.0), (0.0, math.inf))
        assert d.in_dim(1) == ((3.0, math.inf),)

    def test_filled_triangle_kills_cycle(self):
        f = Filtration.from_simplices([
            ((0,), 0.0), ((1,), 0.0), ((2,), 0.0),
            ((0, 1), 1.0), ((0, 2), 2.0), ((1, 2), 3.0),
            ((0, 1, 2), 4.0),
        ])
        assert barcode(f).in_dim(1) == ((3.0, 4.0),)

    def test_zero_persistence_dropped(self):
        f = Filtration.from_simplices([((0,), 0.0), ((1,), 0.0), ((0, 1), 0.0)])
        d = barcode(f)
        assert d.in_dim(0) == ((0.0, math.inf),)

    def test_unit_square_h1(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        d = barcode(vietoris_rips(pts, max_eps=2.0, max_dim=1))
        assert len(d.in_dim(1)) == 1
        b, death = d.in_dim(1)[0]
        assert b == pytest.approx(1.0, abs=1e-12)
        assert death == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert d.infinite_count(0) == 1
        assert d.in_dim(0).count((0.0, 1.0)) == 3

    def test_missing_face_rejected(self):
        with pytest.raises(ValueError, match=r"^filtration is missing face \(1,\) of \(0, 1\)$"):
            Filtration.from_simplices((((0, 1), 1.0),))

    def test_face_born_late_rejected(self):
        with pytest.raises(ValueError, match=r"^face \(1,\) born at 2.0 after "
                                             r"coface \(0, 1\) at 1.0$"):
            Filtration.from_simplices((((0,), 0.0), ((1,), 2.0), ((0, 1), 1.0)))

    def test_infinite_bars_match_final_betti(self):
        rng = random.Random(19)
        for _ in range(30):
            pts = random_cloud(rng, n_max=6)
            max_dim = rng.choice([0, 1])
            f = vietoris_rips(pts, max_eps=2.0, max_dim=max_dim)
            d = barcode(f)
            K = SimplicialComplex.from_simplices([v for v, _ in f.simplices])
            b = betti(K, max_dim)
            for k in range(max_dim + 1):
                assert d.infinite_count(k) == b[k]

    def test_alive_bars_equal_betti_at_threshold(self):
        # fundamental property: bars alive at t count the homology of the
        # sublevel complex at t, for every t
        rng = random.Random(20)
        for _ in range(25):
            pts = random_cloud(rng, n_max=6)
            f = vietoris_rips(pts, max_eps=3.0, max_dim=1)
            d = barcode(f)
            births = sorted({b for _, b in f.simplices})
            for t in births + [b + 0.01 for b in births]:
                sub = [v for v, b in f.simplices if b <= t]
                if not sub:
                    continue
                bt = betti(SimplicialComplex.from_simplices(sub), 1)
                for k in (0, 1):
                    alive = sum(1 for b, death in d.in_dim(k)
                                if b <= t < death)
                    assert alive == bt[k]


class TestBarcodeOracle:
    """barcode() must equal the boundary-matrix reduction exactly."""

    def test_random_clouds(self):
        rng = random.Random(37)
        for _ in range(300):
            dim = rng.choice([1, 2, 3])
            n = rng.randint(1, 11)
            if rng.random() < 0.5:
                # integer grid: many tied distances
                pts = [tuple(float(rng.randint(0, 3)) for _ in range(dim))
                       for _ in range(n)]
            else:
                pts = [tuple(rng.uniform(0, 3) for _ in range(dim)) for _ in range(n)]
            if n > 2 and rng.random() < 0.3:
                pts[-1] = pts[0]  # duplicate point
            max_eps = rng.choice([0.5, 1.0, 1.5, 2.0, 10.0])
            max_dim = rng.choice([0, 1, 2])
            f = vietoris_rips(pts, max_eps, max_dim)
            assert barcode(f) == oracle_barcode(f.simplices)

    def test_several_components(self):
        rng = random.Random(38)
        for _ in range(20):
            pts = [(rng.uniform(0, 1) + 10 * rng.randint(0, 2), rng.uniform(0, 1))
                   for _ in range(12)]
            f = vietoris_rips(pts, max_eps=1.2, max_dim=1)
            d = barcode(f)
            assert d == oracle_barcode(f.simplices)
            assert d.infinite_count(0) >= 2

    def test_hand_built_filtrations(self):
        # late-born vertices, ties across dimensions, up to tetrahedra
        rng = random.Random(39)
        for _ in range(400):
            f = Filtration.from_simplices(random_filtration(rng))
            assert barcode(f) == oracle_barcode(f.simplices)

    def test_broken_filtrations_rejected_alike(self):
        # construction raises exactly when the oracle does
        rng = random.Random(40)
        rejected = 0
        for _ in range(300):
            pairs = random_filtration(rng)
            i = rng.randrange(len(pairs))
            change = rng.random()
            if change < 1 / 3:
                del pairs[i]
            elif change < 2 / 3:
                pairs[i] = (pairs[i][0], pairs[i][1] + 5.0)
            else:
                pairs.append((pairs[i][0], pairs[i][1] + rng.randint(0, 2)))
            if not pairs:
                continue
            pairs.sort(key=lambda p: (p[1], len(p[0]), p[0]))
            try:
                want = oracle_barcode(pairs)
            except ValueError:
                rejected += 1
                with pytest.raises(ValueError):
                    Filtration.from_simplices(pairs)
            else:
                assert barcode(Filtration.from_simplices(pairs)) == want
        assert 50 < rejected < 250

    def test_wide_simplex(self):
        # a 9-simplex beside 70 isolated vertices: keys overflow int64
        pairs = [(sub, float(card + max(sub) // 3))
                 for card in range(1, 11) for sub in combinations(range(10), card)]
        pairs += [((v,), 0.5) for v in range(10, 80)]
        f = Filtration.from_simplices(pairs)
        assert barcode(f) == oracle_barcode(f.simplices)

    def test_empty_filtration(self):
        assert barcode(Filtration.from_simplices(())) == PersistenceDiagram({})

    @settings(max_examples=80, deadline=None, database=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                    min_size=1, max_size=8).flatmap(
                        lambda pts: st.tuples(st.just(pts), st.permutations(pts))),
           st.sampled_from([1.0, 1.5, 2.5, 6.0]),
           st.integers(0, 2),
           st.randoms(use_true_random=False))
    def test_diagram_invariant_under_permutation(self, clouds, max_eps, max_dim, rnd):
        pts, shuffled = clouds
        f = vietoris_rips(pts, max_eps, max_dim)
        d = barcode(f)
        assert d == barcode(vietoris_rips(shuffled, max_eps, max_dim))
        # the same simplices, listed and spelled in any order
        pairs = [(rnd.sample(verts, len(verts)), b) for verts, b in f.simplices]
        rnd.shuffle(pairs)
        g = Filtration.from_simplices(pairs)
        assert g == f and barcode(g) == d


class TestMaxDim:
    @settings(max_examples=150, deadline=None, database=None)
    @given(st.randoms(use_true_random=False), st.integers(0, 3))
    def test_equals_restricted_oracle(self, rnd, max_dim):
        f = Filtration.from_simplices(random_filtration(rnd, card_max=5))
        assert barcode(f, max_dim) == oracle_barcode(f.simplices).restrict(max_dim)

    def test_rips_top_dimension_left_out(self):
        # 8 points in general position, all within max_eps: 56 triangles
        pts = [(math.cos(t), math.sin(t), 0.1 * t) for t in range(8)]
        f = vietoris_rips(pts, max_eps=10.0, max_dim=1)
        assert barcode(f).infinite_count(2) > 0
        assert 2 not in barcode(f, 1).dims()
        assert barcode(f, 1) == barcode(f).restrict(1) == barcode(f, 5).restrict(1)

    @pytest.mark.parametrize("bad", [-1, -3])
    def test_negative_rejected(self, bad):
        f = Filtration.from_simplices([((0,), 0.0)])
        with pytest.raises(ValueError, match=f"^max_dim must be >= 0, got {bad}$"):
            barcode(f, bad)


class TestRipsDiagram:
    """rips_diagram on a cloud's distance matrix is barcode(vietoris_rips(...))."""

    @staticmethod
    def both(pts, max_eps, max_dim):
        pts = np.asarray(pts, dtype=float)
        return (rips_diagram(euclidean_distances(pts, pts), max_eps, max_dim),
                barcode(vietoris_rips(pts, max_eps, max_dim), max_dim))

    def test_seeded_clouds(self):
        # ties (integer grids), duplicate points, 1-23 points, 1-10
        # coordinates, then 24-90 points, where only max_dim 0 and 1 stay
        # quick enough for the oracle
        rng = np.random.default_rng(61)
        for trial in range(360):
            n = int(rng.integers(1, 24) if trial < 300 else rng.integers(24, 91))
            d = int(rng.integers(1, 11))
            pts = rng.normal(size=(n, d))
            if trial % 3 == 0:
                pts = np.round(pts)
            if trial % 4 == 0 and n > 2:
                pts[-1] = pts[0]
            max_eps = float(rng.choice([0.5, 1.0, 2.0, 4.0, 20.0, math.inf]))
            max_dim = int(rng.integers(0, 3 if n <= 15 else 2))
            got, want = self.both(pts, max_eps, max_dim)
            assert got == want

    def test_several_components(self):
        rng = random.Random(62)
        for _ in range(30):
            pts = [(rng.uniform(0, 1) + 10 * rng.randint(0, 3), rng.uniform(0, 1))
                   for _ in range(14)]
            for max_dim in (0, 1, 2):
                got, want = self.both(pts, 1.2, max_dim)
                assert got == want
                assert got.infinite_count(0) >= 2

    def test_no_edges_and_single_point(self):
        for pts in ([(0.0, 0.0)], [(0.0,), (5.0,), (11.0,)]):
            for max_dim in (0, 1, 2):
                got, want = self.both(pts, 1.0, max_dim)
                assert got == want and got.in_dim(0) == ((0.0, math.inf),) * len(pts)

    @settings(max_examples=120, deadline=None, database=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 2)),
                    min_size=1, max_size=10),
           st.sampled_from([0.5, 1.0, 1.5, 2.5, 6.0]),
           st.integers(0, 2))
    def test_property(self, pts, max_eps, max_dim):
        got, want = self.both(pts, max_eps, max_dim)
        assert got == want

    def test_key_blocks_change_nothing(self, monkeypatch):
        # the triangle keys computed one edge at a time, then a few at a time
        rng = np.random.default_rng(63)
        clouds = [(rng.normal(size=(n, 4)), max_eps)
                  for n in (2, 3, 9, 30) for max_eps in (0.8, 2.0, 20.0)]
        clouds.append((np.round(rng.normal(size=(25, 3))), 2.0))
        want = [rips_diagram(euclidean_distances(pts, pts), max_eps, 1)
                for pts, max_eps in clouds]
        for block in (1, 64):
            monkeypatch.setattr(persistence, "KEY_BLOCK", block)
            got = [rips_diagram(euclidean_distances(pts, pts), max_eps, 1)
                   for pts, max_eps in clouds]
            assert got == want

    @pytest.mark.parametrize("dist, message", [
        (np.zeros((2, 3)), "distance matrix must be square and nonempty, got shape (2, 3)"),
        (np.zeros(3), "distance matrix must be square and nonempty, got shape (3,)"),
        (np.zeros((0, 0)), "distance matrix must be square and nonempty, got shape (0, 0)"),
        ([[0.0, math.nan], [math.nan, 0.0]], "distance (0, 1) is nan, not finite and >= 0"),
        ([[0.0, 1.0], [math.inf, 0.0]], "distance (1, 0) is inf, not finite and >= 0"),
        ([[0.0, -1.0], [-1.0, 0.0]], "distance (0, 1) is -1.0, not finite and >= 0"),
        ([[0.0, 1.0], [2.0, 0.0]],
         "distance (0, 1) is 1.0 but (1, 0) is 2.0; the matrix must be symmetric"),
        ([[0.0, 1.0], [1.0, 0.5]], "distance (1, 1) is 0.5, not 0"),
    ], ids=["non-square", "1-D", "empty", "nan", "inf", "negative", "asymmetric",
            "diagonal"])
    def test_bad_matrix_rejected(self, dist, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            rips_diagram(dist, 1.0, 1)

    def test_bad_settings_rejected(self):
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="max_eps must be > 0"):
                rips_diagram(np.zeros((2, 2)), bad, 1)
        with pytest.raises(ValueError, match="max_dim must be >= 0"):
            rips_diagram(np.zeros((2, 2)), 1.0, -1)

    @pytest.mark.parametrize("d", range(1, 13))
    def test_appended_row_bit_identical(self, d):
        # a point's distances computed alone equal its row and column of
        # the full matrix, bit for bit, whatever the number of coordinates
        rng = np.random.default_rng(100 + d)
        for _ in range(20):
            pts = rng.normal(scale=rng.choice([1e-3, 1.0, 1e3]), size=(21, d))
            full = euclidean_distances(pts, pts)
            row = euclidean_distances(pts[:-1], pts[-1:])[:, 0]
            assert full[:-1, -1].tobytes() == row.tobytes()
            assert full[-1, :-1].tobytes() == row.tobytes()


BLOCKED_DISTANCES_CHILD = """
import json, resource
import numpy as np
from flowtopo.persistence import vietoris_rips
f = vietoris_rips(np.random.default_rng(0).normal(size=(600, 50)), max_eps=1.0, max_dim=1)
print(json.dumps({"simplices": len(f),
                  "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""


RIPS_161_CHILD = """
import json, resource
import numpy as np
from flowtopo.persistence import euclidean_distances, rips_diagram
pts = np.random.default_rng(0).normal(size=(161, 10))
d = rips_diagram(euclidean_distances(pts, pts), max_eps=20.0, max_dim=1)
print(json.dumps({"h0": len(d.in_dim(0)), "h1": len(d.in_dim(1)),
                  "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""


class TestEuclideanDistances:
    """The matrix is computed a block of rows at a time; each entry depends
    only on its two points, so the blocks change no float."""

    @pytest.mark.parametrize("n, d", [(300, 50), (120, 1000), (2000, 3)])
    def test_blocks_equal_rows(self, n, d):
        rng = np.random.default_rng(n + d)
        pts = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3, size=d)
        assert n * pts.size > DISTANCE_BLOCK  # more than one block
        full = euclidean_distances(pts, pts)
        rows = np.array([euclidean_distances(pts[i:i + 1], pts)[0] for i in range(n)])
        assert full.tobytes() == rows.tobytes()

    def test_detector_cloud_is_one_block(self):
        assert 21 * 21 * 10 <= DISTANCE_BLOCK

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="ru_maxrss is in KiB only on Linux")
    def test_bounded_memory(self, run_bare_child):
        # 600 points in 50 coordinates: whole, the two 600 x 600 x 50
        # temporaries took the process from about 78 to 355 MiB
        out = run_bare_child(BLOCKED_DISTANCES_CHILD)
        assert out["simplices"] == 600  # vertices only: no edge within max_eps
        assert out["maxrss_kib"] < 200 * 1024, f"child peak {out['maxrss_kib']} KiB"


class TestRipsMemory:
    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="ru_maxrss is in KiB only on Linux")
    def test_complete_cloud_bounded_memory(self, run_bare_child):
        # 161 points all within max_eps: 12,880 edges and 682,640 triangles,
        # none of them built.  Ranking and sorting the triangles took the
        # process to 299 MiB.  The child peaks near 60 MiB, about 30 MiB of
        # it numpy and the package; scipy.optimize (46 MiB more) loads only
        # with the first Wasserstein distance, which this child never takes
        out = run_bare_child(RIPS_161_CHILD)
        assert (out["h0"], out["h1"]) == (161, 130)
        assert out["maxrss_kib"] < 220 * 1024, f"child peak {out['maxrss_kib']} KiB"


class TestSizeBound:
    """vietoris_rips and rips_diagram refuse a layer of more than MAX_LAYER
    simplices before they build it, with one line."""

    def test_dense_cloud_refused(self):
        # 231 close points: 26,565 edges and C(231, 3) = 2,027,795 triangles
        pts = [(0.001 * i,) for i in range(231)]
        message = (f"the Rips complex has 2027795 2-simplices, more than the limit "
                   f"of {MAX_LAYER} simplices per dimension")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            vietoris_rips(pts, max_eps=1.0, max_dim=1)
        # without triangles it is built
        assert len(vietoris_rips(pts, max_eps=1.0, max_dim=0)) == 231 + 26565
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            rips_diagram(np.zeros((231, 231)), 1.0, 1)

    def test_only_triangles_within_max_eps_counted(self):
        # 240 points a unit apart on a line: C(240, 3) = 2,275,280 triangles
        # in the complete complex, none within max_eps 1.5
        pts = np.arange(240.0)[:, None]
        got = rips_diagram(euclidean_distances(pts, pts), 1.5, 1)
        assert got == barcode(vietoris_rips(pts, 1.5, 1), 1)
        assert got.bars == {0: ((0.0, 1.0),) * 239 + ((0.0, math.inf),)}
        # and 231 equal points are refused with max_dim 1, not with max_dim 0
        assert rips_diagram(np.zeros((231, 231)), 1.0, 0).bars == {0: ((0.0, math.inf),)}

    def test_too_many_pairs_refused(self):
        message = (f"2001 points have 2001000 pairs, more than the limit of "
                   f"{MAX_LAYER} simplices per dimension")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            vietoris_rips(np.zeros((2001, 1)), max_eps=1.0, max_dim=0)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            rips_diagram(np.zeros((2001, 2001)), 1.0, 0)

    def test_limit_leaves_room_for_the_benchmark_clouds(self):
        # an 80-point cloud, complete up to its 82,160 triangles, is built
        pts = np.random.default_rng(5).normal(size=(80, 3))
        assert len(vietoris_rips(pts, max_eps=100.0, max_dim=1)) == 80 + 3160 + 82160


@pytest.fixture(params=["dense", "sorted"])
def lookup(request, monkeypatch):
    """Run a test with dense lookup tables where they fit, then with none."""
    if request.param == "sorted":
        monkeypatch.setattr(persistence, "DENSE_PER_SIMPLEX", 0)
    return request.param


class TestFacetLookup:
    """Labels and keys are looked up in tables while those stay small, and
    sorted and binary-searched otherwise; both give the same diagrams."""

    def test_equals_oracle(self, lookup):
        rng = random.Random(41)
        for _ in range(150):
            f = Filtration.from_simplices(random_filtration(rng, card_max=5))
            assert barcode(f) == oracle_barcode(f.simplices)

    @pytest.mark.parametrize("relabel", [lambda v: -1 - v, lambda v: 10 ** 12 + v],
                             ids=["negative", "beyond-table"])
    def test_relabelled_vertices(self, relabel):
        rng = random.Random(42)
        for _ in range(100):
            pairs = random_filtration(rng)
            want = oracle_barcode(Filtration.from_simplices(pairs).simplices)
            f = Filtration.from_simplices([(tuple(map(relabel, v)), b) for v, b in pairs])
            assert barcode(f) == want
            assert barcode(f, 1) == want.restrict(1)

    def test_wide_simplex_far_labels(self):
        # object keys (10 vertices of 80 overflow int64) and sorted labels
        pairs = [(tuple(10 ** 12 + v for v in sub), float(card + max(sub) // 3))
                 for card in range(1, 11) for sub in combinations(range(10), card)]
        pairs += [((10 ** 12 + v,), 0.5) for v in range(10, 80)]
        f = Filtration.from_simplices(pairs)
        want = oracle_barcode(f.simplices)
        for max_dim in (0, 4, 9):
            assert barcode(f, max_dim) == want.restrict(max_dim)
        # a repeat is found among object keys too
        top = tuple(10 ** 12 + v for v in range(10))
        with pytest.raises(ValueError, match=f"^{re.escape(f'simplex {top} is listed')}"):
            Filtration.from_simplices(pairs + [(top, 20.0)])

    # name -> (pairs, message with the simplices left open, the simplices)
    BROKEN = {
        "vertex": ([((0,), 0.0), ((0, 1), 1.0)],
                   "filtration is missing face {} of {}", (1,), (0, 1)),
        "edge": ([((0,), 0.0), ((1,), 0.0), ((2,), 0.0), ((0, 1), 1.0), ((0, 2), 1.0),
                  ((0, 1, 2), 2.0)], "filtration is missing face {} of {}", (1, 2), (0, 1, 2)),
        # no edges at all: the triangle's facets are looked up among no keys
        "dimension": ([((0,), 0.0), ((1,), 0.0), ((2,), 0.0), ((0, 1, 2), 2.0)],
                      "filtration is missing face {} of {}", (1, 2), (0, 1, 2)),
        "late-vertex": ([((0,), 0.0), ((1,), 3.0), ((0, 1), 1.0)],
                        "face {} born at 3.0 after coface {} at 1.0", (1,), (0, 1)),
        "late-edge": ([((0,), 0.0), ((1,), 0.0), ((2,), 0.0), ((0, 1), 1.0), ((0, 2), 1.0),
                       ((1, 2), 4.0), ((0, 1, 2), 2.0)],
                      "face {} born at 4.0 after coface {} at 2.0", (1, 2), (0, 1, 2)),
        "repeated-vertex": ([((0,), 0.0), ((1,), 0.0), ((0,), 1.0)],
                            "simplex {} is listed more than once", (0,)),
        # two copies used to give a diagram that depended on the copy found
        "repeated-edge": ([((0,), 0.0), ((1,), 0.0), ((2,), 0.0), ((0, 1), 1.0),
                           ((0, 1), 2.0), ((0, 2), 1.0), ((1, 2), 1.0), ((0, 1, 2), 3.0)],
                          "simplex {} is listed more than once", (0, 1)),
        "repeated-triangle": ([((0,), 0.0), ((1,), 0.0), ((2,), 0.0), ((0, 1), 1.0),
                               ((0, 2), 1.0), ((1, 2), 1.0), ((0, 1, 2), 2.0),
                               ((0, 1, 2), 3.0)],
                              "simplex {} is listed more than once", (0, 1, 2)),
    }

    @pytest.mark.parametrize("shift", [0, 10 ** 12])
    @pytest.mark.parametrize("case", list(BROKEN))
    def test_broken_face_named(self, lookup, shift, case):
        pairs, message, *named = self.BROKEN[case]

        def moved(verts):
            return tuple(u + shift for u in verts)

        message = re.escape(message.format(*map(moved, named)))
        with pytest.raises(ValueError, match=f"^{message}$"):
            Filtration.from_simplices([(moved(v), b) for v, b in pairs])


class TestDiagramOps:
    def test_truncate(self):
        d = PersistenceDiagram({0: ((0.0, math.inf), (0.0, 1.0)),
                                1: ((2.0, math.inf),)})
        t = d.truncate(2.0)
        assert t.in_dim(0) == ((0.0, 1.0), (0.0, 2.0))
        assert t.in_dim(1) == ()  # [2, 2) collapses away

    def test_restrict(self):
        d = PersistenceDiagram({0: ((0.0, 1.0),), 1: ((0.0, 2.0),)})
        assert d.restrict(0).bars == {0: ((0.0, 1.0),)}

    def test_csv_lines(self):
        d = PersistenceDiagram({1: ((0.5, 2.0),),
                                0: ((0.0, math.inf), (0.0, 0.1 + 0.2))})
        assert diagram_to_csv(d).splitlines() == [
            "dim,birth,death", "0,0,0.30000000000000004", "0,0,inf", "1,0.5,2"]


# ---------------------------------------------------------------- wasserstein


# runs with `d`, a scratch directory, defined before it
LAZY_ASSIGNMENT_CHILD = """
import json, sys
import flowtopo
from flowtopo.cli import main
from flowtopo.persistence import PersistenceDiagram, wasserstein
rcs = [main(["synth", "--out", d + "/flows.csv", "--n-clients", "3", "--duration", "1500",
             "--seed", "2", "--scan-window", "2"]),
       main(["ingest", "--in", d + "/flows.csv", "--out", d + "/sessions.csv"]),
       main(["features", "--in", d + "/sessions.csv", "--out", d + "/features.csv"]),
       main(["topo", "--in", d + "/sessions.csv", "--out", d + "/topo.csv"])]
with open(d + "/cloud.csv", "w") as f:
    f.write("0,0\\n1,0\\n1,1\\n0,1\\n")
rcs.append(main(["ph", "--in", d + "/cloud.csv", "--out", d + "/diagram.csv"]))
before = "scipy.optimize" in sys.modules
a = PersistenceDiagram({0: ((0.0, 1.0), (0.5, 3.0), (1.0, 1.25))})
b = PersistenceDiagram({0: ((0.0, 2.0), (2.0, 2.5))})
distance = wasserstein(a, b, 0)
print(json.dumps({"rcs": rcs, "before": before, "distance": distance,
                  "after": "scipy.optimize" in sys.modules}))
"""


class TestWasserstein:
    def test_identical_is_zero(self):
        d = PersistenceDiagram({0: ((0.0, 1.0), (0.5, 2.0))})
        assert wasserstein(d, d, 0) == 0.0

    def test_single_bar_to_empty(self):
        d = PersistenceDiagram({0: ((0.0, 2.0),)})
        e = PersistenceDiagram({})
        assert wasserstein(d, e, 0) == 1.0
        assert wasserstein(e, d, 0) == 1.0

    def test_matching_beats_diagonal(self):
        a = PersistenceDiagram({0: ((0.0, 2.0),)})
        b = PersistenceDiagram({0: ((0.0, 3.0),)})
        assert wasserstein(a, b, 0) == 1.0

    def test_p2(self):
        a = PersistenceDiagram({0: ((0.0, 2.0), (0.0, 4.0))})
        e = PersistenceDiagram({})
        assert wasserstein(a, e, 0, p=1.0) == pytest.approx(3.0)
        assert wasserstein(a, e, 0, p=2.0) == pytest.approx(math.sqrt(5.0))

    def test_dim_selects_bars(self):
        a = PersistenceDiagram({0: ((0.0, 5.0),)})
        b = PersistenceDiagram({})
        assert wasserstein(a, b, 1) == 0.0

    def test_empty_empty(self):
        e = PersistenceDiagram({})
        assert wasserstein(e, e, 0) == 0.0

    def test_infinite_bar_rejected(self):
        d = PersistenceDiagram({0: ((0.0, math.inf),)})
        with pytest.raises(ValueError, match="truncate"):
            wasserstein(d, PersistenceDiagram({}), 0)

    def test_assignment_solver_loads_on_first_distance(self, run_bare_child, tmp_path):
        # scipy.optimize is most of the package's import time, and only the
        # detector's distances use it: no other stage may load it
        out = run_bare_child(f"d = {str(tmp_path)!r}" + LAZY_ASSIGNMENT_CHILD)
        assert out["rcs"] == [0] * 5
        assert out["before"] is False
        assert out["after"] is True
        assert out["distance"] == oracle_wasserstein(
            ((0.0, 1.0), (0.5, 3.0), (1.0, 1.25)), ((0.0, 2.0), (2.0, 2.5)), 1.0)

    def test_p_below_one_rejected(self):
        d = PersistenceDiagram({})
        with pytest.raises(ValueError):
            wasserstein(d, d, 0, p=0.5)

    def test_matches_factorial_oracle(self):
        rng = random.Random(29)
        for _ in range(120):
            a = random_diagram(rng, max_bars=4)
            b = random_diagram(rng, max_bars=4)
            p = rng.choice([1.0, 1.0, 2.0])
            got = wasserstein(a, b, 0, p=p)
            want = oracle_wasserstein(a.in_dim(0), b.in_dim(0), p)
            assert got == want

    def test_metric_axioms(self):
        rng = random.Random(31)
        for _ in range(40):
            a = random_diagram(rng)
            b = random_diagram(rng)
            c = random_diagram(rng)
            dab = wasserstein(a, b, 0)
            dba = wasserstein(b, a, 0)
            dac = wasserstein(a, c, 0)
            dcb = wasserstein(c, b, 0)
            assert dab == pytest.approx(dba, abs=1e-12)
            assert dab <= dac + dcb + 1e-12
            assert wasserstein(a, a, 0) == pytest.approx(0.0, abs=1e-12)
            assert dab >= 0.0

    def test_equals_loop_oracle(self):
        rng = random.Random(37)
        for _ in range(200):
            a = random_diagram(rng, max_bars=rng.choice([0, 3, 12]))
            b = random_diagram(rng, max_bars=rng.choice([0, 3, 12]))
            assert wasserstein(a, b, 0) == loop_wasserstein(a, b, 0, 1.0)
            assert wasserstein(a, b, 0, p=2.0) == pytest.approx(
                loop_wasserstein(a, b, 0, 2.0), rel=1e-12)

    @given(st.lists(st.lists(st.tuples(st.floats(0, 10), st.floats(0, 5)), max_size=6),
                    min_size=3, max_size=3),
           st.sampled_from([1.0, 2.0]))
    @settings(max_examples=150, deadline=None)
    def test_metric_properties(self, bar_lists, p):
        a, b, c = (PersistenceDiagram({0: tuple(sorted((x, x + y) for x, y in bars))})
                   for bars in bar_lists)
        dab, dba = wasserstein(a, b, 0, p=p), wasserstein(b, a, 0, p=p)
        assert dab == pytest.approx(dba, rel=1e-9, abs=1e-9)
        assert dab <= wasserstein(a, c, 0, p=p) + wasserstein(c, b, 0, p=p) + 1e-9
        assert wasserstein(a, a, 0, p=p) == 0.0
