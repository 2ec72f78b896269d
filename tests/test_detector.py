import copy
import json
import math
import pickle
import random
import re
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from flowtopo import detector, persistence
from flowtopo.detector import (
    DEFAULTS,
    FEATURE_NAMES,
    AnomalyReport,
    FeatureVector,
    attribute,
    calibrate_threshold,
    cloud_diagram,
    init_baseline,
    parse_config,
    run_detector,
    score_window,
    step,
    summarize_window,
    window_statistics,
)
from flowtopo.flows import SessionRecord, TimeWindow
from flowtopo.persistence import (
    Filtration,
    PersistenceDiagram,
    barcode,
    rips_diagram,
    vietoris_rips,
    wasserstein,
)

# ---------------------------------------------------------------- features


def sess(client, port, start=10.0):
    return SessionRecord(client, "10.1.0.1", 51515, port, start, start + 1.0, 2)


def three_session_window():
    return TimeWindow(0.0, 300.0, (
        sess("10.0.0.1", 80),
        sess("10.0.0.2", 80),
        sess("10.0.0.1", 443),
    ))


FULL_SCAN_CHILD = """
import json, resource
from flowtopo import (ScanSpec, TrafficProfile, generate_normal, inject_scan,
                      pair_bidirectional, window)
from flowtopo.detector import summarize_window
profile = TrafficProfile(n_clients=12, duration=300.0, seed=5)
records = inject_scan(generate_normal(profile), ScanSpec(port_range=(1, 65535)),
                      profile)
(w,) = window(pair_bidirectional(records), profile.window_width)
values = summarize_window(w).values
print(json.dumps({"values": values,
                  "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""


# k = 4 scanners, scanner j scanning ports 1..100 j: 4 nested supports of 100
# twin ports each, 1,000 records
NESTED_WINDOW_CHILD = """
import json, resource, time
from flowtopo import SessionRecord, TimeWindow
from flowtopo.detector import summarize_window
w = TimeWindow(0.0, 300.0, tuple(
    SessionRecord(f"10.9.9.{j}", "10.1.0.1", 40000 + j, p, 1.0, 2.0, 1)
    for j in range(1, 5) for p in range(1, 100 * j + 1)))
t = time.perf_counter()
values = summarize_window(w).values
seconds = time.perf_counter() - t
print(json.dumps({"values": values, "seconds": seconds,
                  "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""

# 50 scanners over 50,000 ports, scanner j scanning ports 1..1000 j, and
# twelve clients on a port each: as a window this would be 1,275,000 sessions
NESTED_HYPERGRAPH_CHILD = """
import json, resource, time
from flowtopo import Hypergraph
from flowtopo.detector import _containment_features
scanners = [f"10.9.0.{j}" for j in range(1, 51)]
chain = [frozenset(scanners[i:]) for i in range(50)]
edges = {p: chain[(p - 1) // 1000] for p in range(1, 50001)}
edges.update({60000 + i: frozenset([f"10.0.0.{i}"]) for i in range(1, 13)})
h = Hypergraph.from_edges(edges)
t = time.perf_counter()
features = _containment_features(h)
seconds = time.perf_counter() - t
print(json.dumps({"features": features, "seconds": seconds,
                  "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""


def oracle_attribute(b, v):
    """attribute as a per-probe loop, kept verbatim: each probe's distance
    matrix is built whole from the baseline's points and the probe."""
    z = np.array(b.standardize(v))
    col_means = np.array(b.points).mean(axis=0)
    scores = []
    for i in range(len(z)):
        probe = z.copy()
        probe[i] = col_means[i]
        scores.append(_score_standardized(b, tuple(probe)))
    return b.feature_names[int(np.argmin(scores))]


def _score_standardized(b, z):
    return detector._distance(
        detector._matrix_diagram(b, whole_distances(b.points + (z,))),
        b.diagram, b.max_dim)


def whole_distances(points):
    """The distance matrix of a cloud, computed in one piece; an entry that
    overflows is inf."""
    pts = np.array(points, dtype=float)
    with np.errstate(over="ignore"):
        return persistence.euclidean_distances(pts, pts)


def fv(values, start=0.0):
    return FeatureVector(window_start=start, values=tuple(float(x) for x in values))


def jitter_baseline(rng, capacity=6, max_eps=2.0, names=("a", "b")):
    vecs = [fv([rng.uniform(-0.5, 0.5) + 3.0, rng.uniform(-0.5, 0.5) - 1.0], i)
            for i in range(capacity)]
    return init_baseline(vecs, capacity, max_eps=max_eps, max_dim=1,
                         features=names), vecs


class TestSummarize:
    def test_three_session_vector(self):
        v = summarize_window(three_session_window())
        assert v.window_start == 0.0
        assert v.values == (3.0, 2.0, 2.0, 2.0, 1.5, 1.0, 1.0, 1.0, 0.0, 1.0)

    def test_empty_window_all_zero(self):
        v = summarize_window(TimeWindow(600.0, 300.0, ()))
        assert v.values == (0.0,) * len(FEATURE_NAMES)
        assert v.window_start == 600.0

    def test_feature_subset_and_order(self):
        v = summarize_window(three_session_window(),
                             features=("mean_edge_size", "n_records"))
        assert v.values == (1.5, 3.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_vector_rejected(self, bad):
        with pytest.raises(ValueError, match="coordinate 1"):
            FeatureVector(window_start=0.0, values=(1.0, bad, 2.0))
        with pytest.raises(ValueError, match="window_start"):
            FeatureVector(window_start=bad, values=(1.0,))

    @pytest.mark.parametrize("start, values, message", [
        ("0", (1.0,), "window_start '0' is not a real number"),
        (True, (True,), "window_start True is not a real number"),
        (None, (1.0,), "window_start None is not a real number"),
        (0.0, ("1",), "coordinate 0 of the window at 0.0 is '1', not a real number"),
        (300.0, (1.0, True), "coordinate 1 of the window at 300.0 is True, not a real number"),
        (0, (1, 2.0, 3j), "coordinate 2 of the window at 0 is 3j, not a real number"),
    ])
    def test_vector_of_another_type_rejected(self, start, values, message):
        with pytest.raises(ValueError) as err:
            FeatureVector(window_start=start, values=values)
        assert str(err.value) == message

    def test_unknown_feature(self):
        with pytest.raises(ValueError, match="unknown feature"):
            summarize_window(three_session_window(), features=("bogus",))

    def test_statistics_keys_cover_names(self):
        st = window_statistics(three_session_window())
        assert set(st) == set(FEATURE_NAMES)

    def test_scan_window_spikes_in_degree(self):
        normal = [sess(f"10.0.0.{i}", p) for i in range(1, 5) for p in (80, 443)]
        scanner = [sess("10.9.9.9", p) for p in range(1, 30)] + \
                  [sess("10.9.9.9", 80), sess("10.9.9.9", 443)]
        quiet = summarize_window(TimeWindow(0.0, 300.0, tuple(normal)))
        noisy = summarize_window(TimeWindow(0.0, 300.0, tuple(normal + scanner)))
        idx = FEATURE_NAMES.index("max_ecp_in_degree")
        assert noisy.values[idx] >= 29
        assert quiet.values[idx] == 0.0

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="ru_maxrss is in KiB only on Linux")
    def test_full_port_scan_window_bounded_memory(self, run_bare_child):
        # all 65535 ports scanned in one window: 262,124 order-complex edges,
        # whose boundary columns must be reduced as they are generated;
        # holding them all at once takes about 1.3 GiB
        out = run_bare_child(FULL_SCAN_CHILD)
        assert out["values"] == [65579.0, 13.0, 65535.0, 9.0, 1.0004425116350042,
                                 65531.0, 4.0, 1.0, 196590.0, 65531.0]
        assert out["maxrss_kib"] < 800 * 1024, f"child peak {out['maxrss_kib']} KiB"

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="ru_maxrss is in KiB only on Linux")
    def test_nested_scan_window_fast(self, run_bare_child):
        # the edge-level order complex of this window has 4 * 100**3 triangles
        out = run_bare_child(NESTED_WINDOW_CHILD)
        assert out["values"] == [1000.0, 4.0, 400.0, 4.0, 2.5, 300.0, 300.0,
                                 1.0, 0.0, 100.0]
        assert out["seconds"] < 0.05, f"summarize_window took {out['seconds']:.3f} s"

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="ru_maxrss is in KiB only on Linux")
    def test_nested_scan_hypergraph_bounded(self, run_bare_child):
        out = run_bare_child(NESTED_HYPERGRAPH_CHILD)
        # the largest support sits over 49 classes of 1,000 ports; the chain is
        # one component and each client's port another
        assert out["features"] == [[49000, 49000], [13, 0]]
        assert out["seconds"] < 1.0, f"took {out['seconds']:.3f} s"
        assert out["maxrss_kib"] < 300 * 1024, f"child peak {out['maxrss_kib']} KiB"


# ---------------------------------------------------------------- baseline


class TestBaseline:
    def test_init_standardizes(self):
        vecs = [fv([1.0, 10.0]), fv([3.0, 10.0]), fv([5.0, 10.0])]
        b = init_baseline(vecs, 3, max_eps=5.0, max_dim=1, features=("a", "b"))
        assert b.mean == (3.0, 10.0)
        # zero-variance coordinate keeps scale 1 instead of dividing by zero
        assert b.std[1] == 1.0
        assert [p[1] for p in b.points] == [0.0, 0.0, 0.0]
        xs = sorted(p[0] for p in b.points)
        assert xs[0] == pytest.approx(-xs[2])

    def test_capacity_floor(self):
        vecs = [fv([0.0]), fv([1.0])]
        with pytest.raises(ValueError):
            init_baseline(vecs, 2, max_eps=1.0, max_dim=0, features=("a",))

    def test_feature_names_must_match_width(self):
        vecs = [fv([float(i), i * i, 1.0]) for i in range(5)]
        for names in (("a",), ("a", "b", "c", "d")):
            with pytest.raises(ValueError, match=f"^{len(names)} feature names for "
                                                 "vectors of 3 coordinates$"):
                init_baseline(vecs, 5, max_eps=20.0, max_dim=1, features=names)

    def test_count_mismatch(self):
        vecs = [fv([0.0])] * 4
        with pytest.raises(ValueError):
            init_baseline(vecs, 5, max_eps=1.0, max_dim=0, features=("a",))

    def test_standardize_length_check(self):
        b, _ = jitter_baseline(random.Random(1))
        with pytest.raises(ValueError):
            b.standardize(fv([1.0, 2.0, 3.0]))

    def test_cached_diagram_matches_points(self):
        b, _ = jitter_baseline(random.Random(2))
        assert b.diagram == cloud_diagram(b.points, b.max_eps, b.max_dim)

    def test_overflowing_coordinate_named(self):
        # a window far beyond a tiny frozen scale: refused by name, with no
        # numpy warning on the way
        vecs = [fv([i * 1e-150, i % 2], 300.0 * i) for i in range(5)]
        b = init_baseline(vecs, 5, max_eps=20.0, max_dim=1, features=("a", "b"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for values, name, x, z in (([1e200, 0.0], "a", "1e+200", "inf"),
                                       ([0.0, -1.7e308], "b", "-1.7e+308", "-inf")):
                with pytest.raises(ValueError, match=rf"^feature {name} of the window at "
                                   rf"1500.0 is {re.escape(x)}, which standardizes "
                                   rf"to {z}, not finite$"):
                    b.standardize(FeatureVector(1500.0, tuple(values)))

    def test_identical_vectors_collapse_to_one_bar(self):
        vecs = [fv([7.0, 7.0])] * 5
        b = init_baseline(vecs, 5, max_eps=2.0, max_dim=1, features=("a", "b"))
        assert b.diagram.bars == {0: ((0.0, 2.0),)}


class TestDistances:
    def test_rotations_keep_the_generic_diagram(self):
        rng = np.random.default_rng(21)
        vecs = [fv(row) for row in rng.normal(size=(40, 10))]
        b = init_baseline(vecs[:20], 20, max_eps=20.0, max_dim=1, features=FEATURE_NAMES)
        for v in vecs[20:]:
            report, b = step(b, v, threshold=1e9)
            assert not report.anomalous
            assert b.diagram == cloud_diagram(b.points, b.max_eps, b.max_dim)
        assert b.points[-1] == b.standardize(vecs[-1])

    def test_copies_equal(self):
        b, _ = jitter_baseline(random.Random(23))
        for twin in (copy.deepcopy(b), pickle.loads(pickle.dumps(b))):
            assert twin == b

    def test_engine_disagreement_raises(self, monkeypatch):
        # a rips_diagram that drops one H0 bar must stop the run at init
        def corrupted(dist, max_eps, max_dim):
            bars = dict(rips_diagram(dist, max_eps, max_dim).bars)
            bars[0] = bars[0][1:]
            return PersistenceDiagram(bars)

        monkeypatch.setattr(detector, "rips_diagram", corrupted)
        with pytest.raises(RuntimeError, match="differs from vietoris_rips"):
            jitter_baseline(random.Random(24))


class TestCloudDiagram:
    def test_equals_tuple_filtration_oracle(self):
        # detector-sized clouds (a 20-point baseline plus one window, 10
        # coordinates); the oracle rebuilds the filtration from its tuples
        import numpy as np

        rng = np.random.default_rng(11)
        for trial in range(12):
            pts = rng.normal(size=(21, 10))
            if trial % 3 == 0:
                pts[-1] = pts[0]  # a window equal to a baseline point
            if trial % 3 == 1:
                pts = np.round(pts)  # many tied distances
            points = tuple(tuple(row) for row in pts.tolist())
            for max_eps, max_dim in ((20.0, 1), (4.0, 1), (3.0, 2)):
                oracle = barcode(Filtration.from_simplices(
                    vietoris_rips(points, max_eps, max_dim).simplices))
                want = oracle.restrict(max_dim).truncate(max_eps)
                assert cloud_diagram(points, max_eps, max_dim) == want


# ---------------------------------------------------------------- scoring


class TestScore:
    def test_equals_generic_path(self):
        # detector-sized clouds: each score equals the one computed through
        # cloud_diagram on the points with the window appended
        rng = np.random.default_rng(25)
        for trial in range(6):
            raw = rng.normal(size=(30, 10))
            if trial % 2:
                raw = np.round(raw)
            vecs = [fv(row) for row in raw]
            b = init_baseline(vecs[:20], 20, max_eps=4.0, max_dim=1, features=FEATURE_NAMES)
            for v in vecs[20:]:
                generic = cloud_diagram(b.points + (b.standardize(v),), b.max_eps, b.max_dim)
                want = math.fsum(wasserstein(generic, b.diagram, k) for k in (0, 1))
                assert score_window(b, v) == want

    def test_duplicate_vector_scores_zero(self):
        b, vecs = jitter_baseline(random.Random(3))
        assert score_window(b, vecs[-1]) == 0.0

    def test_far_vector_scores_half_eps(self):
        vecs = [fv([1.0, 2.0])] * 5
        b = init_baseline(vecs, 5, max_eps=2.0, max_dim=1, features=("a", "b"))
        far = fv([101.0, 2.0])
        assert score_window(b, far) == 1.0  # max_eps / 2

    def test_score_saturates_with_distance(self):
        vecs = [fv([1.0, 2.0])] * 5
        b = init_baseline(vecs, 5, max_eps=2.0, max_dim=1, features=("a", "b"))
        assert score_window(b, fv([101.0, 2.0])) == \
               score_window(b, fv([100001.0, 2.0]))

    def test_nearby_vector_scores_low(self):
        rng = random.Random(4)
        b, vecs = jitter_baseline(rng, capacity=8)
        near = fv([3.0, -1.0])
        far = fv([30.0, -1.0])
        assert score_window(b, near) < score_window(b, far)


class TestCalibrate:
    def test_identical_points_zero_threshold(self):
        vecs = [fv([4.0, 4.0])] * 5
        b = init_baseline(vecs, 5, max_eps=2.0, max_dim=1, features=("a", "b"))
        assert calibrate_threshold(b, 0.99) == 0.0

    def test_matches_manual_loo(self):
        import numpy as np
        from flowtopo.detector import _distance
        b, _ = jitter_baseline(random.Random(5), capacity=6)
        scores = []
        for i in range(6):
            rest = b.points[:i] + b.points[i + 1:]
            scores.append(_distance(b.diagram,
                                    cloud_diagram(rest, b.max_eps, b.max_dim), 1))
        for q in (0.5, 0.9, 1.0):
            assert calibrate_threshold(b, q) == 1.5 * float(np.quantile(scores, q))

    def test_quantile_one_is_max(self):
        import numpy as np
        b, _ = jitter_baseline(random.Random(6), capacity=5)
        t_max = calibrate_threshold(b, 1.0)
        t_med = calibrate_threshold(b, 0.5)
        assert t_med <= t_max

    def test_quantile_validation(self):
        b, _ = jitter_baseline(random.Random(7))
        with pytest.raises(ValueError):
            calibrate_threshold(b, 0.0)
        with pytest.raises(ValueError):
            calibrate_threshold(b, 1.5)


class TestAttribute:
    def test_single_bad_coordinate_named(self):
        rng = random.Random(8)
        b, vecs = jitter_baseline(rng, capacity=8, names=("alpha", "beta"))
        spiked = fv([3.0 + 50.0, -1.0])
        assert attribute(b, spiked) == "alpha"
        spiked_other = fv([3.0, -1.0 + 50.0])
        assert attribute(b, spiked_other) == "beta"

    def test_equals_generic_path(self):
        # flagged detector-sized vectors: the named coordinate is the first one
        # whose probe scores lowest when each probe's diagram comes from
        # cloud_diagram.  Spikes in one coordinate, in two of nearly equal
        # size, and in two far enough out that every probe saturates and ties
        rng = np.random.default_rng(27)
        flagged = 0
        for trial in range(6):
            raw = rng.normal(size=(26, 10))
            if trial % 2:
                raw = np.round(raw)
            b = init_baseline([fv(row) for row in raw[:20]], 20, max_eps=20.0, max_dim=1,
                              features=FEATURE_NAMES)
            threshold = calibrate_threshold(b)
            for k, row in enumerate(raw[20:]):
                cols = rng.choice(10, size=2, replace=False)
                if k % 3 == 0:
                    row[cols[0]] += rng.uniform(5.0, 9.0)
                elif k % 3 == 1:
                    row[cols] += rng.uniform(5.0, 9.0) + np.array([0.0, rng.uniform(0.0, 0.3)])
                else:
                    row[cols] += 60.0
                v = fv(row)
                if score_window(b, v) <= threshold:
                    continue
                flagged += 1
                z = b.standardize(v)
                col_means = np.array(b.points).mean(axis=0)
                scores = []
                for i in range(len(z)):
                    probe = z[:i] + (col_means[i],) + z[i + 1:]
                    generic = cloud_diagram(b.points + (probe,), b.max_eps, b.max_dim)
                    scores.append(math.fsum(wasserstein(generic, b.diagram, dim)
                                            for dim in (0, 1)))
                assert attribute(b, v) == FEATURE_NAMES[scores.index(min(scores))]
        assert flagged >= 20

    def test_equals_per_probe_oracle(self):
        # seeded detector-sized baselines, plain and rounded (tied distances),
        # with one constant coordinate: it standardizes to its column mean,
        # 0.0, so probing it in a copy of a baseline point gives that point
        rng = np.random.default_rng(29)
        for trial in range(8):
            raw = rng.normal(size=(30, 10))
            if trial % 2:
                raw = np.round(raw)
            raw[:, 3] = 3.0
            b = init_baseline([fv(row) for row in raw[:20]], 20, max_eps=20.0, max_dim=1,
                              features=FEATURE_NAMES)
            col_means = np.array(b.points).mean(axis=0)
            vectors = [fv(row) for row in raw[20:]]
            for j in (0, 7):
                row = raw[j].copy()
                row[3] = 50.0
                probe = np.array(b.standardize(fv(row)))
                probe[3] = col_means[3]
                assert tuple(probe) == b.points[j]
                vectors.append(fv(row))
            for v in vectors:
                assert attribute(b, v) == oracle_attribute(b, v)

    @pytest.mark.parametrize("d", [1, 2, 5, 10, 12])
    def test_probe_matrices_bit_identical(self, d):
        # each assembled matrix is the probe's own full matrix, byte for byte
        rng = np.random.default_rng(30 + d)
        names = tuple(f"f{i}" for i in range(d))
        for trial in range(4):
            raw = rng.normal(scale=rng.choice([1e-3, 1.0, 1e3]), size=(21, d))
            if trial % 2:
                raw = np.round(raw)
            b = init_baseline([fv(row) for row in raw[:20]], 20, max_eps=20.0, max_dim=1,
                              features=names)
            z = np.array(b.standardize(fv(raw[20])))
            probes = np.tile(z, (d, 1))
            np.fill_diagonal(probes, np.array(b.points).mean(axis=0))
            probes[0] = b.points[0]
            for probe, (_, dist) in zip(probes, detector._scored(b, fv(raw[20]), probes)):
                want = whole_distances(b.points + (tuple(probe),))
                assert dist.tobytes() == want.tobytes()

    def test_tie_goes_to_first_index(self):
        # baseline symmetric under coordinate swap, vector equally bad in both
        vecs = [fv([x, x]) for x in (0.0, 1.0, 2.0, 3.0, 4.0)]
        b = init_baseline(vecs, 5, max_eps=3.0, max_dim=1, features=("u", "w"))
        v = fv([100.0, 100.0])
        assert attribute(b, v) == "u"


# ---------------------------------------------------------------- stepping


class TestStep:
    def test_normal_rotates_oldest_out(self):
        b, _ = jitter_baseline(random.Random(9), capacity=5)
        v = fv([3.1, -1.1])
        report, b2 = step(b, v, threshold=1e9)
        assert not report.anomalous
        assert report.attribution is None
        assert b2.points[:-1] == b.points[1:]
        assert b2.points[-1] == b.standardize(v)
        # frozen scale carries over
        assert b2.mean == b.mean and b2.std == b.std
        assert b2.diagram == cloud_diagram(b2.points, b.max_eps, b.max_dim)

    def test_anomaly_leaves_baseline_alone(self):
        b, _ = jitter_baseline(random.Random(10), capacity=5)
        v = fv([300.0, -1.0])
        report, b2 = step(b, v, threshold=1e-6)
        assert report.anomalous
        assert report.attribution == "a"
        assert b2 is b

    def test_score_at_threshold_is_normal(self):
        vecs = [fv([1.0, 2.0])] * 5
        b = init_baseline(vecs, 5, max_eps=2.0, max_dim=1, features=("a", "b"))
        report, b2 = step(b, fv([101.0, 2.0]), threshold=1.0)
        assert report.score == 1.0
        assert not report.anomalous  # strict > comparison

    def test_report_json_keys(self):
        import json
        r = AnomalyReport(300.0, 2.5, 1.0, True, "n_records")
        parsed = json.loads(r.to_json())
        assert list(parsed) == ["window_start", "score", "threshold",
                                "anomalous", "attribution"]
        assert parsed["anomalous"] is True

    def test_alternating_stream(self):
        # normal windows keep absorbing, spikes keep flagging throughout
        rng = random.Random(11)
        base = [fv([rng.uniform(2.8, 3.2), rng.uniform(-1.2, -0.8)], i)
                for i in range(8)]
        # max_eps well above the standardized cloud scale, as in the defaults:
        # spike scores saturate at max_eps/2 while thresholds stay O(1)
        b = init_baseline(base, 8, max_eps=20.0, max_dim=1, features=("a", "b"))
        threshold = max(calibrate_threshold(b, 0.99), 0.05)
        flags = []
        for i in range(10):
            if i % 3 == 2:
                v = fv([60.0, -1.0], 100 + i)
            else:
                v = fv([rng.uniform(2.8, 3.2), rng.uniform(-1.2, -0.8)], 100 + i)
            report, b = step(b, v, threshold)
            flags.append(report.anomalous)
        assert flags == [i % 3 == 2 for i in range(10)]


# ---------------------------------------------------------------- isolated points


def isolated_cases(seed, count):
    """(b, far, b_exact, near) on seeded baselines of 3-24 points in 1-10
    coordinates, plain, rounded (tied distances) or with duplicate points,
    at max_eps 0.5-20 and max_dim 0, 1 and 2.  far is more than b.max_eps
    from every point of b.  b_exact has b's points, and its max_eps is
    near's distance to its nearest point.  Both baselines have unit scale,
    so that a vector standardizes to itself."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        n, d = int(rng.integers(3, 25)), int(rng.integers(1, 11))
        raw = rng.normal(size=(n, d)) * rng.choice([0.5, 1.0, 4.0])
        if trial % 3 == 1:
            raw = np.round(raw)
        elif trial % 3 == 2:
            raw[rng.integers(n, size=n // 2)] = raw[0]
        vecs = [fv(row, i) for i, row in enumerate(raw)]
        names = tuple(f"f{i}" for i in range(d))
        max_eps, max_dim = float(rng.uniform(0.5, 20.0)), trial % 3
        unit = dict(mean=(0.0,) * d, std=(1.0,) * d)
        b = replace(init_baseline(vecs, n, max_eps=max_eps, max_dim=max_dim,
                                  features=names), **unit)
        pts = np.array(b.points)
        center = pts.mean(axis=0)
        reach = np.sqrt(((pts - center) ** 2).sum(axis=1)).max()
        u = rng.normal(size=d)
        u /= np.sqrt((u * u).sum())
        far = tuple(center + u * (reach + max_eps * rng.uniform(1.001, 3.0)))
        # a point a few units from a baseline point (a duplicated one, if any)
        near = tuple(pts[0] + u * rng.uniform(0.5, 5.0))
        nearest = float(whole_distances(b.points + (near,))[-1, :-1].min())
        b_exact = replace(init_baseline(vecs, n, max_eps=nearest, max_dim=max_dim,
                                        features=names), **unit)
        yield b, far, b_exact, near


def generic_score(b, z):
    generic = cloud_diagram(b.points + (tuple(z),), b.max_eps, b.max_dim)
    return math.fsum(wasserstein(generic, b.diagram, k) for k in range(b.max_dim + 1))


def is_isolated(b, z):
    """Whether z is farther than b.max_eps from every point of b."""
    return bool((whole_distances(b.points + (tuple(z),))[-1, :-1] > b.max_eps).all())


@pytest.fixture()
def scored_diagrams(monkeypatch):
    """The diagrams the detector has scored against its baseline's so far."""
    diagrams = []
    distance = detector._distance

    def recorded(diag_a, diag_b, max_dim):
        diagrams.append(diag_a)
        return distance(diag_a, diag_b, max_dim)

    monkeypatch.setattr(detector, "_distance", recorded)
    return diagrams


@pytest.fixture()
def rips_calls(monkeypatch):
    """The number of rips_diagram calls the detector has made so far."""
    calls = []

    def counted(dist, max_eps, max_dim):
        calls.append(len(dist))
        return rips_diagram(dist, max_eps, max_dim)

    monkeypatch.setattr(detector, "rips_diagram", counted)
    return calls


class TestIsolatedPoint:
    def test_scored_diagram_equals_cloud_diagram(self, rips_calls, scored_diagrams):
        exact = 0
        for b, far, b_exact, near in isolated_cases(41, 200):
            for base, z in ((b, far), (b_exact, near)):
                before = len(rips_calls)
                score = score_window(base, fv(z))
                want = cloud_diagram(base.points + (z,), base.max_eps, base.max_dim)
                assert scored_diagrams[-1] == want
                assert score == generic_score(base, z)
                # only an isolated point skips rips_diagram; one at exactly
                # max_eps from its nearest point has an edge in the complex
                assert len(rips_calls) - before == (base is b_exact)
            exact += whole_distances(b_exact.points + (near,))[-1, :-1].min() == b_exact.max_eps
        assert exact == 200

    def test_score_and_step_equal_generic_path(self):
        for k, (b, far, b_exact, near) in enumerate(isolated_cases(43, 45)):
            for base, z in ((b, far), (b_exact, near)):
                v = fv(z, 100.0 + k)
                assert base.standardize(v) == z
                want = generic_score(base, z)
                assert score_window(base, v) == want
                report, rotated = step(base, v, threshold=1e9)
                assert (report.score, report.anomalous) == (want, False)
                assert rotated.points == base.points[1:] + (z,)
                assert rotated.diagram == cloud_diagram(rotated.points, base.max_eps,
                                                        base.max_dim)
                report, same = step(base, v, threshold=-1.0)
                assert same is base
                assert report == AnomalyReport(v.window_start, want, -1.0, True,
                                               oracle_attribute(base, v))

    def test_attribute_mixes_isolated_and_generic_probes(self, rips_calls):
        # a spike in one or two coordinates: the probes that keep a spike
        # stay isolated, and the one that removes a lone spike may not
        mixed = 0
        for b, *_ in isolated_cases(47, 60):
            pts = np.array(b.points)
            d = pts.shape[1]
            reach = np.sqrt(((pts - pts.mean(axis=0)) ** 2).sum(axis=1)).max()
            for cols in ([d - 1], [d // 2], [0, d - 1]):
                z = pts.mean(axis=0)
                z[cols] += reach + b.max_eps * 1.5
                v = fv(z)
                probes = np.tile(z, (d, 1))
                np.fill_diagonal(probes, pts.mean(axis=0))
                kinds = [is_isolated(b, probe) for probe in probes]
                mixed += set(kinds) == {True, False}
                before = len(rips_calls)
                got = attribute(b, v)
                # every generic probe, and only those, goes to rips_diagram
                assert len(rips_calls) - before == kinds.count(False)
                assert got == oracle_attribute(b, v)
        assert mixed >= 40

    def test_point_at_exactly_max_eps_counts_its_triangles(self, monkeypatch):
        # two copies of a point at exactly max_eps from the window: the
        # window and the pair are a triangle, and a limit of the baseline's
        # own triangles refuses the cloud
        vecs = [fv(x) for x in ([0, 0], [0, 0], [1, 0], [0, 1], [1, 1], [0.5, 0.5],
                                [0.5, 0])]
        b = replace(init_baseline(vecs, 7, max_eps=5.0, max_dim=1, features=("a", "b")),
                    mean=(0.0, 0.0), std=(1.0, 1.0))
        z = (b.points[0][0], b.points[0][1] - 5.0)
        cloud = whole_distances(b.points + (z,))
        assert cloud[-1, :2].tolist() == [5.0, 5.0] and (cloud[-1, 2:-1] > 5.0).all()
        triangles = 35  # every triple of the baseline is within max_eps
        monkeypatch.setattr(persistence, "MAX_LAYER", triangles)
        with pytest.raises(ValueError, match=f"the Rips complex has {triangles + 1} "):
            score_window(b, fv(z))

    def test_isolated_point_counts_its_pairs(self, monkeypatch):
        b, vecs = jitter_baseline(random.Random(31), capacity=6)
        far = fv([300.0, -1.0])
        monkeypatch.setattr(persistence, "MAX_LAYER", 20)
        with pytest.raises(ValueError, match="7 points have 21 pairs, more than the limit"):
            score_window(b, far)

    def test_overflowing_distance_named(self):
        # a finite window whose squared differences overflow: refused by the
        # window and its farthest feature, with no numpy warning on the way
        b, _ = jitter_baseline(random.Random(32), capacity=6)
        for values, name in (([b.mean[0] + 1e200 * b.std[0], b.mean[1]], "a"),
                             ([b.mean[0] + 1e160 * b.std[0], b.mean[1] - 1e170 * b.std[1]],
                              "b")):
            v = fv(values, 1500.0)
            z = b.standardize(v)
            assert all(map(math.isfinite, z))
            i = "ab".index(name)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for call in (lambda: score_window(b, v), lambda: step(b, v, 1.0)):
                    with pytest.raises(ValueError, match=rf"^feature {name} of the window at "
                                       rf"1500.0 is {re.escape(str(values[i]))}, "
                                       rf"{re.escape(str(z[i]))} on the baseline's scale, too "
                                       rf"far from the baseline for a finite distance$"):
                        call()
        # the same matrix still fails rips_diagram's own check
        dist = whole_distances(b.points + (z,))
        with pytest.raises(ValueError, match=r"distance \(0, 6\) is inf, not finite"):
            detector._matrix_diagram(b, dist)

    def test_attribute_overflow_named(self):
        # attribute called directly: the probe that keeps the far coordinate
        # overflows, and is refused by name like the window itself
        vecs = [fv([i, i % 2], 300.0 * i) for i in range(5)]
        b = init_baseline(vecs, 5, max_eps=20.0, max_dim=1, features=("a", "b"))
        v = FeatureVector(1500.0, (1e200, 0.0))
        z = b.standardize(v)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^feature a of the window at 1500.0 is "
                               rf"1e\+200, {re.escape(str(z[0]))} on the baseline's scale, "
                               rf"too far from the baseline for a finite distance$"):
                attribute(b, v)


class TestRunDetector:
    def test_report_count_and_order(self):
        rng = random.Random(12)
        vecs = [fv([rng.uniform(0, 1), rng.uniform(0, 1)], float(i))
                for i in range(9)]
        reports = run_detector(vecs, capacity=5, max_eps=3.0, max_dim=1,
                               quantile=0.99, features=("a", "b"))
        assert [r.window_start for r in reports] == [5.0, 6.0, 7.0, 8.0]

    def test_too_few_vectors(self):
        with pytest.raises(ValueError):
            run_detector([fv([0.0])] * 3, capacity=5, max_eps=1.0, max_dim=0,
                         features=("a",))


# ---------------------------------------------------------------- config


class TestConfig:
    def test_full_file(self):
        text = """
        # detector settings
        capacity = 12
        window_width = 600.0   # ten minutes
        max_eps = 10.0
        max_dim = 1
        quantile = 0.95
        features = n_records, max_ecp_in_degree ,rbs_beta1
        """
        cfg = parse_config(text)
        assert cfg == {
            "capacity": 12,
            "window_width": 600.0,
            "max_eps": 10.0,
            "max_dim": 1,
            "quantile": 0.95,
            "features": ["n_records", "max_ecp_in_degree", "rbs_beta1"],
        }

    def test_empty_text(self):
        assert parse_config("") == {}
        assert parse_config("# only a comment\n\n") == {}

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_config("capacity = 5\nwat = 9\n")

    def test_bad_value(self):
        with pytest.raises(ValueError, match="bad value"):
            parse_config("capacity = twelve\n")

    def test_missing_equals(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_config("capacity 5\n")

    @pytest.mark.parametrize("key", sorted(DEFAULTS))
    def test_default_parses_back_with_its_type(self, key):
        value = DEFAULTS[key]
        text = ", ".join(value) if key == "features" else str(value)
        parsed = parse_config(f"{key} = {text}\n")[key]
        assert parsed == value and type(parsed) is type(value)
