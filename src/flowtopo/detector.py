"""Sliding-baseline anomaly detection over per-window feature vectors.

Each time window is summarized into a fixed-order statistic vector.  A
baseline is a sliding set of standardized vectors whose persistence diagram
is cached; a new window is scored by how much adding its vector perturbs
that diagram (summed Wasserstein distance over homology dimensions).  Scores
above the calibrated threshold flag the window and leave the baseline
untouched; otherwise the oldest point rotates out.

Every diagram after the first comes from persistence.rips_diagram on the
distance matrix of the cloud it describes (the baseline plus a scored or
probed vector, the baseline without one point for leave-one-out, and for a
rotation the scored cloud's matrix without its first row and column), with
one exception.  A scored or probed vector farther than max_eps from every
baseline point is an isolated vertex: it has no edge in the complex, so it
is its own component at every scale and lies in no other simplex
(Edelsbrunner & Harer, Computational Topology, 2010).  Every other simplex
and pair is then the baseline's, and the cloud's diagram is the cached one
plus one H0 bar [0, inf), truncated to (0, max_eps).  Far windows, such as
scans, and all their attribution probes take this path; the probes share
one score.  _scored alone applies this rule, computes the distances of a
scored or probed cloud and refuses one that overflows.  init_baseline
computes the first diagram through cloud_diagram, the generic
vietoris_rips + barcode path, and refuses to go on if rips_diagram
disagrees.

A window's containment features (max_ecp_in_degree, max_ecp_out_degree,
rbs_beta0, rbs_beta1) are those of its port hyperedges, computed on the
order of its distinct supports.  Ports that share a support are twins, and
each class of m twins is added back by the twin rule (Quillen, Adv. Math.
1978; Wachs, "Poset topology", 2007; derived in topology): beta0 gains m - 1
for a class comparable to nothing, beta1 gains (m - 1) * (components above - 1)
for a minimal class and (m - 1) * (components below - 1) for a maximal one, and
a degree is the sum of the multiplicities below or above.  A 4000-port scan
is then one node, not 4000.  build_ecp -> order_complex -> betti on the port
hypergraph itself stays the oracle the tests hold these numbers to.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .flows import TimeWindow, _is_real
from .hypergraph import Hypergraph, HypergraphStats, build_hypergraph, stats
from .persistence import (
    PersistenceDiagram,
    _check_pairs,
    barcode,
    euclidean_distances,
    rips_diagram,
    vietoris_rips,
    wasserstein,
)
from .topology import betti, build_ecp, order_complex, twin_betti, twin_degrees

FEATURE_NAMES = (
    "n_records",
    "n_unique_sIP",
    "n_unique_dPort",
    "max_edge_size",
    "mean_edge_size",
    "max_ecp_in_degree",
    "max_ecp_out_degree",
    "rbs_beta0",
    "rbs_beta1",
    "max_support_multiplicity",
)

# every config setting and its default, which the library's own signatures
# read too; a setting's type is its default's type
DEFAULTS = {
    "capacity": 20,
    "window_width": 300.0,
    "max_eps": 20.0,
    "max_dim": 1,
    "quantile": 0.99,
    "features": list(FEATURE_NAMES),
}

THRESHOLD_SLACK = 1.5


@dataclass(frozen=True)
class FeatureVector:
    """Statistic vector of one time window; coordinate order is run-wide.

    Non-finite coordinates are rejected: one NaN would silently blind the
    detector to every later window.  So are a window_start or coordinate
    that is not a real number, or is a bool.
    """

    window_start: float
    values: tuple[float, ...]

    def __post_init__(self):
        if not _is_real(self.window_start):
            raise ValueError(f"window_start {self.window_start!r} is not a real number")
        if not math.isfinite(self.window_start):
            raise ValueError(f"window_start {self.window_start} is not finite")
        for i, x in enumerate(self.values):
            if not _is_real(x):
                raise ValueError(f"coordinate {i} of the window at {self.window_start} is "
                                 f"{x!r}, not a real number")
            if not math.isfinite(x):
                raise ValueError(
                    f"coordinate {i} of the window at {self.window_start} is {x}, "
                    "not finite")


@dataclass(frozen=True)
class AnomalyReport:
    window_start: float
    score: float
    threshold: float
    anomalous: bool
    attribution: str | None

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def _window_topology(w: TimeWindow
                     ) -> tuple[HypergraphStats, tuple[int, int], tuple[int, int]]:
    """Hypergraph stats, then _containment_features of the window's hypergraph."""
    h = build_hypergraph(w)
    return (stats(h), *_containment_features(h))


def _containment_features(h: Hypergraph) -> tuple[tuple[int, int], tuple[int, int]]:
    """The largest in- and out-degree of h's containment order and its order
    complex's (beta0, beta1), at the level of h's edges.

    Edges that share a support are twins, so the order is built once per
    distinct support and the edge-level numbers follow from each support's
    multiplicity (topology.twin_degrees and twin_betti).  With no arcs every
    edge is an isolated point: beta = (edges, 0) and both degrees are 0.
    """
    multiplicity = h._multiplicity
    q = build_ecp(Hypergraph(h.vertices, dict(enumerate(multiplicity))))
    if not q.arcs:
        return (0, 0), (h.n_edges, 0)
    m = dict(enumerate(multiplicity.values()))
    b = betti(order_complex(q, max_dim=2), 1)
    return twin_degrees(q, m), twin_betti(q, m, b)


def window_statistics(w: TimeWindow) -> dict[str, float]:
    """All supported per-window statistics, keyed by feature name."""
    st, (in_deg, out_deg), (b0, b1) = _window_topology(w)
    return {
        "n_records": float(len(w.sessions)),
        "n_unique_sIP": float(st.n_vertices),
        "n_unique_dPort": float(st.n_edges),
        "max_edge_size": float(st.max_edge_size),
        "mean_edge_size": float(st.mean_edge_size),
        "max_ecp_in_degree": float(in_deg),
        "max_ecp_out_degree": float(out_deg),
        "rbs_beta0": float(b0),
        "rbs_beta1": float(b1),
        "max_support_multiplicity": float(st.max_support_multiplicity),
    }


def summarize_window(w: TimeWindow, features=FEATURE_NAMES) -> FeatureVector:
    """Project the window's statistics onto the configured coordinate order."""
    all_stats = window_statistics(w)
    unknown = [f for f in features if f not in all_stats]
    if unknown:
        raise ValueError(f"unknown feature name(s): {unknown}")
    return FeatureVector(window_start=w.start,
                         values=tuple(all_stats[f] for f in features))


@dataclass(frozen=True)
class Baseline:
    """Sliding reference set of standardized vectors with a cached diagram.

    Standardization parameters are frozen at initialization so later
    anomalies cannot shift the scale they are judged against.  The cached
    diagram is always the truncated barcode of the current points.
    """

    points: tuple[tuple[float, ...], ...]
    mean: tuple[float, ...]
    std: tuple[float, ...]
    max_eps: float
    max_dim: int
    feature_names: tuple[str, ...]
    diagram: PersistenceDiagram

    def standardize(self, v: FeatureVector) -> tuple[float, ...]:
        """v on the baseline's frozen scale.

        Raises ValueError naming the window and the feature if a coordinate
        overflows that scale: one infinite point would only be refused later,
        by rips_diagram, as an unnamed distance.
        """
        if len(v.values) != len(self.mean):
            raise ValueError(
                f"vector has {len(v.values)} coordinates, baseline expects {len(self.mean)}")
        # mean and std are Python floats, so an overflow gives inf, not a
        # numpy warning
        z = tuple((x - m) / s for x, m, s in zip(v.values, self.mean, self.std))
        for i, x in enumerate(z):
            if not math.isfinite(x):
                raise ValueError(f"feature {self.feature_names[i]} of the window at "
                                 f"{v.window_start} is {v.values[i]}, which "
                                 f"standardizes to {x}, not finite")
        return z


def cloud_diagram(points, max_eps: float, max_dim: int) -> PersistenceDiagram:
    """Truncated diagram of a standardized point cloud, dims 0..max_dim.

    The generic path, vietoris_rips + barcode: init_baseline's first diagram
    and the oracle of every diagram the detector takes from rips_diagram.
    """
    filtration = vietoris_rips(points, max_eps=max_eps, max_dim=max_dim)
    return barcode(filtration, max_dim).truncate(max_eps)


def _matrix_diagram(b: Baseline, dist: np.ndarray) -> PersistenceDiagram:
    """cloud_diagram of the cloud whose distance matrix is dist."""
    return rips_diagram(dist, b.max_eps, b.max_dim).truncate(b.max_eps)


def _feature_scale(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's mean and population std, a zero std taken as 1."""
    std = data.std(axis=0)
    return data.mean(axis=0), np.where(std == 0.0, 1.0, std)


def init_baseline(vectors, capacity: int, max_eps: float, max_dim: int,
                  features=FEATURE_NAMES) -> Baseline:
    """Fit standardization on anomaly-free vectors and cache their diagram.

    Raises RuntimeError if rips_diagram on the points' distance matrix, the
    engine of every later diagram, differs from this first, generic one.
    """
    vectors = list(vectors)
    if capacity < 3:
        raise ValueError("baseline capacity must be >= 3")
    if math.isinf(max_eps):
        # an infinite H0 bar would survive truncation and cannot be distanced
        raise ValueError(f"max_eps must be finite, got {max_eps}")
    if len(vectors) != capacity:
        raise ValueError(f"need exactly {capacity} vectors, got {len(vectors)}")
    raw = np.array([v.values for v in vectors], dtype=float)
    if len(features) != raw.shape[1]:
        raise ValueError(f"{len(features)} feature names for vectors of "
                         f"{raw.shape[1]} coordinates")
    mean, std = _feature_scale(raw)
    pts = (raw - mean) / std
    points = tuple(tuple(row) for row in pts)
    diagram = cloud_diagram(points, max_eps, max_dim)
    b = Baseline(points=points, mean=tuple(mean.tolist()), std=tuple(std.tolist()),
                 max_eps=max_eps, max_dim=max_dim,
                 feature_names=tuple(features), diagram=diagram)
    if _matrix_diagram(b, euclidean_distances(pts, pts)) != diagram:
        raise RuntimeError("rips_diagram on the baseline's distances differs from "
                           "vietoris_rips + barcode on its points")
    return b


def _distance(diag_a: PersistenceDiagram, diag_b: PersistenceDiagram,
              max_dim: int) -> float:
    return math.fsum(wasserstein(diag_a, diag_b, dim=k, p=1.0)
                     for k in range(max_dim + 1))


def _scored(b: Baseline, v: FeatureVector, rows: np.ndarray):
    """For each row of rows (v, or a probe of it, on b's scale), its score
    and the distance matrix of b's points plus it: one array, overwritten
    for each row.  score_window, step and attribute all score through here.

    The baseline's block and every row's distances come from one
    euclidean_distances call; each entry depends only on its two points, so
    each matrix is the whole cloud's, bit for bit.  A row whose distances
    overflow raises ValueError naming the window and its feature farthest
    from the baseline's mean, which rips_diagram could not name.

    A row farther than max_eps from every baseline point is an isolated
    vertex.  It has no edge in the complex (an edge of length max_eps is
    in it), so it lies in no simplex but itself (Edelsbrunner & Harer,
    Computational Topology, 2010): as the last vertex it leaves the edges
    within max_eps, their stable order, the triangles and their keys, and
    so every pair, as they are for the baseline alone.  Kruskal never
    merges it, so it adds one [0, inf) bar, which truncate caps at max_eps.
    Every H0 bar is (0.0, d) with d <= max_eps, so the new bar sorts last,
    and the cloud's diagram is b.diagram plus (0.0, max_eps), scored at
    most once per call.  The baseline's own distances passed rips_diagram's
    checks when b.diagram was computed, and an isolated row is finite and
    positive; of its refusals only that of too many pairs depends on the
    added point, and it is made here too.  Every other row goes to
    rips_diagram.
    """
    pts = np.array(b.points, dtype=float)
    n = len(pts)
    with np.errstate(over="ignore"):
        block = euclidean_distances(np.concatenate((pts, rows)), pts)
    if not np.isfinite(block[n:]).all():
        z = b.standardize(v)
        i = max(range(len(z)), key=lambda i: abs(z[i]))
        raise ValueError(f"feature {b.feature_names[i]} of the window at {v.window_start} "
                         f"is {v.values[i]}, {z[i]} on the baseline's scale, too far "
                         "from the baseline for a finite distance")
    dist = np.zeros((n + 1, n + 1))
    dist[:n, :n] = block[:n]
    isolated = None
    for row in block[n:]:
        dist[n, :n] = dist[:n, n] = row
        if not (row > b.max_eps).all():
            yield _distance(_matrix_diagram(b, dist), b.diagram, b.max_dim), dist
            continue
        if isolated is None:
            _check_pairs(n + 1)
            added = b.diagram.in_dim(0) + ((0.0, b.max_eps),)
            isolated = _distance(PersistenceDiagram({**b.diagram.bars, 0: added}),
                                 b.diagram, b.max_dim)
        yield isolated, dist


def score_window(b: Baseline, v: FeatureVector) -> float:
    """Wasserstein perturbation of the baseline diagram when v is added."""
    return next(_scored(b, v, np.array([b.standardize(v)])))[0]


def calibrate_threshold(b: Baseline, quantile: float = DEFAULTS["quantile"]) -> float:
    """Leave-one-out threshold: each point scored against the rest.

    The threshold is the requested quantile of those scores times a slack
    factor, so the baseline's own variability does not self-flag.
    """
    if not 0.0 < quantile <= 1.0:
        raise ValueError("quantile must be in (0, 1]")
    pts = np.array(b.points, dtype=float)
    dist = euclidean_distances(pts, pts)
    scores = []
    for i in range(len(b.points)):
        rest = np.arange(len(b.points)) != i
        reduced_diagram = _matrix_diagram(b, dist[np.ix_(rest, rest)])
        scores.append(_distance(b.diagram, reduced_diagram, b.max_dim))
    return THRESHOLD_SLACK * float(np.quantile(scores, quantile))


def attribute(b: Baseline, v: FeatureVector) -> str:
    """Name the coordinate whose removal most reduces the anomaly score.

    Each coordinate in turn is replaced by the baseline's mean for that
    coordinate and the vector is re-scored; the biggest drop wins, with ties
    going to the lowest index.  Every isolated probe has the same diagram
    (_scored), so its score is computed once.
    """
    z = np.array(b.standardize(v))
    probes = np.tile(z, (len(z), 1))
    np.fill_diagonal(probes, np.array(b.points).mean(axis=0))
    scores = [score for score, _ in _scored(b, v, probes)]
    return b.feature_names[int(np.argmin(scores))]


def step(b: Baseline, v: FeatureVector, threshold: float) -> tuple[AnomalyReport, Baseline]:
    """Score one window and, if it is normal, rotate it into the baseline.

    Anomalous windows are reported with an attribution and the baseline is
    returned unchanged; normal windows replace the oldest point and the
    cached diagram is recomputed from the scored cloud's distance matrix
    without the oldest point's row and column.
    """
    z = b.standardize(v)
    score, scored = next(_scored(b, v, np.array([z])))
    anomalous = score > threshold
    if anomalous:
        report = AnomalyReport(window_start=v.window_start, score=score,
                               threshold=threshold, anomalous=True,
                               attribution=attribute(b, v))
        return report, b
    new_baseline = replace(b, points=b.points[1:] + (z,),
                           diagram=_matrix_diagram(b, scored[1:, 1:]))
    report = AnomalyReport(window_start=v.window_start, score=score,
                           threshold=threshold, anomalous=False, attribution=None)
    return report, new_baseline


def run_detector(vectors, capacity: int, max_eps: float, max_dim: int,
                 quantile: float = DEFAULTS["quantile"],
                 features=FEATURE_NAMES) -> list[AnomalyReport]:
    """Initialize from the first `capacity` vectors, then score the rest."""
    vectors = list(vectors)
    if len(vectors) < capacity:
        raise ValueError(
            f"need at least {capacity} vectors to establish a baseline, "
            f"got {len(vectors)}")
    baseline = init_baseline(vectors[:capacity], capacity, max_eps, max_dim,
                             features=features)
    threshold = calibrate_threshold(baseline, quantile)
    reports = []
    for v in vectors[capacity:]:
        report, baseline = step(baseline, v, threshold)
        reports.append(report)
    return reports


def parse_config(text: str) -> dict:
    """Parse `key = value` config lines; `#` starts a comment.

    Each key of DEFAULTS takes its default's type, except that `features`
    takes a comma-separated list of coordinate names.  Unknown keys are rejected.
    """
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected `key = value`, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in DEFAULTS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key == "features":
            out[key] = [f.strip() for f in value.split(",") if f.strip()]
        else:
            try:
                out[key] = type(DEFAULTS[key])(value)
            except ValueError:
                raise ValueError(
                    f"config line {lineno}: bad value {value!r} for {key}") from None
    return out
