"""Workload inputs, one pass of each workload through flowtopo, and the checks.

Each workload's input is generated from the seed alone and handed to the
program as text lines, the form the CLI reads from disk.  A pass drives the
public flowtopo API in the order the CLI pipeline does
(ingest -> features -> detect -> train-ae -> denoise, or `ph`), times it,
and checks its outputs against oracles computed here independently.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import hostspeed
from flowtopo import autoencoder, detector, flows, persistence, synth
from flowtopo.flows import FlowRecord, fmt

WIDTH = 300.0
CAPACITY = 20
MAX_EPS = 20.0
MAX_DIM = 1
QUANTILE = 0.99
# the `train-ae` subcommand's defaults
AE_CONFIG = dict(learning_rate=0.01, momentum=0.9, batch_size=32, epochs=300, seed=0)

CLOUD_MAX_EPS = 5.0
CLOUD_MAX_DIM = 1


@dataclass(frozen=True)
class PipelineSpec:
    n_clients: int
    n_windows: int
    scan_windows: tuple[int, ...]
    scan_ports: int
    # long-lived connections, each split into `chain_records` records
    chains: int = 0
    chain_records: int = 0
    # independent inputs per run, each from its own seed (see run.py)
    inputs: int = 1


@dataclass(frozen=True)
class CloudSpec:
    gaussian: int
    points: int
    circle_points: int
    inputs: int = 1


SPECS = {
    # False flags vary by seed (0 to 21 of 265 windows over seeds 1-20).
    # Twenty scans keep flagged windows above 5% of the 268 scored ones
    # whatever the false flags, so window_p95_ms always lands on a flagged
    # window, attribution included, instead of switching between the two
    # kinds of window from seed to seed.  A flagged window costs about five
    # normal ones, so the false flags move a day's run time by up to 20%;
    # three days a run cut that spread's variance to a third.
    "day": PipelineSpec(n_clients=12, n_windows=288,
                        scan_windows=tuple(range(26, 286, 13)), scan_ports=100,
                        inputs=3),
    "widescan": PipelineSpec(n_clients=120, n_windows=40, scan_windows=(24, 30, 36),
                             scan_ports=4000, chains=3, chain_records=800),
    "cloud": CloudSpec(gaussian=3, points=80, circle_points=80),
}

# The same shapes at a size that runs in about a second, for the smoke test.
TINY_SPECS = {
    "day": PipelineSpec(n_clients=4, n_windows=24, scan_windows=(22,),
                        scan_ports=30, inputs=2),
    "widescan": PipelineSpec(n_clients=8, n_windows=24, scan_windows=(21, 23),
                             scan_ports=200, chains=1, chain_records=40),
    "cloud": CloudSpec(gaussian=1, points=20, circle_points=20),
}


def sha256_lines(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


class Stopwatch:
    """Calls a function and records how long it took, one piece per call.

    Host speed probes run before the first call, after each one and during
    long ones, so every piece can also be scaled to the reference speed
    (hostspeed.py).
    """

    def __init__(self):
        self.pieces: list[float] = []
        self.factors: list[float] = []
        self._before = hostspeed.probe()

    def __call__(self, fn, *args, **kwargs):
        out, seconds, during = hostspeed.timed(fn, *args, **kwargs)
        after = hostspeed.probe()
        self.pieces.append(seconds)
        self.factors.append(hostspeed.scale([self._before, *during, after]))
        self._before = after
        return out

    def scaled(self) -> list[float]:
        return [t * f for t, f in zip(self.pieces, self.factors)]


@dataclass
class PassResult:
    """Timings, outputs and check outcomes of one pass.

    `pieces_s` times each call the pass makes, and `scaled_s` the same at
    reference speed.  `units` lists, for each unit of work (scored window
    or cloud), the pieces its latency is made of.  All come in the same
    order on every pass over the same input.
    """

    run_s: float
    pieces_s: list[float]
    scaled_s: list[float]
    units: list[tuple[int, ...]]
    digests: dict[str, str]
    checks: list[tuple[str, bool]] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)

    def latencies_ms(self, scaled: bool = True) -> list[float]:
        pieces = self.scaled_s if scaled else self.pieces_s
        return [1e3 * sum(pieces[k] for k in unit) for unit in self.units]

    def check(self, name: str, ok: bool) -> None:
        self.checks.append((name, bool(ok)))


# ---------------------------------------------------------------- pipeline


def _chain_records(spec: PipelineSpec, profile: synth.TrafficProfile,
                   rng: np.random.Generator) -> list[FlowRecord]:
    """Long-lived client/server connections cut into consecutive records.

    An exporter with an active timeout emits one record per timeout period
    for each direction of a long session, all on the same 5-tuple.
    """
    records = []
    timeout = 10.0
    pairs = spec.chain_records // 2
    for k in range(spec.chains):
        client = profile.client_ip(int(rng.integers(profile.n_clients)))
        server = profile.server_ip(0)
        cport = 40000 + k
        t0 = float(rng.uniform(0.0, profile.duration - pairs * timeout - 1.0))
        for i in range(pairs):
            s = t0 + i * timeout
            records.append(FlowRecord(s, s + timeout, client, server, cport, 443, "PA"))
            records.append(FlowRecord(s + 0.05, s + timeout, server, client, 443, cport, "PA"))
    return records


@dataclass(frozen=True)
class PipelineInput:
    lines: list[str]
    scan_starts: frozenset[float]


def make_pipeline_input(spec: PipelineSpec, seed: int) -> PipelineInput:
    """Seeded synthetic day: background traffic, scans, long-lived chains."""
    profile = synth.TrafficProfile(n_clients=spec.n_clients,
                                   duration=spec.n_windows * WIDTH,
                                   window_width=WIDTH, seed=seed)
    records = synth.generate_normal(profile)
    for w in spec.scan_windows:
        scan = synth.ScanSpec(target_ip=profile.server_ip(0),
                              port_range=(1, spec.scan_ports), window_index=w)
        records = synth.inject_scan(records, scan, profile)
    if spec.chains:
        rng = np.random.default_rng([seed, 1])
        records = sorted(records + _chain_records(spec, profile, rng),
                         key=lambda r: r.s_time)
    lines = flows.serialize_flows(records).splitlines()
    return PipelineInput(lines, frozenset(w * WIDTH for w in spec.scan_windows))


def _csv_rows(names, vectors) -> list[str]:
    rows = ["window_start," + ",".join(names)]
    for v in vectors:
        rows.append(fmt(v.window_start) + "," + ",".join(fmt(x) for x in v.values))
    return rows


def _train_and_denoise(vectors) -> list[str]:
    """What `train-ae` then `denoise` do with the feature CSV."""
    data = np.array([v.values for v in vectors], dtype=float)
    d = data.shape[1]
    cfg = autoencoder.TrainConfig(**AE_CONFIG)
    mean = data.mean(axis=0)
    std = data.std(axis=0)
    std[std == 0.0] = 1.0
    model, _ = autoencoder.train_autoencoder(
        (data - mean) / std, (d, max(2 * d, 8), max(1, d // 2), max(2 * d, 8), d), cfg)
    model.weights[0] = model.weights[0] / std[None, :]
    model.biases[0] = model.biases[0] - model.weights[0] @ mean
    model.weights[-1] = std[:, None] * model.weights[-1]
    model.biases[-1] = std * model.biases[-1] + mean
    denoised = [detector.FeatureVector(v.window_start, tuple(model.denoise(list(v.values))))
                for v in vectors]
    return _csv_rows(detector.FEATURE_NAMES, denoised)


def run_pipeline(spec: PipelineSpec, inp: PipelineInput, tracer=None) -> PassResult:
    """ingest -> features -> detect -> train-ae -> denoise on in-memory lines."""
    def tag(i):
        if tracer is not None:
            tracer.window = i

    sw = Stopwatch()
    t0 = perf_counter()
    records = sw(flows.parse_flows, inp.lines)
    sessions = sw(flows.pair_bidirectional, records)
    windows = sw(flows.window, sessions, width=WIDTH, origin=0.0)

    vectors, summarize_piece = [], []
    for i, w in enumerate(windows):
        tag(i)
        vectors.append(sw(detector.summarize_window, w))
        summarize_piece.append(len(sw.pieces) - 1)
    tag(None)
    feature_rows = sw(_csv_rows, detector.FEATURE_NAMES, vectors)

    baseline = sw(detector.init_baseline, vectors[:CAPACITY], CAPACITY, MAX_EPS, MAX_DIM)
    threshold = sw(detector.calibrate_threshold, baseline, QUANTILE)
    reports, units = [], []
    for i in range(CAPACITY, len(vectors)):
        tag(i)
        report, baseline = sw(detector.step, baseline, vectors[i], threshold)
        units.append((summarize_piece[i], len(sw.pieces) - 1))
        reports.append(report)
    tag(None)
    report_rows = sw(lambda: [r.to_json() for r in reports])
    denoised_rows = sw(_train_and_denoise, vectors)
    run_s = perf_counter() - t0

    digests = {"reports": sha256_lines(report_rows), "features": sha256_lines(feature_rows),
               "denoised": sha256_lines(denoised_rows)}
    result = PassResult(run_s, sw.pieces, sw.scaled(), units, digests)
    _check_pipeline(result, spec, inp, records, sessions, vectors, reports, denoised_rows)
    return result


def _check_pipeline(result, spec, inp, records, sessions, vectors, reports,
                    denoised_rows) -> None:
    result.check("sessions conserve records",
                 sum(s.constituent_count for s in sessions) == len(records) == len(inp.lines) - 1)
    result.check("one window per interval", len(vectors) == spec.n_windows)
    scored = vectors[CAPACITY:]
    result.check("one report per scored window", len(reports) == len(scored))
    names = set(detector.FEATURE_NAMES)
    for v, r in zip(scored, reports):
        ok = (r.window_start == v.window_start and math.isfinite(r.score)
              and (r.attribution in names if r.anomalous else r.attribution is None))
        result.check(f"report for window {v.window_start}", ok)
    values = [float(x) for row in denoised_rows[1:] for x in row.split(",")]
    result.check("denoised rows finite",
                 len(denoised_rows) == len(vectors) + 1 and all(map(math.isfinite, values)))

    is_scan = [r.window_start in inp.scan_starts for r in reports]
    result.quality = {
        "scan_windows": sum(is_scan),
        "scan_flagged": sum(r.anomalous for r, s in zip(reports, is_scan) if s),
        "other_windows": len(reports) - sum(is_scan),
        "other_flagged": sum(r.anomalous for r, s in zip(reports, is_scan) if not s),
    }


# ---------------------------------------------------------------- cloud


def make_cloud_input(spec: CloudSpec, seed: int) -> list[list[str]]:
    """Point-cloud CSV lines: Gaussian clouds in R^3, then one noisy circle."""
    rng = np.random.default_rng(seed)
    clouds = [rng.normal(size=(spec.points, 3)) for _ in range(spec.gaussian)]
    theta = rng.uniform(0.0, 2.0 * math.pi, size=spec.circle_points)
    circle = np.column_stack([2.0 * np.cos(theta), 2.0 * np.sin(theta),
                              np.zeros_like(theta)])
    clouds.append(circle + rng.normal(scale=0.1, size=circle.shape))
    return [[",".join(fmt(x) for x in p) for p in cloud] for cloud in clouds]


def _parse_points(lines) -> list[list[float]]:
    return [[float(v) for v in line.split(",")] for line in lines if line.strip()]


def mst_merge_heights(points: np.ndarray) -> list[float]:
    """Kruskal over all pairwise distances: the heights at which components merge."""
    n = len(points)
    i, j = np.triu_indices(n, k=1)
    lengths = np.linalg.norm(points[i] - points[j], axis=1)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    heights = []
    for e in np.argsort(lengths, kind="stable"):
        a, b = find(int(i[e])), find(int(j[e]))
        if a != b:
            parent[a] = b
            heights.append(float(lengths[e]))
    return heights


def _h0_matches_mst(diagram, points, max_eps: float) -> bool:
    merges = [h for h in mst_merge_heights(np.asarray(points)) if h <= max_eps]
    bars = diagram.in_dim(0)
    finite = sorted(d for b, d in bars if math.isfinite(d))
    infinite = sum(1 for _, d in bars if math.isinf(d))
    return (all(b == 0.0 for b, _ in bars)
            and infinite == len(points) - len(merges)
            and len(finite) == len(merges)
            and all(math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
                    for a, b in zip(finite, merges)))


def run_cloud(clouds: list[list[str]], tracer=None) -> PassResult:
    """The `ph` subcommand on each cloud: Rips -> barcode -> restrict -> CSV."""
    sw = Stopwatch()
    t0 = perf_counter()
    outputs, units = [], []
    for k, lines in enumerate(clouds):
        if tracer is not None:
            tracer.window = k
        # what the `ph` subcommand does with one point-cloud file, one
        # piece per step
        first = len(sw.pieces)
        points = sw(_parse_points, lines)
        filtration = sw(persistence.vietoris_rips, points, max_eps=CLOUD_MAX_EPS,
                        max_dim=CLOUD_MAX_DIM)
        diagram = sw(persistence.barcode, filtration).restrict(CLOUD_MAX_DIM)
        outputs.append((points, diagram, sw(persistence.diagram_to_csv, diagram)))
        units.append(tuple(range(first, len(sw.pieces))))
    if tracer is not None:
        tracer.window = None
    run_s = perf_counter() - t0

    result = PassResult(run_s, sw.pieces, sw.scaled(), units,
                        {"diagrams": sha256_lines(t for _, _, t in outputs)})
    for k, (points, diagram, _) in enumerate(outputs):
        result.check(f"cloud {k} H0 equals MST merges",
                     _h0_matches_mst(diagram, points, CLOUD_MAX_EPS))
    return result
