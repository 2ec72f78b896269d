#!/usr/bin/env python3
"""flowtopo benchmark: one workload, measured for a fixed time, checked.

    python3 perfbench/run.py --workload day --seed 1 --seconds 50 --trace 0

Builds the workload's inputs from the seed, then repeats passes over the
in-memory input lines until the next pass would overrun `--seconds`.  With
`--trace 0` it reports end-to-end metrics, scaled to a reference host speed
(hostspeed.py); with `--trace 1` it alternates untraced and traced passes
and reports per-layer self times and counts, unscaled.
The last stdout line is the JSON result; the line before it holds digests,
quality ratios, environment and source line counts for information.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / "perfbench" / "out"

# Keep the run to one busy thread: numpy's BLAS reads these when imported.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 5
WORKLOADS = ("day", "widescan", "cloud")
IMPORT_PROBE = ("import time, hostspeed; a = hostspeed.probe(); t = time.perf_counter(); "
                "import flowtopo; d = time.perf_counter() - t; "
                "print(d, d * hostspeed.scale([a, hostspeed.probe()]), flowtopo.__file__)")

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "window_p50_ms": "ms",
    "window_p95_ms": "ms",
    "peak_rss_mb": "MiB",
}

# Per-layer time metrics are span self times, named after the span.
LAYER_TIMES = (
    "synth.generate", "synth.inject",
    "flows.parse", "flows.pair", "flows.window",
    "hypergraph.build", "hypergraph.stats",
    "topology.build_ecp", "topology.order_complex", "topology.betti",
    "persistence.rips", "persistence.barcode", "persistence.wasserstein",
    "detector.summarize", "detector.init", "detector.calibrate", "detector.step",
    "detector.attribute",
    "autoencoder.train", "autoencoder.denoise",
)


def per_layer_units(counters) -> dict[str, str]:
    units = {f"{name}_s": "s" for name in LAYER_TIMES}
    units.update({name: "count" for name in counters})
    units["traced_run_s"] = "s"
    units["trace_overhead_pct"] = "%"
    return units


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="run the workload at smoke-test size")
    return p.parse_args(argv)


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def import_seconds() -> tuple[float, float]:
    """Time `import flowtopo` in a fresh interpreter using the checkout's src.

    Returns the time raw and scaled by probes the interpreter runs itself,
    since it may run on another core than this process.
    """
    path = os.pathsep.join([str(SRC), str(Path(__file__).resolve().parent)])
    env = dict(os.environ, PYTHONPATH=path, **PINNED_ENV)
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    raw, scaled, path = out.stdout.strip().split(maxsplit=2)
    if not Path(path).resolve().is_relative_to(SRC):
        raise RuntimeError(f"flowtopo imported from {path}, not from {SRC}")
    return float(raw), float(scaled)


def source_loc() -> dict[str, int]:
    return {p.name: len(p.read_text().splitlines())
            for p in sorted((SRC / "flowtopo").glob("*.py"))}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "flowtopo" / "__init__.py").is_file():
        print(f"perfbench: no flowtopo sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))
    load_start = loadavg()

    import numpy
    import scipy
    import flowtopo
    import tracer as tracing
    import workloads

    if not Path(flowtopo.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: flowtopo imported from {flowtopo.__file__}", file=sys.stderr)
        return 2

    specs = workloads.TINY_SPECS if args.tiny else workloads.SPECS
    spec = specs[args.workload]
    # A run covers `spec.inputs` inputs; distinct run seeds never share one.
    seeds = [args.seed * spec.inputs + k for k in range(spec.inputs)]
    if args.workload == "cloud":
        make_input = lambda seed: workloads.make_cloud_input(spec, seed)
        run_pass = workloads.run_cloud
        input_lines = lambda inp: [line for cloud in inp for line in cloud]
    else:
        make_input = lambda seed: workloads.make_pipeline_input(spec, seed)
        run_pass = lambda inp, tr: workloads.run_pipeline(spec, inp, tr)
        input_lines = lambda inp: inp.lines

    # Set-up: interpreter import of the package plus input generation and
    # serialisation, repeated; the median is reported.  Like a pass, each
    # piece is also scaled to the reference speed.
    setup_tracer = tracing.Tracer()
    setup_times, setup_scaled = [], []
    for _ in range(SETUP_REPEATS):
        imp, imp_scaled = import_seconds()
        sw = workloads.Stopwatch()
        if args.trace:
            setup_tracer.install()
        try:
            inputs = [sw(make_input, seed) for seed in seeds]
        finally:
            setup_tracer.uninstall()
        setup_times.append(imp + sum(sw.pieces))
        setup_scaled.append(imp_scaled + sum(sw.scaled()))

    m = measure(inputs, run_pass, args.seconds, args.trace, tracing)
    if not any(p.tracer is not None or not args.trace for p in m.passes):
        return 1  # a pass raised before any measurement of this mode

    trace_file = None
    unscaled = None
    if args.trace:
        metrics = layer_metrics(tracing, setup_tracer, m, len(inputs))
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        trace_file = TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl"
        write_spans(trace_file, setup_tracer, m)
    else:
        # Each piece of work (a call the pass makes) is scaled to the
        # reference speed by the probes around and during it (hostspeed.py)
        # and counts at its median over the passes over its input.  run_s is a
        # pass summed that way, averaged over the inputs; the percentiles
        # are over the windows' (or clouds') median latencies.
        typical = lambda runs: [statistics.median(same) for same in zip(*runs)]
        run_times, latencies = [], []
        unscaled = {"run_s": [], "latencies_ms": []}
        for i in sorted({p.input for p in m.passes}):
            own = [p.result for p in m.passes if p.input == i]
            run_times.append(sum(typical(r.scaled_s for r in own)))
            latencies.extend(typical(r.latencies_ms() for r in own))
            unscaled["run_s"].append(sum(typical(r.pieces_s for r in own)))
            unscaled["latencies_ms"].extend(typical(r.latencies_ms(False) for r in own))
        values = {
            "setup_s": statistics.median(setup_scaled),
            "run_s": statistics.mean(run_times),
            "window_p50_ms": statistics.median(latencies),
            "window_p95_ms": statistics.quantiles(latencies, n=100, method="inclusive")[94],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    firsts = [p.result for p in m.passes[:len(inputs)]]
    digests = {"input": [workloads.sha256_lines(input_lines(inp)) for inp in inputs]}
    for name in firsts[0].digests:
        digests[name] = [r.digests[name] for r in firsts]
    counts = {}
    for r in firsts:
        for name, value in r.quality.items():
            counts[name] = counts.get(name, 0) + value
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "input_seeds": seeds,
        "tiny": args.tiny,
        "passes": [{"input": p.input, "traced": p.tracer is not None,
                    "run_s": p.result.run_s} for p in m.passes],
        "setup_s": setup_times,
        "unscaled": unscaled and {
            "setup_s": statistics.median(setup_times),
            "run_s": statistics.mean(unscaled["run_s"]),
            "window_p50_ms": statistics.median(unscaled["latencies_ms"]),
            "window_p95_ms": statistics.quantiles(unscaled["latencies_ms"], n=100,
                                                  method="inclusive")[94]},
        "windows": sum(len(r.units) for r in firsts),
        "digests": digests,
        "quality": quality(counts),
        "error_rate": m.failed / m.attempted,
        "failed_checks": m.failed_checks[:20],
        "trace_file": str(trace_file.relative_to(ROOT)) if trace_file else None,
        "env": {
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": PINNED_ENV,
            "loadavg_start": load_start,
            "loadavg_end": loadavg(),
        },
        "src_loc": source_loc(),
    }
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": m.failed == 0, "attempted": m.attempted,
                      "failed": m.failed, "metrics": metrics}))
    return 0


@dataclass
class Pass:
    input: int
    result: object
    tracer: object | None


@dataclass
class Measurement:
    passes: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failed_checks: list = field(default_factory=list)


def measure(inputs, run_pass, seconds: float, trace: bool, tracing) -> Measurement:
    """Repeat passes over the inputs until the next one would overrun `seconds`.

    Passes cycle through the inputs, and every input gets at least one.
    Traced, whole cycles alternate untraced and traced, so each traced pass
    can be set against the untraced pass over the same input a cycle before;
    at least one cycle of each runs.
    """
    m = Measurement()
    n = len(inputs)
    start = perf_counter()
    while True:
        k = len(m.passes)
        i = k % n
        tr = tracing.Tracer() if trace and (k // n) % 2 == 1 else None
        if tr is not None:
            tr.install()
        try:
            result = run_pass(inputs[i], tr)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            m.attempted += 1
            m.failed += 1
            m.failed_checks.append("pass raised")
            return m
        finally:
            if tr is not None:
                tr.uninstall()
        if k >= n:
            result.check("outputs identical across passes",
                         result.digests == m.passes[i].result.digests)
        m.attempted += len(result.checks)
        bad = [name for name, ok in result.checks if not ok]
        m.failed += len(bad)
        m.failed_checks.extend(bad)
        m.passes.append(Pass(i, result, tr))
        if k + 1 >= (2 * n if trace else n) and perf_counter() - start + result.run_s > seconds:
            return m


def quality(counts: dict) -> dict:
    """Detection quality against the injected ground truth (pipeline workloads)."""
    if not counts:
        return {}
    ratio = lambda a, b: a / b if b else None
    return {**counts,
            "scan_recall": ratio(counts["scan_flagged"], counts["scan_windows"]),
            "false_flag_rate": ratio(counts["other_flagged"], counts["other_windows"])}


def layer_metrics(tracing, setup_tracer, m: Measurement, n_inputs: int) -> dict:
    """Per-pass self times and counts, averaged over the traced passes.

    Set-up spans (synth) are averaged over the set-up repeats instead.
    """
    traced = [p for p in m.passes if p.tracer is not None]
    n = len(traced)
    times, counts = {}, {}
    for p in traced:
        for name, secs in p.tracer.self_times().items():
            times[name] = times.get(name, 0.0) + secs / n
        for name, value in p.tracer.counts.items():
            if name in tracing.MAX_COUNTERS:
                counts[name] = max(counts.get(name, 0), value)
            else:
                counts[name] = counts.get(name, 0) + value / n
    for name, secs in setup_tracer.self_times().items():
        times[name] = secs / SETUP_REPEATS
    for name, value in setup_tracer.counts.items():
        counts[name] = value / SETUP_REPEATS

    # each traced pass follows an untraced one over the same input; the
    # pair is compared at reference speed, so host speed does not enter
    scaled = lambda p: sum(p.result.scaled_s)
    ratios = [scaled(p) / scaled(m.passes[k - n_inputs])
              for k, p in enumerate(m.passes) if p.tracer is not None]
    values = {f"{name}_s": times.get(name, 0.0) for name in LAYER_TIMES}
    values.update({name: counts.get(name, 0) for name in tracing.COUNTERS})
    values["traced_run_s"] = statistics.median(p.result.run_s for p in traced)
    values["trace_overhead_pct"] = 100.0 * (statistics.median(ratios) - 1.0)
    units = per_layer_units(tracing.COUNTERS)
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def write_spans(path: Path, setup_tracer, m: Measurement) -> None:
    """Spans as JSON lines; times are seconds from the pass's first span."""
    tracers = [("setup", setup_tracer)] + [
        (k, p.tracer) for k, p in enumerate(m.passes) if p.tracer is not None]
    with path.open("w") as f:
        for label, tr in tracers:
            origin = tr.spans[0].start if tr.spans else 0.0
            for i, s in enumerate(tr.spans):
                f.write(json.dumps({
                    "pass": label, "id": i, "name": s.name, "parent": s.parent,
                    "window": s.window, "start": s.start - origin,
                    "end": s.end - origin}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
