"""Span tracing of flowtopo's layers from outside the package.

`Tracer.install` replaces the public functions of each layer with wrappers
that record a span (name, start, end, parent span, window id) and update
counters computed from the call's arguments and return value.  Because
`detector` imports its helpers by name, those names are replaced inside
`detector` as well, so calls made by the detector are seen too.  Nothing in
`src/` is modified; `uninstall` puts the original functions back.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

from flowtopo import autoencoder, detector, flows, hypergraph, persistence, synth, topology


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    window: int | None


def _endpoint_group_max(records) -> int:
    groups = Counter(frozenset([(r.s_ip, r.s_port), (r.d_ip, r.d_port)]) for r in records)
    return max(groups.values(), default=0)


def _assignment_size(args, kwargs) -> int:
    a, b = args[0], args[1]
    dim = kwargs["dim"] if "dim" in kwargs else args[2]
    return len(a.in_dim(dim)) + len(b.in_dim(dim))


def _ae_batches(args, kwargs) -> int:
    data, cfg = args[0], args[2]
    return cfg.epochs * math.ceil(len(data) / cfg.batch_size)


# (owner, attribute, span name, counters).  A counter is (metric, kind, fn):
# kind "sum" adds fn(args, kwargs, result) per call, "max" keeps the largest.
_LAYER_FUNCS = (
    (synth, "generate_normal", "synth.generate",
     (("synth.records", "sum", lambda a, k, r: len(r)),)),
    (synth, "inject_scan", "synth.inject",
     (("synth.records", "sum", lambda a, k, r: len(r) - len(a[0])),)),
    (flows, "parse_flows", "flows.parse",
     (("flows.records", "sum", lambda a, k, r: len(r)),)),
    (flows, "pair_bidirectional", "flows.pair",
     (("flows.sessions", "sum", lambda a, k, r: len(r)),
      ("flows.endpoint_group_max", "max", lambda a, k, r: _endpoint_group_max(a[0])))),
    (flows, "window", "flows.window",
     (("flows.windows", "sum", lambda a, k, r: len(r)),)),
    (hypergraph, "build_hypergraph", "hypergraph.build",
     (("hypergraph.edges_max", "max", lambda a, k, r: r.n_edges),)),
    (hypergraph, "stats", "hypergraph.stats", ()),
    (topology, "build_ecp", "topology.build_ecp",
     (("topology.ecp_arcs", "sum", lambda a, k, r: len(r.arcs)),)),
    (topology, "order_complex", "topology.order_complex",
     (("topology.rbs_simplices", "sum",
       lambda a, k, r: sum(len(s) for s in r.simplices.values())),)),
    (topology, "betti", "topology.betti", ()),
    (persistence, "vietoris_rips", "persistence.rips",
     (("persistence.rips_calls", "sum", lambda a, k, r: 1),
      ("persistence.simplices_total", "sum", lambda a, k, r: len(r)),
      ("persistence.simplices_max", "max", lambda a, k, r: len(r)))),
    (persistence, "barcode", "persistence.barcode", ()),
    (persistence, "wasserstein", "persistence.wasserstein",
     (("persistence.wasserstein_calls", "sum", lambda a, k, r: 1),
      ("persistence.assignment_max", "max", lambda a, k, r: _assignment_size(a, k)))),
    (detector, "summarize_window", "detector.summarize", ()),
    (detector, "init_baseline", "detector.init", ()),
    (detector, "calibrate_threshold", "detector.calibrate", ()),
    (detector, "step", "detector.step",
     (("detector.windows_scored", "sum", lambda a, k, r: 1),
      ("detector.flagged", "sum", lambda a, k, r: int(r[0].anomalous)))),
    (detector, "attribute", "detector.attribute", ()),
    (detector, "cloud_diagram", "detector.cloud_diagram",
     (("detector.cloud_diagram_calls", "sum", lambda a, k, r: 1),)),
    (autoencoder, "train_autoencoder", "autoencoder.train",
     (("autoencoder.batches", "sum", lambda a, k, r: _ae_batches(a, k)),)),
    (autoencoder.Mlp, "denoise", "autoencoder.denoise", ()),
)

SPAN_NAMES = tuple(name for _, _, name, _ in _LAYER_FUNCS)
COUNTERS = tuple(dict.fromkeys(metric for *_, counters in _LAYER_FUNCS
                               for metric, _, _ in counters))
MAX_COUNTERS = frozenset(metric for *_, counters in _LAYER_FUNCS
                         for metric, kind, _ in counters if kind == "max")


class Tracer:
    """Collects spans and counters while installed.

    `window` is set by the caller to tag every span opened while one time
    window is being processed, so a window's spans can be grouped.
    """

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.window: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counters):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[idx] = Span(name, start, end, parent, self.window)
            for metric, kind, count in counters:
                value = count(args, kwargs, result)
                if kind == "max":
                    self.counts[metric] = max(self.counts[metric], value)
                else:
                    self.counts[metric] += value
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, counters in _LAYER_FUNCS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, counters)
            targets = [owner]
            # detector binds its helpers by `from ... import`
            if owner is not detector and getattr(detector, attr, None) is original:
                targets.append(detector)
            for target in targets:
                self._saved.append((target, attr, original))
                setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()

    def self_times(self) -> Counter:
        """Per span name: total duration minus the time covered by child spans."""
        out: Counter = Counter()
        for span in self.spans:
            out[span.name] += span.end - span.start
            if span.parent is not None:
                parent = self.spans[span.parent]
                out[parent.name] -= span.end - span.start
        return out
