"""Command-line pipeline: synth -> ingest -> features -> detect, plus stage tools.

Every subcommand is deterministic given its inputs, flags and seed.  Each
returns its whole output as text, and main() alone writes it, in one shot
after the subcommand succeeds, so failures leave no partial files behind.

Each setting's default lives once, in the library code that checks it:
detector.DEFAULTS, TrafficProfile, ScanSpec, TrainConfig or flows.window.
A setting flag has no default of its own, and a subcommand passes on only
the flags given, so the library's default applies to the rest.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import astuple, fields
from pathlib import Path

from . import autoencoder, detector, flows, persistence, synth
from .flows import fmt
from .hypergraph import HypergraphStats


def _read_lines(path: str) -> list[str]:
    # read_text turns \r\n and \r into \n; str.splitlines would also break
    # at U+001C-U+001E, U+0085 and U+2028/U+2029, which a field may hold
    return Path(path).read_text().split("\n")


def _config_file(args) -> dict:
    """The settings the --config file sets; none without one."""
    path = getattr(args, "config", None)
    return detector.parse_config(Path(path).read_text()) if path else {}


def _given(args, *names) -> dict:
    """The named settings whose flags were given, by name."""
    return {name: getattr(args, name) for name in names
            if getattr(args, name, None) is not None}


def _load_config(args, file: dict | None = None) -> dict:
    """DEFAULTS, then the --config file's settings (file, if read), then the flags given."""
    file = _config_file(args) if file is None else file
    return {**detector.DEFAULTS, **file, **_given(args, *detector.DEFAULTS)}


def _cmd_synth(args) -> str:
    profile = synth.TrafficProfile(
        window_width=_load_config(args)["window_width"],
        **_given(args, "n_clients", "n_servers", "mean_flows", "duration", "seed"))
    scan = _given(args, "scanner_ip", "target_ip")
    if args.scan_ports is not None:
        lo, _, hi = args.scan_ports.partition(":")
        if not (lo.isdecimal() and hi.isdecimal()):
            raise ValueError(f"--scan-ports must be lo:hi integers, got {args.scan_ports!r}")
        scan["port_range"] = (int(lo), int(hi))
    records = synth.generate_normal(profile)
    for w_idx in args.scan_window or []:
        records = synth.inject_scan(records, synth.ScanSpec(window_index=w_idx, **scan),
                                    profile)
    return flows.serialize_flows(records)


def _cmd_ingest(args) -> str:
    cfg = _load_config(args)
    records = flows.parse_flows(_read_lines(args.input))
    sessions = flows.pair_bidirectional(records)
    windows = flows.window(sessions, width=cfg["window_width"], **_given(args, "origin"))
    return flows.serialize_windowed_sessions(windows)


def _cmd_features(args) -> str:
    cfg = _load_config(args)
    names = tuple(cfg["features"])
    windows = flows.parse_windowed_sessions(_read_lines(args.input), cfg["window_width"])
    vectors = [detector.summarize_window(w, features=names) for w in windows]
    return _feature_csv(names, ((v.window_start, v.values) for v in vectors))


def _cmd_topo(args) -> str:
    cfg = _load_config(args)
    windows = flows.parse_windowed_sessions(_read_lines(args.input), cfg["window_width"])
    names = [f.name for f in fields(HypergraphStats)] + [
        "max_ecp_in_degree", "max_ecp_out_degree", "rbs_beta0", "rbs_beta1"]
    topology = ((w.start, detector._window_topology(w)) for w in windows)
    return _feature_csv(names, ((start, (*astuple(st), *degrees, *betti))
                                for start, (st, degrees, betti) in topology))


def _cmd_ph(args) -> str:
    cfg = _load_config(args)
    filtration = persistence.vietoris_rips(_parse_points(_read_lines(args.input)),
                                           max_eps=cfg["max_eps"], max_dim=cfg["max_dim"])
    diagram = persistence.barcode(filtration, cfg["max_dim"])
    return persistence.diagram_to_csv(diagram)


def _parse_points(lines) -> list[tuple[float, ...]]:
    """The points of a point-cloud CSV, one row of coordinates each."""
    return flows.read_csv(lines, None, float, lambda *columns: list(zip(*columns)))[1]


def _feature_header(fields) -> None:
    if not fields or fields[0] != "window_start":
        raise ValueError("feature CSV must start with a window_start column")


def _parse_feature_csv(lines):
    header, vectors, _ = flows.read_csv(
        lines, _feature_header, float,
        lambda *columns: [detector.FeatureVector(row[0], row[1:]) for row in zip(*columns)])
    return tuple(header[1:]), vectors


def _feature_csv(names, rows) -> str:
    """Inverse of _parse_feature_csv: one (window_start, values) row per line."""
    lines = ["window_start," + ",".join(names)]
    lines += [",".join(fmt(x) for x in (start, *values)) for start, values in rows]
    return "\n".join(lines) + "\n"


def _cmd_detect(args) -> str:
    file = _config_file(args)
    cfg = _load_config(args, file)
    names, vectors = _parse_feature_csv(_read_lines(args.input))
    wanted = file.get("features")
    if wanted is not None and tuple(wanted) != names:
        raise ValueError(f"config features {','.join(wanted)} differ from the "
                         f"feature CSV columns {','.join(names)}")
    reports = detector.run_detector(vectors, capacity=cfg["capacity"],
                                    max_eps=cfg["max_eps"], max_dim=cfg["max_dim"],
                                    quantile=cfg["quantile"], features=names)
    return "".join(r.to_json() + "\n" for r in reports)


def _cmd_train_ae(args) -> str:
    import numpy as np

    _, vectors = _parse_feature_csv(_read_lines(args.input))
    if not vectors:
        raise ValueError("no feature vectors to train on")
    data = np.array([v.values for v in vectors], dtype=float)
    d = data.shape[1]
    bottleneck = args.bottleneck if args.bottleneck is not None else max(1, d // 2)
    hidden = args.hidden if args.hidden is not None else max(2 * d, 8)
    cfg = autoencoder.TrainConfig(
        **_given(args, "learning_rate", "momentum", "batch_size", "epochs", "seed"))
    # train on standardized features (raw count scales blow up the descent),
    # then fold the affine scaling into the outer layers so the saved model
    # maps raw rows to raw rows
    mean, std = detector._feature_scale(data)
    model, _ = autoencoder.train_autoencoder((data - mean) / std,
                                             (d, hidden, bottleneck, hidden, d), cfg)
    model.weights[0] = model.weights[0] / std[None, :]
    model.biases[0] = model.biases[0] - model.weights[0] @ mean
    model.weights[-1] = std[:, None] * model.weights[-1]
    model.biases[-1] = std * model.biases[-1] + mean
    return model.dumps()


def _cmd_denoise(args) -> str:
    model = autoencoder.Mlp.load(args.model)
    names, vectors = _parse_feature_csv(_read_lines(args.input))
    return _feature_csv(names,
                        ((v.window_start, model.denoise(list(v.values))) for v in vectors))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowtopo",
        description="Topological anomaly detection pipeline for netflow logs.")
    sub = parser.add_subparsers(dest="command", required=True)

    # one flag per named setting, typed from the library's default for it in
    # defaults but given no default of its own: a flag left out leaves the
    # library's default
    def flags(p, defaults, *names):
        for name in names:
            p.add_argument("--" + name.replace("_", "-"), dest=name, type=type(defaults[name]))

    # --in/--out, --config where the subcommand loads one, and one override
    # flag per config setting it reads
    def common(p, *settings, needs_input=True, config=True):
        if needs_input:
            p.add_argument("--in", dest="input", required=True, help="input file")
        p.add_argument("--out", required=True, help="output file")
        if config:
            p.add_argument("--config", help="key = value config file")
        flags(p, detector.DEFAULTS, *settings)

    p = sub.add_parser("synth", help="generate synthetic flow CSV")
    common(p, "window_width", needs_input=False)
    flags(p, vars(synth.TrafficProfile()), "seed", "n_clients", "n_servers", "mean_flows",
          "duration")
    p.add_argument("--scan-window", type=int, action="append",
                   help="window index to inject a scan into (repeatable)")
    p.add_argument("--scan-ports", help="lo:hi scanned port range")
    flags(p, vars(synth.ScanSpec()), "scanner_ip", "target_ip")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("ingest", help="flow CSV -> windowed sessions CSV")
    common(p, "window_width")
    p.add_argument("--origin", type=float)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("features", help="sessions CSV -> feature vector CSV")
    common(p, "window_width")
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("topo", help="sessions CSV -> per-window topology stats CSV")
    common(p, "window_width")
    p.set_defaults(func=_cmd_topo)

    p = sub.add_parser("ph", help="point cloud CSV -> persistence diagram CSV")
    common(p, "max_eps", "max_dim")
    p.set_defaults(func=_cmd_ph)

    p = sub.add_parser("detect", help="feature CSV -> anomaly reports (JSON lines)")
    common(p, "capacity", "max_eps", "max_dim", "quantile")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("train-ae", help="feature CSV -> trained autoencoder model")
    common(p, config=False)
    flags(p, vars(autoencoder.TrainConfig()), "seed", "epochs", "momentum", "batch_size")
    p.add_argument("--lr", dest="learning_rate", type=float)
    p.add_argument("--hidden", type=int)
    p.add_argument("--bottleneck", type=int)
    p.set_defaults(func=_cmd_train_ae)

    p = sub.add_parser("denoise", help="feature CSV -> denoised feature CSV")
    common(p, config=False)
    p.add_argument("--model", required=True, help="trained model file")
    p.set_defaults(func=_cmd_denoise)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        Path(args.out).write_text(args.func(args))
    except (OSError, ValueError) as exc:
        print(f"flowtopo {args.command}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
