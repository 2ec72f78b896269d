import json
import re
import subprocess
import sys
import warnings
from dataclasses import replace

import pytest

from flowtopo import autoencoder, detector, flows, synth
from flowtopo.autoencoder import Mlp, TrainConfig
from flowtopo.cli import main
from flowtopo.detector import DEFAULTS, FEATURE_NAMES
from flowtopo.flows import (
    FLOW_HEADER,
    MAX_WINDOWS,
    SessionRecord,
    TimeWindow,
    serialize_windowed_sessions,
)
from flowtopo.persistence import MAX_LAYER
from flowtopo.synth import ScanSpec, TrafficProfile


def run(args):
    return main([str(a) for a in args])


@pytest.fixture()
def small_flow_csv(tmp_path):
    out = tmp_path / "flows.csv"
    rc = run(["synth", "--out", out, "--n-clients", 4, "--n-servers", 2,
              "--duration", 7200, "--seed", 5, "--scan-window", 12])
    assert rc == 0
    return out


class TestSynth:
    def test_writes_flow_csv(self, tmp_path):
        out = tmp_path / "f.csv"
        assert run(["synth", "--out", out, "--duration", 600]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "sTime,eTime,sIP,dIP,sPort,dPort,flags"
        assert len(lines) > 1

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["--duration", 1200, "--seed", 3, "--scan-window", 1]
        assert run(["synth", "--out", a] + args) == 0
        assert run(["synth", "--out", b] + args) == 0
        assert a.read_bytes() == b.read_bytes()


class TestPipeline:
    def test_ingest_features_detect(self, tmp_path, small_flow_csv):
        sessions = tmp_path / "sessions.csv"
        feats = tmp_path / "features.csv"
        reports = tmp_path / "reports.jsonl"
        assert run(["ingest", "--in", small_flow_csv, "--out", sessions]) == 0
        assert sessions.read_text().startswith("window_start,client_ip")

        assert run(["features", "--in", sessions, "--out", feats]) == 0
        header = feats.read_text().splitlines()[0]
        assert header.startswith("window_start,n_records,")

        assert run(["detect", "--in", feats, "--out", reports,
                    "--capacity", 8]) == 0
        lines = reports.read_text().splitlines()
        assert len(lines) == 24 - 8
        for line in lines:
            parsed = json.loads(line)
            assert list(parsed) == ["window_start", "score", "threshold",
                                    "anomalous", "attribution"]

    def test_detect_rerun_byte_identical(self, tmp_path, small_flow_csv):
        sessions = tmp_path / "s.csv"
        feats = tmp_path / "f.csv"
        run(["ingest", "--in", small_flow_csv, "--out", sessions])
        run(["features", "--in", sessions, "--out", feats])
        r1, r2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
        assert run(["detect", "--in", feats, "--out", r1, "--capacity", 8]) == 0
        assert run(["detect", "--in", feats, "--out", r2, "--capacity", 8]) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_nan_in_baseline_row_rejected(self, tmp_path, small_flow_csv, capsys):
        sessions = tmp_path / "s.csv"
        feats = tmp_path / "f.csv"
        run(["ingest", "--in", small_flow_csv, "--out", sessions])
        run(["features", "--in", sessions, "--out", feats])
        lines = feats.read_text().splitlines()
        parts = lines[3].split(",")
        parts[2] = "nan"
        lines[3] = ",".join(parts)
        feats.write_text("\n".join(lines) + "\n")
        out = tmp_path / "r.jsonl"
        assert run(["detect", "--in", feats, "--out", out, "--capacity", 8]) == 1
        assert capsys.readouterr().err == ("flowtopo detect: line 4: coordinate 1 of the "
                                           "window at 600.0 is nan, not finite\n")
        assert not out.exists()

    def test_topo_columns(self, tmp_path, small_flow_csv):
        sessions = tmp_path / "s.csv"
        topo = tmp_path / "t.csv"
        run(["ingest", "--in", small_flow_csv, "--out", sessions])
        assert run(["topo", "--in", sessions, "--out", topo]) == 0
        lines = topo.read_text().splitlines()
        assert lines[0] == ("window_start,n_vertices,n_edges,max_vertex_degree,"
                            "max_edge_size,mean_edge_size,max_support_multiplicity,"
                            "max_ecp_in_degree,max_ecp_out_degree,rbs_beta0,rbs_beta1")
        assert len(lines) == 1 + 24
        # scan window (index 12) has a much larger in-degree than the rest
        rows = [ln.split(",") for ln in lines[1:]]
        in_deg = [int(r[7]) for r in rows]
        assert in_deg[12] == max(in_deg)
        assert in_deg[12] > 3 * max(d for i, d in enumerate(in_deg) if i != 12)

    def test_topo_of_no_sessions_is_its_header(self, tmp_path):
        sessions = tmp_path / "s.csv"
        topo = tmp_path / "t.csv"
        sessions.write_text(serialize_windowed_sessions([]))
        assert run(["topo", "--in", sessions, "--out", topo]) == 0
        assert topo.read_bytes() == (
            b"window_start,n_vertices,n_edges,max_vertex_degree,max_edge_size,"
            b"mean_edge_size,max_support_multiplicity,max_ecp_in_degree,"
            b"max_ecp_out_degree,rbs_beta0,rbs_beta1\n")


class TestPh:
    def test_unit_square_golden(self, tmp_path):
        cloud = tmp_path / "cloud.csv"
        cloud.write_text("0,0\n1,0\n1,1\n0,1\n")
        out = tmp_path / "diagram.csv"
        assert run(["ph", "--in", cloud, "--out", out, "--max-eps", 2,
                    "--max-dim", 1]) == 0
        assert out.read_text() == (
            "dim,birth,death\n"
            "0,0,1\n0,0,1\n0,0,1\n0,0,inf\n"
            "1,1,1.4142135623730951\n")

    def test_non_finite_point_rejected(self, tmp_path, capsys):
        cloud = tmp_path / "cloud.csv"
        cloud.write_text("0,0\n1,nan\n1,1\n")
        rc = run(["ph", "--in", cloud, "--out", tmp_path / "d.csv"])
        assert rc == 1
        assert "non-finite" in capsys.readouterr().err

    def test_non_numeric_line(self, tmp_path, capsys):
        cloud = tmp_path / "cloud.csv"
        cloud.write_text("0,0\nfoo,1\n")
        rc = run(["ph", "--in", cloud, "--out", tmp_path / "d.csv"])
        assert rc == 1
        assert "line 2" in capsys.readouterr().err

    def test_dense_cloud_refused_with_one_line(self, tmp_path, capsys):
        # 231 points within max_eps of each other: 2,027,795 triangles
        cloud = tmp_path / "cloud.csv"
        cloud.write_text("".join(f"{0.001 * i},0\n" for i in range(231)))
        out = tmp_path / "d.csv"
        assert run(["ph", "--in", cloud, "--out", out, "--max-dim", 1]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "2027795 2-simplices, more than the limit of 2000000" in err
        assert not out.exists()


class TestAutoencoderCommands:
    def test_train_and_denoise(self, tmp_path, small_flow_csv):
        sessions = tmp_path / "s.csv"
        feats = tmp_path / "f.csv"
        run(["ingest", "--in", small_flow_csv, "--out", sessions])
        run(["features", "--in", sessions, "--out", feats])
        model = tmp_path / "model.txt"
        assert run(["train-ae", "--in", feats, "--out", model,
                    "--epochs", 150, "--seed", 1]) == 0
        model_text = model.read_text()
        assert model_text.startswith("mlp-v1\n")
        assert "nan" not in model_text and "inf" not in model_text

        cleaned = tmp_path / "cleaned.csv"
        assert run(["denoise", "--in", feats, "--out", cleaned,
                    "--model", model]) == 0
        feat_lines = feats.read_text().splitlines()
        clean_lines = cleaned.read_text().splitlines()
        assert clean_lines[0] == feat_lines[0]
        assert len(clean_lines) == len(feat_lines)
        # window_start column rides through unchanged
        for f_ln, c_ln in zip(feat_lines[1:], clean_lines[1:]):
            assert f_ln.split(",")[0] == c_ln.split(",")[0]
        # reconstructions on raw rows beat the constant column-mean predictor
        import numpy as np
        raw = np.array([[float(v) for v in ln.split(",")[1:]]
                        for ln in feat_lines[1:]])
        out = np.array([[float(v) for v in ln.split(",")[1:]]
                        for ln in clean_lines[1:]])
        assert np.isfinite(out).all()
        mse_model = np.mean((raw - out) ** 2)
        mse_mean = np.mean((raw - raw.mean(axis=0)) ** 2)
        assert mse_model < 0.8 * mse_mean


class TestConfigAndErrors:
    def test_config_file_applies(self, tmp_path, small_flow_csv):
        cfgfile = tmp_path / "det.cfg"
        cfgfile.write_text("window_width = 600.0\nfeatures = n_records\n")
        sessions = tmp_path / "s.csv"
        feats = tmp_path / "f.csv"
        assert run(["ingest", "--in", small_flow_csv, "--out", sessions,
                    "--config", cfgfile]) == 0
        assert run(["features", "--in", sessions, "--out", feats,
                    "--config", cfgfile]) == 0
        lines = feats.read_text().splitlines()
        assert lines[0] == "window_start,n_records"
        assert len(lines) == 1 + 12  # 7200 / 600

    def test_one_config_drives_synth_and_ingest(self, tmp_path):
        cfgfile = tmp_path / "det.cfg"
        cfgfile.write_text("window_width = 600.0\n")
        flows_csv = tmp_path / "f.csv"
        sessions = tmp_path / "s.csv"
        assert run(["synth", "--out", flows_csv, "--config", cfgfile,
                    "--duration", 3600, "--seed", 4, "--scan-window", 1]) == 0
        assert run(["ingest", "--in", flows_csv, "--out", sessions,
                    "--config", cfgfile]) == 0
        starts = {ln.split(",")[0] for ln in sessions.read_text().splitlines()[1:]
                  if ",10.9.9.9," in ln}
        assert starts == {"600"}

    def test_flag_overrides_config(self, tmp_path, small_flow_csv):
        cfgfile = tmp_path / "det.cfg"
        cfgfile.write_text("window_width = 600.0\n")
        sessions = tmp_path / "s.csv"
        assert run(["ingest", "--in", small_flow_csv, "--out", sessions,
                    "--config", cfgfile, "--window-width", 300]) == 0
        starts = {ln.split(",")[0] for ln in sessions.read_text().splitlines()[1:]}
        assert "300" in starts

    def test_unknown_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            run(["synth", "--out", tmp_path / "x", "--bogus"])
        assert e.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as e:
            run([])
        assert e.value.code == 2

    def test_missing_input_reports_once(self, tmp_path, capsys):
        rc = run(["ingest", "--in", tmp_path / "nope.csv", "--out", tmp_path / "o"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("flowtopo ingest:")
        assert err.count("\n") == 1

    def test_bad_config_reported(self, tmp_path, capsys):
        cfgfile = tmp_path / "det.cfg"
        cfgfile.write_text("nonsense = 5\n")
        cloud = tmp_path / "cloud.csv"
        cloud.write_text("0,0\n1,0\n")
        rc = run(["ph", "--in", cloud, "--out", tmp_path / "d.csv",
                  "--config", cfgfile])
        assert rc == 1
        assert "unknown key" in capsys.readouterr().err

    def test_failed_run_leaves_no_output(self, tmp_path):
        cloud = tmp_path / "cloud.csv"
        cloud.write_text("0,0\nbad,1\n")
        out = tmp_path / "d.csv"
        assert run(["ph", "--in", cloud, "--out", out]) == 1
        assert not out.exists()


# every flag each subcommand accepts; each one is read by that subcommand
FLAGS = {
    "synth": {"--out", "--config", "--window-width", "--seed", "--n-clients",
              "--n-servers", "--mean-flows", "--duration", "--scan-window",
              "--scan-ports", "--scanner-ip", "--target-ip"},
    "ingest": {"--in", "--out", "--config", "--window-width", "--origin"},
    "features": {"--in", "--out", "--config", "--window-width"},
    "topo": {"--in", "--out", "--config", "--window-width"},
    "ph": {"--in", "--out", "--config", "--max-eps", "--max-dim"},
    "detect": {"--in", "--out", "--config", "--capacity", "--max-eps", "--max-dim",
               "--quantile"},
    "train-ae": {"--in", "--out", "--seed", "--epochs", "--lr", "--momentum",
                 "--batch-size", "--hidden", "--bottleneck"},
    "denoise": {"--in", "--out", "--model"},
}
SETTING_FLAGS = ("--config", "--window-width", "--max-eps", "--max-dim",
                 "--capacity", "--quantile", "--seed")
UNREAD = [(cmd, flag) for cmd, flags in FLAGS.items()
          for flag in SETTING_FLAGS if flag not in flags]


def required_args(cmd, tmp_path):
    args = [cmd, "--out", tmp_path / "out"]
    if cmd != "synth":
        args += ["--in", tmp_path / "in"]
    if cmd == "denoise":
        args += ["--model", tmp_path / "model"]
    return args


class TestFlagsPerSubcommand:
    @pytest.mark.parametrize("cmd, flag", UNREAD)
    def test_unread_setting_exits_2(self, cmd, flag, tmp_path, capsys):
        with pytest.raises(SystemExit) as e:
            run(required_args(cmd, tmp_path) + [flag, "1"])
        assert e.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cmd", sorted(FLAGS))
    def test_help_lists_exactly_its_flags(self, cmd, capsys):
        with pytest.raises(SystemExit) as e:
            run([cmd, "--help"])
        assert e.value.code == 0
        listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert listed - {"--help"} == FLAGS[cmd]


@pytest.fixture(scope="module")
def stage_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("stages")
    paths = {name: d / f"{name}.csv" for name in ("flows", "sessions", "features")}
    assert run(["synth", "--out", paths["flows"], "--n-clients", 4, "--n-servers", 2,
                "--duration", 7200, "--seed", 5, "--scan-window", 12]) == 0
    assert run(["ingest", "--in", paths["flows"], "--out", paths["sessions"]]) == 0
    assert run(["features", "--in", paths["sessions"], "--out", paths["features"]]) == 0
    paths["cloud"] = d / "cloud.csv"
    paths["cloud"].write_text("0,0\n1,0\n1,1\n0,1\n")
    header, first, *rest = paths["sessions"].read_text().splitlines()
    for start in ("inf", "nan"):
        paths[f"sessions_{start}"] = d / f"sessions_{start}.csv"
        bad = start + first[first.index(","):]
        paths[f"sessions_{start}"].write_text("\n".join([header, bad, *rest]) + "\n")
    # session rows broken in one field each: {name: {column: value}}
    for name, changes in (("nan_start", {5: "nan"}), ("inf_end", {6: "inf"}),
                          ("reversed", {5: "5", 6: "2"}), ("bad_ip", {1: "not-an-ip"}),
                          ("bad_port", {4: "99999"})):
        parts = first.split(",")
        for column, value in changes.items():
            parts[column] = value
        paths[f"sessions_{name}"] = d / f"sessions_{name}.csv"
        paths[f"sessions_{name}"].write_text("\n".join([header, ",".join(parts), *rest]) + "\n")
    # two records 3e8 seconds apart: a million 300-second windows
    paths["flows_far"] = d / "flows_far.csv"
    paths["flows_far"].write_text(f"{FLOW_HEADER}\n0,1,10.0.0.1,10.1.0.1,40000,80,S\n"
                                  "3e8,3e8,10.0.0.1,10.1.0.1,40000,80,S\n")
    paths["sessions_far"] = d / "sessions_far.csv"
    paths["sessions_far"].write_text(f"{header}\n0,10.0.0.1,10.1.0.1,40000,80,0,1,1\n"
                                     "3e8,10.0.0.1,10.1.0.1,40000,80,3e8,3e8,1\n")
    lines = paths["features"].read_text().splitlines()
    lines[2] = lines[2][:lines[2].rindex(",")]
    paths["features_ragged"] = d / "features_ragged.csv"
    paths["features_ragged"].write_text("\n".join(lines) + "\n")
    paths["cloud_ragged"] = d / "cloud_ragged.csv"
    paths["cloud_ragged"].write_text("0,0\n1,0\n1,1,1\n0,1\n")
    model = d / "model.txt"
    assert run(["train-ae", "--in", paths["features"], "--out", model, "--epochs", 1]) == 0
    paths["model_cut"] = d / "model_cut.txt"
    paths["model_cut"].write_text("".join(model.read_text().splitlines(True)[:3]))
    return paths


def assert_one_line_failure(args, message, stage_inputs, tmp_path, capsys):
    """args ("@name" for a staged input) exit 1 with one line holding message."""
    out = tmp_path / "out"
    args = [stage_inputs[a[1:]] if str(a).startswith("@") else a for a in args]
    assert run(args + ["--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"flowtopo {args[0]}: ")
    assert message in err
    assert err.count("\n") == 1
    assert not out.exists()


class TestNonFiniteSettings:
    @pytest.mark.parametrize("args, message", [
        (["synth", "--window-width", "nan"], "window_width must be finite"),
        (["synth", "--window-width", "inf"], "window_width must be finite"),
        (["synth", "--duration", "inf"], "duration must be finite"),
        (["ingest", "--in", "@flows", "--window-width", "inf"], "window width must be finite"),
        (["ingest", "--in", "@flows", "--window-width", "nan"], "window width must be finite"),
        (["ingest", "--in", "@flows", "--origin", "inf"], "window origin must be finite"),
        (["features", "--in", "@sessions", "--window-width", "inf"],
         "window width must be finite"),
        (["topo", "--in", "@sessions", "--window-width", "nan"], "window width must be finite"),
        (["features", "--in", "@sessions_inf"], "line 2: window_start 'inf' is not finite"),
        (["features", "--in", "@sessions_nan"], "line 2: window_start 'nan' is not finite"),
        (["topo", "--in", "@sessions_inf"], "line 2: window_start 'inf' is not finite"),
        (["topo", "--in", "@sessions_nan"], "line 2: window_start 'nan' is not finite"),
        (["detect", "--in", "@features", "--capacity", 8, "--max-eps", "nan"],
         "max_eps must be > 0, got nan"),
        (["ph", "--in", "@cloud", "--max-eps", "nan"], "max_eps must be > 0, got nan"),
        (["detect", "--in", "@features", "--capacity", 8, "--max-eps", "inf"],
         "max_eps must be finite, got inf"),
        (["synth", "--mean-flows", "nan"], "mean_flows must be finite and >= 0, got nan"),
        (["synth", "--mean-flows", "inf"], "mean_flows must be finite and >= 0, got inf"),
        (["synth", "--scan-window", 1, "--scan-ports", "5"],
         "--scan-ports must be lo:hi integers, got '5'"),
        (["synth", "--scan-window", 1, "--scan-ports", "a:b"],
         "--scan-ports must be lo:hi integers, got 'a:b'"),
        (["synth", "--scan-window", 1, "--scan-ports", "1:70000"],
         "port_range 1:70000 must have 0 <= lo <= hi <= 65535"),
        (["train-ae", "--in", "@features", "--lr", "nan"],
         "learning_rate must be finite and >= 0, got nan"),
        (["train-ae", "--in", "@features", "--lr", "inf"],
         "learning_rate must be finite and >= 0, got inf"),
        (["train-ae", "--in", "@features", "--momentum", "nan"],
         "momentum must be in [0, 1), got nan"),
        (["synth", "--n-clients", 65536], "n_clients must be an integer in 1-65535, got 65536"),
        (["synth", "--seed", -1], "seed must be an integer >= 0, got -1"),
        (["train-ae", "--in", "@features", "--seed", -1], "seed must be an integer >= 0, got -1"),
        (["train-ae", "--in", "@features", "--epochs", 0],
         "epochs must be an integer >= 1, got 0"),
        (["train-ae", "--in", "@features", "--batch-size", -2],
         "batch_size must be an integer >= 1, got -2"),
        # a model with an empty layer would save, but denoise could not load it
        (["train-ae", "--in", "@features", "--hidden", 0], "hidden layer size must be >= 1, got 0"),
        (["train-ae", "--in", "@features", "--bottleneck", 0],
         "bottleneck layer size must be >= 1, got 0"),
    ])
    def test_rejected_with_one_line(self, args, message, stage_inputs, tmp_path, capsys):
        assert_one_line_failure(args, message, stage_inputs, tmp_path, capsys)


@pytest.fixture()
def built(monkeypatch):
    """What synth, ingest and train-ae hand the library, by what it is."""
    seen = {"scans": []}

    def generate_normal(profile):
        seen["profile"] = profile
        return []

    def inject_scan(records, scan, profile):
        seen["scans"].append(scan)
        return records

    def window(sessions, **kwargs):
        seen["window"] = kwargs
        return []

    def train_autoencoder(data, layer_sizes, cfg):
        seen["layer_sizes"], seen["train"] = layer_sizes, cfg
        return Mlp.random(layer_sizes), []

    monkeypatch.setattr(synth, "generate_normal", generate_normal)
    monkeypatch.setattr(synth, "inject_scan", inject_scan)
    monkeypatch.setattr(flows, "window", window)
    monkeypatch.setattr(autoencoder, "train_autoencoder", train_autoencoder)
    return seen


SYNTH = ["synth", "--scan-window", 3]
TRAIN = ["train-ae", "--in", "@features"]
SCAN = ScanSpec(window_index=3)
D = len(FEATURE_NAMES)


class TestDefaultsFromTheLibrary:
    # a setting flag left out leaves the library's default, and a flag given
    # sets its own field and no other
    @pytest.mark.parametrize("args, expected", [
        (SYNTH, dict(profile=TrafficProfile(window_width=DEFAULTS["window_width"]),
                     scans=[SCAN])),
        (SYNTH + ["--n-clients", 5], dict(profile=TrafficProfile(n_clients=5))),
        (SYNTH + ["--n-servers", 2], dict(profile=TrafficProfile(n_servers=2))),
        (SYNTH + ["--mean-flows", 1.5], dict(profile=TrafficProfile(mean_flows=1.5))),
        (SYNTH + ["--duration", 600], dict(profile=TrafficProfile(duration=600.0))),
        (SYNTH + ["--window-width", 60], dict(profile=TrafficProfile(window_width=60.0))),
        (SYNTH + ["--seed", 3], dict(profile=TrafficProfile(seed=3), scans=[SCAN])),
        (SYNTH + ["--scanner-ip", "10.9.9.8"],
         dict(profile=TrafficProfile(), scans=[replace(SCAN, scanner_ip="10.9.9.8")])),
        (SYNTH + ["--target-ip", "10.1.0.2"],
         dict(profile=TrafficProfile(), scans=[replace(SCAN, target_ip="10.1.0.2")])),
        (SYNTH + ["--scan-ports", "5:9", "--scan-window", 1],
         dict(scans=[replace(SCAN, port_range=(5, 9)), ScanSpec(port_range=(5, 9),
                                                                window_index=1)])),
        (["ingest", "--in", "@flows"], dict(window=dict(width=DEFAULTS["window_width"]))),
        (["ingest", "--in", "@flows", "--origin", 7.5],
         dict(window=dict(width=DEFAULTS["window_width"], origin=7.5))),
        (TRAIN, dict(train=TrainConfig(), layer_sizes=(D, 2 * D, D // 2, 2 * D, D))),
        (TRAIN + ["--epochs", 5], dict(train=TrainConfig(epochs=5))),
        (TRAIN + ["--lr", 0.5], dict(train=TrainConfig(learning_rate=0.5))),
        (TRAIN + ["--momentum", 0.5], dict(train=TrainConfig(momentum=0.5))),
        (TRAIN + ["--batch-size", 8], dict(train=TrainConfig(batch_size=8))),
        (TRAIN + ["--seed", 4], dict(train=TrainConfig(seed=4))),
        (TRAIN + ["--hidden", 12], dict(train=TrainConfig(),
                                        layer_sizes=(D, 12, D // 2, 12, D))),
    ])
    def test_built_from_given_flags_alone(self, args, expected, built, stage_inputs,
                                          tmp_path):
        args = [stage_inputs[a[1:]] if str(a).startswith("@") else a for a in args]
        assert run(args + ["--out", tmp_path / "out"]) == 0
        assert {key: built[key] for key in expected} == expected


class TestMalformedRows:
    @pytest.mark.parametrize("cmd", ["features", "topo"])
    @pytest.mark.parametrize("name, message", [
        ("nan_start", "line 2: start nan is not finite"),
        ("inf_end", "line 2: end inf is not finite"),
        ("reversed", "line 2: end 2.0 precedes start 5.0"),
        ("bad_ip", "line 2: client_ip 'not-an-ip' is not a dotted-quad IPv4 address"),
        ("bad_port", "line 2: server_port 99999 out of range 0-65535"),
    ])
    def test_session_row_rejected(self, cmd, name, message, stage_inputs, tmp_path,
                                  capsys):
        assert_one_line_failure([cmd, "--in", f"@sessions_{name}"], message,
                                stage_inputs, tmp_path, capsys)

    @pytest.mark.parametrize("args, message", [
        (["detect", "--in", "@features_ragged", "--capacity", 8],
         "line 3: expected 11 comma-separated fields, got 10"),
        (["ph", "--in", "@cloud_ragged"], "line 3: expected 2 comma-separated fields, got 3"),
        (["denoise", "--in", "@features", "--model", "@model_cut"],
         "line 4: missing; the model ends early"),
    ])
    def test_ragged_row_rejected(self, args, message, stage_inputs, tmp_path, capsys):
        assert_one_line_failure(args, message, stage_inputs, tmp_path, capsys)


class TestUnparseableValues:
    # feature and point CSVs name the column, as flow and session CSVs do
    @pytest.mark.parametrize("cmd, text, message", [
        ("detect", "window_start,a\n0,1\n300,\n", "line 3: field a has unparseable value ''"),
        ("train-ae", "window_start,a\n0,1\n3_,1\n",
         "line 3: field window_start has unparseable value '3_'"),
        ("ph", "0,0\n3,x\n", "line 2: field 2 has unparseable value 'x'"),
    ])
    def test_refused_with_one_line(self, cmd, text, message, tmp_path, capsys):
        path = tmp_path / "input.csv"
        path.write_text(text)
        assert_one_line_failure([cmd, "--in", path], message, {}, tmp_path, capsys)


class TestLineBreaks:
    # only "\n" ends a line: str.splitlines would also break inside a field
    # padded with U+001C-U+001E, U+0085 or U+2028/U+2029, which the readers
    # strip
    @pytest.mark.parametrize("pad", ["\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_padded_field_ingested_as_the_library_reads_it(self, pad, tmp_path):
        text = (f"{FLOW_HEADER}\n1,2,10.0.0.1,10.0.0.2,{pad}80,443,S\n"
                "3,4,10.0.0.2,10.0.0.1,443,80,S\n")
        flow_csv, out = tmp_path / "flows.csv", tmp_path / "sessions.csv"
        flow_csv.write_text(text)
        assert run(["ingest", "--in", flow_csv, "--out", out]) == 0
        sessions = flows.pair_bidirectional(flows.parse_flows(text.split("\n")))
        assert out.read_text() == serialize_windowed_sessions(
            flows.window(sessions, width=DEFAULTS["window_width"]))

    def test_later_bad_field_named_by_its_own_line(self, tmp_path, capsys):
        flow_csv = tmp_path / "flows.csv"
        flow_csv.write_text(f"{FLOW_HEADER}\n1,2,10.0.0.1,10.0.0.2,\x1c80,80,S\n"
                            "3,4,10.0.0.1,10.0.0.2,80.5,80,S\n")
        assert_one_line_failure(["ingest", "--in", flow_csv],
                                "line 3: field sPort has unparseable value '80.5'",
                                {}, tmp_path, capsys)


class TestLongTimeline:
    @pytest.mark.parametrize("cmd, name", [("ingest", "flows_far"),
                                           ("features", "sessions_far"),
                                           ("topo", "sessions_far")])
    def test_refused_with_one_line(self, cmd, name, stage_inputs, tmp_path, capsys):
        assert_one_line_failure(
            [cmd, "--in", f"@{name}"], f"the timeline spans 1000001 windows of 300.0 "
            f"seconds, more than the limit of {MAX_WINDOWS}", stage_inputs, tmp_path, capsys)


class TestLongNestedChain:
    @pytest.mark.parametrize("cmd", ["features", "topo"])
    def test_refused_with_one_line(self, cmd, tmp_path, capsys):
        # scanner j scans ports 1..j for j = 1..231: 231 nested supports,
        # whose order complex has C(231, 3) triangles
        sessions = tmp_path / "chain.csv"
        sessions.write_text(serialize_windowed_sessions([TimeWindow(0.0, 300.0, tuple(
            SessionRecord(f"10.9.0.{j}", "10.1.0.1", 40000, port, 1.0, 2.0, 1)
            for j in range(1, 232) for port in range(1, j + 1)))]))
        assert_one_line_failure(
            [cmd, "--in", sessions], "the order complex has 2027795 2-simplices, more "
            f"than the limit of {MAX_LAYER} simplices per dimension", {}, tmp_path, capsys)


class TestDetectFeatures:
    def test_config_features_must_match_header(self, stage_inputs, tmp_path, capsys):
        cfg = tmp_path / "two.cfg"
        cfg.write_text("features = n_records, rbs_beta1\n")
        columns = ",".join(FEATURE_NAMES)
        assert_one_line_failure(
            ["detect", "--in", "@features", "--capacity", 8, "--config", cfg],
            f"config features n_records,rbs_beta1 differ from the feature CSV "
            f"columns {columns}", stage_inputs, tmp_path, capsys)

    def test_overflowing_window_refused_with_one_line(self, tmp_path, capsys):
        # five baseline rows on a scale of 1e-150, then a window at 1e200
        feats = tmp_path / "features.csv"
        feats.write_text("window_start,a\n" + "".join(
            f"{300 * i},{i}e-150\n" for i in range(5)) + "1500,1e200\n")
        assert_one_line_failure(
            ["detect", "--in", feats, "--capacity", 5], "feature a of the window at "
            "1500.0 is 1e+200, which standardizes to inf, not finite", {}, tmp_path, capsys)

    def test_overflowing_distance_refused_with_one_line(self, tmp_path, capsys):
        # a finite standardized window whose squared distance overflows
        feats = tmp_path / "features.csv"
        feats.write_text("window_start,a\n" + "".join(
            f"{300 * i},{i}\n" for i in range(5)) + "1500,1e200\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_one_line_failure(
                ["detect", "--in", feats, "--capacity", 5], "feature a of the window at "
                "1500.0 is 1e+200, 7.071067811865474e+199 on the baseline's scale, too far "
                "from the baseline for a finite distance", {}, tmp_path, capsys)

    def test_config_parsed_once(self, stage_inputs, tmp_path, monkeypatch):
        cfg = tmp_path / "all.cfg"
        cfg.write_text("features = " + ",".join(FEATURE_NAMES) + "\nmax_dim = 0\n")
        texts, parse = [], detector.parse_config
        monkeypatch.setattr(detector, "parse_config",
                            lambda text: texts.append(text) or parse(text))
        assert run(["detect", "--in", stage_inputs["features"], "--capacity", 8,
                    "--config", cfg, "--out", tmp_path / "r.jsonl"]) == 0
        assert texts == [cfg.read_text()]

    def test_matching_config_features_same_output(self, stage_inputs, tmp_path):
        cfg = tmp_path / "all.cfg"
        cfg.write_text("features = " + ",".join(FEATURE_NAMES) + "\n")
        plain, configured = tmp_path / "plain.jsonl", tmp_path / "configured.jsonl"
        args = ["detect", "--in", stage_inputs["features"], "--capacity", 8]
        assert run(args + ["--out", plain]) == 0
        assert run(args + ["--out", configured, "--config", cfg]) == 0
        assert configured.read_bytes() == plain.read_bytes()


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "flowtopo", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        for cmd in ("synth", "ingest", "features", "topo", "ph", "detect",
                    "train-ae", "denoise"):
            assert cmd in proc.stdout
