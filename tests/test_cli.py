"""End-to-end command-line runs through main(argv): config resolution,
artifact layout and exit codes."""

import json
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motioncast.cli import DEFAULTS, main, resolve_config
from motioncast.dataset import (DatasetSpec, load_csv_sequence, load_dataset,
                                window_split)

TINY_MODEL = ["--set", "model.n_params=6", "--set", "model.n_prefix=4",
              "--set", "model.horizon=3", "--set", "model.embed_dim=8",
              "--set", "model.n_heads=2", "--set", "model.n_layers=1"]

EVAL_MODEL = ["--set", "model.n_params=6", "--set", "model.n_prefix=4",
              "--set", "model.horizon=25", "--set", "model.embed_dim=8",
              "--set", "model.n_heads=2", "--set", "model.n_layers=1"]


def synth_args(out, count=3, frames=40, params=6):
    return ["synth", "--out", str(out),
            "--set", f"synth.count={count}",
            "--set", f"synth.n_frames={frames}",
            "--set", f"synth.n_params={params}"]


def read_config(outdir):
    pairs = {}
    for line in (outdir / "run_config.txt").read_text().splitlines():
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def test_no_command_is_usage_error(capsys):
    assert main([]) == 1
    assert "command" in capsys.readouterr().err


def test_unknown_config_key(capsys, tmp_path):
    rc = main(synth_args(tmp_path) + ["--set", "synth.cuont=3"])
    assert rc == 1
    assert "synth.cuont" in capsys.readouterr().err


def test_badly_typed_value(capsys, tmp_path):
    rc = main(["synth", "--out", str(tmp_path), "--set", "synth.count=three"])
    assert rc == 1
    assert "integer" in capsys.readouterr().err


@pytest.mark.parametrize("setting, expected", [
    ("occlusion.enabled=maybe",
     "usage error: config key 'occlusion.enabled' expects a boolean, got 'maybe'\n"),
    ("synth.count=1.5",
     "usage error: config key 'synth.count' expects an integer, got '1.5'\n"),
    ("fps=fast",
     "usage error: config key 'fps' expects a number, got 'fast'\n"),
])
def test_badly_typed_value_message(capsys, tmp_path, setting, expected):
    assert main(["synth", "--out", str(tmp_path), "--set", setting]) == 1
    assert capsys.readouterr().err == expected


def test_malformed_set(capsys, tmp_path):
    assert main(["synth", "--out", str(tmp_path), "--set", "synth.count"]) == 1


def test_unknown_flag(capsys, tmp_path):
    assert main(["synth", "--out", str(tmp_path), "--frobnicate"]) == 1


def test_run_config_lists_every_key(tmp_path):
    assert main(synth_args(tmp_path)) == 0
    pairs = read_config(tmp_path)
    assert set(pairs) == set(DEFAULTS)
    assert pairs["synth.count"] == "3"
    assert pairs["model.embed_dim"] == str(DEFAULTS["model.embed_dim"])


# run_config.txt of a default run, written out by hand: the key set,
# defaults and their spelling, which the CLI derives from the config
# dataclasses for the model.*, train.*, dataset.* and occlusion.* keys.
DEFAULT_RUN_CONFIG = """\
bench.reps=100
bench.warmup=10
dataset.actions=
dataset.downsample_factor=1
dataset.root=data
dataset.stride=5
dataset.subjects=
eval.exclude=
eval.translation=
fps=25.0
model.dropout=0.1
model.embed_dim=160
model.ffn_mult=4
model.horizon=25
model.n_heads=8
model.n_layers=4
model.n_params=99
model.n_prefix=10
model.per_head_scale=False
occlusion.enabled=False
occlusion.kind=time_consistent
occlusion.mean_duration_frames=3.0
occlusion.ratio=0.4
occlusion.strategy=interp
paths.checkpoint=
paths.input=
seed=0
synth.count=8
synth.n_frames=120
synth.n_params=99
train.batch_size=4
train.beta1=0.9
train.beta2=0.999
train.clip_norm=1.0
train.epochs=10
train.eps=1e-08
train.horizon_weighting=False
train.lr=0.001
"""


def test_default_run_config_is_pinned(tmp_path):
    assert main(["synth", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "run_config.txt").read_text() == DEFAULT_RUN_CONFIG
    assert len(DEFAULT_RUN_CONFIG.splitlines()) == len(DEFAULTS) == 38


def _value_like(default):
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.integers()
    if isinstance(default, float):
        return st.floats(allow_nan=False)
    return st.text().map(str.strip)


@settings(derandomize=True, deadline=None)
@given(st.data())
def test_set_round_trips_a_value_of_the_default_type(data):
    key = data.draw(st.sampled_from(sorted(DEFAULTS)))
    value = data.draw(_value_like(DEFAULTS[key]))
    got = resolve_config(sets=[f"{key}={value}"])[key]
    assert got == value and type(got) is type(value)


def test_config_file_and_set_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\n"
                   "synth.count = 5\n"
                   "synth.n_frames=30\n"
                   "\n"
                   "seed=4\n")
    out = tmp_path / "out"
    rc = main(["synth", "--config", str(cfg), "--out", str(out),
               "--set", "synth.count=2", "--seed", "9",
               "--set", "synth.n_params=6"])
    assert rc == 0
    pairs = read_config(out)
    assert pairs["synth.count"] == "2"      # --set beats the file
    assert pairs["synth.n_frames"] == "30"  # file beats the default
    assert pairs["seed"] == "9"             # --seed beats everything
    assert len(list((out / "synth").glob("*.csv"))) == 2


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("synth.cuont=3\n")
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "line 1" not in capsys.readouterr().err  # key error names the key


def test_bad_occlusion_choices(tmp_path):
    assert main(["eval", "--out", str(tmp_path),
                 "--set", "occlusion.kind=sometimes"]) == 1
    assert main(["eval", "--out", str(tmp_path),
                 "--set", "occlusion.strategy=prayer"]) == 1


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def test_synth_outputs_and_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(synth_args(a)) == 0
    assert main(synth_args(b)) == 0
    files = sorted(p.name for p in (a / "synth").glob("*.csv"))
    assert len(files) == 3
    for name in files:
        assert (a / "synth" / name).read_bytes() == (b / "synth" / name).read_bytes()
    seq = load_csv_sequence(a / "synth" / files[0])
    assert seq.frames.shape == (40, 6)
    assert np.all(np.isfinite(seq.frames))


def test_synth_seed_changes_data(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(synth_args(a)) == 0
    assert main(synth_args(b) + ["--seed", "5"]) == 0
    name = sorted(p.name for p in (a / "synth").glob("*.csv"))[0]
    assert (a / "synth" / name).read_bytes() != (b / "synth" / name).read_bytes()


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def train_args(data, out, epochs=2):
    return (["train", "--out", str(out),
             "--set", f"dataset.root={data}",
             "--set", f"train.epochs={epochs}",
             "--set", "train.batch_size=4"] + TINY_MODEL)


def test_train_end_to_end(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(synth_args(data, frames=20)) == 0
    out = tmp_path / "run"
    assert main(train_args(data, out)) == 0
    assert "final loss" in capsys.readouterr().out
    assert (out / "model.npz").exists()
    assert (out / "epoch001.npz").exists()
    assert (out / "epoch002.npz").exists()
    curve = (out / "loss_curve.csv").read_text().splitlines()
    assert curve[0] == "step,loss"
    assert len(curve) > 2


def test_train_missing_dataset(tmp_path, capsys):
    rc = main(train_args(tmp_path / "nowhere", tmp_path / "run"))
    assert rc == 2
    assert "nowhere" in capsys.readouterr().err


def test_train_dataset_too_short_for_windows(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(synth_args(data, frames=5)) == 0  # < n_prefix + horizon
    rc = main(train_args(data, tmp_path / "run"))
    assert rc == 2
    assert "window" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

def test_predict_fresh_model_holds_last_pose(tmp_path):
    data = tmp_path / "data"
    assert main(synth_args(data, count=1, frames=12)) == 0
    src = next((data / "synth").glob("*.csv"))
    out = tmp_path / "pred"
    rc = main(["predict", "--out", str(out),
               "--set", f"paths.input={src}"] + TINY_MODEL)
    assert rc == 0
    pred = load_csv_sequence(out / "prediction.csv")
    last = load_csv_sequence(src).frames[-1]
    assert pred.frames.shape == (3, 6)
    np.testing.assert_array_equal(pred.frames, np.tile(last, (3, 1)))


def test_predict_with_trained_checkpoint(tmp_path):
    data = tmp_path / "data"
    assert main(synth_args(data, frames=20)) == 0
    run = tmp_path / "run"
    assert main(train_args(data, run, epochs=1)) == 0
    src = next((data / "synth").glob("*.csv"))
    out = tmp_path / "pred"
    rc = main(["predict", "--out", str(out),
               "--set", f"paths.checkpoint={run / 'model.npz'}",
               "--set", f"paths.input={src}"])
    assert rc == 0
    assert load_csv_sequence(out / "prediction.csv").frames.shape == (3, 6)


def test_predict_requires_input(tmp_path, capsys):
    assert main(["predict", "--out", str(tmp_path)] + TINY_MODEL) == 1
    assert "paths.input" in capsys.readouterr().err


def test_predict_input_too_short(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(synth_args(data, count=1, frames=3)) == 0  # < n_prefix
    src = next((data / "synth").glob("*.csv"))
    rc = main(["predict", "--out", str(tmp_path / "p"),
               "--set", f"paths.input={src}"] + TINY_MODEL)
    assert rc == 2
    assert "4" in capsys.readouterr().err


def test_predict_non_finite_checkpoint_exits_2(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(synth_args(data, count=1, frames=12)) == 0
    src = next((data / "synth").glob("*.csv"))
    ckpt = tmp_path / "model.npz"
    from motioncast.model import ModelConfig, init_model, save_checkpoint
    save_checkpoint(init_model(ModelConfig(n_params=6, n_prefix=4, horizon=3,
                                           embed_dim=8, n_heads=2, n_layers=1)),
                    ckpt)
    with np.load(ckpt) as z:
        arrays = dict(z)
    arrays["temporal.decoder.weight"][0, 0] = np.nan
    np.savez(ckpt, **arrays)
    rc = main(["predict", "--out", str(tmp_path / "p"),
               "--set", f"paths.checkpoint={ckpt}",
               "--set", f"paths.input={src}"])
    assert rc == 2
    assert "temporal.decoder.weight" in capsys.readouterr().err


def _write_npz_without_config_key(path):
    from motioncast.model import ModelConfig, init_model, save_checkpoint
    save_checkpoint(init_model(ModelConfig(n_params=6, n_prefix=4, horizon=3,
                                           embed_dim=8, n_heads=2, n_layers=1)),
                    path)
    with np.load(path) as z:
        arrays = dict(z)
    del arrays["config.dropout"]
    np.savez(path, **arrays)


def _write_npy_payload(path):
    with open(path, "wb") as fh:
        np.save(fh, np.zeros((2, 2)))


@pytest.mark.parametrize("write", [_write_npz_without_config_key,
                                   _write_npy_payload])
def test_predict_malformed_checkpoint_exits_2(tmp_path, capsys, write):
    data = tmp_path / "data"
    assert main(synth_args(data, count=1, frames=12)) == 0
    src = next((data / "synth").glob("*.csv"))
    ckpt = tmp_path / "model.npz"
    write(ckpt)
    rc = main(["predict", "--out", str(tmp_path / "p"),
               "--set", f"paths.checkpoint={ckpt}",
               "--set", f"paths.input={src}"])
    assert rc == 2
    assert str(ckpt) in capsys.readouterr().err


def _write_truncated_npz(path):
    _write_npz_without_config_key(path)
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])


def _write_non_scalar_config(path):
    _write_npz_without_config_key(path)
    with np.load(path) as z:
        arrays = dict(z)
    arrays["config.dropout"] = np.zeros(2)
    np.savez(path, **arrays)


def _write_zero_heads_config(path):
    _write_npz_without_config_key(path)
    with np.load(path) as z:
        arrays = dict(z)
    arrays["config.dropout"] = np.float64(0.1)
    arrays["config.n_heads"] = np.int64(0)
    np.savez(path, **arrays)


def _write_object_config(path):
    _write_npz_without_config_key(path)
    with np.load(path) as z:
        arrays = dict(z)
    arrays["config.dropout"] = np.array(None, dtype=object)
    np.savez(path, **arrays)


@pytest.mark.parametrize("write", [_write_truncated_npz, _write_non_scalar_config,
                                   _write_zero_heads_config, _write_object_config])
def test_predict_unreadable_checkpoint_exits_2(tmp_path, capsys, write):
    """A truncated archive or a non-scalar config entry is a usage error
    naming the file, not a traceback."""
    data = tmp_path / "data"
    assert main(synth_args(data, count=1, frames=12)) == 0
    src = next((data / "synth").glob("*.csv"))
    ckpt = tmp_path / "model.npz"
    write(ckpt)
    rc = main(["predict", "--out", str(tmp_path / "p"),
               "--set", f"paths.checkpoint={ckpt}",
               "--set", f"paths.input={src}"])
    assert rc == 2
    assert str(ckpt) in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def eval_args(data, out, extra=()):
    return (["eval", "--out", str(out),
             "--set", f"dataset.root={data}"] + EVAL_MODEL + list(extra))


def test_eval_plain_and_zero_ratio_occlusion_agree(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(synth_args(data, count=2, frames=40)) == 0
    plain_out = tmp_path / "plain"
    assert main(eval_args(data, plain_out)) == 0
    assert "80 ms" in capsys.readouterr().out
    occ_out = tmp_path / "occ"
    assert main(eval_args(data, occ_out,
                          ["--set", "occlusion.enabled=true",
                           "--set", "occlusion.ratio=0.0",
                           "--set", "occlusion.strategy=interp"])) == 0
    plain = json.loads((plain_out / "eval_report.json").read_text())
    occ = json.loads((occ_out / "eval_report.json").read_text())
    for a, b in zip(plain["overall"], occ["overall"]):
        assert a["horizon_ms"] == b["horizon_ms"]
        assert abs(a["mse"] - b["mse"]) < 1e-12
    assert occ["prefix_reconstruction_mse"] == 0.0
    assert "prefix_reconstruction_mse" not in plain


def test_eval_short_term_scores_the_windows_with_a_history(tmp_path, capsys):
    """Windows that start before frame N have no clean window before them,
    so short_term recovery scores only the others."""
    data = tmp_path / "data"
    assert main(synth_args(data, count=2, frames=40)) == 0
    out = tmp_path / "short_term"
    assert main(eval_args(data, out, ["--set", "occlusion.enabled=true",
                                      "--set", "occlusion.strategy=short_term"])) == 0
    spec = DatasetSpec(root=str(data), n_prefix=4, horizon=25)
    windows = [w for seq in load_dataset(spec) for w in window_split(seq, spec)]
    with_history = sum(w.history is not None for w in windows)
    report = json.loads((out / "eval_report.json").read_text())
    assert report["n_windows"] == with_history == 4
    assert f"evaluated 4 of {len(windows)} window(s)" in capsys.readouterr().out


def test_eval_interp_refuses_windows_and_scores_the_rest(tmp_path, capsys):
    """A mask that hides a parameter for all N prefix frames refuses its
    window, not the whole set."""
    data = tmp_path / "data"
    assert main(synth_args(data, count=2, frames=40)) == 0
    out = tmp_path / "interp"
    assert main(eval_args(data, out, ["--set", "occlusion.enabled=true",
                                      "--set", "occlusion.strategy=interp"])) == 0
    report = json.loads((out / "eval_report.json").read_text())
    refused = report["n_refused"]
    assert refused >= 1
    total = report["n_windows"] + refused
    assert (f"evaluated {total - refused} of {total} window(s); {refused} refused"
            in capsys.readouterr().out)


def test_eval_exclude_silences_groups(tmp_path):
    data = tmp_path / "data"
    assert main(synth_args(data, count=1, frames=40)) == 0
    out_all = tmp_path / "all"
    out_cut = tmp_path / "cut"
    assert main(eval_args(data, out_all)) == 0
    assert main(eval_args(data, out_cut,
                          ["--set", "eval.exclude=0,1,2,3,4,5"])) == 0
    full = json.loads((out_all / "eval_report.json").read_text())
    cut = json.loads((out_cut / "eval_report.json").read_text())
    assert cut["overall"][-1]["mse"] == 0.0  # every group excluded
    assert full["overall"][-1]["mse"] > 0.0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def test_bench_report(tmp_path):
    out = tmp_path / "bench"
    rc = main(["bench", "--out", str(out),
               "--set", "bench.reps=100", "--set", "bench.warmup=2"]
              + TINY_MODEL)
    assert rc == 0
    doc = json.loads((out / "bench_report.json").read_text())
    assert doc["latency_reps"] == 100
    assert doc["calls_per_prediction"] == 1
    assert doc["param_count"] > 0
    assert doc["config"]["embed_dim"] == 8
    assert doc["latency_ms_p50"] <= doc["latency_ms_p95"]


def test_bench_rejects_tiny_rep_count(tmp_path):
    rc = main(["bench", "--out", str(tmp_path), "--set", "bench.reps=5"]
              + TINY_MODEL)
    assert rc == 2


@pytest.mark.parametrize("setting", ["model.n_heads=0", "model.n_heads=-2",
                                     "model.embed_dim=0", "model.ffn_mult=0"])
def test_non_positive_model_size_exits_2(tmp_path, capsys, setting):
    rc = main(["bench", "--out", str(tmp_path)] + TINY_MODEL + ["--set", setting])
    assert rc == 2
    field = setting.split(".")[1].split("=")[0]
    assert capsys.readouterr().err == f"error: {field} must be >= 1\n"


def test_train_rejects_nan_learning_rate(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(synth_args(data, frames=20)) == 0
    out = tmp_path / "run"
    rc = main(train_args(data, out) + ["--set", "train.lr=nan"])
    assert rc == 2
    assert "learning rate" in capsys.readouterr().err
    assert not (out / "model.npz").exists()


def test_bench_report_counts_minor_faults(tmp_path):
    out = tmp_path / "bench"
    rc = main(["bench", "--out", str(out),
               "--set", "bench.reps=100", "--set", "bench.warmup=2"]
              + TINY_MODEL)
    assert rc == 0
    doc = json.loads((out / "bench_report.json").read_text())
    assert doc["minor_faults_per_prediction"] >= 0.0


def test_bench_without_resource_module_reports_no_faults(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(sys.modules, "resource", None)  # import now fails
    out = tmp_path / "bench"
    rc = main(["bench", "--out", str(out),
               "--set", "bench.reps=100", "--set", "bench.warmup=2"]
              + TINY_MODEL)
    assert rc == 0
    doc = json.loads((out / "bench_report.json").read_text())
    assert doc["minor_faults_per_prediction"] is None
    assert "n/a minor page faults" in capsys.readouterr().out
