"""Command-line front end.

Five subcommands — synth, train, predict, eval, bench — share one flat
key=value configuration covering dataset, model, training, occlusion and
path settings. Values resolve in order: built-in defaults, then the
--config file, then each --set override (later wins), then --seed/--out
shorthands. Unknown keys are rejected. Every command writes the fully
resolved configuration to run_config.txt next to its outputs, so a run
directory is always self-describing.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime
failure (missing files, non-finite training, recovery errors).

Example::

    motioncast synth --out data/synth --set synth.count=8
    motioncast train --set dataset.root=data --set train.epochs=5 --out run1
    motioncast predict --set paths.checkpoint=run1/model.npz \
        --set paths.input=data/synth/seq000.csv --out pred1
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .dataset import (DatasetSpec, MotionSequence, ParseError, atomic_open,
                      load_csv_sequence, load_dataset, save_csv_sequence,
                      synth_generate, window_split)
from .model import (ModelConfig, init_model, load_checkpoint, param_count,
                    predict, save_checkpoint)
from .occlusion import KINDS, OcclusionSpec, RecoveryError
from .trainer import (RECOVERY_STRATEGIES, TrainConfig, benchmark_inference,
                      evaluate_mse_horizons, latency_json, occlusion_eval,
                      train_loop, write_eval_report, write_loss_curve)

__all__ = ["main", "resolve_config", "DEFAULTS"]

# The fields each section's dataclass takes from other keys, not from a
# ``<section>.<field>`` key of its own.
_FROM_OTHER_KEYS = {
    "dataset": ("subjects", "actions", "n_prefix", "horizon"),
    "train": ("seed",),
    "occlusion": ("seed",),
}


def _keyed_fields(cls, section: str):
    return [f for f in dataclasses.fields(cls)
            if f.name not in _FROM_OTHER_KEYS.get(section, ())]


# Every known key with its default; the default's type fixes the parse.
# The dataclass-backed keys take their defaults from the dataclasses; the
# rest exist only on the command line. n_prefix/horizon live under model
# and dataset windowing reads them.
DEFAULTS = {
    "seed": 0,
    "fps": 25.0,
    **{f"{section}.{f.name}": f.default
       for section, cls in (("dataset", DatasetSpec), ("model", ModelConfig),
                            ("train", TrainConfig), ("occlusion", OcclusionSpec))
       for f in _keyed_fields(cls, section) if f.default is not dataclasses.MISSING},
    "dataset.subjects": "",          # comma list; empty = all
    "dataset.actions": "",           # comma list; empty = all
    # occlusion benchmark (eval only)
    "occlusion.enabled": False,
    "occlusion.strategy": "interp",
    # evaluation
    "eval.exclude": "",              # comma list of parameter indices
    "eval.translation": "",          # comma list of parameter indices
    # synthetic data
    "synth.count": 8,
    "synth.n_frames": 120,
    "synth.n_params": 99,
    # benchmarking
    "bench.reps": 100,
    "bench.warmup": 10,
    # paths
    "paths.checkpoint": "",
    "paths.input": "",
}

_BOOLEANS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
             **dict.fromkeys(("0", "false", "no", "off"), False)}

# Per default type: the parse of a raw value, and what the error names.
_PARSERS = {bool: (lambda raw: _BOOLEANS[raw.strip().lower()], "a boolean"),
            int: (int, "an integer"), float: (float, "a number")}


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _coerce(key: str, raw: str):
    kind = type(DEFAULTS[key])
    if kind not in _PARSERS:
        return raw
    parse, what = _PARSERS[kind]
    try:
        return parse(raw)
    except (KeyError, ValueError):
        raise UsageError(f"config key '{key}' expects {what}, got {raw!r}")


def _parse_pairs(lines, origin: str):
    pairs = []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise UsageError(f"{origin}, line {lineno}: expected key=value, got {text!r}")
        key, _, value = text.partition("=")
        pairs.append((key.strip(), value.strip()))
    return pairs


def resolve_config(config_path=None, sets=(), seed=None):
    """Merge defaults <- config file <- --set overrides <- --seed."""
    config = dict(DEFAULTS)
    pairs = []
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                pairs.extend(_parse_pairs(fh, config_path))
        except OSError as e:
            raise UsageError(f"cannot read config file: {e}")
    for item in sets:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        pairs.append((key.strip(), value.strip()))
    for key, value in pairs:
        if key not in DEFAULTS:
            raise UsageError(f"unknown config key '{key}'")
        config[key] = _coerce(key, value)
    if seed is not None:
        config["seed"] = seed
    return config


def _write_run_config(config: dict, outdir: str) -> None:
    path = os.path.join(outdir, "run_config.txt")
    with atomic_open(path, "w", encoding="utf-8") as fh:
        for key in sorted(config):
            fh.write(f"{key}={config[key]}\n")


def _split_csv(value: str):
    return tuple(s.strip() for s in value.split(",") if s.strip())


def _split_ints(value: str, key: str):
    try:
        return tuple(int(s) for s in _split_csv(value))
    except ValueError:
        raise UsageError(f"config key '{key}' expects comma-separated integers")


def _section(cls, config: dict, section: str, **given):
    """Build a config dataclass from its ``<section>.<field>`` keys plus
    ``given``, the fields it takes from other keys."""
    kwargs = {f.name: config[f"{section}.{f.name}"] for f in _keyed_fields(cls, section)}
    return cls(**kwargs, **given)


def _dataset_spec(config: dict) -> DatasetSpec:
    return _section(DatasetSpec, config, "dataset",
                    subjects=_split_csv(config["dataset.subjects"]) or None,
                    actions=_split_csv(config["dataset.actions"]) or None,
                    n_prefix=config["model.n_prefix"], horizon=config["model.horizon"])


def _load_windows(config: dict):
    spec = _dataset_spec(config)
    sequences = load_dataset(spec, fps=config["fps"])
    windows = []
    for seq in sequences:
        windows.extend(window_split(seq, spec))
    if not windows:
        raise ValueError(
            f"no training windows: dataset under '{spec.root}' yielded "
            f"{len(sequences)} usable sequence(s)")
    return windows


def _checkpoint_or_fresh(config: dict):
    path = config["paths.checkpoint"]
    if path:
        return load_checkpoint(path)
    return init_model(_section(ModelConfig, config, "model"), seed=config["seed"])


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_synth(config: dict, outdir: str) -> int:
    sequences = synth_generate(
        seed=config["seed"], count=config["synth.count"],
        n_frames=config["synth.n_frames"], n_params=config["synth.n_params"],
        fps=config["fps"])
    subject_dir = os.path.join(outdir, "synth")
    os.makedirs(subject_dir, exist_ok=True)
    for seq in sequences:
        save_csv_sequence(seq, os.path.join(subject_dir, f"{seq.action}.csv"))
    print(f"wrote {len(sequences)} sequence(s) under {subject_dir}")
    return 0


def cmd_train(config: dict, outdir: str) -> int:
    windows = _load_windows(config)
    model = init_model(_section(ModelConfig, config, "model"), seed=config["seed"])
    train_config = _section(TrainConfig, config, "train", seed=config["seed"])
    result = train_loop(model, windows, train_config,
                        checkpoint_dir=outdir)
    write_loss_curve(result.curve, os.path.join(outdir, "loss_curve.csv"))
    save_checkpoint(result.model, os.path.join(outdir, "model.npz"))
    if result.halted:
        print("training halted on non-finite loss; last good weights kept",
              file=sys.stderr)
        return 2
    last = result.curve[-1][1] if result.curve else float("nan")
    print(f"trained {len(result.curve)} step(s) on {len(windows)} window(s); "
          f"final loss {last:.6g}; checkpoint {os.path.join(outdir, 'model.npz')}")
    return 0


def cmd_predict(config: dict, outdir: str) -> int:
    if not config["paths.input"]:
        raise UsageError("predict needs --set paths.input=<motion csv>")
    model = _checkpoint_or_fresh(config)
    seq = load_csv_sequence(config["paths.input"], fps=config["fps"])
    future = predict(model, seq.frames)
    out_path = os.path.join(outdir, "prediction.csv")
    save_csv_sequence(MotionSequence(future), out_path)
    print(f"wrote {future.shape[0]} predicted frame(s) to {out_path}")
    return 0


def cmd_eval(config: dict, outdir: str) -> int:
    model = _checkpoint_or_fresh(config)
    windows = _load_windows(config)
    exclude = _split_ints(config["eval.exclude"], "eval.exclude")
    translation = _split_ints(config["eval.translation"], "eval.translation")
    if config["occlusion.enabled"]:
        spec = _section(OcclusionSpec, config, "occlusion", seed=config["seed"])
        strategy = config["occlusion.strategy"]
        # A window that starts before frame N has no clean window before it.
        scored = [w for w in windows if strategy != "short_term" or w.history is not None]
        report = occlusion_eval(model, scored, spec, strategy=strategy,
                                exclude=exclude, translation=translation)
    else:
        report = evaluate_mse_horizons(model, windows, exclude=exclude,
                                       translation=translation)
    out_path = os.path.join(outdir, "eval_report.json")
    write_eval_report(report, out_path)
    print(f"evaluated {report.n_windows} of {len(windows)} window(s); "
          f"{report.n_refused} refused; report at {out_path}")
    for ms in report.horizons_ms:
        print(f"  {ms:>5} ms: {report.overall[ms]:.6g}")
    return 0


def cmd_bench(config: dict, outdir: str) -> int:
    model = _checkpoint_or_fresh(config)
    stats = benchmark_inference(model, reps=config["bench.reps"],
                                warmup=config["bench.warmup"],
                                seed=config["seed"])
    doc = {"param_count": param_count(model),
           "config": dataclasses.asdict(model.config),
           **latency_json(stats)}
    out_path = os.path.join(outdir, "bench_report.json")
    with atomic_open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    faults = stats.minor_faults_per_prediction
    faults = "n/a" if faults is None else f"{faults:.0f}"
    print(f"mean {stats.mean_ms:.3f} ms | p50 {stats.p50_ms:.3f} ms | "
          f"p95 {stats.p95_ms:.3f} ms over {stats.reps} reps "
          f"({stats.calls_per_prediction} forward pass per prediction, "
          f"{faults} minor page faults per prediction)")
    return 0


_COMMANDS = {
    "synth": (cmd_synth, "generate seeded synthetic motion CSVs"),
    "train": (cmd_train, "train a model on a CSV dataset"),
    "predict": (cmd_predict, "forecast future frames from a motion CSV"),
    "eval": (cmd_eval, "horizon-wise Euler-MSE report, optionally under occlusion"),
    "bench": (cmd_bench, "single-forecast latency statistics"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="motioncast",
                     description="Two-channel transformer motion forecasting")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH",
                       help="flat key=value config file")
        p.add_argument("--set", metavar="key=value", action="append",
                       default=[], dest="sets",
                       help="override one config key (repeatable; later wins)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the run seed")
        p.add_argument("--out", metavar="DIR", default="out",
                       help="output directory (default: out)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a command is required: " + " | ".join(_COMMANDS))
        config = resolve_config(args.config, args.sets, args.seed)
        if config["occlusion.kind"] not in KINDS:
            raise UsageError(f"occlusion.kind must be one of {KINDS}")
        if config["occlusion.strategy"] not in RECOVERY_STRATEGIES:
            raise UsageError(
                f"occlusion.strategy must be one of {RECOVERY_STRATEGIES}")
        os.makedirs(args.out, exist_ok=True)
        _write_run_config(config, args.out)
        return _COMMANDS[args.command][0](config, args.out)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (ParseError, RecoveryError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
