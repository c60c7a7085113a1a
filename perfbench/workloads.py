"""The benchmark's workloads.

Each runs from one process with one client, generates its load from the
workload seed, drives one layer hard and leaves the others idle, so a
change to one layer shows on the workload that drives it and reads "no
change" on the others:

* ``stream``: open loop at 25 fps, one batch-1 forecast per arriving
  frame, the newest frame superseding any that arrived while a forecast
  overran (model and the tensor forward ops, no tape);
* ``train``: closed loop, ``train_loop`` with the default model and
  batch size (the tape, backward and the optimizer);
* ``evaluate``: closed loop, mirrors ``motioncast eval``: one dataset
  load (dataset parsing), then plain, interpolated and autoregressive
  scoring of one window at a time (kinematics and occlusion).

Library functions are always called through their module
(``mc.trainer.train_loop``), so that the traced run's wrappers see them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import inputs

FRAME_PERIOD_S = 0.04           # 25 fps: the stream's arrival period and deadline
clock = time.perf_counter


class _NoTrace:
    """Stands in for a tracer in untraced segments."""

    def begin_op(self, phase):
        pass

    def end_op(self):
        pass


NO_TRACE = _NoTrace()


@dataclass
class Segment:
    """What one measured stretch of a workload did."""

    latencies_ms: list = field(default_factory=list)   # completed operations (evaluate: plain phase)
    work: int = 0               # forecasts or windows completed
    busy_s: float = 0.0         # time spent inside operations
    attempted: int = 0
    failed: int = 0
    late: int = 0               # missed the deadline, or skipped as stale (stream only)
    unrecoverable: int = 0      # interp windows correctly refused: RecoveryError (evaluate only)
    lag_ms: list = field(default_factory=list)    # stream generator: issued minus due
    wait_ms: list = field(default_factory=list)   # stream: started minus due
    # Items per second of each block of work (a forecast, an optimizer
    # step, a scoring round).
    rates: list = field(default_factory=list)
    phases: dict = field(default_factory=dict)    # phase -> {"items", "attempted", "busy_s", "rates"}
    errors: list = field(default_factory=list)

    def phase(self, name):
        return self.phases.setdefault(name, {"items": 0, "attempted": 0, "busy_s": 0.0, "rates": []})

    def throughput(self):
        """The rate sustained in nine blocks of ten: the 10th percentile of
        the block rates. Like a latency p90 it reads the machine's slower
        stretches, which nearly every run contains, where a median jumps
        with the share of the run the machine ran fast."""
        return float(np.percentile(self.rates, 10)) if self.rates else 0.0

    def fail(self, exc):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{type(exc).__name__}: {exc}")


def highest_tail(samples):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, from 50, 75, 90, 95, 98, 99, 99.5 and 99.9."""
    n = len(samples)
    best = 50.0
    for q in (75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9):
        if n * (1.0 - q / 100.0) >= 10:
            best = q
    return best, float(np.percentile(samples, best)) if n else 0.0


def _p95(samples):
    return float(np.percentile(samples, 95)) if samples else 0.0


class Workload:
    name = ""
    item = ""                 # what throughput_per_s counts

    def __init__(self, mc, seed: int, workdir: Path):
        self.mc, self.seed, self.workdir = mc, seed, Path(workdir)
        self.checkpoint = self.workdir / "model.npz"

    def prepare(self, seconds: float) -> None:
        """Untimed input generation."""
        self.mc.model.save_checkpoint(inputs.forecast_model(self.mc, self.seed), self.checkpoint)

    def setup_once(self) -> float:
        """One timed set-up (checkpoint load and first cold call), in seconds."""
        raise NotImplementedError

    def segment(self, seconds: float, tracer=None) -> Segment:
        raise NotImplementedError

    def checks(self) -> list:
        return [checks.zero_velocity_identity(self.mc, self.seed)]

    def report(self, seg: Segment) -> dict:
        """The workload's figures under their user-facing names."""
        tail, value = highest_tail(seg.latencies_ms)
        return {"failed_share": seg.failed / seg.attempted if seg.attempted else 0.0,
                "latency_samples": len(seg.latencies_ms),
                "latency_p50_ms": float(np.percentile(seg.latencies_ms, 50)) if seg.latencies_ms else 0.0,
                f"latency_p{tail:g}_ms": value,
                "throughput_median_per_s": float(np.median(seg.rates)) if seg.rates else 0.0}

    def _load(self, tracer):
        tracer.begin_op("setup")
        model = self.mc.model.load_checkpoint(self.checkpoint)
        tracer.end_op()
        return model


class Stream(Workload):
    name, item = "stream", "forecast"

    def prepare(self, seconds):
        super().prepare(seconds)
        self.n = self.mc.model.ModelConfig().n_prefix
        frames = self.n + int(seconds / FRAME_PERIOD_S) + 2
        self.frames = self.mc.dataset.synth_generate(self.seed, 1, frames, 99)[0].frames
        self.next_frame = self.n - 1
        self.kept = []            # (frame index, forecast) samples for the determinism check
        self.bad_outputs = 0
        self.forecasts = 0
        self.forward_passes = 0

    def setup_once(self):
        t0 = clock()
        model = self.mc.model.load_checkpoint(self.checkpoint)
        self.mc.model.predict(model, self.frames[:self.n])
        return clock() - t0

    def segment(self, seconds, tracer=None):
        tracer = tracer or NO_TRACE
        model = self._load(tracer)
        seg = Segment()
        count = int(seconds / FRAME_PERIOD_S)
        first = self.next_frame
        self.next_frame += count
        passes_before = model.forward_count
        origin = clock() + FRAME_PERIOD_S
        i = 0
        while i < count:
            due = origin + i * FRAME_PERIOD_S
            start = clock()
            if start < due:
                time.sleep(due - start)
                start = clock()
                seg.lag_ms.append((start - due) * 1e3)
            else:
                # Behind schedule: the newest frame that has arrived supersedes
                # the ones before it, which miss their deadline unforecast.
                newest = min(count - 1, int((start - origin) / FRAME_PERIOD_S))
                seg.attempted += newest - i
                seg.late += newest - i
                i = newest
                due = origin + i * FRAME_PERIOD_S
            seg.wait_ms.append((start - due) * 1e3)
            j = first + i
            i += 1
            seg.attempted += 1
            tracer.begin_op("stream")
            try:
                forecast = self.mc.model.predict(model, self.frames[j - self.n + 1:j + 1])
            except Exception as exc:   # a failed forecast is counted, and misses its deadline
                tracer.end_op()
                seg.fail(exc)
                seg.busy_s += clock() - start
                continue
            done = clock()
            tracer.end_op()
            seg.busy_s += done - start
            seg.rates.append(1.0 / (done - start))
            seg.latencies_ms.append((done - due) * 1e3)
            seg.late += done - due > FRAME_PERIOD_S
            seg.work += 1
            if forecast.shape != (model.config.horizon, 99) or not np.isfinite(forecast).all():
                self.bad_outputs += 1
            if seg.work % 150 == 1:
                self.kept.append((j, forecast))
        self.forecasts += seg.work
        self.forward_passes += model.forward_count - passes_before
        return seg

    def checks(self):
        mc, n = self.mc, self.n
        out = super().checks()
        out.append(checks.matches_reference("stream_reference", checks.stream_probe(mc, self.workdir),
                                            checks.load_reference()["stream"]))
        out.append(("stream_outputs_finite", self.bad_outputs == 0,
                    f"{self.bad_outputs} forecast(s) non-finite or of the wrong shape"))
        out.append(("one_forward_pass_per_forecast", self.forward_passes == self.forecasts,
                    f"{self.forward_passes} passes for {self.forecasts} forecasts"))
        loaded = mc.model.load_checkpoint(self.checkpoint)
        same = all(np.array_equal(mc.model.predict(loaded, self.frames[j - n + 1:j + 1]), f)
                   for j, f in self.kept)
        out.append(("stream_forecasts_repeat", same, "recomputed samples are bit-identical"
                    if same else "a recomputed forecast differs"))
        fresh = inputs.forecast_model(mc, self.seed)
        round_trip = np.array_equal(mc.model.predict(fresh, self.frames[:n]),
                                    mc.model.predict(loaded, self.frames[:n]))
        out.append(("checkpoint_round_trip", round_trip, "saved and loaded models forecast alike"
                    if round_trip else "loaded checkpoint forecasts differently"))
        return out

    def report(self, seg):
        return {
            **super().report(seg),
            "forecast_latency_p95_ms": _p95(seg.latencies_ms),
            "generator_lag_p95_ms": _p95(seg.lag_ms),
            "queue_wait_p95_ms": _p95(seg.wait_ms),
            "frames": seg.attempted,
            "frames_forecast": seg.work,
            "generator_slept_frames": len(seg.lag_ms),
        }


class Train(Workload):
    name, item = "train", "window"
    SEQUENCES, FRAMES = 4, 70      # 8 windows each at stride 5: 32 windows per epoch
    BATCH = 4                      # the CLI default

    def prepare(self, seconds):
        super().prepare(seconds)
        ds = self.mc.dataset
        spec = ds.DatasetSpec()
        self.windows = [w for seq in ds.synth_generate(self.seed, self.SEQUENCES, self.FRAMES, 99)
                        for w in ds.window_split(seq, spec)]
        self.step_s = []
        self.runs = []             # (curve, halted, epochs) per segment

    def _config(self, epochs):
        return self.mc.trainer.TrainConfig(epochs=epochs, batch_size=self.BATCH, seed=self.seed)

    def setup_once(self):
        t0 = clock()
        model = self.mc.model.load_checkpoint(self.checkpoint)
        t1 = clock()
        self.mc.trainer.train_loop(model, self.windows[:self.BATCH], self._config(1))
        t2 = clock()
        self.step_s.append(t2 - t1)
        return t2 - t0

    def segment(self, seconds, tracer=None):
        tracer = tracer or NO_TRACE
        model = self._load(tracer)
        steps_per_epoch = math.ceil(len(self.windows) / self.BATCH)
        epochs = max(2, round(seconds / (min(self.step_s) * steps_per_epoch)))
        stamps = []

        def loss(pred, window):
            stamps.append(clock())
            return self.mc.trainer.loss_fn(pred, window)

        seg = Segment()
        t0 = clock()
        result = self.mc.trainer.train_loop(model, self.windows, self._config(epochs), loss=loss)
        t1 = clock()
        tracer.end_op()
        # Each sample runs from one window's loss to the next: one backward,
        # one forward, and the optimizer step at the end of each batch.
        seg.latencies_ms = (np.diff(stamps + [t1]) * 1e3).tolist()
        # One block per optimizer step: its windows' forward and backward
        # passes and the step itself.
        edges = stamps[::self.BATCH] + [t1]
        seg.rates = [min(self.BATCH, len(stamps) - k * self.BATCH) / (end - start)
                     for k, (start, end) in enumerate(zip(edges, edges[1:]))]
        seg.attempted = epochs * len(self.windows)
        seg.work = len(stamps)
        seg.failed = seg.attempted - len(stamps) if result.halted else 0
        seg.busy_s = t1 - t0
        self.runs.append((result.curve, result.halted, epochs))
        return seg

    def checks(self):
        out = super().checks()
        steps_per_epoch = math.ceil(len(self.windows) / self.BATCH)
        for k, (curve, halted, epochs) in enumerate(self.runs):
            losses = np.array([loss for _, loss in curve])
            complete = not halted and len(losses) == epochs * steps_per_epoch
            out.append((f"train_completes[{k}]", complete and bool(np.isfinite(losses).all()),
                        f"halted={halted}, {len(losses)} of {epochs * steps_per_epoch} steps, "
                        f"all losses finite={bool(np.isfinite(losses).all())}"))
            if complete:
                first = losses[:steps_per_epoch].mean()
                last = losses[-steps_per_epoch:].mean()
                out.append((f"train_loss_falls[{k}]", bool(last < first),
                            f"first-epoch mean {first:.6g}, final-epoch mean {last:.6g} "
                            f"after {epochs} epochs"))
        return out

    def report(self, seg):
        return {**super().report(seg),
                "windows": seg.work, "steps": len(seg.rates)}


class Evaluate(Workload):
    name, item = "evaluate", "window"
    SEQUENCES, FRAMES = 8, 500     # at 50 fps: 250 frames, 44 windows each after downsampling
    # One round of scoring. Whole rounds keep the mix of phases the same
    # whatever the speed or the seed's share of unrecoverable masks; each
    # phase takes about a third of the time.
    ROUND = ("eval",) * 4 + ("interp",) * 4 + ("ar",)
    PHASES = ("eval", "interp", "ar")
    STRATEGY = {"interp": "interp", "ar": "autoregressive"}

    def prepare(self, seconds):
        super().prepare(seconds)
        mc = self.mc
        inputs.write_dataset(mc, self.workdir / "data", self.seed, self.SEQUENCES, self.FRAMES)
        self.spec = inputs.dataset_spec(mc, self.workdir / "data")
        first = mc.dataset.load_dataset(self.spec)[0]
        self.setup_window = mc.dataset.window_split(first, self.spec)[0]
        self.attempts = {"interp": 0, "ar": 0}
        self.interp_outcomes = []   # (mask spec, failed) per interpolated window
        self.other_failures = 0
        self.bad_outputs = 0
        self.plain_windows = 0
        self.plain_passes = 0

    def setup_once(self):
        t0 = clock()
        model = self.mc.model.load_checkpoint(self.checkpoint)
        self.mc.trainer.evaluate_mse_horizons(model, [self.setup_window],
                                              inputs.EXCLUDE, inputs.TRANSLATION)
        return clock() - t0

    def _score(self, model, phase, window, spec):
        tr = self.mc.trainer
        if phase == "eval":
            return tr.evaluate_mse_horizons(model, [window], inputs.EXCLUDE, inputs.TRANSLATION)
        return tr.occlusion_eval(model, [window], spec, self.STRATEGY[phase],
                                 inputs.EXCLUDE, inputs.TRANSLATION)

    def segment(self, seconds, tracer=None):
        tracer = tracer or NO_TRACE
        mc = self.mc
        model = self._load(tracer)
        seg = Segment()
        t0 = clock()
        tracer.begin_op("ingest")
        seqs = mc.dataset.load_dataset(self.spec)
        windows = [w for seq in seqs for w in mc.dataset.window_split(seq, self.spec)]
        tracer.end_op()
        ingest = seg.phase("ingest")
        ingest["busy_s"] = clock() - t0
        ingest["items"] = self.SEQUENCES * self.FRAMES
        order = np.random.default_rng([self.seed, 3]).permutation(len(windows))
        end = clock() + seconds
        k = 0
        while clock() < end:
            round_items, round_start = seg.work, clock()
            phase_items = {p: 0 for p in self.PHASES}
            phase_busy = {p: 0.0 for p in self.PHASES}
            for phase in self.ROUND:
                window = windows[order[k % len(windows)]]
                k += 1
                stats = seg.phase(phase)
                seg.attempted += 1
                stats["attempted"] += 1
                spec = None
                if phase in self.attempts:
                    spec = inputs.occlusion_spec(mc, self.seed, phase, self.attempts[phase])
                    self.attempts[phase] += 1
                passes = model.forward_count
                start = clock()
                tracer.begin_op(phase)
                try:
                    report = self._score(model, phase, window, spec)
                except Exception as exc:
                    report = None
                    if phase == "interp" and isinstance(exc, mc.occlusion.RecoveryError):
                        # The specified outcome when the mask leaves a parameter
                        # with no observed frame, not a failure; a check
                        # compares every such window with its mask.
                        seg.unrecoverable += 1
                    else:          # counted; the checks then fail the run
                        seg.fail(exc)
                        self.other_failures += 1
                done = clock()
                tracer.end_op()
                stats["busy_s"] += done - start
                phase_busy[phase] += done - start
                phase_items[phase] += report is not None
                if phase == "interp":
                    self.interp_outcomes.append((spec, report is None))
                if report is None:
                    continue
                if phase == "eval":
                    self.plain_windows += 1
                    self.plain_passes += model.forward_count - passes
                stats["items"] += 1
                seg.work += 1
                # Latency from the plain phase only: an autoregressive window
                # takes about 5 times as long as the others, so percentiles
                # over every phase would depend on how the phases mix.
                if phase == "eval":
                    seg.latencies_ms.append((done - start) * 1e3)
                if not all(math.isfinite(v) for v in report.overall.values()):
                    self.bad_outputs += 1
            seg.rates.append((seg.work - round_items) / (clock() - round_start))
            for p in self.PHASES:
                seg.phase(p)["rates"].append(phase_items[p] / phase_busy[p])
        seg.busy_s = sum(seg.phases[p]["busy_s"] for p in self.PHASES)
        return seg

    def checks(self):
        mc = self.mc
        out = super().checks()
        out.append(checks.matches_reference("evaluate_reference", checks.evaluate_probe(mc, self.workdir),
                                            checks.load_reference()["evaluate"]))
        out.append(("evaluate_outputs_finite", self.bad_outputs == 0,
                    f"{self.bad_outputs} window(s) with a non-finite MSE"))
        out.append(("one_forward_pass_per_plain_window", self.plain_passes == self.plain_windows,
                    f"{self.plain_passes} passes for {self.plain_windows} windows"))
        n, p = mc.model.ModelConfig().n_prefix, 99
        expected = [inputs.interp_unrecoverable(mc, spec, n, p) for spec, _ in self.interp_outcomes]
        refused = [r for _, r in self.interp_outcomes]
        ok = expected == refused and self.other_failures == 0
        out.append(("refusals_are_unrecoverable_masks", ok,
                    f"{sum(refused)} interpolation refusal(s), {sum(expected)} mask(s) leave a "
                    f"parameter unobserved, over {len(refused)} window(s); "
                    f"{self.other_failures} other failure(s)"))
        return out

    def report(self, seg):
        def rate(phase):
            return float(np.median(seg.phases[phase]["rates"]))

        ingest = seg.phases["ingest"]
        return {**super().report(seg),
                "ingest_frames_per_s": ingest["items"] / ingest["busy_s"],
                "eval_windows_per_s": rate("eval"),
                "interp_eval_windows_per_s": rate("interp"),
                "ar_eval_windows_per_s": rate("ar"),
                "interp_unrecoverable_share": seg.unrecoverable / seg.phases["interp"]["attempted"],
                "rounds": len(seg.rates),
                "windows_attempted": {p: seg.phases[p]["attempted"] for p in self.PHASES},
                "windows_scored": {p: seg.phases[p]["items"] for p in self.PHASES}}


WORKLOADS = {cls.name: cls for cls in (Stream, Train, Evaluate)}
