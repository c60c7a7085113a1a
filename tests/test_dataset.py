"""CSV ingestion, windowing, the replicate-last-pose padding pattern and
the synthetic motion generator."""

import dataclasses
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from motioncast.dataset import (DatasetSpec, MotionSequence, MotionWindow,
                                ParseError, build_padded_input, downsample,
                                load_csv_sequence, load_dataset,
                                save_csv_sequence, synth_generate, window_split)


def make_seq(frames, fps=25.0, subject="s", action="a"):
    return MotionSequence(frames=np.asarray(frames, dtype=np.float64), fps=fps,
                          meta={"subject": subject, "action": action})


# ---------------------------------------------------------------------------
# CSV parsing
# ---------------------------------------------------------------------------

def test_load_two_line_file(tmp_path):
    path = tmp_path / "s" / "a.csv"
    path.parent.mkdir()
    path.write_text("0,0,0\n1,2,3\n")
    seq = load_csv_sequence(path)
    assert seq.frames.shape == (2, 3)
    np.testing.assert_array_equal(seq.frames, [[0, 0, 0], [1, 2, 3]])
    assert seq.subject == "s" and seq.action == "a"


def test_ragged_row_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,3\n4,5\n")
    with pytest.raises(ParseError) as exc:
        load_csv_sequence(path)
    assert "line 2" in str(exc.value)


def test_non_numeric_reports_line_and_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,3\n4,oops,6\n")
    with pytest.raises(ParseError) as exc:
        load_csv_sequence(path)
    msg = str(exc.value)
    assert "line 2" in msg and "column 2" in msg


@pytest.mark.parametrize("token", ["nan", "inf", "-Infinity", "NaN"])
def test_non_finite_token_reports_path_line_and_column(tmp_path, token):
    """A blank line does not shift the reported line number."""
    path = tmp_path / "bad.csv"
    path.write_text(f"1,2,3\n\n4,5,6\n7,8,{token}\n")
    with pytest.raises(ParseError) as exc:
        load_csv_sequence(path)
    assert str(exc.value).startswith(f"{path}: line 4, column 3: ")


def test_first_fault_in_file_order_is_reported(tmp_path):
    """A non-finite token on line 1 is reported before a ragged row on
    line 2, and a ragged row before a later non-finite token."""
    path = tmp_path / "bad.csv"
    path.write_text("1,inf,3\n4,5\n")
    with pytest.raises(ParseError) as exc:
        load_csv_sequence(path)
    assert str(exc.value) == f"{path}: line 1, column 2: not a finite number: inf"
    path.write_text("1,2,3\n4,5\n6,nan,7\n")
    with pytest.raises(ParseError) as exc:
        load_csv_sequence(path)
    assert str(exc.value) == f"{path}: line 2 has 2 fields, expected 3"


def test_non_utf8_file_names_path(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("1,2,3\n4,5,6 # caf\u00e9\n".encode("latin-1"))
    with pytest.raises(ParseError) as exc:
        load_csv_sequence(path)
    assert str(exc.value) == f"{path}: not UTF-8 text"


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ParseError):
        load_csv_sequence(path)


def test_crlf_accepted(tmp_path):
    path = tmp_path / "dos.csv"
    path.write_text("1,2,3\r\n4,5,6\r\n")
    seq = load_csv_sequence(path)
    np.testing.assert_array_equal(seq.frames, [[1, 2, 3], [4, 5, 6]])


def test_save_load_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    frames = np.concatenate([
        rng.normal(size=(5, 6)) * 1e3,
        rng.normal(size=(5, 6)) * 1e-7,
        np.array([[0.1, -0.0, 1 / 3, math.pi, 2e-308, 1e308]] * 1)])
    seq = make_seq(frames)
    path = tmp_path / "roundtrip.csv"
    save_csv_sequence(seq, path)
    back = load_csv_sequence(path)
    np.testing.assert_array_equal(back.frames, frames)


# Finite float64 values, with the edge cases drawn often: signed zero,
# subnormals and the ends of the range.
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308,
                                    1.7976931348623157e308]))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 4)), elements=FINITE))
def test_save_load_round_trip_is_bit_exact_for_any_finite_frames(frames):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s" / "a.csv"
        save_csv_sequence(make_seq(frames), path)
        back = load_csv_sequence(path)
    assert back.frames.tobytes() == frames.tobytes()


# ---------------------------------------------------------------------------
# downsampling
# ---------------------------------------------------------------------------

def test_downsample_factor_one_identity():
    seq = make_seq(np.arange(30, dtype=np.float64).reshape(10, 3))
    out = downsample(seq, 1)
    np.testing.assert_array_equal(out.frames, seq.frames)
    assert out.fps == seq.fps


def test_downsample_keeps_every_other_frame():
    seq = make_seq(np.arange(30, dtype=np.float64).reshape(10, 3), fps=50.0)
    out = downsample(seq, 2)
    np.testing.assert_array_equal(out.frames, seq.frames[[0, 2, 4, 6, 8]])
    assert out.fps == 25.0


def test_downsample_rejects_bad_factor():
    seq = make_seq(np.zeros((4, 3)))
    with pytest.raises(ValueError):
        downsample(seq, 0)


# ---------------------------------------------------------------------------
# padding pattern
# ---------------------------------------------------------------------------

def test_padding_zero_horizon_is_identity():
    prefix = np.random.default_rng(1).normal(size=(4, 6))
    np.testing.assert_array_equal(build_padded_input(prefix, 0), prefix)


def test_padding_default_shape():
    prefix = np.random.default_rng(2).normal(size=(10, 99))
    padded = build_padded_input(prefix, 25)
    assert padded.shape == (35, 99)
    np.testing.assert_array_equal(padded[:10], prefix)
    for t in range(10, 35):
        np.testing.assert_array_equal(padded[t], prefix[9])


def test_padding_single_frame_prefix():
    prefix = np.array([[1.0, 2.0, 3.0]])
    padded = build_padded_input(prefix, 4)
    for t in range(5):
        np.testing.assert_array_equal(padded[t], prefix[0])


def test_padding_idempotent_on_prefix():
    prefix = np.random.default_rng(3).normal(size=(6, 9))
    padded = build_padded_input(prefix, 7)
    again = build_padded_input(padded[:6], 7)
    np.testing.assert_array_equal(again, padded)


# ---------------------------------------------------------------------------
# window extraction
# ---------------------------------------------------------------------------

def test_window_count_exact_fit():
    seq = make_seq(np.random.default_rng(4).normal(size=(35, 6)))
    spec = DatasetSpec(n_prefix=10, horizon=25, stride=1)
    assert len(window_split(seq, spec)) == 1


def test_window_count_forty_five_frames():
    seq = make_seq(np.random.default_rng(5).normal(size=(45, 6)))
    spec = DatasetSpec(n_prefix=10, horizon=25, stride=5)
    windows = window_split(seq, spec)
    assert len(windows) == 3


def test_window_too_short_sequence():
    seq = make_seq(np.zeros((34, 6)))
    spec = DatasetSpec(n_prefix=10, horizon=25, stride=5)
    assert window_split(seq, spec) == []


def test_window_invariants_and_alignment():
    frames = np.random.default_rng(6).normal(size=(50, 6))
    seq = make_seq(frames)
    spec = DatasetSpec(n_prefix=4, horizon=3, stride=2)
    windows = window_split(seq, spec)
    assert len(windows) == (50 - 7) // 2 + 1
    for k, w in enumerate(windows):
        start = k * 2
        assert w.input.shape == (7, 6)
        np.testing.assert_array_equal(w.input[:4], frames[start:start + 4])
        for t in range(4, 7):
            np.testing.assert_array_equal(w.input[t], w.input[3])
        np.testing.assert_array_equal(w.target, frames[start + 4:start + 7])
        assert w.action == "a"


def test_window_history_when_room_exists():
    frames = np.random.default_rng(7).normal(size=(20, 3))
    seq = make_seq(frames)
    spec = DatasetSpec(n_prefix=4, horizon=3, stride=4)
    windows = window_split(seq, spec)
    assert windows[0].history is None          # starts at 0: nothing before it
    w = windows[1]                             # starts at 4
    np.testing.assert_array_equal(w.history, frames[0:4])


def test_window_replication_invariant_enforced():
    """The padded rows are built from the prefix, so no window can hold
    padding that differs from its last observed pose."""
    prefix = np.random.default_rng(8).normal(size=(4, 3))
    w = MotionWindow(prefix, np.zeros((3, 3)))
    np.testing.assert_array_equal(w.input[:4], prefix)
    np.testing.assert_array_equal(w.input[4:], np.repeat(prefix[3:], 3, axis=0))


def test_window_target_and_history_are_read_only_views():
    seq = synth_generate(seed=13, count=1, n_frames=60, n_params=6)[0]
    windows = window_split(seq, DatasetSpec(n_prefix=4, horizon=3, stride=5))
    assert any(w.history is not None for w in windows)
    for w in windows:
        for arr in (w.target, w.history):
            if arr is None:
                continue
            assert np.shares_memory(arr, seq.frames)
            assert not arr.flags.writeable
        assert not np.shares_memory(w.input, seq.frames)


def test_writing_through_a_window_raises_and_frames_stay_writable():
    seq = synth_generate(seed=14, count=1, n_frames=60, n_params=6)[0]
    w = window_split(seq, DatasetSpec(n_prefix=4, horizon=3, stride=5))[2]
    with pytest.raises(ValueError):
        w.target[0, 0] = 1.0
    with pytest.raises(ValueError):
        w.history[0, 0] = 1.0
    assert seq.frames.flags.writeable
    seq.frames[14, 0] = 7.0                    # window 2 starts at frame 10
    assert w.target[0, 0] == 7.0


def test_window_split_holds_no_copies_of_the_frames():
    """44 windows of a 250 x 99 sequence hold their padded inputs only."""
    import gc
    import tracemalloc
    seq = synth_generate(seed=1, count=1, n_frames=250, n_params=99)[0]
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        windows = window_split(seq, DatasetSpec())
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(windows) == 44
    assert held < 1.6e6  # 2.45 MB with copied targets and histories


def test_train_loop_over_views_matches_copied_windows():
    from motioncast.model import ModelConfig, init_model, named_params
    from motioncast.trainer import TrainConfig, train_loop
    seq = synth_generate(seed=15, count=1, n_frames=60, n_params=6)[0]
    views = window_split(seq, DatasetSpec(n_prefix=4, horizon=3, stride=5))
    copies = [MotionWindow(w.prefix.copy(), w.target.copy(),
                           history=None if w.history is None else w.history.copy(),
                           action=w.action)
              for w in views]
    cfg = ModelConfig(n_params=6, n_prefix=4, horizon=3, embed_dim=8, n_heads=2,
                      n_layers=1, dropout=0.1)
    runs = [train_loop(init_model(cfg, seed=3), ws,
                       TrainConfig(epochs=2, batch_size=5, horizon_weighting=True))
            for ws in (views, copies)]
    assert len(runs[0].curve) == 6             # 11 windows: the last batch is short
    assert runs[0].curve == runs[1].curve
    a, b = (named_params(r.model) for r in runs)
    for k in a:
        np.testing.assert_array_equal(a[k].data, b[k].data, err_msg=k)


def test_window_prefix_is_a_read_only_view_too():
    seq = synth_generate(seed=16, count=1, n_frames=60, n_params=6)[0]
    windows = window_split(seq, DatasetSpec(n_prefix=4, horizon=3, stride=5))
    for k, w in enumerate(windows):
        start = k * 5
        for arr, lo in ((w.prefix, start), (w.target, start + 4), (w.history, start - 4)):
            if arr is None:
                continue
            assert np.shares_memory(arr, seq.frames)
            assert not arr.flags.writeable
            np.testing.assert_array_equal(arr, seq.frames[lo:lo + len(arr)])
        with pytest.raises(ValueError):
            w.prefix[0, 0] = 1.0


def test_window_input_is_built_fresh_on_each_read():
    seq = synth_generate(seed=17, count=1, n_frames=60, n_params=6)[0]
    w = window_split(seq, DatasetSpec(n_prefix=4, horizon=3, stride=5))[3]
    a, b = w.input, w.input
    np.testing.assert_array_equal(a, build_padded_input(w.prefix, 3))
    assert a is not b and not np.shares_memory(a, b)
    assert a.flags.writeable and not np.shares_memory(a, seq.frames)
    before = (w.prefix.copy(), w.target.copy())
    a[:] = 9.0
    np.testing.assert_array_equal(w.prefix, before[0])
    np.testing.assert_array_equal(w.target, before[1])
    np.testing.assert_array_equal(w.input, b)


def test_window_split_builds_no_padded_inputs():
    """44 windows of a 250 x 99 sequence hold views only, not T x P inputs."""
    import gc
    import tracemalloc
    seq = synth_generate(seed=1, count=1, n_frames=250, n_params=99)[0]
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        windows = window_split(seq, DatasetSpec())
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(windows) == 44
    assert held < 0.1e6  # 1.25 MB with one padded input per window


@pytest.mark.parametrize("kwargs, message", [
    (dict(prefix=np.zeros(3)), "prefix must be N x P"),
    (dict(prefix=np.zeros((0, 3))), "prefix must be N x P"),
    (dict(target=np.zeros((3, 4))), "target must be T' x 3"),
    (dict(target=np.zeros(3)), "target must be T' x 3"),
])
def test_constructed_window_checks_its_input(kwargs, message):
    with pytest.raises(ValueError, match=message):
        MotionWindow(**{"prefix": np.zeros((4, 3)), "target": np.zeros((3, 3)), **kwargs})


def test_constructed_window_keeps_the_prefix_of_its_input():
    prefix = np.arange(12.0).reshape(4, 3)
    w = MotionWindow(prefix, np.ones((3, 3)))
    assert w.prefix is prefix
    np.testing.assert_array_equal(w.input, build_padded_input(prefix, 3))
    assert (w.n_prefix, w.horizon, w.total) == (4, 3, 7)


def test_eval_reports_over_views_match_copied_windows():
    from motioncast.model import ModelConfig, init_model
    from motioncast.occlusion import OcclusionSpec
    from motioncast.trainer import evaluate_mse_horizons, occlusion_eval
    seq = synth_generate(seed=18, count=1, n_frames=60, n_params=6)[0]
    views = window_split(seq, DatasetSpec(n_prefix=8, horizon=8, stride=6))[2:]
    copies = [MotionWindow(w.prefix.copy(), w.target.copy(),
                           history=w.history.copy(), action=w.action)
              for w in views]
    model = init_model(ModelConfig(n_params=6, n_prefix=8, horizon=8, embed_dim=8,
                                   n_heads=2, n_layers=1), seed=4)
    horizons = (80, 160)
    spec = OcclusionSpec(kind="time_consistent", ratio=0.2, seed=2)
    reports = [[evaluate_mse_horizons(model, ws, horizons_ms=horizons)]
               + [occlusion_eval(model, ws, spec, s, horizons_ms=horizons)
                  for s in ("interp", "short_term", "autoregressive")]
               for ws in (views, copies)]
    assert reports[0] == reports[1]


@settings(derandomize=True, deadline=None)
@given(st.integers(1, 6), st.integers(0, 6), st.integers(1, 4), st.data())
def test_any_window_input_is_its_prefix_then_copies_of_its_last_row(n, h, p, data):
    prefix = data.draw(arrays(np.float64, (n, p), elements=FINITE))
    w = MotionWindow(prefix, np.zeros((h, p)))
    assert (w.n_prefix, w.horizon, w.input.shape) == (n, h, (n + h, p))
    assert w.input.tobytes() == np.vstack([prefix] + [prefix[-1:]] * h).tobytes()


def test_replace_builds_a_window_through_the_one_constructor():
    seq = synth_generate(seed=19, count=1, n_frames=60, n_params=6)[0]
    w = window_split(seq, DatasetSpec(n_prefix=4, horizon=3, stride=5))[3]
    longer = dataclasses.replace(w, target=seq.frames[19:24])
    assert (longer.n_prefix, longer.horizon, longer.total) == (4, 5, 9)
    assert longer.prefix is w.prefix and longer.history is w.history
    with pytest.raises(ValueError, match="target must be T' x 6"):
        dataclasses.replace(w, target=np.zeros((3, 5)))


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------

def test_synth_deterministic():
    a = synth_generate(seed=9, count=3, n_frames=40, n_params=6)
    b = synth_generate(seed=9, count=3, n_frames=40, n_params=6)
    for sa, sb in zip(a, b):
        np.testing.assert_array_equal(sa.frames, sb.frames)


def test_synth_amplitude_and_smoothness():
    for seq in synth_generate(seed=10, count=4, n_frames=100, n_params=9):
        assert np.abs(seq.frames).max() <= 0.8
        deltas = np.abs(np.diff(seq.frames, axis=0))
        assert deltas.max() < 0.3


def test_synth_dominant_frequency_matches_stored_rate():
    """Each parameter is a pure sinusoid; the discrete-Fourier peak must
    sit within 5% of the generating angular rate."""
    seq = synth_generate(seed=11, count=1, n_frames=8192, n_params=3)[0]
    omega = np.asarray(seq.meta["omega"], dtype=np.float64)
    dt = 1.0 / seq.fps
    freqs = np.fft.rfftfreq(8192, d=dt) * 2 * math.pi  # rad/s bins
    for p in range(3):
        spectrum = np.abs(np.fft.rfft(seq.frames[:, p]))
        spectrum[0] = 0.0  # ignore any bias term
        peak = freqs[int(np.argmax(spectrum))]
        assert abs(peak - omega[p]) <= 0.05 * omega[p], (peak, omega[p])


def test_synth_sequences_are_windowable():
    seqs = synth_generate(seed=12, count=2, n_frames=45, n_params=6)
    spec = DatasetSpec(n_prefix=10, horizon=25, stride=5)
    for s in seqs:
        assert len(window_split(s, spec)) == 3


# ---------------------------------------------------------------------------
# directory loading
# ---------------------------------------------------------------------------

def _write_tree(root, layout):
    for subject, actions in layout.items():
        d = root / subject
        d.mkdir(parents=True)
        for action, frames in actions.items():
            save_csv_sequence(make_seq(frames, subject=subject, action=action),
                              d / f"{action}.csv")


def test_load_dataset_layout_and_filters(tmp_path):
    rng = np.random.default_rng(13)
    layout = {
        "s1": {"walk": rng.normal(size=(40, 6)), "eat": rng.normal(size=(38, 6))},
        "s5": {"walk": rng.normal(size=(36, 6))},
    }
    _write_tree(tmp_path, layout)

    all_seqs = load_dataset(DatasetSpec(root=str(tmp_path)))
    assert [(s.subject, s.action) for s in all_seqs] == [
        ("s1", "eat"), ("s1", "walk"), ("s5", "walk")]

    only_s5 = load_dataset(DatasetSpec(root=str(tmp_path), subjects=("s5",)))
    assert [(s.subject, s.action) for s in only_s5] == [("s5", "walk")]

    only_walk = load_dataset(DatasetSpec(root=str(tmp_path), actions=("walk",)))
    assert [s.action for s in only_walk] == ["walk", "walk"]


def test_load_dataset_missing_root(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_dataset(DatasetSpec(root=str(tmp_path / "nope")))


def test_lossless_ingestion_invariant(tmp_path):
    """load -> downsample(1) -> window prefixes reproduce the file values."""
    rng = np.random.default_rng(14)
    frames = rng.normal(size=(40, 6))
    _write_tree(tmp_path, {"s1": {"act": frames}})
    seq = downsample(load_dataset(DatasetSpec(root=str(tmp_path)))[0], 1)
    spec = DatasetSpec(root=str(tmp_path), n_prefix=5, horizon=5, stride=5)
    for k, w in enumerate(window_split(seq, spec)):
        np.testing.assert_array_equal(w.prefix, frames[5 * k:5 * k + 5])
