"""CSV ingestion, windowing, the replicate-last-pose padding pattern and
the synthetic motion generator."""

import math

import numpy as np
import pytest

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
    bad_input = np.random.default_rng(8).normal(size=(7, 3))
    with pytest.raises(ValueError):
        MotionWindow(input=bad_input, target=np.zeros((3, 3)),
                     n_prefix=4, horizon=3)


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
