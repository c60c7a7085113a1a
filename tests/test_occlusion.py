"""Mask generation statistics, corruption, and the three recovery
strategies."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import scalar_recover_autoregressive

from motioncast.model import ModelConfig, init_model, named_params, predict
from motioncast.occlusion import (OcclusionMask, OcclusionSpec, RecoveryError,
                                  apply_mask, export_mask_csv, generate_mask,
                                  recover_autoregressive, recover_linear_interp,
                                  recover_short_term)

TINY = ModelConfig(n_params=6, n_prefix=4, horizon=3, embed_dim=8, n_heads=2,
                   n_layers=1, dropout=0.0)


# ---------------------------------------------------------------------------
# spec / mask plumbing
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        OcclusionSpec(kind="nope", ratio=0.5)
    with pytest.raises(ValueError):
        OcclusionSpec(kind="time_consistent", ratio=1.5)
    with pytest.raises(ValueError):
        OcclusionSpec(kind="time_consistent", ratio=0.5,
                      mean_duration_frames=0.0)


def test_mask_validation_and_fraction():
    with pytest.raises(ValueError):
        OcclusionMask(observed=np.ones(5, dtype=bool), ratio_requested=0.0)
    obs = np.ones((4, 3), dtype=bool)
    obs[0, 0] = obs[1, 2] = obs[3, 1] = False
    m = OcclusionMask(observed=obs, ratio_requested=0.25)
    assert m.occluded_fraction == 3 / 12


# ---------------------------------------------------------------------------
# time-consistent generator
# ---------------------------------------------------------------------------

def test_time_consistent_ratio_zero_and_one():
    spec0 = OcclusionSpec(kind="time_consistent", ratio=0.0, seed=1)
    m0 = generate_mask(spec0, 10, 9)
    assert np.all(m0.observed)
    spec1 = OcclusionSpec(kind="time_consistent", ratio=1.0, seed=1)
    m1 = generate_mask(spec1, 10, 9)
    assert m1.occluded_fraction == 1.0


def test_time_consistent_deterministic():
    spec = OcclusionSpec(kind="time_consistent", ratio=0.4, seed=7)
    a = generate_mask(spec, 10, 99)
    b = generate_mask(spec, 10, 99)
    np.testing.assert_array_equal(a.observed, b.observed)


def test_time_consistent_reaches_requested_ratio():
    for seed in range(20):
        spec = OcclusionSpec(kind="time_consistent", ratio=0.3, seed=seed)
        m = generate_mask(spec, 10, 99)
        assert m.occluded_fraction >= 0.3 - 1e-12


def test_time_consistent_mean_fraction_is_tight():
    # small monte-carlo preview of the acceptance-scale statistic
    fracs = []
    for seed in range(200):
        spec = OcclusionSpec(kind="time_consistent", ratio=0.4, seed=seed)
        fracs.append(generate_mask(spec, 10, 99).occluded_fraction)
    mean = float(np.mean(fracs))
    assert 0.4 <= mean <= 0.43, mean


def test_time_consistent_runs_span_frames():
    """Occlusions are contiguous in time: with a long mean duration a
    column that is hit tends to be hit on several consecutive frames."""
    spec = OcclusionSpec(kind="time_consistent", ratio=0.3, seed=3,
                         mean_duration_frames=6.0)
    m = generate_mask(spec, 20, 5)
    hidden = ~m.observed
    run_lengths = []
    for c in range(5):
        col = hidden[:, c]
        length = 0
        for v in col:
            if v:
                length += 1
            elif length:
                run_lengths.append(length)
                length = 0
        if length:
            run_lengths.append(length)
    assert run_lengths and max(run_lengths) >= 2


# ---------------------------------------------------------------------------
# joint-dropout generator
# ---------------------------------------------------------------------------

def test_joint_dropout_counts():
    spec = OcclusionSpec(kind="joint_dropout", ratio=0.8, seed=4)
    m = generate_mask(spec, 10, 99)
    hidden_cols = np.flatnonzero(~m.observed.all(axis=0))
    assert hidden_cols.size == 26 * 3  # round(0.8 * 33) joints
    # whole columns, in 3-wide blocks
    assert np.all(~m.observed[:, hidden_cols])
    assert set(hidden_cols // 3 * 3) == set(hidden_cols[::3])


def test_joint_dropout_ratio_zero():
    spec = OcclusionSpec(kind="joint_dropout", ratio=0.0, seed=5)
    assert np.all(generate_mask(spec, 10, 9).observed)


def test_joint_dropout_deterministic_and_seed_sensitive():
    a = generate_mask(OcclusionSpec(kind="joint_dropout", ratio=0.5, seed=6), 10, 99)
    b = generate_mask(OcclusionSpec(kind="joint_dropout", ratio=0.5, seed=6), 10, 99)
    c = generate_mask(OcclusionSpec(kind="joint_dropout", ratio=0.5, seed=7), 10, 99)
    np.testing.assert_array_equal(a.observed, b.observed)
    assert not np.array_equal(a.observed, c.observed)


def test_joint_dropout_needs_grouped_params():
    spec = OcclusionSpec(kind="joint_dropout", ratio=0.5, seed=8)
    with pytest.raises(ValueError):
        generate_mask(spec, 10, 10)  # 10 % 3 != 0


# ---------------------------------------------------------------------------
# corruption
# ---------------------------------------------------------------------------

def test_apply_mask_zeroes_hidden_cells():
    frames = np.arange(12, dtype=float).reshape(4, 3) + 1.0
    obs = np.ones((4, 3), dtype=bool)
    obs[1, 1] = obs[3, 0] = False
    out = apply_mask(frames, OcclusionMask(observed=obs, ratio_requested=0.2))
    assert out[1, 1] == 0.0 and out[3, 0] == 0.0
    assert out[0, 0] == 1.0 and out[2, 2] == 9.0
    assert frames[1, 1] == 5.0  # input untouched


def test_apply_mask_shape_mismatch():
    obs = np.ones((4, 3), dtype=bool)
    with pytest.raises(ValueError):
        apply_mask(np.zeros((5, 3)), OcclusionMask(observed=obs,
                                                   ratio_requested=0.0))


# ---------------------------------------------------------------------------
# linear-interpolation recovery
# ---------------------------------------------------------------------------

def test_interp_midpoint():
    frames = np.array([[0.0], [123.0], [2.0]])
    obs = np.array([[True], [False], [True]])
    rec = recover_linear_interp(apply_mask(frames, OcclusionMask(obs, 1 / 3)),
                                OcclusionMask(obs, 1 / 3))
    assert rec[1, 0] == 1.0


def test_interp_holds_edges():
    frames = np.array([[9.0], [4.0], [5.0], [9.0]])
    obs = np.array([[False], [True], [True], [False]])
    mask = OcclusionMask(obs, 0.5)
    rec = recover_linear_interp(apply_mask(frames, mask), mask)
    np.testing.assert_array_equal(rec[:, 0], [4.0, 4.0, 5.0, 5.0])


def test_interp_recovers_linear_motion_exactly():
    rng = np.random.default_rng(9)
    t = np.arange(12.0)[:, None]
    frames = t * rng.normal(size=(1, 6)) + rng.normal(size=(1, 6))
    obs = rng.random((12, 6)) > 0.4
    obs[0] = obs[-1] = True  # interior gaps only
    mask = OcclusionMask(obs, 0.4)
    rec = recover_linear_interp(apply_mask(frames, mask), mask)
    np.testing.assert_allclose(rec, frames, atol=1e-12)


def test_interp_identity_on_observed():
    rng = np.random.default_rng(10)
    frames = rng.normal(size=(8, 4))
    obs = rng.random((8, 4)) > 0.5
    obs[0, 0] = True  # keep every column partly observed
    obs[:, obs.sum(axis=0) == 0] = True
    mask = OcclusionMask(obs, 0.5)
    rec = recover_linear_interp(apply_mask(frames, mask), mask)
    assert np.array_equal(rec[obs], frames[obs])


def test_interp_fully_hidden_column_raises():
    obs = np.ones((5, 3), dtype=bool)
    obs[:, 1] = False
    mask = OcclusionMask(obs, 1 / 3)
    with pytest.raises(RecoveryError):
        recover_linear_interp(np.zeros((5, 3)), mask)


# ---------------------------------------------------------------------------
# short-term model recovery
# ---------------------------------------------------------------------------

def zero_velocity_model():
    return init_model(TINY, seed=0)  # fresh => output holds the last pose


def test_short_term_fills_only_hidden_cells():
    rng = np.random.default_rng(11)
    history = rng.normal(size=(4, 6))
    frames = rng.normal(size=(3, 6))
    obs = np.ones((3, 6), dtype=bool)
    obs[1, 2] = obs[2, 5] = False
    mask = OcclusionMask(obs, 0.1)
    corrupted = apply_mask(frames, mask)
    rec = recover_short_term(history, corrupted, mask, zero_velocity_model())
    assert np.array_equal(rec[obs], corrupted[obs])
    # hidden cells come from the forecast: zero-velocity holds history[-1]
    assert rec[1, 2] == history[-1, 2]
    assert rec[2, 5] == history[-1, 5]


def test_short_term_no_occlusion_skips_model():
    rng = np.random.default_rng(12)
    frames = rng.normal(size=(3, 6))
    mask = OcclusionMask(np.ones((3, 6), dtype=bool), 0.0)
    model = zero_velocity_model()
    rec = recover_short_term(rng.normal(size=(4, 6)), frames, mask, model)
    np.testing.assert_array_equal(rec, frames)
    assert model.forward_count == 0


def test_short_term_without_history_refuses_before_forecasting():
    mask = OcclusionMask(np.zeros((3, 6), dtype=bool), 1.0)
    model = zero_velocity_model()
    with pytest.raises(RecoveryError, match="needs the clean window before this one"):
        recover_short_term(None, np.zeros((3, 6)), mask, model)
    assert model.forward_count == 0


def test_short_term_window_longer_than_horizon():
    mask = OcclusionMask(np.zeros((5, 6), dtype=bool), 1.0)
    with pytest.raises(RecoveryError):
        recover_short_term(np.zeros((4, 6)), np.zeros((5, 6)), mask,
                           zero_velocity_model())


# ---------------------------------------------------------------------------
# autoregressive recovery
# ---------------------------------------------------------------------------

def test_autoregressive_untouched_without_occlusion():
    rng = np.random.default_rng(13)
    frames = rng.normal(size=(9, 6))
    mask = OcclusionMask(np.ones((9, 6), dtype=bool), 0.0)
    model = zero_velocity_model()
    rec = recover_autoregressive(frames, mask, model)
    np.testing.assert_array_equal(rec, frames)
    assert model.forward_count == 0


def test_autoregressive_prediction_call_count():
    rng = np.random.default_rng(14)
    frames = rng.normal(size=(10, 6))
    obs = np.ones((10, 6), dtype=bool)
    obs[3:8, 2] = False  # span of 5 occluded frames -> ceil(5/2) = 3 sweeps
    mask = OcclusionMask(obs, 0.5)
    model = zero_velocity_model()
    recover_autoregressive(apply_mask(frames, mask), mask, model)
    assert model.forward_count == 3


def test_autoregressive_zero_velocity_holds_last_seen():
    frames = np.tile(np.arange(1.0, 7.0), (8, 1))
    frames[:, 0] = np.arange(8.0)
    obs = np.ones((8, 6), dtype=bool)
    obs[4:6, 0] = False
    mask = OcclusionMask(obs, 0.1)
    rec = recover_autoregressive(apply_mask(frames, mask), mask,
                                 zero_velocity_model())
    # a zero-velocity forecast carries frame 3's value across the gap
    np.testing.assert_array_equal(rec[4:6, 0], [3.0, 3.0])
    np.testing.assert_array_equal(rec[obs], frames[obs])


def test_autoregressive_leading_gap_seeded_from_first_observation():
    frames = np.tile(np.arange(1.0, 7.0), (6, 1))
    frames[:, 3] = 10.0 + np.arange(6.0)
    obs = np.ones((6, 6), dtype=bool)
    obs[:2, 3] = False  # column hidden before any observation
    mask = OcclusionMask(obs, 0.1)
    rec = recover_autoregressive(apply_mask(frames, mask), mask,
                                 zero_velocity_model())
    # hold-nearest seeding, then zero-velocity keeps it
    np.testing.assert_array_equal(rec[:2, 3], [12.0, 12.0])


def _random_model(config, seed):
    """Every weight random, so each forecast depends on its whole history."""
    model = init_model(config, seed=seed)
    rng = np.random.default_rng([seed, 99])
    for p in named_params(model).values():
        p.data[...] = rng.normal(size=p.shape) * 0.4 / math.sqrt(max(p.shape[0], 1))
    return model


def _oracle_masks():
    """Leading, interior and trailing runs, a never-observed column, a
    single hidden cell in the last frame, and generated masks."""
    masks = []
    obs = np.ones((9, 6), dtype=bool)
    obs[:3, 0] = False               # leading run
    obs[4:6, 1] = False              # interior run
    obs[7:, 2] = False               # trailing run
    obs[:, 4] = False                # never observed
    masks.append(obs)
    obs = np.ones((9, 6), dtype=bool)
    obs[8, 5] = False                # one cell, last frame
    masks.append(obs)
    obs = np.ones((9, 6), dtype=bool)
    obs[0, 3] = False                # one cell, first frame
    masks.append(obs)
    for seed in range(6):
        for kind, ratio in (("time_consistent", 0.4), ("joint_dropout", 0.5)):
            masks.append(generate_mask(OcclusionSpec(kind, ratio, seed=seed), 9, 6).observed)
    return masks


@pytest.mark.parametrize("n_prefix", [4, 12])  # 12: longer than the 9-frame window
def test_autoregressive_matches_scalar_oracle(n_prefix):
    config = ModelConfig(n_params=6, n_prefix=n_prefix, horizon=3, embed_dim=8,
                         n_heads=2, n_layers=1, dropout=0.0)
    model = _random_model(config, seed=n_prefix)
    rng = np.random.default_rng(n_prefix)
    for obs in _oracle_masks():
        mask = OcclusionMask(obs, 0.4)
        corrupted = apply_mask(rng.normal(size=(9, 6)) * 0.3, mask)
        got = recover_autoregressive(corrupted, mask, model)
        want = scalar_recover_autoregressive(corrupted, obs, n_prefix,
                                             lambda hist: predict(model, hist))
        assert got.tobytes() == want.tobytes()


HORIZON_1 = ModelConfig(n_params=6, n_prefix=4, horizon=1, embed_dim=8, n_heads=2,
                        n_layers=1, dropout=0.0)


def test_autoregressive_rejects_a_horizon_shorter_than_a_step():
    obs = np.ones((6, 6), dtype=bool)
    obs[2:4, 1] = False              # the first step needs 2 forecast rows
    mask = OcclusionMask(obs, 0.1)
    model = _random_model(HORIZON_1, seed=3)
    with pytest.raises(RecoveryError, match="horizon 1"):
        recover_autoregressive(np.zeros((6, 6)), mask, model)
    assert model.forward_count == 0


def test_autoregressive_horizon_1_covers_a_last_frame_step():
    obs = np.ones((6, 6), dtype=bool)
    obs[5, [0, 4]] = False           # the only step reads 1 forecast row
    mask = OcclusionMask(obs, 0.1)
    model = _random_model(HORIZON_1, seed=4)
    corrupted = apply_mask(np.random.default_rng(4).normal(size=(6, 6)), mask)
    got = recover_autoregressive(corrupted, mask, model)
    want = scalar_recover_autoregressive(corrupted, obs, 4,
                                         lambda hist: predict(model, hist))
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# properties over random inputs
# ---------------------------------------------------------------------------

@settings(derandomize=True, deadline=None)
@given(st.sampled_from(["time_consistent", "joint_dropout"]), st.floats(0.0, 1.0),
       st.integers(1, 12), st.integers(1, 10), st.integers(0, 2**32 - 1))
def test_mask_generators_reach_their_ratio_and_repeat(kind, ratio, n_frames, joints, seed):
    spec = OcclusionSpec(kind=kind, ratio=ratio, seed=seed)
    m = generate_mask(spec, n_frames, 3 * joints)
    np.testing.assert_array_equal(m.observed, generate_mask(spec, n_frames, 3 * joints).observed)
    if kind == "time_consistent":
        assert m.occluded_fraction >= ratio - 1e-9
    else:   # round(ratio * joints) whole joints
        assert abs(m.occluded_fraction - ratio) <= 0.5 / joints + 1e-12
        assert m.observed.all(axis=0).sum() % 3 == 0


PROPERTY_MODEL = _random_model(ModelConfig(n_params=6, n_prefix=4, horizon=6, embed_dim=8,
                                           n_heads=2, n_layers=1, dropout=0.0), seed=5)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(1, 6), st.data())
def test_every_recovery_leaves_observed_cells_bit_for_bit(n_frames, data):
    values = st.floats(-10.0, 10.0, allow_subnormal=True)
    frames = data.draw(arrays(np.float64, (n_frames, 6), elements=values))
    history = data.draw(arrays(np.float64, (4, 6), elements=values))
    obs = data.draw(arrays(np.bool_, (n_frames, 6)))
    mask = OcclusionMask(obs, 0.5)
    corrupted = apply_mask(frames, mask)
    recovered = [recover_short_term(history, corrupted, mask, PROPERTY_MODEL),
                 recover_autoregressive(corrupted, mask, PROPERTY_MODEL)]
    if obs.any(axis=0).all():   # else interpolation has nothing to hold
        recovered.append(recover_linear_interp(corrupted, mask))
    for rec in recovered:
        assert rec[obs].tobytes() == frames[obs].tobytes()


# ---------------------------------------------------------------------------
# csv export
# ---------------------------------------------------------------------------

def test_export_mask_csv(tmp_path):
    obs = np.array([[True, False], [False, True]])
    path = tmp_path / "mask.csv"
    export_mask_csv(OcclusionMask(obs, 0.5), path)
    assert path.read_text() == "1,0\n0,1\n"
