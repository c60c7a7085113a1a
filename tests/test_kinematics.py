"""Rotation conversions against term-by-term oracles, round-trip bounds,
and the Euler-space scoring metric."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from motioncast.kinematics import (euler_mse, euler_to_rotmat,
                                   expmap_to_rotmat, rotmat_to_euler,
                                   wrap_angle)

from oracles import scalar_euler_mse, scalar_rodrigues


def random_axis_angles(rng, n, max_angle=math.pi):
    axes = rng.normal(size=(n, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = rng.uniform(0.05, max_angle, size=(n, 1))
    return axes * angles


# ---------------------------------------------------------------------------
# exponential map -> rotation matrix
# ---------------------------------------------------------------------------

def test_zero_vector_gives_identity():
    np.testing.assert_array_equal(expmap_to_rotmat(np.zeros(3)), np.eye(3))


def test_quarter_turn_about_z_maps_x_to_y():
    r = expmap_to_rotmat([0.0, 0.0, math.pi / 2])
    np.testing.assert_allclose(r @ np.array([1.0, 0.0, 0.0]),
                               [0.0, 1.0, 0.0], atol=1e-12)


def test_rodrigues_term_by_term_oracle():
    rng = np.random.default_rng(0)
    for v in random_axis_angles(rng, 50):
        np.testing.assert_allclose(expmap_to_rotmat(v), scalar_rodrigues(v),
                                   atol=1e-12)


def test_orthonormality_and_determinant():
    rng = np.random.default_rng(1)
    for v in random_axis_angles(rng, 1000, max_angle=3.0):
        r = expmap_to_rotmat(v)
        np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-12)
        assert abs(np.linalg.det(r) - 1.0) < 1e-12


def test_negated_vector_is_inverse_rotation():
    rng = np.random.default_rng(2)
    for v in random_axis_angles(rng, 100):
        np.testing.assert_allclose(expmap_to_rotmat(-v), expmap_to_rotmat(v).T,
                                   atol=1e-10)


def test_small_angle_guard_continuity():
    """The Taylor branch must agree with the exact formula just above the
    switch point."""
    for scale in (1e-7, 1e-9, 1e-12):
        v = np.array([0.6, -0.8, 0.0]) * scale
        r = expmap_to_rotmat(v)
        np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(r, scalar_rodrigues(v) if scale > 1e-8 else r,
                                   atol=1e-15)


def test_z_rotation_composition():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b = rng.uniform(-1.5, 1.5, size=2)
        lhs = expmap_to_rotmat([0, 0, a]) @ expmap_to_rotmat([0, 0, b])
        np.testing.assert_allclose(lhs, expmap_to_rotmat([0, 0, a + b]),
                                   atol=1e-10)


# ---------------------------------------------------------------------------
# rotation matrix -> Euler
# ---------------------------------------------------------------------------

def test_identity_gives_zero_angles():
    np.testing.assert_array_equal(rotmat_to_euler(np.eye(3)), np.zeros(3))


def test_quarter_turn_extraction():
    e = rotmat_to_euler(expmap_to_rotmat([0.0, 0.0, math.pi / 2]))
    np.testing.assert_allclose(e, [math.pi / 2, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(euler_to_rotmat(e),
                               expmap_to_rotmat([0.0, 0.0, math.pi / 2]),
                               atol=1e-10)


def test_round_trip_1000_rotations():
    rng = np.random.default_rng(4)
    worst = 0.0
    for v in random_axis_angles(rng, 1000, max_angle=3.0):
        r = expmap_to_rotmat(v)
        r2 = euler_to_rotmat(rotmat_to_euler(r))
        worst = max(worst, float(np.abs(r2 - r).max()))
    assert worst < 1e-8, worst


def test_pitch_range():
    rng = np.random.default_rng(5)
    for v in random_axis_angles(rng, 200, max_angle=3.0):
        e = rotmat_to_euler(expmap_to_rotmat(v))
        assert -math.pi / 2 <= e[1] <= math.pi / 2


def test_gimbal_branch_fixes_roll():
    """At pitch = +-pi/2 the extraction pins roll to 0 and the rebuilt
    matrix still matches."""
    for sign in (1.0, -1.0):
        base = euler_to_rotmat([0.3, sign * math.pi / 2, 0.0])
        e = rotmat_to_euler(base)
        assert e[2] == 0.0
        np.testing.assert_allclose(e[1], sign * math.pi / 2, atol=1e-9)
        np.testing.assert_allclose(euler_to_rotmat(e), base, atol=1e-9)


def test_non_orthonormal_rejected():
    bad = np.eye(3)
    bad[0, 0] = 1.5
    with pytest.raises(ValueError):
        rotmat_to_euler(bad)
    with pytest.raises(ValueError):
        rotmat_to_euler(-np.eye(3))  # determinant -1 reflection


# ---------------------------------------------------------------------------
# wrapping
# ---------------------------------------------------------------------------

def test_wrap_angle_table():
    cases = [
        (0.0, 0.0),
        (math.pi, math.pi),          # pi stays pi (half-open interval)
        (-math.pi, math.pi),
        (3 * math.pi, math.pi),
        (2 * math.pi, 0.0),
        (-0.25, -0.25),
        (math.pi + 0.5, -math.pi + 0.5),
    ]
    for x, want in cases:
        assert abs(wrap_angle(x) - want) < 1e-12, (x, wrap_angle(x), want)
    arr = wrap_angle(np.array([7.0, -7.0]))
    np.testing.assert_allclose(arr, [7.0 - 2 * math.pi, 2 * math.pi - 7.0],
                               atol=1e-12)


# ---------------------------------------------------------------------------
# Euler-space MSE
# ---------------------------------------------------------------------------

def test_euler_mse_identity_is_zero():
    rng = np.random.default_rng(6)
    frames = random_axis_angles(rng, 12).reshape(4, 9)
    scores = euler_mse(frames, frames)
    np.testing.assert_array_equal(scores, np.zeros(4))


def test_euler_mse_single_joint_quarter_turn():
    target = np.zeros((1, 3))
    pred = np.array([[0.0, 0.0, math.pi / 2]])
    scores = euler_mse(target, pred)
    np.testing.assert_allclose(scores, [math.pi ** 2 / 4], atol=1e-12)


def test_euler_mse_symmetry_and_nonnegativity():
    rng = np.random.default_rng(7)
    a = random_axis_angles(rng, 10).reshape(5, 6)
    b = random_axis_angles(rng, 10).reshape(5, 6)
    ab, ba = euler_mse(a, b), euler_mse(b, a)
    np.testing.assert_allclose(ab, ba, atol=1e-12)
    assert np.all(ab >= 0.0)


def test_euler_mse_wraps_equivalent_angles():
    """A joint rotated by 2*pi about an axis scores (near) zero against
    identity: the Euler differences wrap before squaring."""
    target = np.zeros((1, 3))
    pred = np.array([[0.0, 0.0, 2 * math.pi]])
    scores = euler_mse(target, pred)
    assert scores[0] < 1e-12


def test_euler_mse_exclude_set():
    rng = np.random.default_rng(8)
    a = random_axis_angles(rng, 4).reshape(2, 6)
    b = a.copy()
    b[:, 3:6] += 0.4  # corrupt the second joint only
    full = euler_mse(a, b)
    assert np.all(full > 0)
    skipped = euler_mse(a, b, exclude=(4,))  # any index inside the group
    np.testing.assert_array_equal(skipped, np.zeros(2))


def test_euler_mse_translation_groups_raw():
    a = np.zeros((1, 6))
    b = np.zeros((1, 6))
    b[0, :3] = [0.1, -0.2, 0.3]  # translation group scored without conversion
    scores = euler_mse(a, b, translation=(0, 1, 2))
    np.testing.assert_allclose(scores, [0.01 + 0.04 + 0.09], atol=1e-12)


def test_euler_mse_shape_errors():
    with pytest.raises(ValueError):
        euler_mse(np.zeros((2, 6)), np.zeros((3, 6)))
    with pytest.raises(ValueError):
        euler_mse(np.zeros((2, 4)), np.zeros((2, 4)))  # P not divisible by 3
    with pytest.raises(ValueError):
        euler_mse(np.zeros((2, 6)), np.zeros((2, 6)), exclude=(9,))


# ---------------------------------------------------------------------------
# batched Euler-MSE against the scalar loop
# ---------------------------------------------------------------------------

def assert_matches_oracle(target, pred, **groups):
    np.testing.assert_allclose(euler_mse(target, pred, **groups),
                               scalar_euler_mse(target, pred, **groups),
                               rtol=1e-12, atol=1e-12)


def test_euler_mse_oracle_random_frames():
    rng = np.random.default_rng(9)
    target = rng.normal(scale=1.5, size=(25, 99))
    pred = target + rng.normal(scale=0.5, size=(25, 99))
    assert_matches_oracle(target, pred, exclude=(0,), translation=(3,))


def test_euler_mse_oracle_small_angles():
    """Exact-zero and 1e-9-scale groups take the Taylor branch; their
    scores (about 1e-18) must agree to 1e-12 relative, not just absolute."""
    rng = np.random.default_rng(10)
    target = np.zeros((4, 12))
    target[:, 3:] = rng.normal(scale=1e-9, size=(4, 9))
    pred = np.zeros((4, 12))
    pred[:, 6:] = rng.normal(scale=1e-9, size=(4, 6))
    fast = euler_mse(target, pred)
    assert np.all(fast > 0.0) and np.all(fast < 1e-16)
    np.testing.assert_allclose(fast, scalar_euler_mse(target, pred),
                               rtol=1e-12, atol=0.0)


def test_euler_mse_oracle_gimbal_pitch():
    """Pure pitch turns (0, +-pi/2, 0) take the gimbal branch, and so does
    one 1e-6 short of it, inside the 1 - 1e-10 edge."""
    up, down = [0.0, math.pi / 2, 0.0], [0.0, -math.pi / 2, 0.0]
    near = [0.0, math.pi / 2 - 1e-6, 0.0]
    assert rotmat_to_euler(expmap_to_rotmat(up))[2] == 0.0
    assert rotmat_to_euler(expmap_to_rotmat(near))[1] == math.pi / 2
    target = np.array([up + down + near, down + [0.3, 0.1, -0.2] + up])
    pred = np.array([[0.0] * 3 + up + down, near + down + [0.0, 1.0, 0.5]])
    assert_matches_oracle(target, pred)
    assert_matches_oracle(target, pred, translation=(4,))
    np.testing.assert_allclose(euler_mse(target[:1, :3], np.zeros((1, 3))),
                               [math.pi ** 2 / 4], rtol=1e-15)


def test_euler_mse_all_groups_excluded_is_zero():
    rng = np.random.default_rng(11)
    a, b = rng.normal(size=(2, 5, 9))
    np.testing.assert_array_equal(euler_mse(a, b, exclude=range(9)), np.zeros(5))
    np.testing.assert_array_equal(scalar_euler_mse(a, b, exclude=range(9)),
                                  np.zeros(5))


def test_euler_mse_nan_stays_in_its_frame():
    rng = np.random.default_rng(12)
    a, b = rng.normal(size=(2, 6, 12))
    a[2, 7] = np.nan
    with np.errstate(invalid="ignore"):
        fast = euler_mse(a, b, translation=(0,))
    assert np.isnan(fast[2])
    keep = [0, 1, 3, 4, 5]
    np.testing.assert_allclose(fast[keep],
                               scalar_euler_mse(a, b, translation=(0,))[keep],
                               rtol=1e-12, atol=1e-12)


def test_euler_mse_rows_are_independent():
    """Scoring only the horizon rows gives exactly the full scores at
    those rows; the evaluation loop slices on this."""
    rng = np.random.default_rng(13)
    t = rng.normal(size=(25, 99))
    p = t + rng.normal(scale=0.4, size=(25, 99))
    idx = [1, 3, 7, 9, 13, 24]
    for groups in ({}, {"exclude": (0,), "translation": (3,)}):
        np.testing.assert_array_equal(euler_mse(t[idx], p[idx], **groups),
                                      euler_mse(t, p, **groups)[idx])


@settings(derandomize=True, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.data())
def test_euler_mse_property_against_oracle(n_frames, n_groups, data):
    # Components within 10/sqrt(3) keep every group's angle |v| <= 10.
    frames = arrays(np.float64, (n_frames, 3 * n_groups),
                    elements=st.floats(-5.77, 5.77, allow_nan=False))
    a, b = data.draw(frames), data.draw(frames)
    assert_matches_oracle(a, b)
    ab = euler_mse(a, b)
    np.testing.assert_allclose(ab, euler_mse(b, a), rtol=1e-12, atol=1e-12)
    assert np.all(ab >= 0.0)
