"""Rotation conversions and the Euler-space evaluation metric, ``euler_mse``.

Conventions, fixed so reported numbers are comparable across runs:

* Axis-angle (exponential map): a 3-vector whose direction is the
  rotation axis and whose norm is the angle in radians. The zero vector
  is the identity rotation.
* Rotation matrices act on column vectors, right-handed frame.
* Euler extraction is intrinsic Z-Y-X: yaw about Z, then pitch about Y,
  then roll about X, i.e. R = Rz(yaw) @ Ry(pitch) @ Rx(roll). Pitch is
  canonicalized to [-pi/2, pi/2]. At |pitch| = pi/2 the extraction is
  degenerate; the documented branch fixes roll = 0 and folds the free
  angle into yaw.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "expmap_to_rotmat",
    "rotmat_to_euler",
    "euler_to_rotmat",
    "wrap_angle",
    "euler_mse",
]

# Below this angle the Rodrigues coefficients use their Taylor expansions
# to avoid dividing ~0 by ~0.
SMALL_ANGLE = 1e-8

# |R[2,0]| beyond this is treated as gimbal lock.
_GIMBAL_EDGE = 1.0 - 1e-10


def _rodrigues(v: np.ndarray) -> np.ndarray:
    """[..., 3] axis-angle -> [..., 3, 3]: R = I + a*K + b*(v v^T - t^2 I),
    with K the cross-product matrix of v, a = sin(t)/t, b = (1-cos(t))/t^2."""
    t2 = np.einsum("...i,...i->...", v, v)
    t = np.sqrt(t2)
    small = t < SMALL_ANGLE
    ts, ts2 = np.where(small, 1.0, t), np.where(small, 1.0, t2)  # no 0/0
    a = np.where(small, 1.0 - t2 / 6.0, np.sin(ts) / ts)[..., None, None]
    b = np.where(small, 0.5 - t2 / 24.0, (1.0 - np.cos(ts)) / ts2)[..., None, None]
    x, y, z, o = v[..., 0], v[..., 1], v[..., 2], np.zeros(v.shape[:-1])
    k = np.stack([o, -z, y, z, o, -x, -y, x, o], axis=-1).reshape(v.shape + (3,))
    k2 = v[..., :, None] * v[..., None, :] - t2[..., None, None] * np.eye(3)
    return np.eye(3) + a * k + b * k2


def _check_rotations(r: np.ndarray, atol: float) -> None:
    """Raise unless every [..., 3, 3] matrix passes |R^T R - I| and det
    within ``atol``; NaN entries pass, as every comparison with NaN fails."""
    err = np.abs(np.swapaxes(r, -1, -2) @ r - np.eye(3)).max(axis=(-2, -1))
    det = np.linalg.det(r)
    bad = np.flatnonzero((err > atol) | (np.abs(det - 1.0) > atol))
    if bad.size:
        i = bad[0]
        raise ValueError(f"matrix is not a rotation: |R^T R - I| = "
                         f"{err.flat[i]:.2e}, det = {det.flat[i]:.6f}")


def _zyx_euler(r: np.ndarray) -> np.ndarray:
    """[..., 3, 3] -> [..., 3] (yaw, pitch, roll), intrinsic Z-Y-X."""
    s = -r[..., 2, 0]
    lock = np.abs(s) >= _GIMBAL_EDGE
    # fmin/fmax, unlike clip, map a NaN s to 1, as Python's min/max do.
    pitch = np.where(lock, np.copysign(math.pi / 2.0, s),
                     np.arcsin(np.fmax(-1.0, np.fmin(1.0, s))))
    r02 = np.where(s > 0, r[..., 0, 2], -r[..., 0, 2])
    yaw = np.where(lock, np.arctan2(-r[..., 0, 1], r02),
                   np.arctan2(r[..., 1, 0], r[..., 0, 0]))
    roll = np.where(lock, 0.0, np.arctan2(r[..., 2, 1], r[..., 2, 2]))
    return np.stack([yaw, pitch, roll], axis=-1)


def expmap_to_rotmat(v) -> np.ndarray:
    """Rodrigues map from an axis-angle 3-vector to a 3x3 rotation matrix.

    Needs no axis normalization and is exact at v = 0; below
    ``SMALL_ANGLE`` the coefficients use their Taylor expansions.
    """
    return _rodrigues(np.asarray(v, dtype=np.float64).reshape(1, 3))[0]


def rotmat_to_euler(r, atol: float = 1e-6) -> np.ndarray:
    """Extract (yaw, pitch, roll) with the intrinsic Z-Y-X convention.

    Raises ValueError if the input fails the orthonormality check at
    ``atol``. At gimbal lock (|pitch| = pi/2) roll is fixed to 0.
    """
    r = np.asarray(r, dtype=np.float64).reshape(1, 3, 3)
    _check_rotations(r, atol)
    return _zyx_euler(r)[0]


def euler_to_rotmat(e) -> np.ndarray:
    """Rebuild the rotation matrix from (yaw, pitch, roll)."""
    yaw, pitch, roll = np.asarray(e, dtype=np.float64).reshape(3)
    cy, sy = math.cos(yaw), math.sin(yaw)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cr, sr = math.cos(roll), math.sin(roll)
    rz = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
    return rz @ ry @ rx


def wrap_angle(x):
    """Wrap angles into (-pi, pi]. 2*pi-equivalent angles wrap to equal values."""
    x = np.asarray(x, dtype=np.float64)
    return -(np.mod(-x + math.pi, 2.0 * math.pi) - math.pi)


def euler_mse(target, pred, exclude=(), translation=()) -> np.ndarray:
    """Per-frame sum of squared Euler-angle differences over joint groups.

    ``target`` and ``pred`` are F x P matrices (P divisible by 3) of
    axis-angle parameters. Each 3-parameter group is converted to Euler
    angles; differences are wrapped to (-pi, pi] before squaring and
    summed over groups, giving one value per frame. Every scored group of
    every frame goes through one batched pass of the helpers behind the
    single-rotation functions, so the small-angle and gimbal rules are the
    same everywhere. Frames are independent: scoring a subset of rows
    gives, bit for bit, the scores of those rows in the full set.

    ``exclude`` and ``translation`` both list parameter indices; naming
    any index of a group covers the whole group. Excluded groups are
    skipped; translation groups are scored as raw squared differences
    with no angle conversion. The default scores every group, the
    leading global-rotation one included.
    """
    t = np.asarray(target, dtype=np.float64)
    p = np.asarray(pred, dtype=np.float64)
    if t.shape != p.shape:
        raise ValueError(f"euler_mse shape mismatch: {t.shape} vs {p.shape}")
    if t.ndim != 2 or t.shape[1] % 3 != 0:
        raise ValueError(f"euler_mse needs F x P frames with P divisible by 3, got {t.shape}")
    n_frames, n_groups = t.shape[0], t.shape[1] // 3
    excl, trans = (np.array([int(i) for i in ix], dtype=np.int64)
                   for ix in (exclude, translation))
    for name, idx in (("exclude", excl), ("translation", trans)):
        if idx.size and (idx.min() < 0 or idx.max() >= t.shape[1]):
            raise ValueError(f"{name} indices out of range for P={t.shape[1]}")
    kept = ~np.isin(np.arange(n_groups), excl // 3)
    raw = kept & np.isin(np.arange(n_groups), trans // 3)
    rot = kept & ~raw

    t3, p3 = t.reshape(n_frames, n_groups, 3), p.reshape(n_frames, n_groups, 3)
    r = _rodrigues(np.stack([t3[:, rot], p3[:, rot]]))
    _check_rotations(r, atol=1e-6)  # rotmat_to_euler's default
    e = _zyx_euler(r)
    d = wrap_angle(e[0] - e[1])
    raw_d = t3[:, raw] - p3[:, raw]
    return (d * d).sum(axis=(1, 2)) + (raw_d * raw_d).sum(axis=(1, 2))
