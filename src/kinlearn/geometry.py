"""SE(3) geometry kernel.

Rotations are stored as unit quaternions in (w, x, y, z) order with a
canonical sign (scalar part >= 0, ties broken by the first nonzero vector
component), which makes equality tests unambiguous. Translations are in
meters. All values are immutable and all operations are pure functions.

Batched quaternion helpers (``quat_*``) operate on arrays of shape
``(..., 4)`` and are used by the pose-graph optimizer and the synthetic
generator where per-Pose Python objects would be too slow. They index
the components and fill one ``np.empty`` result instead of calling
numpy's Python-level wrappers (``moveaxis``, ``stack``,
``take_along_axis``, ``linalg.norm``), whose fixed cost per call
outweighs the arithmetic on short stacks; the arithmetic and its order
are those of the wrapper forms, so every item keeps its bits. ``kabsch``
solves a stack of rigid alignments at once, every point weighing the same;
``align_point_sets`` is its single-item form. ``fit_triples`` solves a stack
of 3-point alignments in closed form, without an SVD, and marks the items
whose result could differ from ``kabsch``'s by more than rounding.
``mean_rotation`` is the unweighted chordal mean of a set of quaternions.

A ``Pose`` holds one pose or a stack (``q`` (..., 4), ``t`` (..., 3)). The
operations and ``Pose.rot_about_line`` broadcast, giving every item the
bytes of a one-pose call; distances are floats for one pose, arrays for a
stack. ``Pose.stack`` and ``pose[k]`` build and read stacks with the stored
bytes. ``Pose.matrix`` and ``rotation_matrix`` give (..., 4, 4) and
(..., 3, 3) for a stack; ``from_matrix`` and the twist helpers take one pose.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGeometry, EmptyInput

__all__ = [
    "Pose",
    "Twist",
    "compose",
    "inverse",
    "relative",
    "apply_pose",
    "exp_twist",
    "log_pose",
    "mean_rotation",
    "align_point_sets",
    "kabsch",
    "fit_triples",
    "rotation_angle",
    "pose_distance",
    "pose_residual",
    "row_dot",
    "quat_mul",
    "quat_conj",
    "quat_rotate",
    "quat_canonical",
    "quat_from_rotvec",
    "quat_to_rotvec",
    "quat_angle",
]


# ---------------------------------------------------------------------------
# batched quaternion primitives


def _norm(x, keepdims=False):
    """Euclidean norm over the last axis: what ``np.linalg.norm(x, axis=-1)``
    computes for a float array, without its wrapper."""
    return np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=keepdims))


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product of quaternion arrays, shape (..., 4)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    w = aw * bw - ax * bx - ay * by - az * bz
    out = np.empty(np.shape(w) + (4,))
    out[..., 0] = w
    out[..., 1] = aw * bx + ax * bw + ay * bz - az * by
    out[..., 2] = aw * by - ax * bz + ay * bw + az * bx
    out[..., 3] = aw * bz + ax * by - ay * bx + az * bw
    return out


_CONJ = np.array([1.0, -1.0, -1.0, -1.0])


def quat_conj(q: np.ndarray) -> np.ndarray:
    return np.asarray(q, dtype=float) * _CONJ


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate 3-vectors ``v`` (..., 3) by unit quaternions ``q`` (..., 4).

    Computes v + 2 u x (u x v + w v) with u the vector part, written out
    per component in the same order as ``np.cross`` so the result is
    bitwise that of the cross-product form.
    """
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    vx, vy, vz = v[..., 0], v[..., 1], v[..., 2]
    sx = (y * vz - z * vy) + w * vx
    sy = (z * vx - x * vz) + w * vy
    sz = (x * vy - y * vx) + w * vz
    rx = vx + 2.0 * (y * sz - z * sy)
    out = np.empty(np.shape(rx) + (3,))
    out[..., 0] = rx
    out[..., 1] = vy + 2.0 * (z * sx - x * sz)
    out[..., 2] = vz + 2.0 * (x * sy - y * sx)
    return out


def quat_canonical(q: np.ndarray) -> np.ndarray:
    """Flip signs so the first nonzero component (w first) is positive."""
    q = np.asarray(q, dtype=float)
    nz = q != 0.0
    first = np.where(nz[..., 0], q[..., 0], np.where(
        nz[..., 1], q[..., 1], np.where(nz[..., 2], q[..., 2], q[..., 3])))
    sign = np.sign(first)
    return q * np.where(sign == 0.0, 1.0, sign)[..., None]


def quat_normalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    return q / _norm(q, keepdims=True)


def quat_from_rotvec(v: np.ndarray) -> np.ndarray:
    """Quaternion of the rotation vector (axis * angle), batched."""
    v = np.asarray(v, dtype=float)
    angle = _norm(v)
    half = 0.5 * angle
    # sin(x/2)/x, series for small x to avoid 0/0
    small = angle < 1e-8
    safe = np.where(small, 1.0, angle)
    k = np.where(small, 0.5 - angle**2 / 48.0, np.sin(half) / safe)
    w = np.cos(half)
    return quat_canonical(np.concatenate([w[..., None], v * k[..., None]], axis=-1))


def quat_to_rotvec(q: np.ndarray) -> np.ndarray:
    """Rotation vector of a unit quaternion; angle in [0, pi], batched."""
    q = quat_canonical(np.asarray(q, dtype=float))
    w = q[..., 0]
    u = q[..., 1:]
    n = _norm(u)
    angle = 2.0 * np.arctan2(n, w)
    small = n < 1e-12
    safe = np.where(small, 1.0, n)
    scale = np.where(small, 2.0, angle / safe)
    return u * scale[..., None]


def quat_angle(q: np.ndarray) -> np.ndarray:
    """Geodesic rotation angle (radians) of a unit quaternion, batched."""
    q = np.asarray(q, dtype=float)
    n = _norm(q[..., 1:])
    return 2.0 * np.arctan2(n, np.abs(q[..., 0]))


def quat_from_matrix(R: np.ndarray) -> np.ndarray:
    """Quaternions of rotation matrices (..., 3, 3) (Shepperd's method)."""
    R = np.asarray(R, dtype=float)
    m = R.reshape(-1, 3, 3)
    trace = m[:, 0, 0] + m[:, 1, 1] + m[:, 2, 2]
    pos = trace > 0
    s = np.sqrt(np.where(pos, trace, 0.0) + 1.0) * 2.0
    q = np.empty((len(m), 4))
    q[:, 0] = 0.25 * s
    q[:, 1] = (m[:, 2, 1] - m[:, 1, 2]) / s
    q[:, 2] = (m[:, 0, 2] - m[:, 2, 0]) / s
    q[:, 3] = (m[:, 1, 0] - m[:, 0, 1]) / s
    if not pos.all():
        # trace <= 0: branch on the largest diagonal entry
        b = m[~pos]
        r = np.arange(len(b))
        i = np.argmax(np.diagonal(b, axis1=1, axis2=2), axis=1)
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(b[r, i, i] - b[r, j, j] - b[r, k, k] + 1.0) * 2.0
        qb = np.empty((len(b), 4))
        qb[:, 0] = (b[r, k, j] - b[r, j, k]) / s
        qb[r, 1 + i] = 0.25 * s
        qb[r, 1 + j] = (b[r, j, i] + b[r, i, j]) / s
        qb[r, 1 + k] = (b[r, k, i] + b[r, i, k]) / s
        q[~pos] = qb
    return quat_canonical(quat_normalize(q)).reshape(R.shape[:-2] + (4,))


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrices (..., 3, 3) of unit quaternions (..., 4)."""
    q = np.asarray(q, dtype=float)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    R = np.empty(q.shape[:-1] + (3, 3))
    R[..., 0, 0] = 1 - 2 * (y * y + z * z)
    R[..., 0, 1] = 2 * (x * y - z * w)
    R[..., 0, 2] = 2 * (x * z + y * w)
    R[..., 1, 0] = 2 * (x * y + z * w)
    R[..., 1, 1] = 1 - 2 * (x * x + z * z)
    R[..., 1, 2] = 2 * (y * z - x * w)
    R[..., 2, 0] = 2 * (x * z - y * w)
    R[..., 2, 1] = 2 * (y * z + x * w)
    R[..., 2, 2] = 1 - 2 * (x * x + y * y)
    return R


# ---------------------------------------------------------------------------
# domain types


def _as_array(v, n):
    a = np.asarray(v, dtype=float)
    if a.ndim == 0 or a.shape[-1] != n:
        raise ValueError(f"expected shape (..., {n}), got {a.shape}")
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Pose:
    """Rigid motion: unit quaternion (w, x, y, z) plus translation (m).

    ``q`` (..., 4) and ``t`` (..., 3) hold one pose or a stack of them. The
    quaternion is normalized and sign-canonicalized on construction.
    """

    q: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0, 0.0]))
    t: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        q = quat_canonical(quat_normalize(_as_array(self.q, 4)))
        q.flags.writeable = False
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "t", _as_array(self.t, 3))

    @staticmethod
    def identity() -> "Pose":
        return Pose()

    @staticmethod
    def _stored(q, t) -> "Pose":
        """``q`` and ``t`` as they are: normalizing again could move a last bit."""
        p = object.__new__(Pose)
        object.__setattr__(p, "q", _as_array(q, 4))
        object.__setattr__(p, "t", _as_array(t, 3))
        return p

    @staticmethod
    def stack(poses) -> "Pose":
        """The poses of an iterable, as stored; none gives shapes (0, 4) and (0, 3)."""
        poses = list(poses)
        return Pose._stored(
            np.reshape([p.q for p in poses], (len(poses), 4)),
            np.reshape([p.t for p in poses], (len(poses), 3)),
        )

    def __getitem__(self, k) -> "Pose":
        """Item or sub-stack ``k`` (int, slice or index array), as stored."""
        return Pose._stored(self.q[k], self.t[k])

    @staticmethod
    def from_rotvec(rotvec, t=(0.0, 0.0, 0.0)) -> "Pose":
        return Pose(quat_from_rotvec(np.asarray(rotvec, dtype=float)), np.asarray(t, dtype=float))

    @staticmethod
    def from_matrix(T: np.ndarray) -> "Pose":
        T = np.asarray(T, dtype=float)
        return Pose(quat_from_matrix(T[:3, :3]), T[:3, 3])

    @staticmethod
    def rot_about_line(axis, point, angle) -> "Pose":
        """Rotation by ``angle`` about the line through ``point`` along ``axis``;
        an array of angles gives a stack of poses."""
        axis = np.asarray(axis, dtype=float)
        point = np.asarray(point, dtype=float)
        angle = np.asarray(angle, dtype=float)[..., None]
        q = quat_from_rotvec(axis / np.linalg.norm(axis) * angle)
        t = point - quat_rotate(q, point)
        return Pose(q, t)

    def matrix(self) -> np.ndarray:
        """Homogeneous matrices, (..., 4, 4) for a stack."""
        T = np.zeros(np.broadcast_shapes(self.q.shape[:-1], self.t.shape[:-1]) + (4, 4))
        T[..., :3, :3] = quat_to_matrix(self.q)
        T[..., :3, 3] = self.t
        T[..., 3, 3] = 1.0
        return T

    def rotation_matrix(self) -> np.ndarray:
        return quat_to_matrix(self.q)

    def __eq__(self, other):
        if not isinstance(other, Pose):
            return NotImplemented
        return np.array_equal(self.q, other.q) and np.array_equal(self.t, other.t)

    def __hash__(self):
        return hash((self.q.tobytes(), self.t.tobytes()))

    def __repr__(self):
        return f"Pose(q={self.q.tolist()}, t={self.t.tolist()})"


@dataclass(frozen=True)
class Twist:
    """Local 6-dim parametrization: rotation vector (rad) + translation (m)."""

    rot: np.ndarray
    trans: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rot", _as_array(self.rot, 3))
        object.__setattr__(self, "trans", _as_array(self.trans, 3))

    def vector(self) -> np.ndarray:
        return np.concatenate([self.rot, self.trans])


# ---------------------------------------------------------------------------
# operations


def compose(a: Pose, b: Pose) -> Pose:
    """a (+) b: apply b first, then a."""
    return Pose(quat_mul(a.q, b.q), quat_rotate(a.q, b.t) + a.t)


def inverse(p: Pose) -> Pose:
    qc = quat_conj(p.q)
    return Pose(qc, -quat_rotate(qc, p.t))


def relative(a: Pose, b: Pose) -> Pose:
    """a (-) b: the pose d with b (+) d = a, i.e. inverse(b) (+) a."""
    return compose(inverse(b), a)


def apply_pose(p: Pose, points: np.ndarray) -> np.ndarray:
    """Transform points of shape (..., 3)."""
    return quat_rotate(p.q, np.asarray(points, dtype=float)) + p.t


def exp_twist(tw: Twist) -> Pose:
    """Pose of a twist (decoupled rotation-vector / translation chart)."""
    return Pose(quat_from_rotvec(tw.rot), tw.trans)


def log_pose(p: Pose) -> Twist:
    """Twist of a pose; inverse of :func:`exp_twist` for angles < pi."""
    return Twist(quat_to_rotvec(p.q), p.t)


def row_dot(a, b):
    """Dot products over the last axis, broadcast: each item is bit for bit
    the 1-D ``a @ b`` (``A @ b`` or a summed product can differ)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _float_if_single(x):
    return float(x) if np.ndim(x) == 0 else x


def rotation_angle(a: Pose, b: Pose | None = None):
    """Geodesic angle of a (or of the relative rotation b -> a), radians."""
    q = a.q if b is None else quat_mul(quat_conj(b.q), a.q)
    return _float_if_single(quat_angle(q))


def pose_residual(a: Pose, b: Pose):
    """(translation norm in m, rotation angle in rad) of ``relative(a, b)``:
    how far the observed pose ``a`` lies from the predicted pose ``b``."""
    err = relative(a, b)
    return _float_if_single(np.sqrt(row_dot(err.t, err.t))), rotation_angle(err)


def pose_distance(a: Pose, b: Pose):
    """(translation distance in m, rotation angle in rad) between two poses."""
    d = a.t - b.t
    return _float_if_single(np.sqrt(row_dot(d, d))), rotation_angle(a, b)


def mean_rotation(rotations) -> np.ndarray:
    """Chordal mean of unit quaternions (largest eigenvector of sum qq^T).

    Accepts a sequence of quaternion arrays or an (n, 4) array. The result
    carries the canonical sign convention.
    """
    qs = np.asarray(rotations, dtype=float)
    if qs.size == 0:
        raise EmptyInput("mean_rotation needs at least one rotation")
    _, vecs = np.linalg.eigh(qs.T @ qs)
    return quat_canonical(quat_normalize(vecs[:, -1]))


def kabsch(src, dst):
    """Least-squares rigid alignments of stacks of point sets.

    ``src`` and ``dst`` have shape (K, n, 3). Item k minimizes
    sum ||dst_i - (R src_i + t)||^2 via the cross-covariance SVD with
    reflection correction, so every rotation has det +1.

    Returns ``(valid, q, t)``. ``valid`` (K,) is False where the centered
    source is (near-)collinear: its second singular value is below 1e-6
    of the first. ``q`` (K, 4) is the rotation as :func:`quat_from_matrix`
    gives it and ``t`` (K, 3) the translation, so ``Pose(q[k], t[k])`` is
    item k's fit; both are NaN where ``valid`` is False. Every item is
    computed exactly as a separate K = 1 call would compute it.

    Raises DegenerateGeometry for fewer than 3 points.
    """
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    if src.ndim != 3 or src.shape[-1] != 3 or src.shape != dst.shape:
        raise ValueError("src and dst must be stacks of the same shape (K, n, 3)")
    n = src.shape[1]
    if n < 3:
        raise DegenerateGeometry(f"need >=3 correspondences, got {n}")
    ones = np.ones((1, n))
    cs = (ones @ src)[:, 0] / n
    cd = (ones @ dst)[:, 0] / n
    src_c = src - cs[:, None]
    dst_c = dst - cd[:, None]
    sv = np.linalg.svd(src_c, compute_uv=False)
    valid = ~(sv[:, 1] < 1e-6 * np.maximum(sv[:, 0], 1e-300))

    H = np.swapaxes(src_c, 1, 2) @ dst_c
    U, _, Vt = np.linalg.svd(H)
    V, Ut = np.swapaxes(Vt, 1, 2), np.swapaxes(U, 1, 2)
    D = np.zeros_like(H)
    D[:, 0, 0] = D[:, 1, 1] = 1.0
    D[:, 2, 2] = np.sign(np.linalg.det(V @ Ut))
    q = quat_from_matrix(V @ D @ Ut)
    t = cd - quat_rotate(q, cs)
    q[~valid] = np.nan
    t[~valid] = np.nan
    return valid, q, t


def _cross(a, b):
    """Cross products of 3-vectors stored component first, (3, ...)."""
    return np.array([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


def _unit(v):
    return v / np.sqrt(np.add.reduce(v * v, axis=0))


def _sv_ratio(centred, cross):
    """Second over first singular value of each centred triple (3, 3, K).

    The nonzero eigenvalues of the Gram matrix are the squared singular
    values: l0 + l1 = ||c||_F^2 and l0 * l1 = ||(p1 - p0) x (p2 - p0)||^2 / 3,
    with ``cross`` that cross product. NaN where the points coincide.
    """
    s = np.add.reduce((centred * centred).reshape(9, -1), axis=0)
    p = np.add.reduce(cross * cross, axis=0) / 3.0
    l0 = 0.5 * (s + np.sqrt(np.maximum(s * s - 4.0 * p, 0.0)))
    return np.sqrt(p) / l0


def _frame(p):
    """Orthonormal frames of triangles p (3, 3, K), component first: the
    unit vectors of p1 - p0, of its normal in the plane and of the plane's
    normal, stacked (3, 3, K). Also returns (p1 - p0) x (p2 - p0)."""
    e = p[:, 1] - p[:, 0]
    x = _cross(e, p[:, 2] - p[:, 0])
    u, n = _unit(e), _unit(x)
    return np.array([u, _cross(n, u), n]), x


# A closed-form fit is exact to rounding, but it is not computed the way
# kabsch computes it. The two agree to about 1e-16 x (the lever arm) x the
# condition number of the cross-covariance, so items whose condition
# number exceeds about 1e3 are marked unsure (under 1e-12 m at a 1 m arm).
_UNSURE = 1e-3


def fit_triples(src, dst):
    """Least-squares rigid fits of stacks of 3-point sets, in closed form.

    ``src`` and ``dst`` have shape (K, 3, 3). The optimal rotation maps the
    plane of each source triangle onto the plane of its target, then turns
    it in that plane by the 2-D Procrustes angle. The 2 x 2 cross-covariance
    M of the in-plane coordinates chooses the branch: for det M > 0 the
    in-plane map is a rotation and the plane normals are matched; for
    det M < 0 it is a reflection, and the normals are matched with opposite
    signs. Either way the 3-D rotation has det +1, as ``kabsch``'s has. The
    arithmetic runs on one (K,) array per component.

    Returns ``(valid, R, t, unsure)``. ``valid`` (K,) applies ``kabsch``'s
    collinearity rule to the source. Its singular-value ratio comes from the
    Gram eigenvalues (see :func:`_sv_ratio`), not from an SVD. ``R``
    (K, 3, 3) and ``t`` (K, 3) are the fit, so ``R @ s + t`` moves the
    source points; they carry no meaning where ``valid`` is False. The
    results match ``kabsch``'s to rounding, except where ``unsure`` (K,)
    is set:

    - the source's ratio lies within 0.1 % of the 1e-6 rule, or is NaN
      (coincident points), so ``valid`` could differ from ``kabsch``'s;
    - a valid source has a target whose own ratio is below 1e-3 (a
      near-collinear target), where neither solution is well determined;
    - a valid source has |det M| below 1e-3 x ||M||_F^2 / 2: a near tie
      between the rotation and reflection branches.

    Unsure items should be solved by ``kabsch``.
    """
    k = len(src)
    # (coordinate, point, item): the K sources, then the K targets
    Z = np.concatenate([src, dst]).transpose(2, 1, 0).copy()
    cz = (Z[:, 0] + Z[:, 1] + Z[:, 2]) / 3.0
    C = Z - cz[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        F, x = _frame(Z)
        ratio = _sv_ratio(C, x)
        valid = ratio[:k] >= 1e-6
        P = np.add.reduce(F[:2, :, None] * C, axis=1)  # in-plane coordinates (2, 3, 2K)
        M = np.add.reduce(P[:, None, :, :k] * P[None, :, :, k:], axis=2)
        m00, m01, m10, m11 = M.reshape(4, -1)
        det = m00 * m11 - m01 * m10
        turn = det > 0  # rotation branch; else reflection
        c = np.where(turn, m00 + m11, m00 - m11)
        s = np.where(turn, m01 - m10, m01 + m10)
        r = np.sqrt(c * c + s * s)
        c, s = c / r, s / r
        flip = np.where(turn, 1.0, -1.0)
        Fs, Ft = F[..., :k], F[..., k:]
        W = np.array([c * Fs[0] - flip * s * Fs[1], s * Fs[0] + flip * c * Fs[1], flip * Fs[2]])
        R = np.add.reduce(Ft[:, :, None] * W[:, None], axis=0)  # (row, column, K)
        tie = ~(2.0 * np.abs(det) >= _UNSURE * (m00 * m00 + m01 * m01 + m10 * m10 + m11 * m11))
        unsure = ~(np.abs(ratio[:k] - 1e-6) > 1e-9) | valid & (~(ratio[k:] >= _UNSURE) | tie)
    t = cz[:, k:] - np.add.reduce(R * cz[:, :k], axis=1)
    return valid, R.transpose(2, 0, 1), t.T, unsure


def align_point_sets(src, dst) -> Pose:
    """Least-squares rigid alignment mapping ``src`` onto ``dst``.

    The single-item form of :func:`kabsch`. Raises DegenerateGeometry for
    fewer than 3 points or (near-)collinear source geometry (second
    singular value of the centered source below 1e-6 of the first).
    """
    src = np.asarray(src, dtype=float).reshape(-1, 3)
    dst = np.asarray(dst, dtype=float).reshape(-1, 3)
    if src.shape != dst.shape:
        raise ValueError("src and dst must have the same shape")
    valid, q, t = kabsch(src[None], dst[None])
    if not valid[0]:
        raise DegenerateGeometry("source points are collinear within tolerance")
    return Pose(q[0], t[0])
