"""Joint-model fitting and selection between pairs of moving parts.

Given the per-frame relative pose of part i with respect to part j, three
candidate articulation models are fitted: rigid (constant offset),
prismatic (translation along a fixed axis) and revolute (rotation about a
fixed spatial line). Each fit yields a maximum-likelihood parameter
vector under an isotropic Gaussian observation model on translation norm
and rotation angle; models compete on BIC = -2 loglik + p log n, which
trades data fit against parameter count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyInput
from .geometry import (
    Pose,
    _float_if_single,
    compose,
    mean_rotation,
    pose_residual,
    quat_conj,
    quat_mul,
    quat_to_rotvec,
    relative,
    row_dot,
)
from .trajectories import PRISMATIC, REVOLUTE, RIGID

__all__ = [
    "RelativePoseSequence",
    "JointModel",
    "NoiseModel",
    "relative_pose_sequence",
    "fit_rigid",
    "fit_prismatic",
    "fit_revolute",
    "loglik",
    "select_model",
    "model_fit_error",
]

PARAM_COUNTS = {RIGID: 6, PRISMATIC: 8, REVOLUTE: 9}
KIND_ORDER = {RIGID: 0, PRISMATIC: 1, REVOLUTE: 2}

DEFAULT_SIGMA_POS = 0.01  # meters
DEFAULT_SIGMA_ROT = 0.087  # radians, about 5 degrees

MIN_PRISMATIC_SPREAD = 1e-3  # meters
MIN_REVOLUTE_SPAN = np.deg2rad(5.0)


@dataclass(frozen=True)
class RelativePoseSequence:
    """Per-frame pose of part i in part j's frame: one stack, ``deltas[k]`` at ``frames[k]``."""

    pair: tuple[int, int]
    frames: tuple[int, ...]
    deltas: Pose

    def __post_init__(self):
        if self.deltas.t.shape != (len(self.frames), 3):
            raise ValueError("frames and deltas must have equal length")
        if not self.frames:
            raise EmptyInput("relative pose sequence is empty")

    def __len__(self):
        return len(self.frames)


def relative_pose_sequence(seq_i, seq_j) -> RelativePoseSequence:
    """Relative poses of cluster i with respect to cluster j, one stack over
    the frames both have: the common entries of both ``poses.frames`` arrays."""
    common, ki, kj = np.intersect1d(seq_i.poses.frames, seq_j.poses.frames, return_indices=True)
    if not len(common):
        raise EmptyInput(
            f"clusters {seq_i.cluster_id} and {seq_j.cluster_id} share no frames"
        )
    deltas = relative(seq_i.poses.stack[ki], seq_j.poses.stack[kj])
    pair = (seq_i.cluster_id, seq_j.cluster_id)
    return RelativePoseSequence(pair, tuple(common.tolist()), deltas)


@dataclass(frozen=True)
class NoiseModel:
    sigma_pos: float = DEFAULT_SIGMA_POS
    sigma_rot: float = DEFAULT_SIGMA_ROT

    def __post_init__(self):
        if self.sigma_pos <= 0 or self.sigma_rot <= 0:
            raise ValueError("noise scales must be positive")


@dataclass
class JointModel:
    """A fitted articulation model with its likelihood bookkeeping.

    ``params`` holds named parameters per kind:
      rigid: rotation (quat), translation
      prismatic: axis (unit), base (point), rotation (quat)
      revolute: axis (unit), center (point on the rotation line), base (Pose)

    ``bics`` maps each candidate kind to its BIC when the model won
    :func:`select_model`; it is empty otherwise and is not persisted.

    ``degenerate`` is informational. A fit sets it when its motion is too
    small to resolve: a prismatic spread under 1 mm, a revolute span under
    5 degrees, or a fitted circle noisier than its radius. The ``.db``
    saves and loads it, but :func:`select_model` never consults it.
    """

    kind: str
    params: dict
    p: int
    loglik: float
    bic: float
    configurations: np.ndarray
    degenerate: bool = False
    bics: dict = field(default_factory=dict)

    def predict(self, q) -> Pose:
        """Relative pose of part i w.r.t. part j at configuration q; an array
        of configurations gives a stack of poses (one pose for rigid)."""
        if self.kind == RIGID:
            return Pose(self.params["rotation"], self.params["translation"])
        q = np.asarray(q, dtype=float)
        if self.kind == PRISMATIC:
            t = self.params["base"] + q[..., None] * self.params["axis"]
            return Pose(np.broadcast_to(self.params["rotation"], t.shape[:-1] + (4,)), t)
        turn = Pose.rot_about_line(self.params["axis"], self.params["center"], q)
        return compose(turn, self.params["base"])

    def q_range(self) -> tuple[float, float]:
        if self.configurations.size == 0:
            return (0.0, 0.0)
        return (float(self.configurations.min()), float(self.configurations.max()))

    def extrapolates(self, q):
        """Whether configuration ``q`` (or each of an array) lies outside the
        observed range."""
        lo, hi = self.q_range()
        q = np.asarray(q)
        return ~((lo <= q) & (q <= hi))

    def project(self, delta: Pose):
        """Best-fitting configuration for an observed relative pose, or for
        each pose of a stack."""
        if self.kind == RIGID:
            return _float_if_single(np.zeros(delta.t.shape[:-1]))
        if self.kind == PRISMATIC:
            return _float_if_single(row_dot(delta.t - self.params["base"], self.params["axis"]))
        axis = self.params["axis"]
        center = self.params["center"]
        base = self.params["base"]
        # candidate from the rotation component
        q_err = quat_mul(delta.q, quat_conj(base.q))
        by_rotation = row_dot(quat_to_rotvec(q_err), axis)
        # candidate from the translation's angle around the rotation line,
        # where both the pose and the base lie off that line
        u, v = _plane_basis(axis)
        rel = delta.t - center
        ref = base.t - center
        a = np.stack([row_dot(rel, u), row_dot(rel, v)], axis=-1)
        b = np.array([ref @ u, ref @ v])
        by_translation = np.arctan2(b[0] * a[..., 1] - b[1] * a[..., 0], row_dot(b, a))
        off_line = (np.sqrt(row_dot(a, a)) > 1e-9) & (np.sqrt(b @ b) > 1e-9)

        def residual(q):
            m, rad = pose_residual(delta, self.predict(q))
            return m + 0.1 * rad

        # a tie keeps the rotation candidate
        better = off_line & (residual(by_translation) < residual(by_rotation))
        return _float_if_single(np.where(better, by_translation, by_rotation))


def _gauss_logpdf(x: np.ndarray, sigma: float) -> np.ndarray:
    return -0.5 * np.log(2.0 * np.pi * sigma**2) - x**2 / (2.0 * sigma**2)


def loglik(model: JointModel, seq: RelativePoseSequence, noise: NoiseModel | None = None) -> float:
    """Gaussian log-likelihood of the observed deltas under the model.

    Per frame: translation-residual norm under N(0, sigma_pos) plus
    geodesic rotation residual under N(0, sigma_rot); residuals taken
    against the model's prediction at the stored configuration.
    """
    noise = noise or NoiseModel()
    qs = model.configurations if model.configurations.size else np.zeros(len(seq))
    t_res, r_res = pose_residual(seq.deltas, model.predict(qs))
    return float(
        np.sum(_gauss_logpdf(t_res, noise.sigma_pos))
        + np.sum(_gauss_logpdf(r_res, noise.sigma_rot))
    )


def _finalize(kind, params, configurations, seq, noise, degenerate):
    model = JointModel(
        kind=kind,
        params=params,
        p=PARAM_COUNTS[kind],
        loglik=0.0,
        bic=0.0,
        configurations=np.asarray(configurations, dtype=float),
        degenerate=degenerate,
    )
    model.loglik = loglik(model, seq, noise)
    model.bic = -2.0 * model.loglik + model.p * np.log(len(seq))
    return model


def fit_rigid(seq: RelativePoseSequence, noise: NoiseModel | None = None) -> JointModel:
    """Constant-offset model: chordal-mean rotation and mean translation."""
    if len(seq) == 0:
        raise EmptyInput("fit_rigid needs at least one observation")
    params = {"rotation": mean_rotation(seq.deltas.q), "translation": seq.deltas.t.mean(axis=0)}
    return _finalize(RIGID, params, np.array([]), seq, noise, False)


def fit_prismatic(seq: RelativePoseSequence, noise: NoiseModel | None = None) -> JointModel:
    """Fixed-orientation translation along a line.

    The axis is the principal direction of the centered translations; the
    base point is the projection of the first translation onto the fitted
    line, so the first configuration is exactly 0. The axis sign makes
    the net displacement non-negative.
    """
    if len(seq) < 3:
        raise EmptyInput("fit_prismatic needs >=3 observations")
    T = seq.deltas.t
    centroid = T.mean(axis=0)
    _, _, vt = np.linalg.svd(T - centroid)
    axis = vt[0]
    if (T[-1] - T[0]) @ axis < 0:
        axis = -axis
    base = centroid + ((T[0] - centroid) @ axis) * axis
    qs = (T - base) @ axis
    degenerate = float(np.ptp(qs)) < MIN_PRISMATIC_SPREAD
    params = {"axis": axis, "base": base, "rotation": mean_rotation(seq.deltas.q)}
    return _finalize(PRISMATIC, params, qs, seq, noise, degenerate)


def _plane_basis(axis: np.ndarray):
    """Deterministic orthonormal basis of the plane perpendicular to axis."""
    helper = np.array([1.0, 0.0, 0.0])
    if abs(axis @ helper) > 0.9:
        helper = np.array([0.0, 1.0, 0.0])
    u = np.cross(axis, helper)
    u /= np.linalg.norm(u)
    v = np.cross(axis, u)
    return u, v


def _fit_circle(xy: np.ndarray):
    """Algebraic (Kasa) circle fit with one Gauss-Newton refinement."""
    x, y = xy[:, 0], xy[:, 1]
    A = np.column_stack([2 * x, 2 * y, np.ones(len(x))])
    b = x**2 + y**2
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    cx, cy = sol[0], sol[1]
    r = float(np.sqrt(max(sol[2] + cx**2 + cy**2, 0.0)))
    # one geometric refinement step on (cx, cy, r)
    dx, dy = x - cx, y - cy
    d = np.hypot(dx, dy)
    safe = np.where(d < 1e-12, 1.0, d)
    J = np.column_stack([-dx / safe, -dy / safe, -np.ones(len(x))])
    res = d - r
    step, *_ = np.linalg.lstsq(J, -res, rcond=None)
    cx, cy, r = cx + step[0], cy + step[1], r + step[2]
    return float(cx), float(cy), abs(float(r))


def fit_revolute(seq: RelativePoseSequence, noise: NoiseModel | None = None) -> JointModel:
    """Rotation about a fixed spatial line.

    Axis direction comes from the rotation vectors of the deltas relative
    to the first frame; translations projected onto the perpendicular
    plane are fitted with a circle whose center anchors the line. The
    configuration is the unwrapped angle on that circle, zero at the
    first frame; the base pose is the debiased average of the per-frame
    deltas rotated back to q = 0.
    """
    if len(seq) < 3:
        raise EmptyInput("fit_revolute needs >=3 observations")
    rel = quat_mul(seq.deltas.q, quat_conj(seq.deltas.q[0]))
    vecs = quat_to_rotvec(rel)
    scatter = vecs.T @ vecs
    w, V = np.linalg.eigh(scatter)
    axis = V[:, -1]
    proj = vecs @ axis
    if proj.sum() < 0:
        axis = -axis
        proj = -proj
    qs_rot = np.unwrap(proj)
    qs_rot = qs_rot - qs_rot[0]

    u, v = _plane_basis(axis)
    xy = np.column_stack([seq.deltas.t @ u, seq.deltas.t @ v])
    cx, cy, radius = _fit_circle(xy)
    center = cx * u + cy * v
    rel_xy = xy - [cx, cy]
    spread = float(np.std(np.hypot(rel_xy[:, 0], rel_xy[:, 1])))

    # the translation circle's angle is the configuration only when the
    # circle is resolvable; when the rotation line passes near the frame
    # origin the radius collapses and the rotation components carry q
    use_circle = radius > max(0.005, 3.0 * spread)
    if use_circle:
        raw = np.arctan2(rel_xy[:, 1], rel_xy[:, 0])
        qs = np.unwrap(raw)
        qs = qs - qs[0]
    else:
        qs = qs_rot

    span = float(np.ptp(qs_rot))
    degenerate = span < MIN_REVOLUTE_SPAN or (use_circle and spread > radius)

    # debiased base: rotate every delta back to configuration zero, average
    bases = compose(Pose.rot_about_line(axis, center, -qs), seq.deltas)
    base = Pose(mean_rotation(bases.q), np.mean(bases.t, axis=0))
    params = {"axis": axis, "center": center, "base": base}
    return _finalize(REVOLUTE, params, qs, seq, noise, degenerate)


def select_model(seq: RelativePoseSequence, noise: NoiseModel | None = None) -> JointModel:
    """Fit all three candidates and return the BIC minimizer, with every
    candidate's BIC in its ``bics``.

    Ties break toward fewer parameters, then the fixed kind order
    rigid < prismatic < revolute.
    """
    if len(seq) < 3:
        raise EmptyInput("select_model needs >=3 observations")
    candidates = [fit_rigid(seq, noise), fit_prismatic(seq, noise), fit_revolute(seq, noise)]
    best = min(candidates, key=lambda m: (m.bic, m.p, KIND_ORDER[m.kind]))
    best.bics = {m.kind: m.bic for m in candidates}
    return best


def model_fit_error(model: JointModel, seq: RelativePoseSequence) -> tuple[float, float]:
    """(mean translation residual in meters, mean rotation residual in
    degrees) at the per-frame best configuration on the model manifold."""
    t_res, r_res = pose_residual(seq.deltas, model.predict(model.project(seq.deltas)))
    return float(np.mean(t_res)), float(np.mean(np.degrees(r_res)))
