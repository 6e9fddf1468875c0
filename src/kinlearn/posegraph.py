"""Per-cluster SE(3) pose sequences from tracked features.

Each cluster's motion is recovered in three steps: robust frame-to-frame
alignment of its member features (iterative inlier reselection with a
seeded minimal-sample fallback), assembly of relative-pose constraints
(consecutive, a sparse long-range set every ``sparse_stride`` frames, and
constant-velocity regularizers), and batch Gauss-Newton smoothing over
the pose chain. The first observed frame is gauge-fixed to the identity,
so every pose maps first-frame world coordinates to the current frame.
A cluster's poses are one ``Pose`` stack over a sorted frame array, read by
frame through ``ClusterPoseSequence.poses``, a read-only ``FramePoses`` view.

The work is batched per cluster, with outputs bitwise those of the
one-at-a-time forms:

- ``build_constraints`` reads a cluster's rows of the
  ``Demonstration.packed`` arrays and solves the deltas of all its frame
  pairs together: each fit round stacks the pairs that fit the same number
  of points into one ``kabsch`` call, and the residuals of every pair come
  from one evaluation; one ``Pose`` call normalises all the deltas. ``estimate_delta`` is the
  one-pair form.
- The initial chain composes each consecutive delta onto the previous
  pose on bare (q, t) rows with the quaternion kernels, one step per
  frame and no ``Pose`` per frame.
- The fallback's ``RANSAC_SAMPLES`` minimal samples are drawn once per
  (point count, seed). All fallback pairs of a cluster go through one
  ``_sample_consensus`` call: ``fit_triples`` solves every sample in closed
  form and one evaluation per block scores them all. The samples whose
  closed-form score could differ from ``kabsch``'s by rounding are solved
  and scored again by ``kabsch``, so every mask keeps its bytes.
- ``optimize`` evaluates each residual group once per Jacobian, with
  every (slot, axis) perturbation stacked, and retracts all frames in one
  vectorised step.

The smoothing's normal equations are solved with numpy alone. Every
factor joins frames at most ``s`` rows of the pose stack apart, ``s``
being the widest row span of any factor (``sparse_stride`` rows when a
sparse factor spans no gap, 2 for a velocity factor) capped at ``n - 1``.
Cut into chunks of ``s`` free frames, ``JᵀJ`` is block tridiagonal with
6s x 6s blocks: one ``np.bincount`` scatter builds it, another ``Jᵀr``,
and a block-Thomas sweep solves it with one ``np.linalg.solve`` per chunk,
O(n·(6s)²) time and O(n·s) memory for n frames.
"""

from __future__ import annotations

import functools
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGeometry, InsufficientCorrespondences
from .geometry import (
    Pose,
    _norm,
    apply_pose,
    fit_triples,
    kabsch,
    quat_canonical,
    quat_conj,
    quat_from_rotvec,
    quat_mul,
    quat_normalize,
    quat_rotate,
    quat_to_rotvec,
)
from .trajectories import Demonstration

__all__ = [
    "ClusterFrameSet",
    "PoseConstraint",
    "FramePoses",
    "ClusterPoseSequence",
    "estimate_delta",
    "build_constraints",
    "optimize",
    "estimate_cluster_poses",
]

CONSECUTIVE = "consecutive"
SPARSE = "sparse"
VELOCITY = "velocity"

DEFAULT_INLIER_THRESHOLD = 0.01  # meters
DEFAULT_SPARSE_STRIDE = 10
RANSAC_SAMPLES = 100  # 3-point minimal samples per fallback
_CONSENSUS_BLOCK = 8192  # hypothesis x point entries the fallback scores at once
_GATE_BAND = 1e-9  # m: see _sample_consensus


@dataclass(frozen=True)
class ClusterFrameSet:
    """Member feature observations of one cluster at one frame, the input
    of :func:`estimate_delta`: one frame column of ``Demonstration.packed``."""

    frame: int
    ids: tuple[int, ...]
    positions: np.ndarray  # (n, 3)


@dataclass(frozen=True)
class PoseConstraint:
    """One factor in the pose chain.

    ``frames`` holds (a, b) for consecutive/sparse constraints with the
    measured delta mapping the pose at a to the pose at b, or (a, b, c)
    for a constant-velocity regularizer with no measurement.
    """

    kind: str
    frames: tuple[int, ...]
    delta: Pose | None
    weight: float

    def __post_init__(self):
        if self.kind not in (CONSECUTIVE, SPARSE, VELOCITY):
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        if self.kind == VELOCITY:
            if self.delta is not None or len(self.frames) != 3:
                raise ValueError("velocity constraint: 3 frames, no delta")
        elif self.delta is None or len(self.frames) != 2:
            raise ValueError(f"{self.kind} constraint: 2 frames and a delta")
        if self.weight < 0:
            raise ValueError("constraint weight must be >= 0")


class FramePoses(Mapping):
    """Read-only frame -> ``Pose`` view: row k of ``stack`` is the pose at
    ``frames[k]`` (sorted, read-only), and ``index`` maps frame -> row."""

    def __init__(self, frames, stack: Pose):
        self.frames, self.stack = np.asarray(frames, dtype=np.int64), stack
        self.frames.flags.writeable = False
        self.index = {f: k for k, f in enumerate(self.frames.tolist())}

    def __getitem__(self, frame) -> Pose:
        return self.stack[self.index[frame]]

    def __iter__(self):
        return iter(self.index)

    def __len__(self):
        return len(self.index)


@dataclass
class ClusterPoseSequence:
    """Smoothed pose per observed frame, first = identity; a ``poses`` dict is stacked once."""

    cluster_id: int
    poses: Mapping[int, Pose]
    inlier_counts: dict[int, int] = field(default_factory=dict)
    converged: bool = True
    iterations: int = 0

    def __post_init__(self):
        if not isinstance(self.poses, FramePoses):
            frames = sorted(self.poses)
            self.poses = FramePoses(frames, Pose.stack(self.poses[f] for f in frames))

    def first_frame(self) -> int:
        return int(self.poses.frames[0])


@functools.lru_cache(maxsize=256)
def _ransac_samples(n: int, seed: int) -> np.ndarray:
    """The ``RANSAC_SAMPLES`` 3-point index draws for ``n`` points, made one
    ``rng.choice`` at a time from ``seed``; read-only, drawn once per (n, seed)."""
    rng = np.random.default_rng(seed)
    idx = np.array([rng.choice(n, size=3, replace=False) for _ in range(RANSAC_SAMPLES)])
    idx.flags.writeable = False
    return idx


def _sample_consensus(src, dst, starts, sizes, inlier_threshold, seed):
    """Inlier mask of the best 3-point minimal sample of every pair, or None.

    Pair k's points are rows ``starts[k]`` to ``starts[k] + sizes[k]`` of
    ``src`` and ``dst``; its hypotheses are the ``RANSAC_SAMPLES`` triples
    of ``_ransac_samples(sizes[k], seed)``. The best is the first
    non-collinear sample with the most inliers; None when every sample is
    collinear. Returns one item per pair.

    The pairs are taken by point count, in blocks of at most
    ``_CONSENSUS_BLOCK`` hypothesis x point entries. ``fit_triples`` solves
    every triple of a block in closed form, and one evaluation scores every
    hypothesis against its pair's points. Rounding makes these residuals
    differ from those of ``kabsch`` + ``apply_pose`` by under 1e-12 m, so a
    mask can differ only where a residual lies that close to the gate. A
    hypothesis with a residual within ``_GATE_BAND`` = 1e-9 m of the gate
    (a thousand times that difference), or one that ``fit_triples`` marks
    unsure, is solved and scored again by ``kabsch`` and ``apply_pose``,
    exactly as a one-pair call would, in one call per point count. So every
    mask and validity flag, and with them the chosen mask, is bit for bit
    that of the ``kabsch`` loop.
    """
    starts, sizes = np.asarray(starts), np.asarray(sizes)
    masks: list = [None] * len(sizes)  # pair k: (samples, sizes[k]) in-gate masks
    valid = np.empty((len(sizes), RANSAC_SAMPLES), dtype=bool)
    redo = np.empty((len(sizes), RANSAC_SAMPLES), dtype=bool)
    for n in np.unique(sizes).tolist():
        idx = _ransac_samples(n, seed)
        group = np.flatnonzero(sizes == n)
        step = max(1, _CONSENSUS_BLOCK // (RANSAC_SAMPLES * n))
        for lo in range(0, len(group), step):
            block = group[lo:lo + step]
            rows = starts[block][:, None] + np.arange(n)
            s, d = src[rows], dst[rows]  # (pairs, n, 3)
            shape = (len(block), RANSAC_SAMPLES)
            ok, R, t, unsure = fit_triples(s[:, idx].reshape(-1, 3, 3),
                                           d[:, idx].reshape(-1, 3, 3))
            diff = R.reshape(*shape, 3, 3) @ s.swapaxes(1, 2)[:, None]  # in place from here
            diff += t.reshape(*shape, 3, 1)
            diff -= d.swapaxes(1, 2)[:, None]
            diff *= diff
            res = np.sqrt(np.add.reduce(diff, axis=2))  # (pairs, samples, n)
            valid[block] = ok = ok.reshape(shape)
            redo[block] = unsure.reshape(shape) | ok & (
                np.abs(res - inlier_threshold) <= _GATE_BAND).any(axis=2)
            for k, m in zip(block.tolist(), res < inlier_threshold):
                masks[k] = m
    # kabsch and apply_pose decide the unsure hypotheses
    pair, hyp = np.nonzero(redo)
    for n in np.unique(sizes[pair]).tolist():
        sel = sizes[pair] == n
        p, h = pair[sel], hyp[sel]
        rows = starts[p][:, None] + np.arange(n)
        s, d = src[rows], dst[rows]
        tri = np.arange(len(p))[:, None], _ransac_samples(n, seed)[h]
        valid[p, h], q, t = kabsch(s[tri], d[tri])
        in_gate = _norm(apply_pose(Pose(q[:, None, :], t[:, None, :]), s) - d) < inlier_threshold
        for k, j, m in zip(p.tolist(), h.tolist(), in_gate):
            masks[k][j] = m
    return [m[np.argmax(np.where(v, m.sum(axis=1), -1))] if v.any() else None
            for m, v in zip(masks, valid)]


def _estimate_deltas(ids, positions, valid, a, b, inlier_threshold, seed):
    """:func:`estimate_delta` of every frame pair (a[k], b[k]) at once.

    ``a`` and ``b`` index the frame columns of the packed arrays ``ids``,
    ``positions``, ``valid`` of ``Demonstration.packed``. Returns one item
    per pair: ``(delta, inlier ids)``, or the InsufficientCorrespondences
    or DegenerateGeometry that the pair alone raises. One ``np.nonzero``
    lays the common tracks of every pair end to end, in ascending id, so
    the residuals and inlier masks of every pair come from one evaluation.
    Each fit round solves the pairs with one ``kabsch`` call per inlier
    count; ``kabsch`` computes each item as a one-item call would, so every
    delta is bitwise the one-pair result.
    """
    pair, track = np.nonzero((valid[:, a] & valid[:, b]).T)
    sizes = np.bincount(pair, minlength=len(a))
    out: list = [None if n >= 3 else InsufficientCorrespondences(
        f"need >=3 common features, got {n}") for n in sizes.tolist()]
    live = np.flatnonzero(sizes >= 3)
    keep = sizes[pair] >= 3
    m, sizes, pair, track = len(live), sizes[live], pair[keep], track[keep]
    seg = np.repeat(np.arange(m), sizes)  # live pair of each point
    src, dst, common = positions[track, a[pair]], positions[track, b[pair]], ids[track]
    Q, T = np.empty((m, 4)), np.empty((m, 3))
    inliers = np.ones(len(seg), dtype=bool)
    degenerate = np.zeros(m, dtype=bool)

    def counts():
        return np.bincount(seg[inliers], minlength=m)

    def fit(todo):
        """Fit each todo pair to its inliers; returns the todo pairs whose
        inliers are not collinear, with their points' refreshed inlier mask."""
        n_in = counts()
        for n in np.unique(n_in[todo]):
            group = todo & (n_in == n)
            pts = np.flatnonzero(group[seg] & inliers)
            solved, Q[group], T[group] = kabsch(
                src[pts].reshape(-1, n, 3), dst[pts].reshape(-1, n, 3)
            )
            degenerate[np.flatnonzero(group)[~solved]] = True
        todo = todo & ~degenerate
        pts = todo[seg]
        moved = apply_pose(Pose(Q[seg[pts]], T[seg[pts]]), src[pts])
        return todo, pts, _norm(moved - dst[pts]) < inlier_threshold

    _, pts, refreshed = fit(np.ones(m, dtype=bool))
    inliers[pts] = refreshed
    # more than half the points rejected: re-seed consensus from minimal samples
    starts = np.concatenate([[0], np.cumsum(sizes)])
    fallback = np.flatnonzero(~degenerate & (counts() < 0.5 * sizes))
    consensus = _sample_consensus(src, dst, starts[fallback], sizes[fallback],
                                  inlier_threshold, seed)
    for i, best in zip(fallback.tolist(), consensus):
        if best is not None and best.sum() >= 3:
            inliers[starts[i]:starts[i + 1]] = best

    # fit / reclassify to a fixed point, at most 20 rounds per pair
    todo = ~degenerate
    for _ in range(20):
        todo &= counts() >= 3
        if not todo.any():
            break
        todo, pts, refreshed = fit(todo)
        changed = np.bincount(seg[pts][refreshed != inliers[pts]], minlength=m) > 0
        inliers[pts] = refreshed
        todo &= changed

    deltas = Pose(Q, T)  # every delta normalised in one call
    for i, k in enumerate(live.tolist()):
        if degenerate[i]:
            out[k] = DegenerateGeometry("source points are collinear within tolerance")
        else:
            span = slice(starts[i], starts[i + 1])
            out[k] = (deltas[i], tuple(common[span][inliers[span]].tolist()))
    return out


def estimate_delta(
    prev: ClusterFrameSet,
    curr: ClusterFrameSet,
    inlier_threshold: float = DEFAULT_INLIER_THRESHOLD,
    seed: int = 0,
):
    """Robust relative pose from ``prev`` to ``curr`` over common features.

    Returns (delta, inlier feature ids). Starts from an all-point fit and
    iterates fit / reclassify-inliers to a fixed point, for at most 20
    rounds; when the initial fit rejects more than half the points,
    consensus is re-seeded from ``RANSAC_SAMPLES`` random 3-point minimal
    samples (deterministic for a fixed seed). The first non-collinear
    sample with the most inliers re-seeds the consensus. The samples are
    solved in closed form (``fit_triples``) and scored together; a sample
    whose score could differ from ``kabsch``'s by rounding is solved and
    scored again by ``kabsch``, so the mask is that of the Kabsch fits.

    The one-pair form of the batched routine that ``build_constraints``
    runs over all pairs of a cluster: the two sets are laid out as a
    two-column packed array. Raises InsufficientCorrespondences for fewer
    than 3 common features and DegenerateGeometry when a fit's points are
    collinear.
    """
    ids = np.union1d(prev.ids, curr.ids).astype(np.int64)
    positions, valid = np.full((len(ids), 2, 3), np.nan), np.zeros((len(ids), 2), dtype=bool)
    for col, s in enumerate((prev, curr)):
        rows = np.searchsorted(ids, s.ids)
        positions[rows, col], valid[rows, col] = s.positions, True
    pair = np.array([0]), np.array([1])
    (result,) = _estimate_deltas(ids, positions, valid, *pair, inlier_threshold, seed)
    if isinstance(result, Exception):
        raise result
    return result


def _observed_frames(valid) -> np.ndarray:
    """The frame columns of a packed ``valid`` mask that show >= 3 members."""
    return np.flatnonzero(valid.sum(axis=0) >= 3)


def build_constraints(
    ids: np.ndarray, positions: np.ndarray, valid: np.ndarray,
    inlier_threshold: float = DEFAULT_INLIER_THRESHOLD,
    sparse_stride: int = DEFAULT_SPARSE_STRIDE,
    seed: int = 0,
) -> list[PoseConstraint]:
    """Measurement and smoothing factors for one cluster's pose chain.

    Reads the cluster's rows of the ``Demonstration.packed`` arrays; only
    frames that show >= 3 members are observed. Consecutive
    constraints join adjacent observed frames; sparse ones join
    (t - sparse_stride, t) when both are observed with enough common
    features; velocity regularizers cover every contiguous observed
    triple. Measurement weights are the inlier counts; the velocity
    weight is 0.1 x the median consecutive weight.
    """
    frames = _observed_frames(valid)
    after = frames[np.isin(frames - 1, frames)]  # no consecutive constraint across a gap
    sparse = frames[np.isin(frames - sparse_stride, frames)]
    a, b = np.concatenate([after - 1, sparse - sparse_stride]), np.concatenate([after, sparse])
    kinds = [CONSECUTIVE] * len(after) + [SPARSE] * len(sparse)
    deltas = _estimate_deltas(ids, positions, valid, a, b, inlier_threshold, seed)
    constraints = [  # a pair without a delta gets no constraint
        PoseConstraint(kind, (fa, fb), d[0], float(len(d[1])))
        for kind, fa, fb, d in zip(kinds, a.tolist(), b.tolist(), deltas)
        if not isinstance(d, Exception)
    ]

    consecutive_weights = [c.weight for c in constraints if c.kind == CONSECUTIVE]
    w_v = 0.1 * float(np.median(consecutive_weights)) if consecutive_weights else 1.0
    constraints += [PoseConstraint(VELOCITY, (t - 1, t, t + 1), None, w_v)
                    for t in after[np.isin(after + 1, frames)].tolist()]
    return constraints


def _pair_residuals(qa, ta, qb, tb, qd, td):
    # error of x_b relative to delta o x_a, in the measurement frame
    q_rel = quat_mul(qb, quat_conj(qa))
    t_rel = tb - quat_rotate(q_rel, ta)
    q_err = quat_mul(quat_conj(qd), q_rel)
    t_err = quat_rotate(quat_conj(qd), t_rel - td)
    return np.concatenate([quat_to_rotvec(q_err), t_err], axis=-1)


def _velocity_residuals(qa, ta, qb, tb, qc, tc):
    # constant velocity: the motion b -> c measured against the motion a -> b
    q_ab = quat_mul(qb, quat_conj(qa))
    return _pair_residuals(qb, tb, qc, tc, q_ab, tb - quat_rotate(q_ab, ta))


_JACOBIAN_STEP = 1e-6
# exp(step * e_axis) for the three rotation axes, (3, 4)
_STEP_ROTATIONS = np.array(
    [quat_from_rotvec(np.eye(3)[axis] * _JACOBIAN_STEP) for axis in range(3)]
)


def _perturbations(q, t):
    """Each pose left-multiplied by exp(step * e_axis) in the decoupled
    chart, for the six axes (rotation first): shapes (6, ...) of q and t."""
    dq = _STEP_ROTATIONS[:, None, :]
    q6 = np.concatenate([quat_mul(dq, q), np.broadcast_to(q, (3, *q.shape))])
    t6 = np.concatenate([quat_rotate(dq, t), np.broadcast_to(t, (3, *t.shape))])
    for axis in range(3):
        t6[3 + axis, :, axis] += _JACOBIAN_STEP
    return q6, t6


def _residual_groups(constraints, index):
    """Residual groups, pairs then velocities, each a block of residual rows:
    (function, sqrt weights, frame index per slot, measurements, first row)."""
    groups = []
    row = 0
    pairs = [c for c in constraints if c.kind != VELOCITY]
    vels = [c for c in constraints if c.kind == VELOCITY]
    for fn, cs in ((_pair_residuals, pairs), (_velocity_residuals, vels)):
        if not cs:
            continue
        slots = [np.array([index[c.frames[k]] for c in cs]) for k in range(len(cs[0].frames))]
        measured = [] if cs[0].delta is None else [  # velocity factors measure nothing
            np.array([c.delta.q for c in cs]), np.array([c.delta.t for c in cs])
        ]
        groups.append((fn, np.sqrt(np.array([c.weight for c in cs])), slots, measured, row))
        row += len(cs)
    return groups


def _group_residuals(group, poses):
    """Weighted residuals of one group at one (q, t) per slot; leading
    batch axes of the poses carry through."""
    fn, sw, _, measured, _ = group
    return sw[:, None] * fn(*(x for q_t in poses for x in q_t), *measured)


def _weighted_residuals(groups, Q, T):
    return np.concatenate([_group_residuals(g, [(Q[i], T[i]) for i in g[2]]) for g in groups])


def _jacobian(groups, Q, T, r0):
    """Forward-difference Jacobian of the weighted residuals ``r0``: one
    (constraints, slots, 6, 6) array of blocks per group, where block
    [c, slot] holds d(residual c) / d(tangent of that slot's frame), zero
    where the slot is the gauge (first) frame. One batched evaluation per
    group holds every (slot, axis) perturbation."""
    blocks = []
    for g in groups:
        _, _, slots, _, first = g
        k = len(slots)
        moved = []  # batch item 6 * slot + axis perturbs that slot along that axis
        for slot, fidx in enumerate(slots):
            q, t = Q[fidx], T[fidx]
            qs, ts = np.repeat(q[None], 6 * k, axis=0), np.repeat(t[None], 6 * k, axis=0)
            qs[6 * slot:6 * slot + 6], ts[6 * slot:6 * slot + 6] = _perturbations(q, t)
            moved.append((qs, ts))
        d = (_group_residuals(g, moved) - r0[first:first + len(slots[0])]) / _JACOBIAN_STEP
        b = d.reshape(k, 6, -1, 6).transpose(2, 0, 3, 1).copy()  # (constraint, slot, row, axis)
        b[np.stack(slots, axis=1) == 0] = 0.0
        blocks.append(b)
    return blocks


def _chunk_layout(groups, n):
    """Where the ``JᵀJ`` and ``Jᵀr`` entries of every group land in the
    chunked normal equations of the ``n - 1`` free frames.

    A chunk is ``s`` consecutive free frames, ``s`` being the widest
    frame-row span of any constraint capped at ``n - 1``, so a constraint
    couples at most neighbouring chunks and ``JᵀJ`` is block tridiagonal.
    It is stored as (chunks, 6s, 18s): each chunk's rows against the
    columns of the chunk before, its own and the one after. Returns ``s``,
    the chunk count, the flat ``JᵀJ`` index of every (constraint, slot,
    slot, axis, axis) product of the groups in order, the flat ``Jᵀr``
    index of every (constraint, slot, axis), and the padding variables
    that fill the last chunk.
    """
    span = max(int((np.max(g[2], axis=0) - np.min(g[2], axis=0)).max()) for g in groups)
    s = max(1, min(span, n - 1))
    m, w = -(-(n - 1) // s), 6 * s
    axis = np.arange(6)
    h_index, g_index = [], []
    for _, _, slots, _, _ in groups:
        var = np.maximum(np.stack(slots, axis=1) - 1, 0)  # gauge blocks are zero
        i, j = var[:, :, None, None, None], var[:, None, :, None, None]
        chunk = i // s
        row = chunk * w + 6 * (i - chunk * s) + axis[:, None]
        h_index.append((row * 3 * w + 6 * (j - (chunk - 1) * s) + axis).ravel())
        g_index.append((6 * var[:, :, None] + axis).ravel())
    return s, m, np.concatenate(h_index), np.concatenate(g_index), np.arange(6 * (n - 1), m * w)


def _normal_equations(layout, blocks, r):
    """``JᵀJ`` as the (chunks, 6s, 18s) block rows of :func:`_chunk_layout`
    and ``Jᵀr`` as (chunks, 6s), each from one ``np.bincount`` scatter of
    the per-constraint block products; padding variables get a unit
    diagonal."""
    s, m, h_index, g_index, pad = layout
    w = 6 * s
    bt = [b.swapaxes(-1, -2) for b in blocks]
    rs = np.split(r, np.cumsum([len(b) for b in blocks])[:-1])
    H = np.bincount(h_index, np.concatenate([(t[:, :, None] @ b[:, None]).ravel()
                                             for t, b in zip(bt, blocks)]),
                    minlength=m * w * 3 * w).reshape(m * w, 3 * w)
    H[pad, w + pad % w] = 1.0
    g = np.bincount(g_index, np.concatenate([(t @ rc[:, None, :, None]).ravel()
                                             for t, rc in zip(bt, rs)]), minlength=m * w)
    return H.reshape(m, w, 3 * w), g.reshape(m, w)


def _solve_chunks(H, rhs, lam):
    """Solution of ``(JᵀJ + lam I) x = rhs`` for the block-tridiagonal
    ``JᵀJ`` of :func:`_normal_equations`, by a block-Thomas sweep: one
    ``np.linalg.solve`` per chunk going forward, then matrix-vector
    back-substitution. Raises ``np.linalg.LinAlgError`` on a singular chunk."""
    m, w, _ = H.shape
    L, D, U = H[:, :, :w], H[:, :, w:2 * w] + lam * np.eye(w), H[:, :, 2 * w:]
    E, c = np.empty((m, w, w)), np.empty((m, w))
    for k in range(m):
        Dk, bk = D[k], rhs[k]
        if k:
            Dk, bk = Dk - L[k] @ E[k - 1], bk - L[k] @ c[k - 1]
        x = np.linalg.solve(Dk, np.column_stack([U[k], bk]))
        E[k], c[k] = x[:, :w], x[:, w]
    for k in range(m - 2, -1, -1):
        c[k] -= E[k] @ c[k + 1]
    return c.ravel()


def optimize(
    constraints: list[PoseConstraint], initial: ClusterPoseSequence
) -> ClusterPoseSequence:
    """Batch Gauss-Newton smoothing of the pose chain.

    Minimizes the weighted squared norm of constraint residuals over
    6-dim tangent increments with the first observed frame held at its
    initial (identity) value. A step is taken only when it lowers the
    cost, so the returned cost never exceeds the initial one; failure to
    meet the relative tolerance within 50 iterations sets
    ``converged = False``.

    Each iteration builds ``JᵀJ`` and ``Jᵀr`` from the per-constraint
    Jacobian blocks, stored as block-tridiagonal chunks of ``s`` frames,
    ``s`` the widest frame-row span of any usable constraint capped at
    ``n - 1`` (10 at the default ``sparse_stride``, 2 at stride 1, one
    dense chunk when a constraint spans every frame). Each Levenberg
    damping trial ``lam`` solves ``(JᵀJ + lam I) step = -Jᵀr`` by a
    block-Thomas sweep, O(n·(6s)²) for n frames; a singular chunk or a
    cost rise raises ``lam`` tenfold, up to 8 trials. A trial whose cost
    does not fall below the current one, and exceeds it by no more than
    the relative tolerance, ends the loop as converged: the chain is at its
    optimum up to rounding.
    """
    index = initial.poses.index
    n = len(index)
    Q, T = initial.poses.stack.q, initial.poses.stack.t

    usable = [c for c in constraints if all(f in index for f in c.frames)]
    if not usable or n < 2:
        return ClusterPoseSequence(initial.cluster_id, initial.poses, dict(initial.inlier_counts))
    groups = _residual_groups(usable, index)
    layout = _chunk_layout(groups, n)

    r = _weighted_residuals(groups, Q, T)
    cost = float(np.sum(r**2))
    lam = 1e-9
    converged = False
    iterations = 0
    for iterations in range(1, 51):
        if cost < 1e-18:
            converged = True
            break
        H, g = _normal_equations(layout, _jacobian(groups, Q, T, r), r)
        accepted = False
        for _ in range(8):
            try:
                step = _solve_chunks(H, -g, lam)[:6 * (n - 1)]
            except np.linalg.LinAlgError:
                lam *= 10
                continue
            step = step.reshape(n - 1, 6)  # the tangent step of every free frame
            dq = quat_from_rotvec(step[:, :3])
            Qn = quat_normalize(np.concatenate([Q[:1], quat_mul(dq, Q[1:])]))
            Tn = np.concatenate([T[:1], quat_rotate(dq, T[1:]) + step[:, 3:]])
            rn = _weighted_residuals(groups, Qn, Tn)
            cn = float(np.sum(rn**2))
            if cn < cost:
                accepted = True
                break
            if cn - cost <= 1e-8 * max(cost, 1e-12):
                break  # the step changed the cost by rounding only: at the optimum
            lam *= 10
        if not accepted:
            converged = True  # no descent direction left: local optimum
            break
        drop = cost - cn
        Q, T, r, cost = Qn, Tn, rn, cn
        lam = max(lam / 10, 1e-9)
        if cost < 1e-18 or drop < 1e-8 * max(cost, 1e-12):
            converged = True
            break
    if not converged:
        warnings.warn(
            f"pose optimization did not converge in {iterations} iterations",
            RuntimeWarning,
        )
    poses = FramePoses(initial.poses.frames, Pose(Q, T))
    return ClusterPoseSequence(initial.cluster_id, poses, dict(initial.inlier_counts),
                               converged, iterations)


def estimate_cluster_poses(
    demo: Demonstration,
    assignment,
    inlier_threshold: float = DEFAULT_INLIER_THRESHOLD,
    sparse_stride: int = DEFAULT_SPARSE_STRIDE,
    seed: int = 0,
) -> list[ClusterPoseSequence]:
    """Full per-cluster pipeline: deltas, constraints, smoothing.

    The demonstration is packed once (``Demonstration.packed``); each
    cluster reads its members' rows, found with ``np.searchsorted`` over
    the ascending ids. Those rows are unobserved past the cluster's last
    frame, so its observed frames and deltas are those of a pack of its
    members alone. Clusters observable with >=3 features in fewer than 2
    frames are dropped with a warning. Results are ordered by cluster id.
    """
    results: list[ClusterPoseSequence] = []
    all_ids, all_pos, _, all_valid = demo.packed()
    for cid in sorted(assignment.clusters):
        rows = np.searchsorted(all_ids, assignment.clusters[cid])
        ids, pos, valid = all_ids[rows], all_pos[rows], all_valid[rows]
        frames = _observed_frames(valid).tolist()
        if len(frames) < 2:
            warnings.warn(
                f"cluster {cid}: fewer than 2 frames with >=3 features, dropped",
                RuntimeWarning,
            )
            continue
        constraints = build_constraints(ids, pos, valid, inlier_threshold, sparse_stride, seed)
        consec = {c.frames[1]: c for c in constraints if c.kind == CONSECUTIVE}

        # the chain of compose(delta, previous), one step per frame on bare arrays
        Q, T = np.empty((len(frames), 4)), np.empty((len(frames), 3))
        Q[0], T[0] = (1.0, 0.0, 0.0, 0.0), 0.0  # the identity
        counts = {frames[0]: int(valid[:, frames[0]].sum())}
        for k, f in enumerate(frames[1:], start=1):
            c = consec.get(f)
            if c is None:  # a gap or a failed delta leaves no constraint: hold the pose
                Q[k], T[k], counts[f] = Q[k - 1], T[k - 1], 0
                continue
            dq = c.delta.q
            Q[k] = quat_canonical(quat_normalize(quat_mul(dq, Q[k - 1])))
            T[k] = quat_rotate(dq, T[k - 1]) + c.delta.t
            counts[f] = int(c.weight)
        poses = FramePoses(frames, Pose._stored(Q, T))
        results.append(optimize(constraints, ClusterPoseSequence(cid, poses, counts)))
    return results
