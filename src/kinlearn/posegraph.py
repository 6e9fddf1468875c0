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

The work is batched per demonstration, not per cluster, with outputs
bitwise those of the one-cluster forms:

- ``estimate_cluster_poses`` reads each cluster's rows of the
  ``Demonstration.packed`` arrays and solves the deltas of the frame pairs
  of every cluster in one ``_estimate_deltas`` call: each fit round stacks
  the pairs that fit the same number of points into one ``kabsch`` call,
  and the residuals of every pair come from one evaluation; one ``Pose``
  call normalises all the deltas. ``build_constraints`` is the one-cluster
  form and ``estimate_delta`` the one-pair form.
- The initial chain composes each consecutive delta onto the previous
  pose on Python floats (``_chain_step``), by the operations of the
  quaternion kernels in their order, so with their bits.
- The fallback's ``RANSAC_SAMPLES`` minimal samples are drawn once per
  (point count, seed). All fallback pairs of the demonstration go through
  one ``_sample_consensus`` call: ``fit_triples`` solves every sample in
  closed form and one evaluation per block scores them all. The samples
  whose closed-form score could differ from ``kabsch``'s by rounding are
  solved and scored again by ``kabsch``, so every mask keeps its bytes.
- One Gauss-Newton loop smooths every chain in lockstep, each with its
  own cost, damping and convergence: each step evaluates each residual
  group of the unfinished chains once, with every (slot, axis)
  perturbation stacked, and retracts all their frames in one vectorised
  step. ``optimize`` is the one-chain form.

The smoothing's normal equations are solved with numpy alone. Every
factor joins frames at most ``s`` rows of the pose stack apart, ``s``
being the widest row span of any factor (``sparse_stride`` rows when a
sparse factor spans no gap, 2 for a velocity factor) capped at ``n - 1``.
Cut into chunks of ``s`` free frames, ``JᵀJ`` is block tridiagonal with
6s x 6s blocks: one ``np.bincount`` scatter per chunk width builds it for
every chain, another ``Jᵀr``, and a block-Thomas sweep solves the chains
of one chunk shape together with one ``np.linalg.solve`` per chunk,
O(n·(6s)²) time and O(n·s) memory for n frames.
"""

from __future__ import annotations

import functools
import math
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


def _estimate_deltas(ids, positions, valid, a, b, inlier_threshold, seed, clusters=None):
    """:func:`estimate_delta` of every frame pair (a[k], b[k]) at once.

    ``a`` and ``b`` index the frame columns of the packed arrays ``ids``,
    ``positions``, ``valid`` of ``Demonstration.packed``. The pairs belong
    to one cluster of every row, or to the ``clusters`` in turn: item c is
    (rows, count), the packed rows of cluster c's members and the number
    of pairs of ``a`` and ``b`` that are its, following those of cluster
    c - 1. Returns one item per pair: ``(delta, inlier ids)``, or the
    InsufficientCorrespondences or DegenerateGeometry that the pair alone
    raises. One ``np.nonzero`` per cluster lays the common tracks of its
    pairs end to end, in row order, so the residuals and inlier masks of
    every pair come from one evaluation. Each fit round solves the pairs
    with one ``kabsch`` call per inlier count; ``kabsch`` computes each
    item as a one-item call would, so every delta is bitwise the one-pair
    result.
    """
    pieces, lo = [], 0
    for rows, count in clusters or [(np.arange(len(ids)), len(a))]:
        seen = valid[rows]
        pair, track = np.nonzero((seen[:, a[lo:lo + count]] & seen[:, b[lo:lo + count]]).T)
        pieces.append((pair + lo, rows[track]))
        lo += count
    pair, track = (np.concatenate(x) for x in zip(*pieces))
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

    The one-pair form of the batched routine that
    ``estimate_cluster_poses`` runs over all pairs of a demonstration, and
    ``build_constraints`` over those of one cluster: the two sets are laid
    out as a two-column packed array. Raises InsufficientCorrespondences for fewer
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
    frames, after, a, b = _frame_pairs(valid, sparse_stride)
    deltas = _estimate_deltas(ids, positions, valid, a, b, inlier_threshold, seed)
    return _constraints(frames, after, a, b, deltas)


def _frame_pairs(valid, sparse_stride):
    """The observed frames of a cluster's packed ``valid`` rows, those
    observed right after another, and the (a, b) frame pairs of its
    consecutive then sparse constraints."""
    frames = _observed_frames(valid)
    after = frames[np.isin(frames - 1, frames)]  # no consecutive constraint across a gap
    sparse = frames[np.isin(frames - sparse_stride, frames)]
    a, b = np.concatenate([after - 1, sparse - sparse_stride]), np.concatenate([after, sparse])
    return frames, after, a, b


def _constraints(frames, after, a, b, deltas):
    """The factors of :func:`build_constraints` from the deltas of the
    pairs of :func:`_frame_pairs`."""
    kinds = [CONSECUTIVE] * len(after) + [SPARSE] * (len(a) - len(after))
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
    [c, slot] holds d(residual c) / d(tangent of that slot's frame). The
    blocks of a gauge (first) frame are computed too, and
    :func:`_chunk_layout` discards their products. One batched evaluation
    per group holds every (slot, axis) perturbation."""
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
        # (constraint, slot, row, axis), contiguous for the products of _normal_equations
        blocks.append(d.reshape(k, 6, -1, 6).transpose(2, 0, 3, 1).copy())
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
    that fill the last chunk. A product of the gauge (first) frame goes to
    the bin just past the end of its array, which is dropped.
    """
    span = max(int((np.max(g[2], axis=0) - np.min(g[2], axis=0)).max()) for g in groups)
    s = max(1, min(span, n - 1))
    m, w = -(-(n - 1) // s), 6 * s
    axis = np.arange(6)
    h_index, g_index = [], []
    for _, _, slots, _, _ in groups:
        var = np.stack(slots, axis=1) - 1  # the gauge is -1
        i, j = var[:, :, None, None, None], var[:, None, :, None, None]
        chunk = i // s
        row = chunk * w + 6 * (i - chunk * s) + axis[:, None]
        h = row * 3 * w + 6 * (j - (chunk - 1) * s) + axis
        h_index.append(np.where((i < 0) | (j < 0), m * w * 3 * w, h).ravel())
        g_index.append(np.where(var[:, :, None] < 0, m * w, 6 * var[:, :, None] + axis).ravel())
    return s, m, np.concatenate(h_index), np.concatenate(g_index), np.arange(6 * (n - 1), m * w)


def _normal_equations(layout, blocks, r):
    """``JᵀJ`` as the (chunks, 6s, 18s) block rows of :func:`_chunk_layout`
    and ``Jᵀr`` as (chunks, 6s), each from one ``np.bincount`` scatter of
    the per-constraint block products; padding variables get a unit
    diagonal."""
    s, m, h_index, g_index, pad = layout
    w = 6 * s
    products, lo = np.empty(len(h_index)), 0
    for b in blocks:  # written in place: no second copy of the products
        hi = lo + b.size * b.shape[1]
        np.matmul(b.swapaxes(-1, -2)[:, :, None], b[:, None],
                  out=products[lo:hi].reshape(len(b), b.shape[1], *b.shape[1:]))
        lo = hi
    H = np.bincount(h_index, products, minlength=m * w * 3 * w + 1)
    H = H[:m * w * 3 * w].reshape(m * w, 3 * w)
    H[pad, w + pad % w] = 1.0
    rs = np.split(r, np.cumsum([len(b) for b in blocks])[:-1])
    g = np.bincount(g_index, np.concatenate([(b.swapaxes(-1, -2) @ rc[:, None, :, None]).ravel()
                                             for b, rc in zip(blocks, rs)]), minlength=m * w + 1)
    return H.reshape(m, w, 3 * w), g[:m * w].reshape(m, w)


def _solve_chunks(H, rhs, lam):
    """Solution of ``(JᵀJ + lam I) x = rhs`` for the block-tridiagonal
    ``JᵀJ`` of :func:`_normal_equations`, by a block-Thomas sweep: one
    ``np.linalg.solve`` per chunk going forward, then matrix-vector
    back-substitution. Leading axes of ``H`` (..., chunks, 6s, 18s),
    ``rhs`` (..., chunks, 6s) and ``lam`` stack systems of one shape, each
    solved as alone. Raises ``np.linalg.LinAlgError`` on a singular chunk
    of any of them."""
    *_, m, w, _ = H.shape
    lam = np.asarray(lam)[..., None, None, None]
    L, D, U = H[..., :w], H[..., w:2 * w] + lam * np.eye(w), H[..., 2 * w:]
    E, c = np.empty(D.shape), np.empty(rhs.shape)
    for k in range(m):
        Dk, bk = D[..., k, :, :], rhs[..., k, :]
        if k:
            Dk = Dk - L[..., k, :, :] @ E[..., k - 1, :, :]
            bk = bk - (L[..., k, :, :] @ c[..., k - 1, :, None])[..., 0]
        x = np.linalg.solve(Dk, np.concatenate([U[..., k, :, :], bk[..., None]], axis=-1))
        E[..., k, :, :], c[..., k, :] = x[..., :w], x[..., w]
    for k in range(m - 2, -1, -1):
        c[..., k, :] -= (E[..., k, :, :] @ c[..., k + 1, :, None])[..., 0]
    return c.reshape(*c.shape[:-2], m * w)


def optimize(
    constraints: list[PoseConstraint], initial: ClusterPoseSequence
) -> ClusterPoseSequence:
    """Batch Gauss-Newton smoothing of the pose chain.

    Minimizes the weighted squared norm of constraint residuals over
    6-dim tangent increments with the first observed frame held at its
    initial value. A step is taken only when it lowers the cost, so the
    returned cost never exceeds the initial one; failure to meet the
    relative tolerance within 50 iterations sets ``converged = False``.

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

    The one-cluster form of the lockstep loop that
    :func:`estimate_cluster_poses` runs over all clusters of a
    demonstration.
    """
    (seq,) = _smooth([(constraints, initial)])
    _warn_unconverged(seq)
    return seq


def _warn_unconverged(seq):
    if not seq.converged:
        warnings.warn(
            f"pose optimization did not converge in {seq.iterations} iterations",
            RuntimeWarning,
        )


def _stack(problems, active, start):
    """The ``active`` problems, each (residual groups, frame count), as one
    system.

    Their residual groups are joined, pairs then velocities, with every
    frame offset by ``start`` into one pose stack; so a bin of the normal
    equations sums its products in the order of its problem alone. Each
    chunk width ``s`` gets one layout of :func:`_chunk_layout`'s form, in
    which the problems of equal chunk count sit side by side and every
    product of another width falls in the dropped bin. Returns the groups,
    the problem of every residual row, the residual rows of each problem,
    and per width the layout with its (chunk count, first chunk, problems)
    shapes.
    """
    groups, owner, rows, row = [], [], {c: [] for c in active}, 0
    pieces = []  # (problem, group) in the order of the joined groups
    for fn in (_pair_residuals, _velocity_residuals):
        part = [(c, j) for c in active for j, g in enumerate(problems[c][0]) if g[0] is fn]
        if not part:
            continue
        pieces += part
        gs = [(c, problems[c][0][j]) for c, j in part]
        _, _, slots, measured, _ = gs[0][1]
        groups.append((
            fn, np.concatenate([g[1] for _, g in gs]),
            [np.concatenate([g[2][i] + start[c] for c, g in gs]) for i in range(len(slots))],
            [np.concatenate([g[3][i] for _, g in gs]) for i in range(len(measured))],
            row,
        ))
        for c, g in gs:
            rows[c].append(np.arange(row, row + len(g[1])))
            owner.append(np.full(len(g[1]), c))
            row += len(g[1])

    layouts, h_parts, g_parts = {}, {}, {}  # each problem's layout, its indices per group
    for c in active:
        layouts[c] = _chunk_layout(*problems[c])
        items = [len(g[1]) * len(g[2]) for g in problems[c][0]]  # (constraint, slot) pairs
        h_parts[c] = np.split(layouts[c][2], np.cumsum(
            [36 * k * len(g[2]) for k, g in zip(items, problems[c][0])])[:-1])
        g_parts[c] = np.split(layouts[c][3], np.cumsum([6 * k for k in items])[:-1])
    widths = []
    for s in sorted({layouts[c][0] for c in active}):
        w = 6 * s
        first, shapes, chunks = {}, [], 0
        for m, c in sorted((layouts[c][1], c) for c in active if layouts[c][0] == s):
            first[c] = chunks
            if shapes and shapes[-1][0] == m:
                shapes[-1][2].append(c)
            else:
                shapes.append((m, chunks, [c]))
            chunks += m
        h_index, g_index = [], []
        for c, j in pieces:
            h, g, m = h_parts[c][j], g_parts[c][j], layouts[c][1]
            if c in first:  # the bin past the problem's end is the dropped one
                h_index.append(np.where(h == m * w * 3 * w, chunks * w * 3 * w,
                                        h + first[c] * w * 3 * w))
                g_index.append(np.where(g == m * w, chunks * w, g + first[c] * w))
            else:
                h_index.append(np.full(len(h), chunks * w * 3 * w))
                g_index.append(np.full(len(g), chunks * w))
        pad = np.concatenate([layouts[c][4] + first[c] * w for c in first])
        layout = s, chunks, np.concatenate(h_index), np.concatenate(g_index), pad
        widths.append((layout, shapes))
    return groups, np.concatenate(owner), {c: np.concatenate(v) for c, v in rows.items()}, widths


def _retract(Q, T, start, steps):
    """Q and T with each problem c of ``steps`` moved by its tangent step,
    one row of 6 per free frame, and its quaternions normalised, the
    gauge's included."""
    Qn, Tn = Q.copy(), T.copy()
    free = np.concatenate([np.arange(start[c] + 1, start[c + 1]) for c in steps])
    step = np.concatenate(list(steps.values()))
    dq = quat_from_rotvec(step[:, :3])
    Qn[free] = quat_mul(dq, Q[free])
    Tn[free] = quat_rotate(dq, T[free]) + step[:, 3:]
    moved = np.concatenate([np.arange(start[c], start[c + 1]) for c in steps])
    Qn[moved] = quat_normalize(Qn[moved])
    return Qn, Tn


def _smooth(problems):
    """:func:`optimize` of every ``(constraints, initial)`` problem at once.

    One Gauss-Newton loop runs the problems in lockstep over one pose
    stack; each keeps its own cost, damping ``lam``, trial count,
    iteration count and convergence. Each step evaluates every residual
    group of the active problems once, builds their normal equations with
    one ``np.bincount`` per chunk width, and solves the problems of one
    chunk shape with one stacked block-Thomas sweep. When a stacked sweep
    meets a singular chunk, its problems are solved again one at a time,
    so only the singular one's ``lam`` rises. Every result is bitwise that
    of the problem alone. It warns of nothing: its callers do.
    """
    results = [None] * len(problems)
    live, systems = [], []  # the problems with a free frame and a usable constraint
    for k, (constraints, initial) in enumerate(problems):
        index = initial.poses.index
        usable = [c for c in constraints if all(f in index for f in c.frames)]
        if usable and len(index) >= 2:
            live.append(k)
            systems.append((_residual_groups(usable, index), len(index)))
        else:
            results[k] = ClusterPoseSequence(initial.cluster_id, initial.poses,
                                             dict(initial.inlier_counts))
    if not live:
        return results

    stacks = [problems[k][1].poses.stack for k in live]
    start = np.cumsum([0] + [len(p.q) for p in stacks])  # each problem's rows of Q and T
    Q, T = np.concatenate([p.q for p in stacks]), np.concatenate([p.t for p in stacks])
    lam, iterations, converged = [1e-9] * len(live), [0] * len(live), [False] * len(live)
    active = list(range(len(live)))
    groups, owner, rows, widths = _stack(systems, active, start)
    r = _weighted_residuals(groups, Q, T)
    cost = [float(np.sum(r[rows[c]] ** 2)) for c in active]
    for it in range(1, 51):
        still = [c for c in active if not converged[c]]
        for c in still:
            iterations[c], converged[c] = it, cost[c] < 1e-18
        still = [c for c in still if not converged[c]]
        if not still:
            break
        if len(still) < len(active):
            r, active = r[np.isin(owner, still)], still
            groups, owner, rows, widths = _stack(systems, active, start)
        blocks = _jacobian(groups, Q, T, r)
        normal = [_normal_equations(layout, blocks, r) for layout, _ in widths]
        Q_next, T_next, r_next = Q.copy(), T.copy(), r.copy()
        trying, accepted = set(active), {}
        for _ in range(8):
            steps = {}
            for ((s, *_), shapes), (H, g) in zip(widths, normal):
                w = 6 * s
                for m, first, members in shapes:
                    idx = [j for j, c in enumerate(members) if c in trying]
                    if not idx:
                        continue
                    Hs = H[first:first + m * len(members)].reshape(-1, m, w, 3 * w)
                    rhs = -g[first:first + m * len(members)].reshape(-1, m, w)
                    if len(idx) < len(members):
                        Hs, rhs = Hs[idx], rhs[idx]
                    lams = np.array([lam[members[j]] for j in idx])
                    try:
                        x = list(_solve_chunks(Hs, rhs, lams))
                    except np.linalg.LinAlgError:
                        x = []
                        for i in range(len(idx)):  # one at a time: which is singular
                            try:
                                x.append(_solve_chunks(Hs[i], rhs[i], lams[i]))
                            except np.linalg.LinAlgError:
                                x.append(None)
                    for j, xj in zip(idx, x):
                        c = members[j]
                        if xj is None:
                            lam[c] *= 10
                        else:
                            steps[c] = xj[:6 * (start[c + 1] - start[c] - 1)].reshape(-1, 6)
            if steps:
                Qn, Tn = _retract(Q, T, start, steps)
                rn = _weighted_residuals(groups, Qn, Tn)
                for c in steps:
                    cn = float(np.sum(rn[rows[c]] ** 2))
                    if cn < cost[c]:
                        accepted[c] = cn
                        trying.discard(c)
                        frames = slice(start[c], start[c + 1])
                        Q_next[frames], T_next[frames] = Qn[frames], Tn[frames]
                        r_next[rows[c]] = rn[rows[c]]
                    elif cn - cost[c] <= 1e-8 * max(cost[c], 1e-12):
                        trying.discard(c)  # the step changed the cost by rounding only
                    else:
                        lam[c] *= 10
            if not trying:
                break
        Q, T, r = Q_next, T_next, r_next
        for c in active:
            if c not in accepted:
                converged[c] = True  # no descent direction left: local optimum
                continue
            drop, cost[c] = cost[c] - accepted[c], accepted[c]
            lam[c] = max(lam[c] / 10, 1e-9)
            converged[c] = cost[c] < 1e-18 or drop < 1e-8 * max(cost[c], 1e-12)

    for c, k in enumerate(live):
        initial = problems[k][1]
        poses = FramePoses(initial.poses.frames, Pose(Q[start[c]:start[c + 1]],
                                                      T[start[c]:start[c + 1]]))
        results[k] = ClusterPoseSequence(initial.cluster_id, poses, dict(initial.inlier_counts),
                                         converged[c], iterations[c])
    return results


def _chain_step(dq, dt, q, t):
    """compose(delta, pose) on Python floats: the (q, t) of
    ``quat_canonical(quat_normalize(quat_mul(dq, q)))`` and
    ``quat_rotate(dq, t) + dt`` for one row each, by the same operations in
    the same order as those kernels, so with the same bits. The norm's sum
    of squares is the left fold that ``np.add.reduce`` makes of 4 items.
    The product must not have a zero norm."""
    aw, ax, ay, az = dq
    bw, bx, by, bz = q
    w = aw * bw - ax * bx - ay * by - az * bz
    x = aw * bx + ax * bw + ay * bz - az * by
    y = aw * by - ax * bz + ay * bw + az * bx
    z = aw * bz + ax * by - ay * bx + az * bw
    norm = math.sqrt(w * w + x * x + y * y + z * z)
    w, x, y, z = w / norm, x / norm, y / norm, z / norm
    first = w if w != 0.0 else x if x != 0.0 else y if y != 0.0 else z
    sign = -1.0 if first < 0.0 else 1.0 if first == first else first  # NaN stays NaN
    vx, vy, vz = t
    sx = (ay * vz - az * vy) + aw * vx
    sy = (az * vx - ax * vz) + aw * vy
    sz = (ax * vy - ay * vx) + aw * vz
    return (w * sign, x * sign, y * sign, z * sign), (
        vx + 2.0 * (ay * sz - az * sy) + dt[0],
        vy + 2.0 * (az * sx - ax * sz) + dt[1],
        vz + 2.0 * (ax * sy - ay * sx) + dt[2],
    )


def _initial_chain(cid, frames, valid, constraints):
    """A cluster's initial poses: compose(delta, previous) along its
    consecutive constraints from the identity at its first observed frame,
    with the inlier count of each frame's delta."""
    consec = {c.frames[1]: c for c in constraints if c.kind == CONSECUTIVE}
    frames = frames.tolist()
    q, t = (1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0)  # the identity
    Q, T, counts = [q], [t], {frames[0]: int(valid[:, frames[0]].sum())}
    for f in frames[1:]:
        c = consec.get(f)
        if c is None:  # a gap or a failed delta leaves no constraint: hold the pose
            counts[f] = 0
        else:
            q, t = _chain_step(c.delta.q.tolist(), c.delta.t.tolist(), q, t)
            counts[f] = int(c.weight)
        Q.append(q)
        T.append(t)
    return ClusterPoseSequence(cid, FramePoses(frames, Pose._stored(np.array(Q), np.array(T))),
                               counts)


def estimate_cluster_poses(
    demo: Demonstration,
    assignment,
    inlier_threshold: float = DEFAULT_INLIER_THRESHOLD,
    sparse_stride: int = DEFAULT_SPARSE_STRIDE,
    seed: int = 0,
) -> list[ClusterPoseSequence]:
    """Full per-cluster pipeline: deltas, constraints, smoothing, solved
    for all clusters of the demonstration together.

    The demonstration is packed once (``Demonstration.packed``); each
    cluster reads its members' rows, found with ``np.searchsorted`` over
    the ascending ids. Those rows are unobserved past the cluster's last
    frame, so its observed frames and deltas are those of a pack of its
    members alone. The frame pairs of every cluster go through one
    ``_estimate_deltas`` call, and one lockstep Gauss-Newton loop smooths
    every chain; each result is bitwise that of ``build_constraints`` and
    ``optimize`` on the cluster alone. Clusters observable with >=3
    features in fewer than 2 frames are dropped with a warning. Results,
    and the warnings, are ordered by cluster id.
    """
    all_ids, all_pos, _, all_valid = demo.packed()
    kept = {}  # cluster id -> (rows, valid rows, frames, frames after another, pair a, pair b)
    for cid in sorted(assignment.clusters):
        rows = np.searchsorted(all_ids, assignment.clusters[cid])
        valid = all_valid[rows]
        pairs = _frame_pairs(valid, sparse_stride)
        if len(pairs[0]) >= 2:
            kept[cid] = (rows, valid, *pairs)
    no_pair = [np.zeros(0, dtype=np.int64)]
    deltas = iter(_estimate_deltas(
        all_ids, all_pos, all_valid,
        np.concatenate(no_pair + [v[4] for v in kept.values()]),
        np.concatenate(no_pair + [v[5] for v in kept.values()]),
        inlier_threshold, seed, [(v[0], len(v[4])) for v in kept.values()],
    ))
    problems = []
    for cid, (_, valid, frames, after, a, b) in kept.items():
        constraints = _constraints(frames, after, a, b, [next(deltas) for _ in a])
        problems.append((constraints, _initial_chain(cid, frames, valid, constraints)))
    seqs = iter(_smooth(problems))

    results = []
    for cid in sorted(assignment.clusters):
        if cid not in kept:
            warnings.warn(
                f"cluster {cid}: fewer than 2 frames with >=3 features, dropped",
                RuntimeWarning,
            )
            continue
        results.append(next(seqs))
        _warn_unconverged(results[-1])
    return results
