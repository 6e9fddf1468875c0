"""Relative-motion similarity between feature trajectories and
density-based clustering into rigidly-moving groups.

The similarity of two trajectories over their common frames is

    L = (1/T) * sum_t exp(-gamma * (d_t - mean(d))^2)

computed once with the positional distance d = ||p_i - p_j|| in metres
(bandwidth ``gamma_pos``, default 50 m^-2: a 2 cm deviation scores 0.98,
and the score falls to 1/e at 14 cm) and once with the normal distance
d = 1 - n_i . n_j (bandwidth ``gamma_normal``, default 1/cos 15deg); the
two scores are combined multiplicatively, so both cues must agree for a
pair to look rigidly attached. Pairs overlapping fewer than
``min_overlap`` frames (at least 2) are Undefined (NaN in the matrix) and
never connect.

``similarity_matrix`` takes the pairs of ``np.triu_indices`` in blocks of
at most ``_BLOCK`` pair x frame entries, which bounds its temporaries.
Inside a block it groups the pairs by overlap length T, gathers each
group's common frames in frame order as a (pairs, T, 3) stack and
evaluates the kernel once per group, reducing along the last axis as the
one-pair code does; so every entry is bitwise the kernel of that pair
alone. ``pair_similarity`` stays the two-row form of the matrix.

Clustering runs DBSCAN over the distance 1 - L with a deterministic
visitation order (ascending trajectory id); a point's neighborhood
includes the point itself when counted against ``min_pts``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import _norm
from .trajectories import Demonstration, FeatureTrajectory

__all__ = [
    "NOISE",
    "SimilarityParams",
    "SimilarityMatrix",
    "ClusterAssignment",
    "pair_similarity",
    "similarity_matrix",
    "cluster",
]

NOISE = -1

DEFAULT_EPS = 0.05
DEFAULT_MIN_PTS = 5
DEFAULT_GAMMA_POS = 50.0  # m^-2: exp(-50 * 0.02**2) = 0.98 at 2 cm, 1/e at 14 cm
DEFAULT_GAMMA_NORMAL = 1.0 / np.cos(np.deg2rad(15.0))

# Pair x frame entries gathered at once by similarity_matrix: bounds its
# temporaries to a few MB however many tracks a demonstration has.
_BLOCK = 1 << 14


@dataclass(frozen=True)
class SimilarityParams:
    """Kernel bandwidths, the shortest defined overlap, and how the two
    scores combine: ``"product"`` (positional x normal) or
    ``"positional"`` (the positional score alone)."""

    gamma_pos: float = DEFAULT_GAMMA_POS
    gamma_normal: float = DEFAULT_GAMMA_NORMAL
    min_overlap: int = 10
    combine: str = "product"

    def __post_init__(self):
        if self.gamma_pos <= 0 or self.gamma_normal <= 0:
            raise ValueError("bandwidths must be positive")
        if self.combine not in ("product", "positional"):
            raise ValueError(f"unknown combine rule {self.combine!r}")
        if self.min_overlap < 2:
            raise ValueError("min_overlap must be at least 2")


@dataclass(frozen=True)
class SimilarityMatrix:
    """Symmetric similarity matrix over trajectories, NaN where Undefined."""

    ids: tuple[int, ...]
    values: np.ndarray


def similarity_matrix(
    demo: Demonstration, params: SimilarityParams | None = None
) -> SimilarityMatrix:
    """Similarity of every trajectory pair; the package's only kernel.

    Rows/columns follow ascending trajectory id; the diagonal is 1. With
    fewer than 2 trajectories there is no pair and no off-diagonal entry.
    :func:`pair_similarity` is the two-row form of this function.
    """
    params = params or SimilarityParams()
    ids, pos, nrm, valid = demo.packed()
    n, n_frames = valid.shape

    use_nrm = params.combine == "product"
    values = np.full((n, n), np.nan)
    np.fill_diagonal(values, 1.0)
    rows, cols = np.triu_indices(n, 1)
    step = max(1, _BLOCK // max(n_frames, 1))
    for start in range(0, len(rows), step):
        i, j = rows[start:start + step], cols[start:start + step]
        both = valid[i] & valid[j]
        overlap = both.sum(axis=1)
        for T in np.unique(overlap[overlap >= params.min_overlap]):
            group = np.flatnonzero(overlap == T)
            gi, gj = i[group], j[group]
            a, b = gi[:, None], gj[:, None]
            frames = np.nonzero(both[group])[1].reshape(len(group), T)
            L = _kernel(_norm(pos[a, frames] - pos[b, frames]), params.gamma_pos)
            if use_nrm:
                d = 1.0 - np.sum(nrm[a, frames] * nrm[b, frames], axis=-1)
                L = L * _kernel(d, params.gamma_normal)
            values[gi, gj] = values[gj, gi] = L
    return SimilarityMatrix(tuple(ids.tolist()), values)


def _kernel(d: np.ndarray, gamma: float) -> np.ndarray:
    """The kernel of every row of ``d`` (pairs x common frames)."""
    dev = d - d.mean(axis=-1, keepdims=True)
    return np.mean(np.exp(-gamma * dev**2), axis=-1)


def pair_similarity(
    a: FeatureTrajectory, b: FeatureTrajectory, params: SimilarityParams | None = None
) -> float | None:
    """Combined similarity in (0, 1], or None when the overlap is too short.

    The two-row form of :func:`similarity_matrix`: the off-diagonal entry
    of the matrix over ``a`` and ``b``, with Undefined (NaN) as None.
    """
    value = similarity_matrix(Demonstration([a, b]), params).values[0, 1]
    return None if np.isnan(value) else float(value)


@dataclass
class ClusterAssignment:
    """Trajectory id -> cluster id (NOISE = -1), plus the reverse map."""

    labels: dict[int, int]
    clusters: dict[int, list[int]] = field(init=False)

    def __post_init__(self):
        self.clusters = {}
        for tid in sorted(self.labels):
            cid = self.labels[tid]
            if cid != NOISE:
                self.clusters.setdefault(cid, []).append(tid)

    def n_clusters(self) -> int:
        return len(self.clusters)


def cluster(matrix: SimilarityMatrix, eps: float = DEFAULT_EPS,
            min_pts: int = DEFAULT_MIN_PTS) -> ClusterAssignment:
    """DBSCAN over the similarity-distance 1 - L.

    The default ``eps`` is tight because rigid pairs score above 0.99
    even under realistic sensor noise, while geometrically insensitive
    cross-part pairs (features far apart, or near a rotation axis) can
    score well above 0.8; a small radius keeps both margins wide.

    Undefined similarities count as infinite distance. Points are visited
    in ascending trajectory id; a cluster is grown fully (breadth-first,
    ascending id inside the queue) before the scan continues, so border
    points attach to the first-discovered core cluster.
    """
    n = len(matrix.ids)
    dist = 1.0 - matrix.values
    dist[np.isnan(dist)] = np.inf
    within = dist <= eps  # includes self (diagonal distance 0)
    neighbor_counts = within.sum(axis=1)
    core = neighbor_counts >= min_pts

    UNVISITED = -2
    labels = np.full(n, UNVISITED)
    cid = 0
    for i in range(n):
        if labels[i] != UNVISITED:
            continue
        if not core[i]:
            labels[i] = NOISE
            continue
        labels[i] = cid
        queue = list(np.flatnonzero(within[i]))
        k = 0
        while k < len(queue):
            j = queue[k]
            k += 1
            if labels[j] == NOISE:
                labels[j] = cid  # border point claimed by this cluster
            if labels[j] != UNVISITED:
                continue
            labels[j] = cid
            if core[j]:
                queue.extend(np.flatnonzero(within[j]))
        cid += 1
    return ClusterAssignment({tid: int(labels[i]) for i, tid in enumerate(matrix.ids)})
