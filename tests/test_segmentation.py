import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from kinlearn import segmentation, synth
from kinlearn.geometry import Pose, apply_pose, quat_rotate
from kinlearn.segmentation import (
    NOISE,
    ClusterAssignment,
    SimilarityMatrix,
    SimilarityParams,
    cluster,
    pair_similarity,
    similarity_matrix,
)
from kinlearn.trajectories import FeatureTrajectory


def make_traj(tid, frames, positions, normals=None):
    positions = np.asarray(positions, dtype=float)
    if normals is None:
        normals = np.tile([0.0, 0.0, 1.0], (len(frames), 1))
    return FeatureTrajectory.from_arrays(tid, frames, positions, normals)


def reference_pair_similarity(a, b, params):
    """The kernel of the module docstring, one pair at a time."""
    _, ia, ib = np.intersect1d(a.frames, b.frames, return_indices=True)
    if len(ia) < params.min_overlap:
        return None

    def kernel(d, gamma):
        return float(np.mean(np.exp(-gamma * (d - float(np.mean(d))) ** 2)))

    d_pos = np.linalg.norm(a.positions[ia] - b.positions[ib], axis=1)
    d_nrm = 1.0 - np.sum(a.normals[ia] * b.normals[ib], axis=1)
    l_pos = kernel(d_pos, params.gamma_pos)
    l_nrm = kernel(d_nrm, params.gamma_normal)
    return {"positional": l_pos, "normal": l_nrm, "product": l_pos * l_nrm}[
        params.combine
    ]


def assert_matches_reference(demo, params):
    """Every off-diagonal cell equals the one-pair reference bit for bit."""
    m = similarity_matrix(demo, params)
    trajs = sorted(demo.trajectories, key=lambda t: t.id)
    for i in range(len(trajs)):
        for j in range(i + 1, len(trajs)):
            expected = reference_pair_similarity(trajs[i], trajs[j], params)
            if expected is None:
                assert np.isnan(m.values[i, j]) and np.isnan(m.values[j, i])
            else:
                assert m.values[i, j] == expected and m.values[j, i] == expected


def brute_force_dbscan(dist, eps, min_pts):
    """Reference DBSCAN, set-theoretic formulation.

    Cores have >= min_pts points (self included) within eps. Clusters are
    the connected components of cores under eps-adjacency, numbered by
    their smallest core index; border points join the earliest cluster
    containing one of their core neighbors.
    """
    n = dist.shape[0]
    within = dist <= eps
    core = [i for i in range(n) if int(within[i].sum()) >= min_pts]
    core_set = set(core)
    components = []
    unassigned = set(core)
    while unassigned:
        seed = min(unassigned)
        comp = {seed}
        frontier = {seed}
        while frontier:
            nxt = set()
            for c in frontier:
                for j in core:
                    if j not in comp and within[c, j]:
                        nxt.add(j)
            comp |= nxt
            frontier = nxt
        components.append(comp)
        unassigned -= comp
    components.sort(key=min)
    labels = {}
    for cid, comp in enumerate(components):
        for i in comp:
            labels[i] = cid
    for i in range(n):
        if i in labels:
            continue
        owners = sorted(
            labels[j] for j in range(n) if j in core_set and within[i, j]
        )
        labels[i] = owners[0] if owners else NOISE
    return labels


class TestPairSimilarity:
    def test_constant_offset_is_one(self):
        frames = list(range(20))
        a = make_traj(0, frames, np.zeros((20, 3)))
        b = make_traj(1, frames, np.tile([0.3, 0.0, 0.0], (20, 1)))
        assert pair_similarity(a, b) == 1.0

    def test_hand_computed_two_frame_case(self):
        # distances mu+0.02 and mu-0.02 at gamma = 50 m^-2
        a = make_traj(0, [0, 1], np.zeros((2, 3)))
        b = make_traj(1, [0, 1], [[0.21, 0, 0], [0.17, 0, 0]])
        params = SimilarityParams(min_overlap=2, combine="positional")
        L = pair_similarity(a, b, params)
        assert abs(L - np.exp(-0.02)) < 1e-12

    @pytest.mark.parametrize("min_overlap", [0, 1])
    def test_min_overlap_below_two_rejected(self, min_overlap):
        # an overlap of 0 frames has no mean, and one frame always scores 1.0
        with pytest.raises(ValueError, match="min_overlap"):
            SimilarityParams(min_overlap=min_overlap)

    def test_short_overlap_undefined(self):
        a = make_traj(0, range(5), np.zeros((5, 3)))
        b = make_traj(1, range(5), np.ones((5, 3)))
        assert pair_similarity(a, b, SimilarityParams(min_overlap=10)) is None

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        frames = list(range(15))
        a = make_traj(0, frames, rng.normal(size=(15, 3)))
        b = make_traj(1, frames, rng.normal(size=(15, 3)))
        params = SimilarityParams(min_overlap=5)
        assert pair_similarity(a, b, params) == pair_similarity(b, a, params)

    def test_range(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            frames = list(range(12))
            a = make_traj(0, frames, rng.normal(size=(12, 3)))
            b = make_traj(1, frames, rng.normal(size=(12, 3)))
            L = pair_similarity(a, b)
            assert 0.0 < L <= 1.0

    def test_rigid_spread_beats_nonrigid_spread(self):
        # Fig. 4 scales: distance spreads of 1 mm vs 18 mm
        rng = np.random.default_rng(2)
        n = 400
        frames = list(range(n))
        a = make_traj(0, frames, np.zeros((n, 3)))

        def pair_with_spread(sigma):
            d = 0.3 + rng.normal(0.0, sigma, size=n)
            return make_traj(1, frames, np.column_stack([d, np.zeros(n), np.zeros(n)]))

        params = SimilarityParams(combine="positional")
        l_rigid = pair_similarity(a, pair_with_spread(0.001), params)
        l_nonrigid = pair_similarity(a, pair_with_spread(0.018), params)
        assert l_rigid > l_nonrigid

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(3)
        frames = list(range(30))
        pa = rng.normal(size=(30, 3))
        pb = rng.normal(size=(30, 3))
        na = rng.normal(size=(30, 3))
        na /= np.linalg.norm(na, axis=1, keepdims=True)
        nb = rng.normal(size=(30, 3))
        nb /= np.linalg.norm(nb, axis=1, keepdims=True)
        a = make_traj(0, frames, pa, na)
        b = make_traj(1, frames, pb, nb)
        g = Pose.from_rotvec([0.4, -0.2, 0.7], [1.0, -2.0, 0.5])
        a2 = make_traj(0, frames, apply_pose(g, pa), quat_rotate(g.q, na))
        b2 = make_traj(1, frames, apply_pose(g, pb), quat_rotate(g.q, nb))
        assert abs(pair_similarity(a, b) - pair_similarity(a2, b2)) < 1e-9


class TestSimilarityMatrix:
    def test_duplicated_trajectory(self):
        frames = list(range(12))
        a = make_traj(0, frames, np.zeros((12, 3)))
        b = make_traj(1, frames, np.zeros((12, 3)))
        from kinlearn.trajectories import Demonstration

        m = similarity_matrix(Demonstration([a, b]))
        assert np.allclose(m.values, 1.0)

    def test_disjoint_times_undefined(self):
        from kinlearn.trajectories import Demonstration

        a = make_traj(0, range(0, 10), np.zeros((10, 3)))
        b = make_traj(1, range(20, 30), np.zeros((10, 3)))
        m = similarity_matrix(Demonstration([a, b]))
        assert np.isnan(m.values[0, 1])
        assert m.values[0, 0] == 1.0

    def test_matches_pairwise(self):
        from kinlearn.trajectories import Demonstration

        door = synth.default_specs()["door"]
        for dropout in (0.0, 0.3):
            spec = door.with_noise(sigma_pos=0.003, sigma_normal=0.05, dropout=dropout)
            demo = synth.generate(spec, frames=40, seed=4)
            demo = Demonstration(demo.trajectories[:8], ground_truth=None)
            trajs = sorted(demo.trajectories, key=lambda t: t.id)
            for combine in ("product", "positional"):
                params = SimilarityParams(min_overlap=20, combine=combine)
                assert_matches_reference(demo, params)
                for i in range(len(trajs)):
                    for j in range(i + 1, len(trajs)):
                        expected = reference_pair_similarity(trajs[i], trajs[j], params)
                        assert pair_similarity(trajs[i], trajs[j], params) == expected

    def test_blocks_match_pairwise(self):
        # 60 tracks x 40 frames: 1 770 pairs span more than 4 blocks, and
        # 30 % dropout gives many overlap lengths, some under min_overlap
        spec = synth.default_specs()["monitor"]
        spec = spec.with_noise(sigma_pos=0.003, sigma_normal=0.05, dropout=0.3)
        demo = synth.generate(spec, frames=40, seed=4)
        _, _, _, valid = demo.packed()
        n, n_frames = valid.shape
        assert n * (n - 1) // 2 * n_frames > 4 * segmentation._BLOCK
        overlap = (valid[:, None] & valid[None]).sum(axis=-1)[np.triu_indices(n, 1)]
        assert len(np.unique(overlap[overlap >= 20])) > 5
        assert (overlap < 20).any()
        for combine in ("product", "positional"):
            assert_matches_reference(demo, SimilarityParams(min_overlap=20, combine=combine))

    def test_zero_and_one_trajectories(self):
        from kinlearn.trajectories import Demonstration

        m = similarity_matrix(Demonstration([]))
        assert m.ids == () and m.values.shape == (0, 0)
        a = make_traj(3, range(12), np.zeros((12, 3)))
        m = similarity_matrix(Demonstration([a]))
        assert m.ids == (3,) and m.values.tolist() == [[1.0]]

    def test_peak_memory_is_bounded(self):
        # the 120-track dense monitor: measured peak 1.9 MB; gathering all
        # 7 140 pairs at once peaks at 18 MB
        spec = replace(synth.default_specs()["monitor"], features_per_part=40)
        demo = synth.generate(spec.with_noise(sigma_pos=0.002), frames=30, seed=0)
        assert len(demo.trajectories) == 120
        similarity_matrix(demo)  # first-call allocations stay out of the peak
        tracemalloc.start()
        try:
            similarity_matrix(demo)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_noise_free_door_margins(self):
        spec = synth.default_specs()["door"]
        demo = synth.generate(spec, frames=120, seed=5)
        m = similarity_matrix(demo)
        labels = demo.ground_truth.labels
        parts = np.array([labels[tid] for tid in m.ids])
        same = parts[:, None] == parts[None, :]
        vals = m.values
        defined = ~np.isnan(vals)
        within = vals[same & defined & ~np.eye(len(parts), dtype=bool)]
        across = vals[~same & defined]
        assert within.min() >= 0.99
        # regression margin: measured cross-part max ~0.83 on this seed
        assert across.max() < within.min() - 0.1


class TestCluster:
    def test_all_ones_single_cluster(self):
        n = 4
        m = SimilarityMatrix(tuple(range(n)), np.ones((n, n)))
        a = cluster(m, eps=0.2, min_pts=1)
        assert a.n_clusters() == 1
        assert all(v == 0 for v in a.labels.values())

    def test_block_diagonal_two_clusters(self):
        n = 8
        vals = np.full((n, n), 0.2)
        vals[:4, :4] = 0.99
        vals[4:, 4:] = 0.99
        np.fill_diagonal(vals, 1.0)
        m = SimilarityMatrix(tuple(range(n)), vals)
        a = cluster(m, eps=0.2, min_pts=3)
        assert a.n_clusters() == 2
        assert a.clusters[0] == [0, 1, 2, 3]
        assert a.clusters[1] == [4, 5, 6, 7]
        oracle = brute_force_dbscan(1.0 - vals, 0.2, 3)
        assert oracle == {i: a.labels[i] for i in range(n)}

    def test_isolated_point_is_noise(self):
        vals = np.eye(3)
        m = SimilarityMatrix((0, 1, 2), vals)
        a = cluster(m, eps=0.2, min_pts=3)
        assert all(v == NOISE for v in a.labels.values())

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(2, 13))
            vals = rng.uniform(0, 1, size=(n, n))
            vals = (vals + vals.T) / 2
            if rng.uniform() < 0.3:  # sprinkle Undefined entries
                mask = rng.uniform(size=(n, n)) < 0.2
                mask = mask | mask.T
                vals[mask] = np.nan
            np.fill_diagonal(vals, 1.0)
            eps = float(rng.uniform(0.05, 0.6))
            min_pts = int(rng.integers(1, 5))
            m = SimilarityMatrix(tuple(range(n)), vals.copy())
            got = cluster(m, eps=eps, min_pts=min_pts)
            dist = 1.0 - vals
            dist[np.isnan(dist)] = np.inf
            oracle = brute_force_dbscan(dist, eps, min_pts)
            assert oracle == {i: got.labels[i] for i in range(n)}, (eps, min_pts, vals)

    def test_noise_free_door_recovers_parts(self):
        spec = synth.default_specs()["door"]
        demo = synth.generate(spec, frames=120, seed=7)
        a = cluster(similarity_matrix(demo))
        gt = demo.ground_truth.labels
        # every non-noise cluster is pure and parts are not split
        part_of_cluster = {}
        for tid, cid in a.labels.items():
            if cid == NOISE:
                continue
            part = gt[tid]
            assert part_of_cluster.setdefault(cid, part) == part
        assert len(part_of_cluster) == 2
        assert sum(1 for c in a.labels.values() if c == NOISE) == 0

    def test_assignment_consistency(self):
        a = ClusterAssignment({0: 0, 1: 0, 2: NOISE, 3: 1})
        assert a.clusters == {0: [0, 1], 1: [3]}
