import dataclasses
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from kinlearn import posegraph, synth
from kinlearn.errors import DegenerateGeometry, EmptyInput, InsufficientCorrespondences
from kinlearn.geometry import (
    Pose,
    align_point_sets,
    apply_pose,
    compose,
    fit_triples,
    inverse,
    kabsch,
    pose_distance,
    quat_canonical,
    quat_from_rotvec,
    quat_mul,
    quat_normalize,
    quat_rotate,
    relative,
    rotation_angle,
)
from kinlearn.joints import relative_pose_sequence
from kinlearn.posegraph import (
    CONSECUTIVE,
    SPARSE,
    VELOCITY,
    ClusterFrameSet,
    ClusterPoseSequence,
    FramePoses,
    PoseConstraint,
    _chain_step,
    _chunk_layout,
    _estimate_deltas,
    _group_residuals,
    _jacobian,
    _normal_equations,
    _pair_residuals,
    _ransac_samples,
    _residual_groups,
    _sample_consensus,
    _solve_chunks,
    _velocity_residuals,
    _weighted_residuals,
    build_constraints,
    estimate_cluster_poses,
    estimate_delta,
    optimize,
)
from kinlearn.segmentation import ClusterAssignment, cluster, similarity_matrix
from kinlearn.synth import JointSpec, MotionProfile, ObjectSpec, PartSpec
from kinlearn.trajectories import Demonstration, FeatureTrajectory
from test_geometry import triples_with_ratio


def pclose(a, b, tol):
    dt, dr = pose_distance(a, b)
    return dt < tol and dr < tol


def fset(frame, ids, positions):
    return ClusterFrameSet(frame, tuple(ids), np.asarray(positions, dtype=float))


def pack(frames):
    """The packed (ids, positions, valid) arrays of ``Demonstration.packed``
    that hold the frame sets ``frames``, one column per frame index."""
    ids = np.unique(np.concatenate([s.ids for s in frames])).astype(np.int64)
    valid = np.zeros((len(ids), max(s.frame for s in frames) + 1), dtype=bool)
    positions = np.full(valid.shape + (3,), np.nan)
    for s in frames:
        rows = np.searchsorted(ids, s.ids)
        positions[rows, s.frame], valid[rows, s.frame] = s.positions, True
    return ids, positions, valid


def total_cost(constraints, seq):
    cost = 0.0
    for c in constraints:
        if c.kind == VELOCITY:
            a, b, cc = (seq.poses[f] for f in c.frames)
            r = _velocity_residuals(
                a.q[None], a.t[None], b.q[None], b.t[None], cc.q[None], cc.t[None]
            )
        else:
            a, b = (seq.poses[f] for f in c.frames)
            r = _pair_residuals(
                a.q[None], a.t[None], b.q[None], b.t[None],
                c.delta.q[None], c.delta.t[None],
            )
        cost += c.weight * float(np.sum(r**2))
    return cost


class TestEstimateDelta:
    def test_exact_recovery_noise_free(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-0.5, 0.5, size=(15, 3))
        true = Pose.from_rotvec([0.2, -0.1, 0.4], [0.05, 0.02, -0.01])
        prev = fset(0, range(15), pts)
        curr = fset(1, range(15), apply_pose(true, pts))
        delta, inliers = estimate_delta(prev, curr)
        assert pclose(delta, true, 1e-9)
        assert inliers == tuple(range(15))

    def test_gross_outliers_excluded(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-0.5, 0.5, size=(20, 3))
        true = Pose.from_rotvec([0.0, 0.0, 0.3], [0.1, 0.0, 0.0])
        moved = apply_pose(true, pts)
        moved[[3, 8, 15]] += [0.1, -0.07, 0.05]  # 10 cm-scale corruption
        delta, inliers = estimate_delta(fset(0, range(20), pts), fset(1, range(20), moved))
        assert pclose(delta, true, 1e-9)
        assert set(inliers) == set(range(20)) - {3, 8, 15}

    def test_majority_outliers_need_ransac(self):
        # 60% of points displaced: the all-point fit fails, minimal samples rescue
        rng = np.random.default_rng(2)
        pts = rng.uniform(-0.5, 0.5, size=(20, 3))
        true = Pose.from_rotvec([0.1, 0.2, -0.1], [0.02, -0.03, 0.04])
        moved = apply_pose(true, pts)
        bad = np.arange(8, 20)
        moved[bad] += rng.uniform(0.05, 0.2, size=(len(bad), 3))
        delta, inliers = estimate_delta(fset(0, range(20), pts), fset(1, range(20), moved))
        assert pclose(delta, true, 1e-9)
        assert set(inliers) == set(range(8))

    def test_too_few_common(self):
        prev = fset(0, [0, 1], np.zeros((2, 3)))
        curr = fset(1, [0, 1], np.zeros((2, 3)))
        with pytest.raises(InsufficientCorrespondences):
            estimate_delta(prev, curr)

    def test_idempotent_on_own_inliers(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-0.5, 0.5, size=(20, 3))
        true = Pose.from_rotvec([0.0, 0.1, 0.2], [0.03, 0.0, 0.0])
        moved = apply_pose(true, pts) + rng.normal(0, 0.002, size=(20, 3))
        moved[[0, 5]] += 0.1
        delta1, inl = estimate_delta(fset(0, range(20), pts), fset(1, range(20), moved))
        keep = np.array(sorted(inl))
        delta2, inl2 = estimate_delta(
            fset(0, keep, pts[keep]), fset(1, keep, moved[keep])
        )
        assert pclose(delta1, delta2, 1e-12)
        assert inl2 == tuple(keep)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(-0.5, 0.5, size=(20, 3))
        moved = pts + rng.normal(0, 0.03, size=(20, 3))
        a = estimate_delta(fset(0, range(20), pts), fset(1, range(20), moved), seed=9)
        b = estimate_delta(fset(0, range(20), pts), fset(1, range(20), moved), seed=9)
        assert np.array_equal(a[0].q, b[0].q) and np.array_equal(a[0].t, b[0].t)
        assert a[1] == b[1]


def reference_sample_consensus(src, dst, inlier_threshold, seed):
    """One-sample-at-a-time RANSAC scoring; returns (best mask, skipped)."""
    rng = np.random.default_rng(seed)
    best, skipped = None, 0
    for _ in range(100):
        idx = rng.choice(len(src), size=3, replace=False)
        try:
            cand = align_point_sets(src[idx], dst[idx])
        except DegenerateGeometry:
            skipped += 1
            continue
        mask = np.linalg.norm(apply_pose(cand, src) - dst, axis=1) < inlier_threshold
        if best is None or mask.sum() > best.sum():
            best = mask
    return best, skipped


def reference_estimate_delta(prev, curr, inlier_threshold=0.01, seed=0):
    """estimate_delta with the fallback scored one sample at a time."""
    common, ia, ib = np.intersect1d(prev.ids, curr.ids, return_indices=True)
    src, dst = prev.positions[ia], curr.positions[ib]

    def residuals(pose):
        return np.linalg.norm(apply_pose(pose, src) - dst, axis=1)

    pose = align_point_sets(src, dst)
    inliers = residuals(pose) < inlier_threshold
    if inliers.sum() < 0.5 * len(common):
        best, _ = reference_sample_consensus(src, dst, inlier_threshold, seed)
        if best is not None and best.sum() >= 3:
            inliers = best
    for _ in range(20):
        if inliers.sum() < 3:
            break
        pose = align_point_sets(src[inliers], dst[inliers])
        refreshed = residuals(pose) < inlier_threshold
        if np.array_equal(refreshed, inliers):
            break
        inliers = refreshed
    return pose, tuple(int(i) for i in common[inliers])


class TestBatchedSampleConsensus:
    """The batched fallback must reproduce the one-at-a-time loop bit for bit."""

    @staticmethod
    def partly_collinear(seed):
        # 8 of 20 points on one line, so about 1 sample in 20 is collinear;
        # 1 cm noise rejects most points and forces the fallback
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-0.1, 0.1, size=(20, 3))
        pts[:8] = np.outer(np.linspace(-0.1, 0.1, 8), [1.0, 0.5, -0.2])
        true = Pose.from_rotvec(rng.normal(scale=0.2, size=3), rng.normal(scale=0.05, size=3))
        moved = apply_pose(true, pts) + rng.normal(0, 0.01, size=(20, 3))
        return pts, moved

    @staticmethod
    def two_rigid_groups(seed):
        # two equal groups moving apart: their pure samples tie in inlier count
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-0.5, 0.5, size=(20, 3))
        moved = pts.copy()
        moved[:10] = apply_pose(Pose.from_rotvec([0.0, 0.0, 0.3], [0.1, 0, 0]), pts[:10])
        moved[10:] = apply_pose(Pose.from_rotvec([0.3, 0.0, 0.0], [0, 0.1, 0]), pts[10:])
        return pts, moved

    def assert_same_delta(self, pts, moved, seed):
        prev, curr = fset(0, range(len(pts)), pts), fset(1, range(len(pts)), moved)
        delta, inliers = estimate_delta(prev, curr, seed=seed)
        ref_delta, ref_inliers = reference_estimate_delta(prev, curr, seed=seed)
        assert delta.q.tobytes() == ref_delta.q.tobytes()
        assert delta.t.tobytes() == ref_delta.t.tobytes()
        assert inliers == ref_inliers

    def test_some_collinear_samples(self):
        skipped_total = 0
        for seed in range(8):
            pts, moved = self.partly_collinear(seed)
            best, skipped = reference_sample_consensus(pts, moved, 0.01, seed)
            skipped_total += skipped
            (mask,) = _sample_consensus(pts, moved, [0], [len(pts)], 0.01, seed)
            assert np.array_equal(mask, best)
            self.assert_same_delta(pts, moved, seed)
        assert skipped_total > 0

    def test_every_sample_collinear_keeps_initial_inliers(self):
        rng = np.random.default_rng(0)
        pts = np.outer(rng.uniform(-0.2, 0.2, size=12), [0.3, -0.4, 1.0])
        moved = pts + rng.normal(0, 0.01, size=pts.shape)
        best, skipped = reference_sample_consensus(pts, moved, 0.01, 3)
        assert best is None and skipped == 100
        assert _sample_consensus(pts, moved, [0], [len(pts)], 0.01, 3) == [None]

    def test_ties_keep_first_sample(self):
        winners = set()
        for seed in range(6):
            pts, moved = self.two_rigid_groups(seed)
            best, _ = reference_sample_consensus(pts, moved, 0.01, seed + 100)
            assert best.sum() == 10
            winners.add(int(np.flatnonzero(best)[0]))
            (mask,) = _sample_consensus(pts, moved, [0], [len(pts)], 0.01, seed + 100)
            assert np.array_equal(mask, best)
            self.assert_same_delta(pts, moved, seed + 100)
        assert winners == {0, 10}  # each group wins on some seed

    @staticmethod
    def consensus(pairs, seed):
        """``_sample_consensus`` over all (src, dst) pairs in one call."""
        sizes = [len(src) for src, _ in pairs]
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        src = np.concatenate([p[0] for p in pairs])
        dst = np.concatenate([p[1] for p in pairs])
        return _sample_consensus(src, dst, starts, sizes, 0.01, seed)

    def assert_reference_masks(self, pairs, seed):
        for (src, dst), mask in zip(pairs, self.consensus(pairs, seed)):
            best, _ = reference_sample_consensus(src, dst, 0.01, seed)
            assert (mask is None) == (best is None)
            assert best is None or np.array_equal(mask, best)

    @staticmethod
    def count_kabsch(monkeypatch):
        """Count the hypotheses that posegraph hands to ``kabsch``."""
        solved = []

        def counting(src, dst):
            solved.append(len(src))
            return kabsch(src, dst)

        monkeypatch.setattr(posegraph, "kabsch", counting)
        return solved

    def test_mixed_point_counts_in_one_call(self):
        rng = np.random.default_rng(31)
        pairs = [self.partly_collinear(seed) for seed in range(10)]  # 20 points: 3 blocks
        pairs += [self.two_rigid_groups(4)]
        for n in (3, 5, 12, 90):  # 90 points: a block of one pair
            pts = rng.uniform(-0.3, 0.3, size=(n, 3)) + 1.0
            moved = apply_pose(random_step(rng), pts) + rng.normal(0, 0.008, size=(n, 3))
            pairs.append((pts, moved))
        line = np.outer(rng.uniform(-0.2, 0.2, size=7), [0.3, -0.4, 1.0])
        pairs.insert(4, (line, line + rng.normal(0, 0.01, size=line.shape)))  # all collinear
        self.assert_reference_masks(pairs, seed=5)
        assert self.consensus(pairs, 5)[4] is None

    def test_each_resolve_trigger_gives_kabsch_masks(self, monkeypatch):
        rng = np.random.default_rng(32)
        pts = rng.uniform(-0.3, 0.3, size=(8, 3))
        step = random_step(rng)
        direction = np.array([0.6, 0.0, 0.8])
        line = 0.5 + np.outer(rng.uniform(-0.2, 0.2, size=8), direction)
        off = np.cross(direction, [0.0, 1.0, 0.0])
        thin = line + np.outer(rng.uniform(-1.0, 1.0, size=8), off * 2e-3)
        gate = apply_pose(step, pts)
        gate[5, 0] += 0.01  # exactly at the gate from the other points' motion
        ratio = 1e-6 * np.array([1 - 1e-4, 1 + 1e-4])
        band = triples_with_ratio(rng, ratio)
        cases = {
            "collinear target": [(pts, line)],
            "near-collinear target": [(pts, line + np.outer(rng.normal(size=8), off * 1e-6))],
            "branch tie": [(thin, apply_pose(step, thin))],
            "gate distance": [(pts, gate)],
            "collinearity band": [(tri, tri + rng.normal(0, 0.01, size=(3, 3))) for tri in band],
        }
        for name, pairs in cases.items():
            solved = self.count_kabsch(monkeypatch)
            self.assert_reference_masks(pairs, seed=6)
            assert sum(solved) > 0, name
            if name == "gate distance":  # the closed form is sure of every sample
                src, dst = pairs[0]
                idx = _ransac_samples(len(src), 6)
                assert not fit_triples(src[idx], dst[idx])[3].any()
        assert self.consensus(cases["collinearity band"], 6)[0] is None


def random_step(rng):
    return Pose.from_rotvec(rng.normal(scale=0.2, size=3), rng.normal(scale=0.05, size=3))


class TestRansacSamples:
    def test_equal_to_draw_loop(self):
        for seed in (0, 1, 7, 12345):
            for n in range(3, 31):
                rng = np.random.default_rng(seed)
                loop = [rng.choice(n, size=3, replace=False) for _ in range(100)]
                assert np.array_equal(_ransac_samples(n, seed), np.array(loop))

    def test_read_only_and_shared(self):
        idx = _ransac_samples(12, 5)
        assert idx.shape == (100, 3) and not idx.flags.writeable
        assert _ransac_samples(12, 5) is idx


def cluster_frame_sets(demo, members, cid):
    """The frame sets of the packed columns that show >= 3 members."""
    ids, pos, _, valid = demo.packed()
    rows = np.searchsorted(ids, members)
    ids, pos, valid = ids[rows], pos[rows], valid[rows]
    return [
        ClusterFrameSet(f, tuple(ids[seen].tolist()), pos[seen, f])
        for f, seen in enumerate(valid.T)
        if seen.sum() >= 3
    ]


def constraint_pairs(frames, sparse_stride=10):
    """(kind, prev, curr) in build_constraints' order: consecutive, then sparse."""
    by_frame = {s.frame: s for s in frames}
    pairs = [(CONSECUTIVE, a, b) for a, b in zip(frames, frames[1:]) if b.frame - a.frame == 1]
    pairs += [(SPARSE, by_frame[b.frame - sparse_stride], b)
              for b in frames if b.frame - sparse_stride in by_frame]
    return pairs


def reference_delta_or_error(prev, curr, seed):
    try:
        return reference_estimate_delta(prev, curr, seed=seed)
    except DegenerateGeometry as exc:  # fewer than 3 common points or collinear
        return exc


def collinear_after_reselection():
    """10 points on a line and 2 off it that move 3 cm apart from the line:
    the all-point fit keeps only the line points, whose refit is collinear."""
    line = np.outer(np.linspace(-0.2, 0.2, 10), [1.0, 0.3, -0.5])
    pts = np.vstack([line, [[0.0, 0.15, 0.1], [0.05, -0.1, 0.2]]])
    moved = apply_pose(Pose.from_rotvec([0.0, 0.1, 0.05], [0.02, 0.0, 0.01]), pts)
    moved[10:] += [0.0, 0.03, 0.0]
    return pts, moved


class TestBatchedDeltas:
    """build_constraints solves all pairs of a cluster together; every delta,
    inlier set and dropped pair must be that of the one-pair loop."""

    def assert_matches_reference(self, frames, seed):
        pairs = constraint_pairs(frames)
        columns = [np.array([p[k].frame for p in pairs]) for k in (1, 2)]
        batched = _estimate_deltas(*pack(frames), *columns, 0.01, seed)
        expected = []
        for (kind, a, b), got in zip(pairs, batched):
            ref = reference_delta_or_error(a, b, seed)
            if isinstance(ref, Exception):
                common = len(set(a.ids) & set(b.ids))
                assert isinstance(got, InsufficientCorrespondences if common < 3
                                  else DegenerateGeometry)
                continue
            assert got[0].q.tobytes() == ref[0].q.tobytes()
            assert got[0].t.tobytes() == ref[0].t.tobytes()
            assert got[1] == ref[1]
            expected.append((kind, (a.frame, b.frame), ref[0], float(len(ref[1]))))
        cons = [c for c in build_constraints(*pack(frames), seed=seed) if c.kind != VELOCITY]
        assert [(c.kind, c.frames, c.weight) for c in cons] == [
            (kind, fr, w) for kind, fr, _, w in expected
        ]
        for c, (_, _, delta, _) in zip(cons, expected):
            assert c.delta.q.tobytes() == delta.q.tobytes()
            assert c.delta.t.tobytes() == delta.t.tobytes()
        return pairs, batched

    def test_rough_drawer(self):
        # sigma 10 mm, 20 % dropout: pairs share different numbers of features
        spec = synth.default_specs()["drawer"].with_noise(sigma_pos=0.01, dropout=0.2)
        demo = synth.generate(spec, frames=30, seed=1)
        assignment = cluster(similarity_matrix(demo))
        for cid, members in sorted(assignment.clusters.items()):
            frames = cluster_frame_sets(demo, members, cid)
            pairs, _ = self.assert_matches_reference(frames, seed=1)
            common = {len(set(a.ids) & set(b.ids)) for _, a, b in pairs}
            assert len(common) > 2

    def test_fallback_short_and_collinear_pairs(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-0.5, 0.5, size=(20, 3))
        step = Pose.from_rotvec([0.1, 0.2, -0.1], [0.02, -0.03, 0.04])
        frames = [fset(0, range(20), pts)]
        for f in range(1, 12):
            frames.append(fset(f, range(20), apply_pose(step, frames[-1].positions)))
        # frame 4: most points displaced, so its pairs need the RANSAC fallback
        bad = frames[4].positions.copy()
        bad[8:] += rng.uniform(0.05, 0.2, size=(12, 3))
        frames[4] = fset(4, range(20), bad)
        # frame 7 shares only two features with its neighbours
        frames[7] = fset(7, [0, 1, 40, 41, 42], np.vstack([frames[7].positions[:2], pts[:3]]))
        # frames 9 -> 10: the reselected inliers are collinear
        line, moved = collinear_after_reselection()
        frames[9] = fset(9, range(100, 112), line)
        frames[10] = fset(10, range(100, 112), moved)
        pairs, batched = self.assert_matches_reference(frames, seed=3)
        outcome = {(a.frame, b.frame): r for (_, a, b), r in zip(pairs, batched)}
        assert isinstance(outcome[(6, 7)], InsufficientCorrespondences)
        assert isinstance(outcome[(9, 10)], DegenerateGeometry)
        assert set(outcome[(3, 4)][1]) == set(range(8))  # the fallback's consensus
        with pytest.raises(DegenerateGeometry):
            estimate_delta(frames[9], frames[10])

    def test_collinear_first_fit_dropped(self):
        line = np.outer(np.linspace(-0.2, 0.2, 6), [1.0, 0.3, -0.5])
        with pytest.raises(DegenerateGeometry):
            estimate_delta(fset(0, range(6), line), fset(1, range(6), line + 0.01))


class TestDeltaStack:
    """``_estimate_deltas`` normalises all deltas of a cluster in one ``Pose``
    call, NaN rows of degenerate pairs included; every item must still be
    the one-pair result, as when each delta was normalised on its own."""

    def test_degenerate_pairs_among_deltas(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-0.5, 0.5, size=(12, 3))
        step = Pose.from_rotvec([0.05, -0.1, 0.2], [0.01, 0.02, -0.03])
        line, moved = collinear_after_reselection()
        frames = [fset(0, range(12), pts)]
        for f in range(1, 24):
            frames.append(fset(f, range(12), apply_pose(step, frames[-1].positions)))
        for f in (4, 14):  # a collinear pair between two pairs without common features
            frames[f] = fset(f, range(100, 112), line)
            frames[f + 1] = fset(f + 1, range(100, 112), moved)
        frames[9] = fset(9, [0, 1, 50, 51], np.vstack([frames[9].positions[:2], pts[:2]]))
        pairs, batched = TestBatchedDeltas().assert_matches_reference(frames, seed=5)
        kinds = [type(r).__name__ for r in batched]
        assert kinds.count("DegenerateGeometry") == 2
        assert kinds.count("InsufficientCorrespondences") >= 6
        ids, positions, valid = pack(frames)
        for (_, a, b), got in zip(pairs, batched):
            (alone,) = _estimate_deltas(ids, positions, valid, np.array([a.frame]),
                                        np.array([b.frame]), 0.01, 5)
            if isinstance(got, Exception):
                assert type(alone) is type(got)
            else:
                assert got[0].q.tobytes() == alone[0].q.tobytes()
                assert got[0].t.tobytes() == alone[0].t.tobytes()
                assert got[1] == alone[1]


def reference_perturb(q, t, axis, eps):
    """Left-multiply each pose by exp(eps * e_axis) in the decoupled chart."""
    if axis < 3:
        rv = np.zeros(3)
        rv[axis] = eps
        dq = quat_from_rotvec(rv)
        return quat_mul(dq, q), quat_rotate(dq[None, :].repeat(len(t), 0), t)
    t2 = t.copy()
    t2[:, axis - 3] += eps
    return q, t2


def reference_jacobian(groups, Q, T, r0):
    """Dense Jacobian with one residual evaluation per (slot, axis)."""
    eps = 1e-6
    var = np.arange(len(Q)) - 1
    J = np.zeros((6 * len(r0), 6 * (len(Q) - 1)))
    for g in groups:
        _, _, slots, _, first = g
        poses = [(Q[i], T[i]) for i in slots]
        r_ref = r0[first:first + len(slots[0])]
        for slot, fidx in enumerate(slots):
            for axis in range(6):
                moved = list(poses)
                moved[slot] = reference_perturb(*poses[slot], axis, eps)
                d = (_group_residuals(g, moved) - r_ref) / eps
                for c in np.flatnonzero(var[fidx] >= 0):
                    J[6 * (first + c):6 * (first + c) + 6, 6 * var[fidx[c]] + axis] = d[c]
    return J


def dense_jacobian(groups, blocks, n):
    """The per-constraint blocks of ``_jacobian`` scattered into one dense
    (6 x constraints, 6 x free frames) array."""
    J = np.zeros((6 * sum(len(b) for b in blocks), 6 * (n - 1)))
    for (_, _, slots, _, first), b in zip(groups, blocks):
        for slot, fidx in enumerate(slots):
            for c in np.flatnonzero(fidx > 0):
                J[6 * (first + c):6 * (first + c) + 6, 6 * (fidx[c] - 1):6 * fidx[c]] = b[c, slot]
    return J


class TestBatchedJacobian:
    def test_equal_to_per_axis_evaluations(self):
        spec = synth.default_specs()["drawer"].with_noise(sigma_pos=0.01, dropout=0.2)
        demo = synth.generate(spec, frames=30, seed=1)
        assignment = cluster(similarity_matrix(demo))
        for cid, members in sorted(assignment.clusters.items()):
            frames = cluster_frame_sets(demo, members, cid)
            cons = build_constraints(*pack(frames), seed=1)
            index = {s.frame: i for i, s in enumerate(frames)}
            rng = np.random.default_rng(cid)
            Q = np.array([Pose.from_rotvec(rng.normal(0, 0.3, 3)).q for _ in frames])
            T = rng.normal(0, 0.1, size=(len(frames), 3))
            groups = _residual_groups(cons, index)
            assert len(groups) == 2
            r0 = _weighted_residuals(groups, Q, T)
            J = _jacobian(groups, Q, T, r0)
            assert (dense_jacobian(groups, J, len(Q)) == reference_jacobian(groups, Q, T, r0)).all()


class TestBuildConstraints:
    @staticmethod
    def static_frames(frame_indices, n_pts=5):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-0.3, 0.3, size=(n_pts, 3))
        return pack([fset(f, range(n_pts), pts) for f in frame_indices])

    def test_eleven_frames_counts(self):
        cons = build_constraints(*self.static_frames(range(11)))
        kinds = [c.kind for c in cons]
        assert kinds.count(CONSECUTIVE) == 10
        assert kinds.count(SPARSE) == 1
        assert kinds.count(VELOCITY) == 9

    def test_gap_breaks_consecutive(self):
        missing = self.static_frames([f for f in range(11) if f != 5])
        # frame 5 shows 2 members, too few to observe; the others show exactly 3
        ids, positions, valid = self.static_frames(range(11), n_pts=3)
        valid[2, 5], positions[2, 5] = False, np.nan
        for packed in (missing, (ids, positions, valid)):
            cons = build_constraints(*packed)
            consec = [c.frames for c in cons if c.kind == CONSECUTIVE]
            assert (4, 5) not in consec and (5, 6) not in consec and (4, 6) not in consec
            assert len(consec) == 8
            sparse = [c.frames for c in cons if c.kind == SPARSE]
            assert sparse == [(0, 10)]
            vel = [c.frames for c in cons if c.kind == VELOCITY]
            assert vel == [(0, 1, 2), (1, 2, 3), (2, 3, 4), (6, 7, 8), (7, 8, 9), (8, 9, 10)]

    def test_five_frames_no_sparse(self):
        cons = build_constraints(*self.static_frames(range(5)))
        kinds = [c.kind for c in cons]
        assert kinds.count(CONSECUTIVE) == 4
        assert kinds.count(SPARSE) == 0
        assert kinds.count(VELOCITY) == 3

    def test_weights(self):
        cons = build_constraints(*self.static_frames(range(11), n_pts=7))
        consec_w = [c.weight for c in cons if c.kind == CONSECUTIVE]
        assert all(w == 7.0 for w in consec_w)
        vel_w = {c.weight for c in cons if c.kind == VELOCITY}
        assert vel_w == {0.1 * 7.0}

    def test_rows_of_demo_pack_equal_own_pack(self):
        # part 1's tracks end 5 frames before the demo's last frame, so a
        # pack of that part's tracks alone is narrower than the demo's pack
        spec = synth.default_specs()["door"].with_noise(sigma_pos=0.005, dropout=0.1)
        demo = synth.generate(spec, frames=30, seed=1)
        labels = demo.ground_truth.labels
        tracks = [
            t if labels[t.id] == 0 else FeatureTrajectory(t.id, t.observations[t.frames < 25])
            for t in demo.trajectories
        ]
        demo = Demonstration(tracks)
        members = sorted(t.id for t in tracks if labels[t.id] == 1)
        ids, pos, _, valid = demo.packed()
        rows = np.searchsorted(ids, members)
        assert valid.shape[1] == 30 and not valid[rows, 25:].any()
        own = {t.id: t for t in tracks if labels[t.id] == 1}
        sets = []
        for f in range(25):
            seen = [i for i in members if f in own[i].frames]
            if seen:
                sets.append(fset(f, seen, [own[i].positions[own[i].frames == f][0] for i in seen]))
        own_pack = pack(sets)  # a pack of part 1's tracks alone
        assert own_pack[2].shape[1] == 25
        got = build_constraints(ids[rows], pos[rows], valid[rows], seed=1)
        for ref in (own_pack, pack(cluster_frame_sets(demo, members, 1))):
            expected = build_constraints(*ref, seed=1)
            assert [(c.kind, c.frames, c.weight) for c in got] == [
                (c.kind, c.frames, c.weight) for c in expected
            ]
            for a, b in zip(got, expected):
                if a.delta is not None:
                    assert a.delta.q.tobytes() == b.delta.q.tobytes()
                    assert a.delta.t.tobytes() == b.delta.t.tobytes()


class TestChunkedSolve:
    """The block-Thomas solve of the chunked normal equations against a
    dense ``np.linalg.solve((JᵀJ + λI), -Jᵀr)``."""

    @staticmethod
    def frame_sets(gaps):
        spec = synth.default_specs()["drawer"].with_noise(sigma_pos=0.005, dropout=0.2)
        demo = synth.generate(spec, frames=40, seed=3)
        members = cluster(similarity_matrix(demo)).clusters[0]
        return [s for s in cluster_frame_sets(demo, members, 0) if s.frame not in gaps]

    @staticmethod
    def relative_error(sets, constraints, lam):
        index = {s.frame: i for i, s in enumerate(sets)}
        n = len(sets)
        rng = np.random.default_rng(n)
        Q = np.array([Pose.from_rotvec(rng.normal(0, 0.2, 3)).q for _ in sets])
        T = rng.normal(0, 0.05, size=(n, 3))
        groups = _residual_groups(constraints, index)
        r = _weighted_residuals(groups, Q, T)
        blocks = _jacobian(groups, Q, T, r)
        layout = _chunk_layout(groups, n)
        H, g = _normal_equations(layout, blocks, r)
        x = _solve_chunks(H, -g, lam)[:6 * (n - 1)]
        J = dense_jacobian(groups, blocks, n)
        ref = np.linalg.solve(J.T @ J + lam * np.eye(6 * (n - 1)), -J.T @ r.ravel())
        return np.abs(x - ref).max() / np.abs(ref).max(), layout

    # One-frame gaps leave no consecutive or velocity factor across them;
    # strides 2 to 10 bridge them with a sparse factor. Strides 1 and 50
    # cannot, and a chain cut in two leaves JᵀJ singular, so at lam 1e-9
    # no solver reaches 1e-10: those strides run without gaps.
    @pytest.mark.parametrize("lam", [1e-9, 1e-3])
    @pytest.mark.parametrize("stride, gaps, s", [
        (1, (), 2), (2, (8, 19, 33), 2), (3, (8, 19, 33), 3), (10, (8, 19, 33), 10), (50, (), 2),
    ], ids=["1", "2-gaps", "3-gaps", "10-gaps", "50"])
    def test_matches_dense_solve(self, stride, gaps, s, lam):
        sets = self.frame_sets(gaps)
        cons = build_constraints(*pack(sets), sparse_stride=stride)
        err, layout = self.relative_error(sets, cons, lam)
        assert layout[0] == s
        assert err < 1e-10

    @pytest.mark.parametrize("lam", [1e-9, 1e-3])
    def test_single_chunk(self, lam):
        sets = self.frame_sets(())
        span = sets[-1].frame - sets[0].frame  # one sparse factor spans every row
        cons = build_constraints(*pack(sets), sparse_stride=span)
        err, layout = self.relative_error(sets, cons, lam)
        assert layout[:2] == (len(sets) - 1, 1)
        assert err < 1e-10


def test_cli_import_loads_no_scipy():
    """Importing the CLI pulls in no scipy module: a fresh interpreter's
    start-up is what every command pays."""
    src = str(Path(synth.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, kinlearn.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


class TestOptimize:
    def test_consistent_chain_unchanged(self):
        # constant-velocity ground truth: every factor already satisfied
        deltas = Pose.from_rotvec([0.0, 0.0, 0.02], [0.01, 0.0, 0.0])
        poses = {0: Pose.identity()}
        for f in range(1, 12):
            poses[f] = compose(deltas, poses[f - 1])
        cons = [
            PoseConstraint(CONSECUTIVE, (f - 1, f), deltas, 10.0) for f in range(1, 12)
        ]
        cons += [PoseConstraint(VELOCITY, (f - 1, f, f + 1), None, 1.0) for f in range(1, 11)]
        initial = ClusterPoseSequence(0, dict(poses))
        assert total_cost(cons, initial) < 1e-12
        out = optimize(cons, initial)
        for f in poses:
            assert pclose(out.poses[f], poses[f], 1e-10)
        assert out.converged

    def test_single_constraint_two_poses(self):
        d = Pose.from_rotvec([0.0, 0.0, 0.17], [0.05, 0.0, 0.0])
        initial = ClusterPoseSequence(0, {0: Pose.identity(), 1: Pose.identity()})
        out = optimize([PoseConstraint(CONSECUTIVE, (0, 1), d, 1.0)], initial)
        assert out.iterations <= 2
        assert pclose(out.poses[1], d, 1e-6)

    def test_drift_corrected_by_sparse(self):
        # consecutive deltas carry a constant lateral bias; sparse deltas are exact
        n = 21
        true = {f: Pose(np.array([1.0, 0, 0, 0]), np.array([0.1 * f, 0.0, 0.0])) for f in range(n)}
        bias = np.array([0.0, 0.005, 0.0])
        cons = []
        for f in range(1, n):
            d = Pose(np.array([1.0, 0, 0, 0]), np.array([0.1, 0.0, 0.0]) + bias)
            cons.append(PoseConstraint(CONSECUTIVE, (f - 1, f), d, 10.0))
        for f in range(10, n, 10):
            d = Pose(np.array([1.0, 0, 0, 0]), np.array([1.0, 0.0, 0.0]))
            cons.append(PoseConstraint(SPARSE, (f - 10, f), d, 10.0))
        chained = {0: Pose.identity()}
        for f in range(1, n):
            chained[f] = compose(cons[f - 1].delta, chained[f - 1])
        chained_err = np.linalg.norm(chained[n - 1].t - true[n - 1].t)
        out = optimize(cons, ClusterPoseSequence(0, chained))
        opt_err = np.linalg.norm(out.poses[n - 1].t - true[n - 1].t)
        assert chained_err > 0.09  # sanity: drift really accumulated
        assert opt_err < 0.5 * chained_err

    def test_cost_never_increases(self):
        rng = np.random.default_rng(6)
        n = 15
        cons = []
        for f in range(1, n):
            d = Pose.from_rotvec(rng.normal(0, 0.05, 3), rng.normal(0, 0.05, 3))
            cons.append(PoseConstraint(CONSECUTIVE, (f - 1, f), d, 5.0))
        cons += [PoseConstraint(VELOCITY, (f - 1, f, f + 1), None, 0.5) for f in range(1, n - 1)]
        poses = {0: Pose.identity()}
        for f in range(1, n):
            poses[f] = compose(cons[f - 1].delta, poses[f - 1])
        initial = ClusterPoseSequence(0, dict(poses))
        out = optimize(cons, initial)
        assert total_cost(cons, out) <= total_cost(cons, initial) + 1e-12


def prismatic_ramp_spec():
    return ObjectSpec(
        name="slider",
        parts=(
            PartSpec(center=(0.0, 0.0, 0.5), u=(0.14, 0.0, 0.0), v=(0.0, 0.0, 0.1)),
            PartSpec(center=(0.0, 0.05, 0.5), u=(0.14, 0.0, 0.0), v=(0.0, 0.0, 0.07)),
        ),
        joints=(
            JointSpec(0, 1, "prismatic", axis=(0.0, 1.0, 0.0),
                      profile=MotionProfile("ramp", 0.4)),
        ),
    )


def run_pipeline(demo):
    assignment = cluster(similarity_matrix(demo))
    return assignment, estimate_cluster_poses(demo, assignment)


class TestEstimateClusterPoses:
    def test_static_part_identity(self):
        spec = ObjectSpec(
            name="slab",
            parts=(PartSpec(center=(0, 0, 0), u=(0.3, 0, 0), v=(0, 0.3, 0)),),
            joints=(),
            features_per_part=10,
        )
        demo = synth.generate(spec, frames=30, seed=7)
        assignment = cluster(similarity_matrix(demo))
        seqs = estimate_cluster_poses(demo, assignment)
        assert len(seqs) == 1
        for pose in seqs[0].poses.values():
            assert pclose(pose, Pose.identity(), 1e-9)

    def test_noise_free_ramp_matches_ground_truth(self):
        # constant-velocity motion: the smoother is bias-free here
        demo = synth.generate(prismatic_ramp_spec(), frames=60, seed=8)
        gt = demo.ground_truth
        assignment, seqs = run_pipeline(demo)
        assert len(seqs) == 2
        for seq in seqs:
            part = gt.labels[assignment.clusters[seq.cluster_id][0]]
            first = seq.first_frame()
            for f, pose in seq.poses.items():
                true = compose(gt.part_poses[part][f], inverse(gt.part_poses[part][first]))
                assert pclose(pose, true, 1e-6)

    def test_noise_free_door_panel_angle(self):
        spec = synth.default_specs()["door"]
        demo = synth.generate(spec, frames=120, seed=9)
        gt = demo.ground_truth
        assignment, seqs = run_pipeline(demo)
        q_true = gt.joints[0].configurations
        by_part = {
            gt.labels[assignment.clusters[s.cluster_id][0]]: s for s in seqs
        }
        panel = by_part[1]
        for f, pose in panel.poses.items():
            # smoothing bias stays far below the degree scale
            assert abs(rotation_angle(pose) - abs(q_true[f])) < 5e-4

    def test_noisy_door_within_bounds(self):
        # regression bound: mean per-frame error stays under 2 cm / 2 deg
        # at 60 features per part (measured 1.4 cm / 1.0 deg on this seed)
        import dataclasses

        spec = synth.default_specs()["door"].with_noise(sigma_pos=0.005)
        spec = dataclasses.replace(spec, features_per_part=60)
        demo = synth.generate(spec, frames=120, seed=11)
        gt = demo.ground_truth
        assignment, seqs = run_pipeline(demo)
        assert len(seqs) == 2
        errs_t, errs_r = [], []
        for seq in seqs:
            part = gt.labels[assignment.clusters[seq.cluster_id][0]]
            first = seq.first_frame()
            for f, pose in seq.poses.items():
                true = compose(gt.part_poses[part][f], inverse(gt.part_poses[part][first]))
                errs_t.append(np.linalg.norm(pose.t - true.t))
                errs_r.append(rotation_angle(compose(inverse(true), pose)))
        assert np.mean(errs_t) < 0.02
        assert np.mean(errs_r) < np.deg2rad(2.0)

    def test_gauge_equivariance(self):
        demo = synth.generate(prismatic_ramp_spec(), frames=40, seed=11)
        g = Pose.from_rotvec([0.3, -0.5, 0.2], [1.0, 2.0, -0.7])
        moved = [
            FeatureTrajectory.from_arrays(
                t.id, t.frames, apply_pose(g, t.positions), quat_rotate(g.q, t.normals)
            )
            for t in demo.trajectories
        ]
        demo2 = Demonstration(moved, demo.frame_rate, None)
        assignment = cluster(similarity_matrix(demo))
        seqs1 = estimate_cluster_poses(demo, assignment)
        seqs2 = estimate_cluster_poses(demo2, assignment)
        for s1, s2 in zip(seqs1, seqs2):
            for f in s1.poses:
                conj = compose(g, compose(s1.poses[f], inverse(g)))
                assert pclose(s2.poses[f], conj, 1e-9)

    def test_deterministic(self):
        spec = synth.default_specs()["door"].with_noise(sigma_pos=0.005)
        demo = synth.generate(spec, frames=60, seed=12)
        assignment = cluster(similarity_matrix(demo))
        a = estimate_cluster_poses(demo, assignment)
        b = estimate_cluster_poses(demo, assignment)
        for s1, s2 in zip(a, b):
            for f in s1.poses:
                assert np.array_equal(s1.poses[f].q, s2.poses[f].q)
                assert np.array_equal(s1.poses[f].t, s2.poses[f].t)

    def test_tiny_cluster_dropped(self):
        spec = ObjectSpec(
            name="slab",
            parts=(PartSpec(center=(0, 0, 0), u=(0.3, 0, 0), v=(0, 0.3, 0)),),
            joints=(),
            features_per_part=6,
        )
        demo = synth.generate(spec, frames=20, seed=13)
        from kinlearn.segmentation import ClusterAssignment

        ids = sorted(t.id for t in demo.trajectories)
        labels = {tid: 0 for tid in ids}
        labels[ids[-1]] = 1
        labels[ids[-2]] = 1  # 2-member cluster: never >=3 features in a frame
        with pytest.warns(RuntimeWarning, match="dropped"):
            seqs = estimate_cluster_poses(demo, ClusterAssignment(labels))
        assert [s.cluster_id for s in seqs] == [0]


def random_pose_dict(rng, frames):
    """frame -> random Pose, keys in the order given."""
    return {f: Pose.from_rotvec(rng.normal(0, 0.5, 3), rng.normal(0, 0.2, 3))
            for f in frames}


class TestFrameLayout:
    """A cluster's poses are one frame array plus one Pose stack, read by
    frame through the read-only ``poses`` view."""

    @pytest.fixture(scope="class")
    def gappy_seqs(self):
        # 6 features per part, half of them lost per frame: many frames show
        # fewer than 3 members, so each cluster's frames have gaps
        spec = dataclasses.replace(synth.default_specs()["door"], features_per_part=6)
        demo = synth.generate(spec.with_noise(dropout=0.5), frames=60, seed=3)
        assignment = ClusterAssignment(dict(demo.ground_truth.labels))
        return estimate_cluster_poses(demo, assignment)

    def test_frames_increase_and_view_reads_stack_rows(self, gappy_seqs):
        assert len(gappy_seqs) == 2
        assert any(np.any(np.diff(seq.poses.frames) > 1) for seq in gappy_seqs)
        for seq in gappy_seqs:
            frames, stack = seq.poses.frames, seq.poses.stack
            assert frames.dtype == np.int64 and not frames.flags.writeable
            assert np.all(np.diff(frames) > 0)
            assert stack.q.shape == (len(frames), 4) and stack.t.shape == (len(frames), 3)
            assert list(seq.poses) == frames.tolist() == sorted(seq.inlier_counts)
            assert seq.first_frame() == frames[0]
            for k, f in enumerate(frames.tolist()):
                assert seq.poses[f].q.tobytes() == stack[k].q.tobytes()
                assert seq.poses[f].t.tobytes() == stack[k].t.tobytes()

    def test_unobserved_frame_and_assignment_fail(self, gappy_seqs):
        seq = next(s for s in gappy_seqs if np.any(np.diff(s.poses.frames) > 1))
        frames = seq.poses.frames.tolist()
        gap = next(a + 1 for a, b in zip(frames, frames[1:]) if b - a > 1)
        for f in (gap, frames[-1] + 1, -1):
            assert f not in seq.poses
            with pytest.raises(KeyError):
                seq.poses[f]
        for f in (gap, frames[0]):
            with pytest.raises(TypeError):
                seq.poses[f] = Pose.identity()
        assert gap not in seq.poses and seq.poses.frames.tolist() == frames

    def test_dict_round_trips_with_same_bytes(self):
        # 200 poses, as normalizing a stored quaternion again moves the last
        # bit of a few of them; frames unordered and with gaps
        rng = np.random.default_rng(21)
        given = random_pose_dict(rng, rng.choice(1000, size=200, replace=False).tolist())
        seq = ClusterPoseSequence(0, given)
        assert seq.poses.frames.tolist() == sorted(given)
        assert seq.first_frame() == min(given)
        assert dict(seq.poses) == given
        for f, pose in given.items():
            assert seq.poses[f].q.tobytes() == pose.q.tobytes()
            assert seq.poses[f].t.tobytes() == pose.t.tobytes()
        again = ClusterPoseSequence(0, dict(seq.poses))
        assert again.poses.stack.q.tobytes() == seq.poses.stack.q.tobytes()
        assert again.poses.stack.t.tobytes() == seq.poses.stack.t.tobytes()

    def test_relative_sequence_matches_dict_intersection(self):
        rng = np.random.default_rng(22)
        frames_i = [0, 1, 2, 5, 6, 7, 8, 12, 13, 20, 21, 30]
        frames_j = [1, 2, 3, 4, 6, 8, 9, 12, 14, 20, 30, 31]
        poses_i = random_pose_dict(rng, frames_i[::-1])
        poses_j = random_pose_dict(rng, frames_j)
        seq_i, seq_j = ClusterPoseSequence(4, poses_i), ClusterPoseSequence(7, poses_j)
        # the dict intersection that relative_pose_sequence used to make
        common = sorted(set(poses_i) & set(poses_j))
        ref = relative(Pose.stack(poses_i[f] for f in common),
                       Pose.stack(poses_j[f] for f in common))
        rel = relative_pose_sequence(seq_i, seq_j)
        assert rel.pair == (4, 7)
        assert rel.frames == tuple(common) == (1, 2, 6, 8, 12, 20, 30)
        assert all(type(f) is int for f in rel.frames)
        assert rel.deltas.q.tobytes() == ref.q.tobytes()
        assert rel.deltas.t.tobytes() == ref.t.tobytes()

    def test_relative_sequence_without_common_frames(self):
        rng = np.random.default_rng(23)
        a = ClusterPoseSequence(0, random_pose_dict(rng, [0, 2, 4]))
        b = ClusterPoseSequence(1, random_pose_dict(rng, [1, 3, 5]))
        with pytest.raises(EmptyInput):
            relative_pose_sequence(a, b)


def reference_cluster_poses(demo, assignment, sparse_stride=10, seed=0):
    """(sequences, warnings) of the per-cluster path: for each cluster in id
    order, ``build_constraints``, the initial chain on the numpy quaternion
    kernels one row at a time, and ``optimize``."""
    results = []
    all_ids, all_pos, _, all_valid = demo.packed()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for cid in sorted(assignment.clusters):
            rows = np.searchsorted(all_ids, assignment.clusters[cid])
            ids, pos, valid = all_ids[rows], all_pos[rows], all_valid[rows]
            frames = np.flatnonzero(valid.sum(axis=0) >= 3).tolist()
            if len(frames) < 2:
                warnings.warn(f"cluster {cid}: fewer than 2 frames with >=3 features, dropped",
                              RuntimeWarning)
                continue
            constraints = build_constraints(ids, pos, valid, sparse_stride=sparse_stride,
                                            seed=seed)
            consec = {c.frames[1]: c for c in constraints if c.kind == CONSECUTIVE}
            Q, T = np.empty((len(frames), 4)), np.empty((len(frames), 3))
            Q[0], T[0] = (1.0, 0.0, 0.0, 0.0), 0.0
            counts = {frames[0]: int(valid[:, frames[0]].sum())}
            for k, f in enumerate(frames[1:], start=1):
                c = consec.get(f)
                if c is None:
                    Q[k], T[k], counts[f] = Q[k - 1], T[k - 1], 0
                    continue
                dq = c.delta.q
                Q[k] = quat_canonical(quat_normalize(quat_mul(dq, Q[k - 1])))
                T[k] = quat_rotate(dq, T[k - 1]) + c.delta.t
                counts[f] = int(c.weight)
            initial = ClusterPoseSequence(cid, FramePoses(frames, Pose._stored(Q, T)), counts)
            results.append(optimize(constraints, initial))
    return results, [(w.category, str(w.message)) for w in caught]


def one_pass(demo, assignment, sparse_stride=10, seed=0):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        seqs = estimate_cluster_poses(demo, assignment, sparse_stride=sparse_stride, seed=seed)
    return seqs, [(w.category, str(w.message)) for w in caught]


def assert_same_sequences(got, expected):
    assert [s.cluster_id for s in got] == [s.cluster_id for s in expected]
    for a, b in zip(got, expected):
        assert a.poses.frames.tobytes() == b.poses.frames.tobytes()
        assert a.poses.stack.q.tobytes() == b.poses.stack.q.tobytes()
        assert a.poses.stack.t.tobytes() == b.poses.stack.t.tobytes()
        assert a.inlier_counts == b.inlier_counts
        assert (a.iterations, a.converged) == (b.iterations, b.converged)


def relabel(assignment, mapping, split=()):
    """``assignment`` with its clusters renumbered by ``mapping`` and each
    (cluster id, new id) of ``split`` taking two members of that cluster."""
    labels = {t: mapping.get(c, c) for t, c in assignment.labels.items()}
    for old, new in split:
        for t in assignment.clusters[old][:2]:
            labels[t] = new
    return ClusterAssignment(labels)


class TestOnePass:
    """``estimate_cluster_poses`` solves all clusters of a demonstration
    together; every sequence and warning must be that of the per-cluster
    path, bit for bit."""

    GRID = {  # (sigma, dropout, frames)
        "clean": (0.0, 0.0, 50),
        "noisy": (0.005, 0.02, 16),
        "rough": (0.01, 0.3, 40),
    }

    @pytest.mark.parametrize("setting", sorted(GRID))
    def test_equal_to_cluster_at_a_time(self, setting):
        sigma, dropout, frames = self.GRID[setting]
        sequences = unconverged = 0
        for name, spec in sorted(synth.default_specs().items()):
            for seed in range(3):
                demo = synth.generate(spec.with_noise(sigma_pos=sigma, dropout=dropout),
                                      frames=frames, seed=seed)
                assignment = cluster(similarity_matrix(demo))
                got, caught = one_pass(demo, assignment, seed=seed)
                expected, expected_caught = reference_cluster_poses(demo, assignment, seed=seed)
                assert_same_sequences(got, expected)
                assert caught == expected_caught
                sequences += len(got)
                unconverged += sum(not s.converged for s in got)
        assert sequences == {"clean": 45, "noisy": 45, "rough": 44}[setting]  # 134 in all
        assert (unconverged > 0) == (setting == "rough")

    def test_dropped_and_unconverged_warn_in_cluster_order(self):
        spec = synth.default_specs()["monitor"].with_noise(sigma_pos=0.01, dropout=0.3)
        demo = synth.generate(spec, frames=40, seed=0)
        segmented = cluster(similarity_matrix(demo))
        # 2-member clusters 1 and 4 are dropped; clusters 0 and 2 do not converge
        assignment = relabel(segmented, {1: 0, 0: 2, 2: 3}, split=[(0, 1), (2, 4)])
        got, caught = one_pass(demo, assignment, seed=0)
        expected, expected_caught = reference_cluster_poses(demo, assignment, seed=0)
        assert_same_sequences(got, expected)
        assert [(s.cluster_id, s.converged) for s in got] == [(0, False), (2, False), (3, True)]
        unconverged = (RuntimeWarning, "pose optimization did not converge in 50 iterations")
        assert caught == expected_caught == [
            unconverged,
            (RuntimeWarning, "cluster 1: fewer than 2 frames with >=3 features, dropped"),
            unconverged,
            (RuntimeWarning, "cluster 4: fewer than 2 frames with >=3 features, dropped"),
        ]

    @staticmethod
    def shapes(demo, assignment, sparse_stride):
        """(chunk width, chunk count) of each cluster's smoothing."""
        out = []
        all_ids, all_pos, _, all_valid = demo.packed()
        for cid in sorted(assignment.clusters):
            rows = np.searchsorted(all_ids, assignment.clusters[cid])
            valid = all_valid[rows]
            frames = np.flatnonzero(valid.sum(axis=0) >= 3)
            cons = build_constraints(all_ids[rows], all_pos[rows], valid,
                                     sparse_stride=sparse_stride)
            index = {f: k for k, f in enumerate(frames.tolist())}
            out.append(_chunk_layout(_residual_groups(cons, index), len(frames))[:2])
        return out

    @pytest.mark.parametrize("sparse_stride", [10, 60])
    def test_clusters_of_different_chunk_shapes(self, sparse_stride):
        # part 1's tracks end at frame 8 and part 2 is hidden at frames
        # 12-21, so the three clusters chunk their frames differently
        spec = synth.default_specs()["monitor"].with_noise(sigma_pos=0.005)
        demo = synth.generate(spec, frames=40, seed=2)
        labels = demo.ground_truth.labels
        tracks = []
        for t in demo.trajectories:
            keep = {1: t.frames < 8, 2: (t.frames < 12) | (t.frames > 21)}.get(labels[t.id])
            tracks.append(t if keep is None else FeatureTrajectory(t.id, t.observations[keep]))
        demo = Demonstration(tracks)
        assignment = ClusterAssignment({t.id: labels[t.id] for t in tracks})
        shapes = self.shapes(demo, assignment, sparse_stride)
        assert len(set(shapes)) == 3
        got, caught = one_pass(demo, assignment, sparse_stride=sparse_stride, seed=1)
        expected, expected_caught = reference_cluster_poses(
            demo, assignment, sparse_stride=sparse_stride, seed=1)
        assert_same_sequences(got, expected)
        assert caught == expected_caught

    def test_singular_stacked_solve_raises_only_its_lam(self, monkeypatch):
        # part 2's tracks end at frame 25: all three clusters chunk into
        # 3 chunks of 10 frames, part 2's with 6 padding frames, 36 variables
        spec = synth.default_specs()["monitor"].with_noise(sigma_pos=0.005)
        demo = synth.generate(spec, frames=31, seed=4)
        labels = demo.ground_truth.labels
        tracks = [t if labels[t.id] != 2 else FeatureTrajectory(t.id, t.observations[t.frames < 25])
                  for t in demo.trajectories]
        demo = Demonstration(tracks)
        assignment = ClusterAssignment({t.id: labels[t.id] for t in tracks})
        assert self.shapes(demo, assignment, 10) == [(10, 3)] * 3
        clean, _ = reference_cluster_poses(demo, assignment)

        solve, stacked = posegraph._solve_chunks, []

        def singular_part_2(H, rhs, lam):
            padded = (np.reshape(rhs, (-1, rhs.shape[-2] * rhs.shape[-1])) == 0).sum(axis=1)
            if (padded == 36).any():
                stacked.append(len(padded))
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(H, rhs, lam)

        monkeypatch.setattr(posegraph, "_solve_chunks", singular_part_2)
        got, _ = one_pass(demo, assignment)
        alone, _ = reference_cluster_poses(demo, assignment)
        assert max(stacked) == 3  # the stacked sweep of all three raised
        assert_same_sequences(got, alone)
        assert_same_sequences(got[:2], clean[:2])
        # every trial of part 2 was singular: no step, its initial chain kept
        assert got[2].iterations == 1 and got[2].converged
        assert got[2].poses.stack.t.tobytes() != clean[2].poses.stack.t.tobytes()


def reference_chain_step(dq, dt, q, t):
    return quat_canonical(quat_normalize(quat_mul(dq, q))), quat_rotate(dq, t) + dt


class TestChainStep:
    """``_chain_step`` on Python floats against the numpy kernels that the
    initial chain used, bit for bit."""

    @staticmethod
    def inputs(n=120_000):
        rng = np.random.default_rng(30)
        dq, q = rng.normal(size=(n, 4)), rng.normal(size=(n, 4))
        t, dt = rng.normal(size=(n, 3)), rng.normal(size=(n, 3))
        k = n // 6
        # products with w = 0 exactly, and with x or x and y zero too
        dq[:k] = (1.0, 0.0, 0.0, 0.0)
        q[:k, 0] = 0.0
        q[:k // 3, 1] = 0.0
        q[:k // 6, 2] = 0.0
        # a negative first nonzero component
        q[k:2 * k, 0] = -np.abs(q[k:2 * k, 0])
        q[:k] = -np.abs(q[:k])
        # tiny norms, down to subnormal squares
        q[2 * k:3 * k] *= 10.0 ** rng.uniform(-160, -100, size=(k, 1))
        dq[2 * k:3 * k] /= np.linalg.norm(dq[2 * k:3 * k], axis=1, keepdims=True)
        # unit quaternions and small steps, as in a chain
        for a in (dq, q):
            a[3 * k:] /= np.linalg.norm(a[3 * k:], axis=1, keepdims=True)
        t[3 * k:] *= 0.05
        return dq, dt, q, t

    def test_equal_to_numpy_kernels(self):
        dq, dt, q, t = self.inputs()
        Q, T = reference_chain_step(dq, dt, q, t)
        assert (Q[:, 0] == 0.0).sum() > 10_000 and (Q[:, 0] < 0.0).sum() == 0
        assert np.linalg.norm(quat_mul(dq, q), axis=1).min() < 1e-150
        got = [_chain_step(*row) for row in zip(dq.tolist(), dt.tolist(), q.tolist(), t.tolist())]
        assert np.array(Q).tobytes() == np.array([g[0] for g in got]).tobytes()
        assert np.array(T).tobytes() == np.array([g[1] for g in got]).tobytes()
        # one row at a time, as the numpy chain called them
        for i in range(0, len(q), 37):
            qi, ti = reference_chain_step(dq[i], dt[i], q[i], t[i])
            assert qi.tolist() == list(got[i][0]) and ti.tolist() == list(got[i][1])
