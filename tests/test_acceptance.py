"""Acceptance suite: one test per release criterion.

Each test prints a single ``criterion N: PASS|FAIL`` line. Criterion 4b
(similarity ratio across noise scales) is known-unattainable for this
kernel family and is intentionally left failing; see the package README.
"""

import dataclasses
import io
import itertools
import time
import warnings

import numpy as np
import pytest

from kinlearn import synth, trajectories
from kinlearn.cli import main as cli_main
from kinlearn.errors import DisconnectedParts
from kinlearn.geometry import (
    Pose,
    Twist,
    align_point_sets,
    compose,
    exp_twist,
    inverse,
    log_pose,
    pose_distance,
    relative,
)
from kinlearn.joints import (
    fit_prismatic,
    fit_revolute,
    fit_rigid,
    relative_pose_sequence,
)
from kinlearn.kingraph import build_graph, evaluate, minimum_spanning_tree
from kinlearn.posegraph import (
    CONSECUTIVE,
    SPARSE,
    ClusterPoseSequence,
    PoseConstraint,
    estimate_cluster_poses,
    optimize,
)
from kinlearn.segmentation import (
    NOISE,
    SimilarityMatrix,
    SimilarityParams,
    cluster,
    pair_similarity,
    similarity_matrix,
)
from kinlearn.trajectories import (
    Demonstration,
    FeatureTrajectory,
    PRISMATIC,
    REVOLUTE,
)

CATALOG = ("door", "drawer", "fridge", "laptop", "microwave", "monitor")


def verdict(num: str, ok: bool, detail: str = "") -> bool:
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'}{suffix}")
    return ok


def run_pipeline(demo):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assignment = cluster(similarity_matrix(demo))
        seqs = estimate_cluster_poses(demo, assignment)
        graph = build_graph(seqs)
    return assignment, seqs, graph


def _line_distance(p1, d1, p2, d2):
    cross = np.cross(d1, d2)
    off = np.asarray(p2) - np.asarray(p1)
    n = np.linalg.norm(cross)
    if n < 1e-9:
        return float(np.linalg.norm(off - (off @ d1) * np.asarray(d1)))
    return float(abs(off @ cross) / n)


def _axis_angle_deg(a, b):
    c = abs(float(np.asarray(a) @ np.asarray(b)))
    return float(np.degrees(np.arccos(np.clip(c, -1.0, 1.0))))


class TestCriterion1:
    def test_noise_free_exact_recovery(self):
        failures = []
        for name in CATALOG:
            t0 = time.time()
            demo = synth.generate(synth.default_specs()[name], frames=900, seed=0)
            assignment, seqs, graph = run_pipeline(demo)
            elapsed = time.time() - t0
            gt = demo.ground_truth

            # (a) segmentation: no noise points, clusters == parts exactly
            if any(c == NOISE for c in assignment.labels.values()):
                failures.append(f"{name}: noise labels present")
            part_of = {}
            mislabels = 0
            for cid, members in assignment.clusters.items():
                parts = {gt.labels[tid] for tid in members}
                if len(parts) != 1:
                    mislabels += 1
                part_of[cid] = min(parts)
            if mislabels or len(set(part_of.values())) != len(gt.parts()):
                failures.append(f"{name}: segmentation mismatch")
                continue

            # (b) joint type on every edge; (c) axis tolerances
            gt_joints = {frozenset((j.parent, j.child)): j for j in gt.joints}
            for a, b, model in graph.edges:
                true = gt_joints.get(frozenset((part_of[a], part_of[b])))
                if true is None or true.kind != model.kind:
                    failures.append(f"{name}: edge ({a},{b}) kind {model.kind}")
                    continue
                if model.kind in (PRISMATIC, REVOLUTE):
                    ang = _axis_angle_deg(model.params["axis"], true.axis)
                    if ang > 0.1:
                        failures.append(f"{name}: axis angle {ang:.4f} deg")
                if model.kind == REVOLUTE:
                    d = _line_distance(model.params["center"], model.params["axis"],
                                       true.origin, true.axis)
                    if d > 0.001:
                        failures.append(f"{name}: axis offset {d * 1000:.3f} mm")
            if elapsed > 30.0:
                failures.append(f"{name}: runtime {elapsed:.1f} s")
        assert verdict("1", not failures, "; ".join(failures) or
                       "6 specs, 900 frames, exact types and axes, < 30 s each")


class TestCriterion2:
    def test_noisy_robustness(self):
        failures = []
        details = []
        for name in CATALOG:
            success = types_ok = 0
            for seed in range(10):
                spec = synth.default_specs()[name].with_noise(
                    sigma_pos=0.005, dropout=0.02
                )
                demo = synth.generate(spec, frames=150, seed=seed)
                try:
                    assignment, seqs, graph = run_pipeline(demo)
                    report = evaluate(graph, seqs, assignment, demo.ground_truth)
                except Exception:
                    continue
                success += report.success
                types_ok += report.types_correct
            details.append(f"{name} {success}/10 success {types_ok}/10 types")
            if success < 9 or types_ok < 9:
                failures.append(details[-1])
        assert verdict("2", not failures, "; ".join(failures or details))


def reference_dbscan(values, eps, min_pts):
    """Independent DBSCAN oracle with the documented deterministic order."""
    n = len(values)
    dist = 1.0 - values
    neigh = [
        [j for j in range(n)
         if not np.isnan(dist[i, j]) and dist[i, j] <= eps]
        for i in range(n)
    ]
    core = [len(neigh[i]) >= min_pts for i in range(n)]
    labels = [None] * n
    cid = 0
    for i in range(n):
        if labels[i] is not None:
            continue
        if not core[i]:
            labels[i] = NOISE
            continue
        labels[i] = cid
        queue = list(neigh[i])
        k = 0
        while k < len(queue):
            j = queue[k]
            k += 1
            if labels[j] == NOISE:
                labels[j] = cid
            if labels[j] is not None:
                continue
            labels[j] = cid
            if core[j]:
                queue.extend(neigh[j])
        cid += 1
    return labels


class TestCriterion3:
    def test_cluster_matches_reference_dbscan(self):
        rng = np.random.default_rng(303)
        bad = 0
        for trial in range(200):
            n = int(rng.integers(2, 13))
            values = rng.uniform(0.0, 1.0, size=(n, n))
            values = (values + values.T) / 2.0
            np.fill_diagonal(values, 1.0)
            mask = rng.random((n, n)) < 0.1
            mask = mask | mask.T
            np.fill_diagonal(mask, False)
            values[mask] = np.nan
            eps = float(rng.uniform(0.05, 0.5))
            min_pts = int(rng.integers(2, 6))
            matrix = SimilarityMatrix(tuple(range(n)), values)
            got = cluster(matrix, eps=eps, min_pts=min_pts)
            want = reference_dbscan(values, eps, min_pts)
            if [got.labels[i] for i in range(n)] != want:
                bad += 1
        assert verdict("3", bad == 0, f"{200 - bad}/200 instances match")


def _static_pair(offsets_b, pos_a=(0.0, 0.0, 0.0)):
    normal = np.array([0.0, 0.0, 1.0])
    frames = np.arange(len(offsets_b))
    return (
        FeatureTrajectory.from_arrays(0, frames, pos_a, normal),
        FeatureTrajectory.from_arrays(1, frames, offsets_b, normal),
    )


class TestCriterion4:
    def test_kernel_values(self):
        # constant offset: both points ride the same translation
        rng = np.random.default_rng(4)
        path = rng.uniform(-1, 1, size=(30, 3))
        normal = np.array([0.0, 0.0, 1.0])
        frames = np.arange(len(path))
        a = FeatureTrajectory.from_arrays(0, frames, path, normal)
        b = FeatureTrajectory.from_arrays(1, frames, path + [0.3, 0.1, -0.2], normal)
        exact = pair_similarity(a, b)
        ok = exact == 1.0

        # two-frame hand case: distances mean +/- 2 cm at gamma = 50 m^-2
        ta, tb = _static_pair([(0.10, 0.0, 0.0), (0.14, 0.0, 0.0)])
        params = SimilarityParams(min_overlap=2, combine="positional")
        hand = pair_similarity(ta, tb, params)
        ok = ok and abs(hand - np.exp(-0.02)) < 1e-12
        assert verdict(
            "4a", ok,
            f"constant offset L={exact!r}; hand case |L-exp(-0.02)|="
            f"{abs(hand - np.exp(-0.02)):.2e}",
        )

    def test_noise_scale_ratio(self):
        # Known RED: by Jensen's inequality the kernel mean at sigma =
        # 18 mm stays above ~exp(-2*50*0.018^2) = 0.968, so the ratio
        # against sigma = 1 mm is bounded near 1.03 for any geometry.
        rng = np.random.default_rng(44)
        params = SimilarityParams(min_overlap=10, combine="positional")

        def mean_similarity(sigma):
            vals = []
            for _ in range(20):
                base = np.tile([0.2, 0.0, 0.0], (200, 1))
                noisy = base + rng.normal(0.0, sigma, size=base.shape)
                ta, tb = _static_pair(noisy)
                vals.append(pair_similarity(ta, tb, params))
            return float(np.mean(vals))

        ratio = mean_similarity(0.001) / mean_similarity(0.018)
        assert verdict("4b", ratio > 1.5, f"ratio {ratio:.4f}, required > 1.5")


def brute_force_tree(ids, candidates):
    best_key, best = None, None
    for subset in itertools.combinations(candidates, len(ids) - 1):
        parent = {v: v for v in ids}

        def find(v):
            while parent[v] != v:
                v = parent[v]
            return v

        ok = True
        for _, a, b, _ in subset:
            ra, rb = find(a), find(b)
            if ra == rb:
                ok = False
                break
            parent[ra] = rb
        if not ok:
            continue
        key = tuple(sorted((c, a, b) for c, a, b, _ in subset))
        if best_key is None or key < best_key:
            best_key, best = key, subset
    return None if best is None else sorted((a, b) for _, a, b, _ in best)


class TestCriterion5:
    def test_mst_matches_exhaustive(self):
        rng = np.random.default_rng(505)
        bad = 0
        for trial in range(100):
            k = int(rng.integers(2, 6))
            ids = list(range(k))
            candidates = [
                (float(np.round(rng.uniform(-5, 5), 1)), a, b, None)
                for a, b in itertools.combinations(ids, 2)
            ]
            want = brute_force_tree(ids, candidates)
            got = minimum_spanning_tree(ids, candidates)
            if sorted((a, b) for a, b, _ in got) != want:
                bad += 1
        assert verdict("5", bad == 0, f"{100 - bad}/100 instances match")


# Seed-pinned regression value: min(rigid, revolute) - prismatic BIC on
# the 300-frame sigma = 5 mm drawer run below, recorded at first
# computation. Drift beyond the window means the fit changed materially.
PINNED_DRAWER_MARGIN = 1727.7


class TestCriterion6:
    def test_bic_prismatic_margin(self):
        spec = synth.default_specs()["drawer"].with_noise(sigma_pos=0.005)
        demo = synth.generate(spec, frames=300, seed=23)
        _, seqs, _ = run_pipeline(demo)
        by_id = {s.cluster_id: s for s in seqs}
        rel = relative_pose_sequence(by_id[1], by_id[0])
        bics = {
            "rigid": fit_rigid(rel).bic,
            "prismatic": fit_prismatic(rel).bic,
            "revolute": fit_revolute(rel).bic,
        }
        margin = min(bics["rigid"], bics["revolute"]) - bics["prismatic"]
        ok = margin > 10.0
        ok = ok and abs(margin - PINNED_DRAWER_MARGIN) < 0.5 * PINNED_DRAWER_MARGIN
        assert verdict("6", ok, f"margin {margin:.1f} (pinned {PINNED_DRAWER_MARGIN})")


class TestCriterion7:
    def test_smoothing_beats_chaining(self):
        # 21 frames, per-step rotation with injected bias drift, exact
        # anchors every 10 frames
        step = Pose.from_rotvec([0.0, 0.0, 0.05], [0.02, 0.0, 0.0])
        truth = [Pose.identity()]
        for _ in range(20):
            truth.append(compose(step, truth[-1]))
        drift = Pose.from_rotvec([0.0, 0.0, 0.01], [0.004, 0.0, 0.0])
        constraints = []
        for t in range(20):
            true_delta = compose(truth[t + 1], inverse(truth[t]))
            biased = compose(drift, true_delta)
            constraints.append(PoseConstraint(CONSECUTIVE, (t, t + 1), biased, 30.0))
        for t in (10, 20):
            exact = compose(truth[t], inverse(truth[t - 10]))
            constraints.append(PoseConstraint(SPARSE, (t - 10, t), exact, 30.0))
        chained = {0: Pose.identity()}
        for t in range(20):
            c = constraints[t]
            chained[t + 1] = compose(c.delta, chained[t])
        optimized = optimize(constraints, ClusterPoseSequence(0, dict(chained)))
        e_chain = sum(pose_distance(chained[20], truth[20]))
        e_opt = sum(pose_distance(optimized.poses[20], truth[20]))
        ok = e_opt < 0.5 * e_chain
        assert verdict("7", ok, f"endpoint error {e_opt:.4f} vs chained {e_chain:.4f}")


class TestCriterion8:
    def test_geometry_randomized_suite(self):
        rng = np.random.default_rng(808)
        n = 10_000
        worst = 0.0
        reflections = 0
        for _ in range(n):
            a, b, c = (
                Pose.from_rotvec(rng.uniform(-3, 3, 3), rng.uniform(-5, 5, 3))
                for _ in range(3)
            )
            d1, r1 = pose_distance(compose(compose(a, b), c),
                                   compose(a, compose(b, c)))
            # twist -> pose -> twist is identity on the principal domain
            w = rng.uniform(-1, 1, 3)
            w *= rng.uniform(0.0, np.pi * 0.999) / max(np.linalg.norm(w), 1e-12)
            tw = Twist(w, rng.uniform(-5, 5, 3))
            back = log_pose(exp_twist(tw))
            d2 = float(np.max(np.abs(back.vector() - tw.vector())))
            d2b, r2b = pose_distance(exp_twist(log_pose(b)), b)
            pts = rng.uniform(-1, 1, size=(6, 3))
            recovered = align_point_sets(
                pts, (pts @ a.rotation_matrix().T) + a.t
            )
            d3, r3 = pose_distance(recovered, a)
            if np.linalg.det(recovered.rotation_matrix()) < 0:
                reflections += 1
            worst = max(worst, d1, r1, d2, d2b, r2b, d3, r3)
        ok = worst < 1e-9 and reflections == 0
        assert verdict("8", ok, f"worst residual {worst:.2e}, "
                                f"{reflections} reflections in {n} cases")


class TestCriterion9:
    def test_cli_byte_identical(self, tmp_path, monkeypatch):
        def run_all(root):
            # run from inside the directory so the command lines (and any
            # paths echoed into artifacts) are identical across runs
            root.mkdir()
            monkeypatch.chdir(root)
            outputs = {}
            cmds = [
                ["generate", "--object", "door", "--frames", "80",
                 "--noise", "0.003", "--seed", "5", "-o", "door.traj"],
                ["segment", "door.traj", "--format", "csv",
                 "-o", "seg.csv", "--dump-similarity", "sim.csv"],
                ["learn", "door.traj", "--object", "door", "--seed", "5",
                 "-o", "door.db"],
                ["predict", "door.db", "--object", "door",
                 "--sweep", "0:1.5:0.1", "-o", "pred.csv"],
                ["eval", "door.db", "door.traj", "--object", "door",
                 "--seed", "5", "--format", "csv", "-o", "eval.csv"],
            ]
            stdout_log = []
            for cmd in cmds:
                out, err = io.StringIO(), io.StringIO()
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    code = cli_main(cmd, stdout=out, stderr=err)
                assert code == 0, (cmd, err.getvalue())
                stdout_log.append(out.getvalue())
            for f in sorted(root.iterdir()):
                outputs[f.name] = f.read_bytes()
            outputs["__stdout__"] = "".join(stdout_log).encode()
            return outputs

        first = run_all(tmp_path / "a")
        second = run_all(tmp_path / "b")
        same = set(first) == set(second) and all(
            first[k] == second[k] for k in first
        )
        assert verdict("9", same,
                       f"{len(first) - 1} artifacts + stdout byte-identical")
