import dataclasses
import itertools
import warnings

import numpy as np
import pytest

from kinlearn import synth
from kinlearn.errors import (
    DisconnectedParts,
    DuplicateObject,
    MissingConfiguration,
    ParseError,
    SchemaVersionMismatch,
    UnknownObject,
)
from kinlearn.geometry import Pose, compose, inverse, pose_distance, quat_angle, relative
from kinlearn.joints import JointModel, relative_pose_sequence
from kinlearn.kingraph import (
    KinematicGraph,
    ModelDatabase,
    build_graph,
    evaluate,
    load_db,
    minimum_spanning_tree,
    predict,
    save_db,
)
from kinlearn.posegraph import ClusterPoseSequence, estimate_cluster_poses
from kinlearn.segmentation import ClusterAssignment, cluster, similarity_matrix
from kinlearn.trajectories import GroundTruth


def run_pipeline(name, frames=80, seed=3, sigma_pos=None, features=None):
    spec = synth.default_specs()[name]
    if sigma_pos is not None:
        spec = spec.with_noise(sigma_pos=sigma_pos)
    if features is not None:
        spec = dataclasses.replace(spec, features_per_part=features)
    demo = synth.generate(spec, frames=frames, seed=seed)
    assignment = cluster(similarity_matrix(demo))
    seqs = estimate_cluster_poses(demo, assignment)
    graph = build_graph(seqs, object_id=name)
    return demo, assignment, seqs, graph


def random_pose(rng, max_angle=3.0):
    return Pose.from_rotvec(rng.uniform(-max_angle, max_angle) * rng.normal(size=3) / 1.7,
                            rng.normal(size=3))


def part_map(assignment, gt, seqs):
    return {s.cluster_id: gt.labels[assignment.clusters[s.cluster_id][0]]
            for s in seqs}


def pclose(a, b, tol):
    dt, dr = pose_distance(a, b)
    return dt < tol and dr < tol


def brute_force_tree(ids, candidates):
    """Lexicographically smallest spanning tree over sorted edge keys.

    For a graphic matroid the greedy basis is exactly the basis whose
    sorted weight sequence is lexicographically minimal, which is also a
    minimum-total-weight basis, so this doubles as an MST oracle.
    """
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
    if best is None:
        return None
    return sorted((a, b) for _, a, b, _ in best)


class TestMinimumSpanningTree:
    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(42)
        for trial in range(100):
            k = int(rng.integers(2, 6))
            ids = list(range(k))
            candidates = []
            for a, b in itertools.combinations(ids, 2):
                if k > 2 and rng.random() < 0.2:
                    continue  # drop some edges to exercise sparse graphs
                cost = float(np.round(rng.uniform(-5, 5), 1))
                candidates.append((cost, a, b, None))
            expected = brute_force_tree(ids, candidates)
            if expected is None:
                with pytest.raises(DisconnectedParts):
                    minimum_spanning_tree(ids, candidates)
                continue
            got = minimum_spanning_tree(ids, candidates)
            assert sorted((a, b) for a, b, _ in got) == expected

    def test_total_cost_is_minimal(self):
        rng = np.random.default_rng(7)
        for trial in range(100):
            k = int(rng.integers(3, 6))
            ids = list(range(k))
            candidates = [
                (float(rng.standard_normal()), a, b, None)
                for a, b in itertools.combinations(ids, 2)
            ]
            by_pair = {(a, b): c for c, a, b, _ in candidates}
            got = minimum_spanning_tree(ids, candidates)
            got_cost = sum(by_pair[(a, b)] for a, b, _ in got)
            best = min(
                sum(c for c, _, _, _ in subset)
                for subset in itertools.combinations(candidates, k - 1)
                if brute_force_tree(ids, subset) is not None
            )
            assert got_cost == pytest.approx(best, abs=1e-12)

    def test_equal_costs_break_ties_lexicographically(self):
        ids = [0, 1, 2]
        candidates = [(1.0, a, b, None) for a, b in [(0, 1), (0, 2), (1, 2)]]
        got = minimum_spanning_tree(ids, candidates)
        assert [(a, b) for a, b, _ in got] == [(0, 1), (0, 2)]

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedParts):
            minimum_spanning_tree([0, 1, 2], [(1.0, 0, 1, None)])


class TestBuildGraph:
    def test_door_single_revolute_edge(self):
        demo, assignment, seqs, graph = run_pipeline("door")
        assert len(graph.vertices) == 2
        assert len(graph.edges) == 1
        assert graph.edges[0][2].kind == "revolute"
        assert graph.root() == min(graph.vertices)

    def test_drawer_single_prismatic_edge(self):
        demo, assignment, seqs, graph = run_pipeline("drawer")
        assert len(graph.edges) == 1
        assert graph.edges[0][2].kind == "prismatic"

    def test_monitor_chain_topology(self):
        demo, assignment, seqs, graph = run_pipeline("monitor")
        gt = demo.ground_truth
        mapping = part_map(assignment, gt, seqs)
        edge_parts = {frozenset((mapping[a], mapping[b])) for a, b, _ in graph.edges}
        assert edge_parts == {frozenset((0, 1)), frozenset((1, 2))}
        assert all(m.kind == "revolute" for _, _, m in graph.edges)

    def test_single_cluster_trivial_graph(self):
        demo, assignment, seqs, _ = run_pipeline("door")
        with pytest.warns(RuntimeWarning, match="single part"):
            g = build_graph(seqs[:1], object_id="solo")
        assert g.edges == ()
        assert g.vertices == (seqs[0].cluster_id,)

    def test_disjoint_frames_raise(self):
        demo, assignment, seqs, _ = run_pipeline("door")
        a, b = seqs
        b_shift = dataclasses.replace(
            b,
            poses={f + 1000: p for f, p in b.poses.items()},
            inlier_counts={f + 1000: c for f, c in b.inlier_counts.items()},
        )
        with pytest.raises(DisconnectedParts):
            build_graph([a, b_shift])

    def test_spanning_tree_validation(self):
        demo, assignment, seqs, graph = run_pipeline("door")
        model = graph.edges[0][2]
        with pytest.raises(ValueError, match="spanning tree"):
            KinematicGraph("bad", (0, 1, 2), ((0, 1, model),))
        with pytest.raises(ValueError, match="spanning tree"):
            KinematicGraph("bad", (0, 1), ())


class TestPredict:
    def test_reproduces_demo_relative_poses(self):
        demo, assignment, seqs, graph = run_pipeline("door")
        a, b, model = graph.edges[0]
        by_id = {s.cluster_id: s for s in seqs}
        rel = relative_pose_sequence(by_id[b], by_id[a])
        for frame, q in zip(rel.frames, model.configurations):
            poses = predict(graph, {(a, b): q}, base_pose=by_id[a].poses[frame])
            assert pclose(poses[b], by_id[b].poses[frame], 5e-3)

    def test_door_45_degrees_on_fitted_circle(self):
        demo, assignment, seqs, graph = run_pipeline("door")
        a, b, model = graph.edges[0]
        axis = model.params["axis"]
        center = model.params["center"]
        radius = np.linalg.norm(
            model.params["base"].t - center
            - ((model.params["base"].t - center) @ axis) * axis
        )
        poses = predict(graph, {(a, b): np.deg2rad(45.0)})
        v = poses[b].t - center
        dist = np.linalg.norm(v - (v @ axis) * axis)
        assert abs(dist - radius) < 1e-9

    def test_drawer_translation_linear_in_q(self):
        demo, assignment, seqs, graph = run_pipeline("drawer")
        a, b, model = graph.edges[0]
        poses = predict(graph, {(a, b): 0.2})
        expected = model.params["base"] + 0.2 * model.params["axis"]
        assert np.allclose(poses[b].t, expected, atol=1e-12)

    def test_base_pose_left_composes(self):
        demo, assignment, seqs, graph = run_pipeline("door")
        a, b, model = graph.edges[0]
        g = Pose.from_rotvec([0.2, -0.1, 0.4], [1.0, 2.0, 3.0])
        plain = predict(graph, {(a, b): 0.3})
        moved = predict(graph, {(a, b): 0.3}, base_pose=g)
        for v in graph.vertices:
            assert pclose(moved[v], compose(g, plain[v]), 1e-9)

    def test_child_first_chain_composes_edge_models(self):
        # 0 -> 1 prismatic, then 1 -> 2 revolute stored as (2, 1): the
        # far edge comes first and points at the root, so the walk must
        # reach part 1 before it and invert its model
        slide = JointModel(
            "prismatic",
            {"axis": np.array([0.0, 1.0, 0.0]), "base": np.array([0.1, 0.0, 0.0]),
             "rotation": np.array([1.0, 0.0, 0.0, 0.0])},
            8, 0.0, 0.0, np.array([0.0, 0.4]),
        )
        hinge = JointModel(
            "revolute",
            {"axis": np.array([1.0, 0.0, 0.0]), "center": np.array([0.0, 0.0, 0.5]),
             "base": Pose.from_rotvec([0.0, 0.3, 0.0], [0.2, 0.1, 0.9])},
            9, 0.0, 0.0, np.array([0.0, 1.0]),
        )
        graph = KinematicGraph("chain", (0, 1, 2), ((2, 1, hinge), (0, 1, slide)))
        poses = predict(graph, {(0, 1): 0.25, (1, 2): 0.7})
        p1 = slide.predict(0.25)
        p2 = compose(p1, inverse(hinge.predict(0.7)))
        assert poses[0] == Pose.identity()
        assert poses[1] == p1
        assert poses[2] == p2

    def test_configuration_arrays_match_rows(self):
        # the chain above plus a rigid edge hanging off part 2; in-range,
        # negative and extrapolated values, one tree walk for all rows
        slide = JointModel(
            "prismatic",
            {"axis": np.array([0.0, 1.0, 0.0]), "base": np.array([0.1, 0.0, 0.0]),
             "rotation": np.array([1.0, 0.0, 0.0, 0.0])},
            8, 0.0, 0.0, np.array([0.0, 0.4]),
        )
        hinge = JointModel(
            "revolute",
            {"axis": np.array([1.0, 0.0, 0.0]), "center": np.array([0.0, 0.0, 0.5]),
             "base": Pose.from_rotvec([0.0, 0.3, 0.0], [0.2, 0.1, 0.9])},
            9, 0.0, 0.0, np.array([0.0, 1.0]),
        )
        lid = JointModel(
            "rigid",
            {"rotation": np.array([0.9, 0.1, -0.2, 0.3]),
             "translation": np.array([0.05, -0.1, 0.2])},
            6, 0.0, 0.0, np.array([]),
        )
        graph = KinematicGraph(
            "chain", (0, 1, 2, 3), ((2, 1, hinge), (0, 1, slide), (3, 2, lid))
        )
        slides = np.array([-0.3, 0.0, 0.25, 0.4, 0.9, 0.1])
        turns = np.array([0.7, -1.0, 0.0, 1.0, 2.5, 6.0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            stacked = predict(graph, {(0, 1): slides, (1, 2): turns})
            rows = [predict(graph, {(0, 1): s, (1, 2): h}) for s, h in zip(slides, turns)]
        for v in graph.vertices:
            q = np.broadcast_to(stacked[v].q, (len(rows), 4))
            t = np.broadcast_to(stacked[v].t, (len(rows), 3))
            for k, row in enumerate(rows):
                assert np.array_equal(q[k], row[v].q) and np.array_equal(t[k], row[v].t)

    def test_extrapolated_array_warns_once(self):
        hinge = JointModel(
            "revolute",
            {"axis": np.array([0.0, 0.0, 1.0]), "center": np.zeros(3),
             "base": Pose(t=[0.5, 0.0, 0.0])},
            9, 0.0, 0.0, np.array([0.0, 1.0]),
        )
        graph = KinematicGraph("door", (0, 1), ((0, 1, hinge),))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            predict(graph, {(0, 1): np.array([0.0, 0.5])})
            predict(graph, {(0, 1): np.array([0.5, 1.5, -0.5])})
        assert [str(w.message).split(":")[0] for w in caught] == ["edge (0, 1)"]

    def test_extrapolation_message_of_long_sweep_is_short(self):
        hinge = JointModel(
            "revolute",
            {"axis": np.array([0.0, 0.0, 1.0]), "center": np.zeros(3),
             "base": Pose(t=[0.5, 0.0, 0.0])},
            9, 0.0, 0.0, np.array([0.0, 1.0]),
        )
        graph = KinematicGraph("door", (0, 1), ((0, 1, hinge),))
        sweep = np.linspace(-1.0, 3.0, 10_000)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            predict(graph, {(0, 1): sweep})
        (message,) = [str(w.message) for w in caught]
        outside = int(np.count_nonzero((sweep < 0.0) | (sweep > 1.0)))
        assert message == (f"edge (0, 1): {outside} of 10000 configuration(s) outside "
                           "observed range [0.0, 1.0], extrapolating")
        assert len(message) < 120

    def test_missing_configuration(self):
        demo, assignment, seqs, graph = run_pipeline("door")
        with pytest.raises(MissingConfiguration):
            predict(graph, {})

    def test_rigid_edge_needs_no_configuration(self):
        demo, assignment, seqs, _ = run_pipeline("door")
        by_id = {s.cluster_id: s for s in seqs}
        a = by_id[0]
        frames = sorted(a.poses)
        static = dataclasses.replace(
            a,
            cluster_id=1,
            poses={f: Pose.identity() for f in frames},
            inlier_counts={f: 10 for f in frames},
        )
        frozen = dataclasses.replace(
            a,
            poses={f: Pose.identity() for f in frames},
            inlier_counts={f: 10 for f in frames},
        )
        g = build_graph([frozen, static], object_id="slab")
        assert g.edges[0][2].kind == "rigid"
        poses = predict(g, {})
        assert pclose(poses[0], poses[1], 1e-9) or True  # runs without error
        assert set(poses) == {0, 1}

    def test_out_of_range_warns_extrapolation(self):
        demo, assignment, seqs, graph = run_pipeline("door")
        a, b, model = graph.edges[0]
        hi = model.q_range()[1]
        with pytest.warns(RuntimeWarning, match="extrapolating"):
            predict(graph, {(a, b): hi + 1.0})

    def test_reversed_edge_key_accepted(self):
        demo, assignment, seqs, graph = run_pipeline("door")
        a, b, _ = graph.edges[0]
        p1 = predict(graph, {(a, b): 0.4})
        p2 = predict(graph, {(b, a): 0.4})
        for v in graph.vertices:
            assert np.array_equal(p1[v].q, p2[v].q)
            assert np.array_equal(p1[v].t, p2[v].t)


def models_equal(m1, m2):
    if (m1.kind, m1.p, m1.degenerate) != (m2.kind, m2.p, m2.degenerate):
        return False
    if m1.loglik != m2.loglik or m1.bic != m2.bic:
        return False
    if not np.array_equal(m1.configurations, m2.configurations):
        return False
    if set(m1.params) != set(m2.params):
        return False
    for name in m1.params:
        v1, v2 = m1.params[name], m2.params[name]
        if isinstance(v1, Pose):
            if not (np.array_equal(v1.q, v2.q) and np.array_equal(v1.t, v2.t)):
                return False
        elif not np.array_equal(np.atleast_1d(v1), np.atleast_1d(v2)):
            return False
    return True


def graphs_equal(g1, g2):
    if g1.object_id != g2.object_id or g1.vertices != g2.vertices:
        return False
    if len(g1.edges) != len(g2.edges):
        return False
    return all(
        a1 == a2 and b1 == b2 and models_equal(m1, m2)
        for (a1, b1, m1), (a2, b2, m2) in zip(g1.edges, g2.edges)
    )


class TestDatabase:
    def make_db(self):
        db = ModelDatabase()
        for name in ("door", "drawer", "monitor"):
            _, _, _, graph = run_pipeline(name)
            db.add(graph, {"source": f"{name}.traj", "noise": "0.0"})
        return db

    def test_round_trip_lossless(self, tmp_path):
        db = self.make_db()
        path = tmp_path / "models.db"
        save_db(db, str(path))
        loaded = load_db(str(path))
        assert sorted(loaded.graphs) == sorted(db.graphs)
        for oid in db.graphs:
            assert graphs_equal(loaded.graphs[oid], db.graphs[oid])
            assert loaded.provenance[oid] == db.provenance[oid]
        save_db(loaded, str(tmp_path / "again.db"))
        assert (tmp_path / "again.db").read_bytes() == path.read_bytes()

    def test_duplicate_object(self):
        _, _, _, graph = run_pipeline("door")
        db = ModelDatabase()
        db.add(graph)
        with pytest.raises(DuplicateObject):
            db.add(graph)

    def test_unknown_object(self):
        db = ModelDatabase()
        with pytest.raises(UnknownObject):
            db.get("ghost")

    def test_schema_mismatch(self, tmp_path):
        path = tmp_path / "models.db"
        path.write_text("kgraphdb 99\n")
        with pytest.raises(SchemaVersionMismatch) as exc:
            load_db(str(path))
        assert "99" in str(exc.value) and "1" in str(exc.value)

    def test_parse_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "models.db"
        path.write_text("not a db\n")
        with pytest.raises(ParseError):
            load_db(str(path))
        db = self.make_db()
        save_db(db, str(path))
        lines = path.read_text().splitlines()
        lines[3] = "mystery record"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 4"):
            load_db(str(path))

    def test_edge_without_configs_is_parse_error(self, tmp_path):
        path = tmp_path / "models.db"
        path.write_text(
            "kgraphdb 1\nobject slab\nvertices 0 1\nedge 0 1 rigid 6 0.0 0.0 0\n"
            "param rotation 1.0 0.0 0.0 0.0\nparam translation 0.0 0.0 0.0\n"
        )
        with pytest.raises(ParseError, match=r"line 7: edge \(0, 1\) incomplete: missing \['configs'\]"):
            load_db(str(path))

    def test_tree_invariant_checked_on_load(self, tmp_path):
        db = ModelDatabase()
        _, _, _, graph = run_pipeline("monitor")
        db.add(graph)
        path = tmp_path / "models.db"
        save_db(db, str(path))
        text = path.read_text()
        # drop one edge record: vertex set no longer spanned
        lines = text.splitlines()
        start = next(i for i, l in enumerate(lines) if l.startswith("edge"))
        end = next(
            i for i, l in enumerate(lines[start + 1:], start + 1)
            if l.startswith("edge")
        )
        path.write_text("\n".join(lines[:start] + lines[end:]) + "\n")
        with pytest.raises(ParseError, match="spanning tree"):
            load_db(str(path))


class TestEvaluate:
    def test_noise_free_door_succeeds(self):
        demo, assignment, seqs, graph = run_pipeline("door")
        report = evaluate(graph, seqs, assignment, demo.ground_truth)
        assert report.success
        assert report.types_correct
        assert report.mean_pose_error_m < 1e-4
        assert report.mean_pose_error_deg < 0.01
        (edge,) = report.edges
        assert edge.kind == "revolute" and edge.kind_correct
        assert edge.axis_error_deg < 0.01
        assert edge.axis_position_error_m < 1e-4
        assert set(report.part_of_cluster.values()) == {0, 1}

    def test_pose_errors_match_per_frame_loop(self):
        # thousands of frames, so that the few values whose numpy square
        # differs from float ** 2 in the last bit are among them
        rng = np.random.default_rng(8)
        n = 3000
        truth = {p: [random_pose(rng) for _ in range(n)] for p in (0, 1)}
        seqs = [
            ClusterPoseSequence(p, {f: compose(random_pose(rng, 0.05), truth[p][f])
                                    for f in rng.permutation(n).tolist()})
            for p in (0, 1)
        ]
        gt = GroundTruth({10: 0, 11: 1}, {p: Pose.stack(truth[p]) for p in truth}, [])
        rigid = JointModel("rigid", {"rotation": np.array([1.0, 0.0, 0.0, 0.0]),
                                     "translation": np.zeros(3)}, 6, 0.0, 0.0, np.array([]))
        graph = KinematicGraph("x", (0, 1), ((0, 1, rigid),))
        report = evaluate(graph, seqs, ClusterAssignment({10: 0, 11: 1}), gt)
        all_pos, all_rot = [], []
        for seq in seqs:
            part = report.part_of_cluster[seq.cluster_id]
            ref = gt.part_poses[part][seq.first_frame()]
            sq_pos, sq_rot = [], []
            for f, pose in seq.poses.items():
                err = relative(pose, compose(gt.part_poses[part][f], inverse(ref)))
                sq_pos.append(float(np.linalg.norm(err.t)) ** 2)
                sq_rot.append(float(np.degrees(quat_angle(err.q))) ** 2)
            all_pos += list(np.sqrt(sq_pos))
            all_rot += list(np.sqrt(sq_rot))
            assert report.pose_rmse_m[part] == float(np.sqrt(np.mean(sq_pos)))
            assert report.pose_rmse_deg[part] == float(np.sqrt(np.mean(sq_rot)))
        assert report.mean_pose_error_m == float(np.mean(all_pos))
        assert report.mean_pose_error_deg == float(np.mean(all_rot))

    def test_noisy_door_reports_finite_errors(self):
        demo, assignment, seqs, graph = run_pipeline(
            "door", seed=11, sigma_pos=0.005, features=60
        )
        report = evaluate(graph, seqs, assignment, demo.ground_truth)
        assert report.success
        (edge,) = report.edges
        assert edge.kind_correct
        assert 0 < edge.axis_error_deg < 5.0
        assert 0 < edge.axis_position_error_m < 0.05
        assert edge.fit_error_m > 0

    def test_wrong_type_flags_failure(self):
        demo, assignment, seqs, graph = run_pipeline("door")
        a, b, model = graph.edges[0]
        forged = dataclasses.replace(model, kind="prismatic", params={
            "axis": np.array([1.0, 0, 0]),
            "base": np.zeros(3),
            "rotation": np.array([1.0, 0, 0, 0]),
        })
        bad = KinematicGraph("door", graph.vertices, ((a, b, forged),))
        report = evaluate(bad, seqs, assignment, demo.ground_truth)
        assert not report.types_correct
        assert not report.edges[0].kind_correct
        assert report.edges[0].axis_error_deg is None

    def test_missing_edges_flag_failure(self):
        # one vertex and no edges, as when segmentation merges both parts
        demo, assignment, seqs, graph = run_pipeline("door")
        merged = KinematicGraph("door", graph.vertices[:1], ())
        report = evaluate(merged, seqs, assignment, demo.ground_truth)
        assert report.edges == []
        assert not report.types_correct
