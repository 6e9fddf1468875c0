import numpy as np
import pytest

from kinlearn import synth
from kinlearn.errors import EmptyInput
from kinlearn.geometry import (
    Pose,
    apply_pose,
    compose,
    inverse,
    quat_angle,
    quat_conj,
    quat_from_rotvec,
    quat_mul,
    quat_rotate,
    quat_to_rotvec,
)
from kinlearn.joints import (
    JointModel,
    NoiseModel,
    RelativePoseSequence,
    _plane_basis,
    fit_prismatic,
    fit_revolute,
    fit_rigid,
    loglik,
    model_fit_error,
    relative_pose_sequence,
    select_model,
)
from kinlearn.posegraph import estimate_cluster_poses
from kinlearn.segmentation import cluster, similarity_matrix


def make_seq(deltas, frames=None, pair=(1, 0)):
    if frames is None:
        frames = tuple(range(len(deltas)))
    return RelativePoseSequence(pair, tuple(frames), Pose.stack(deltas))


def conjugate(pose, g):
    return compose(g, compose(pose, inverse(g)))


def prismatic_seq(n=20, axis=(1.0, 0.0, 0.0), extent=0.4, rot=None):
    axis = np.asarray(axis, dtype=float)
    rot = np.array([1.0, 0, 0, 0]) if rot is None else rot
    qs = np.linspace(0.0, extent, n)
    return make_seq([Pose(rot, q * axis + [0.0, 0.2, 0.1]) for q in qs]), qs


def revolute_seq(n=20, axis=(0.0, 0.0, 1.0), center=(0.0, 0.0, 0.0),
                 base=None, span=np.pi / 2):
    axis = np.asarray(axis, dtype=float)
    center = np.asarray(center, dtype=float)
    if base is None:
        base = Pose(np.array([1.0, 0, 0, 0]), np.array([0.5, 0.0, 0.0]) + center)
    qs = np.linspace(0.0, span, n)
    deltas = [compose(Pose.rot_about_line(axis, center, q), base) for q in qs]
    return make_seq(deltas), qs


def pipeline_relative(demo):
    assignment = cluster(similarity_matrix(demo))
    seqs = estimate_cluster_poses(demo, assignment)
    assert len(seqs) == 2
    gt = demo.ground_truth
    by_part = {gt.labels[assignment.clusters[s.cluster_id][0]]: s for s in seqs}
    return relative_pose_sequence(by_part[1], by_part[0]), demo.ground_truth


class TestFitRigid:
    def test_constant_delta(self):
        d = Pose.from_rotvec([0.1, 0.2, 0.3], [0.4, 0.5, 0.6])
        seq = make_seq([d] * 10)
        m = fit_rigid(seq)
        assert np.allclose(m.params["rotation"], d.q, atol=1e-12)
        assert np.allclose(m.params["translation"], d.t, atol=1e-12)
        ep, er = model_fit_error(m, seq)
        assert ep < 1e-12 and er < 1e-12
        assert m.p == 6

    def test_mean_translation(self):
        q = np.array([1.0, 0, 0, 0])
        seq = make_seq([Pose(q, [0.0, 0, 0]), Pose(q, [0.02, 0, 0])])
        m = fit_rigid(seq)
        assert np.allclose(m.params["translation"], [0.01, 0, 0], atol=1e-15)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            make_seq([])

    def test_frames_and_deltas_of_unequal_length(self):
        d = Pose.from_rotvec([0.1, 0.2, 0.3], [0.4, 0.5, 0.6])
        with pytest.raises(ValueError):
            make_seq([d] * 10, frames=range(9))
        with pytest.raises(ValueError):
            RelativePoseSequence((1, 0), (0,), d)  # one pose, not a stack


class TestFitPrismatic:
    def test_exact_line(self):
        seq, qs = prismatic_seq()
        m = fit_prismatic(seq)
        assert min(
            np.linalg.norm(m.params["axis"] - [1, 0, 0]),
            np.linalg.norm(m.params["axis"] + [1, 0, 0]),
        ) < 1e-9
        assert abs(np.ptp(m.configurations) - 0.4) < 1e-9
        assert m.configurations[0] == 0.0
        assert m.p == 8
        assert not m.degenerate

    def test_axis_sign_net_displacement(self):
        seq, _ = prismatic_seq()
        m = fit_prismatic(seq)
        assert (seq.deltas[-1].t - seq.deltas[0].t) @ m.params["axis"] >= 0

    def test_rotation_equivariance(self):
        seq, _ = prismatic_seq()
        g = Pose.from_rotvec([0.3, -0.7, 0.5], [0.0, 0.0, 0.0])
        seq2 = make_seq([conjugate(d, g) for d in seq.deltas])
        m1 = fit_prismatic(seq)
        m2 = fit_prismatic(seq2)
        expected = quat_rotate(g.q, m1.params["axis"])
        assert np.linalg.norm(m2.params["axis"] - expected) < 1e-9
        assert np.allclose(m2.configurations, m1.configurations, atol=1e-9)

    def test_degenerate_flag(self):
        seq, _ = prismatic_seq(extent=5e-4)
        assert fit_prismatic(seq).degenerate

    def test_noisy_drawer_axis(self):
        # regression: measured 0.45 deg on this seed; pose drift dominates
        import dataclasses

        spec = synth.default_specs()["drawer"].with_noise(sigma_pos=0.005)
        spec = dataclasses.replace(spec, features_per_part=60)
        demo = synth.generate(spec, frames=120, seed=21)
        rel, gt = pipeline_relative(demo)
        m = fit_prismatic(rel)
        true_axis = gt.joints[0].axis
        cosang = abs(float(m.params["axis"] @ true_axis))
        assert np.degrees(np.arccos(np.clip(cosang, -1, 1))) < 2.0


def circumcircle(p1, p2, p3):
    """Closed-form circumscribed circle of three planar points."""
    ax, ay = p1
    bx, by = p2
    cx, cy = p3
    d = 2 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    ux = ((ax**2 + ay**2) * (by - cy) + (bx**2 + by**2) * (cy - ay)
          + (cx**2 + cy**2) * (ay - by)) / d
    uy = ((ax**2 + ay**2) * (cx - bx) + (bx**2 + by**2) * (ax - cx)
          + (cx**2 + cy**2) * (bx - ax)) / d
    r = np.hypot(ax - ux, ay - uy)
    return np.array([ux, uy]), r


class TestFitRevolute:
    def test_exact_circle(self):
        seq, qs = revolute_seq(n=20)
        m = fit_revolute(seq)
        axis = m.params["axis"]
        assert min(np.linalg.norm(axis - [0, 0, 1]), np.linalg.norm(axis + [0, 0, 1])) < 1e-9
        # center lies on the true rotation line (z axis)
        c = m.params["center"]
        assert np.hypot(c[0], c[1]) < 1e-6
        assert np.allclose(m.configurations, np.linspace(0, np.pi / 2, 20), atol=1e-9)
        assert m.p == 9
        assert not m.degenerate

    def test_three_point_circumcircle(self):
        center = np.array([0.3, -0.2, 0.0])
        seq, qs = revolute_seq(n=3, center=center, span=np.deg2rad(70.0))
        m = fit_revolute(seq)
        pts = np.array([[d.t[0], d.t[1]] for d in seq.deltas])
        oracle_c, oracle_r = circumcircle(*pts)
        # fitted center must match the circumscribed circle of the 3 points
        fit_c = m.params["center"][:2]
        assert np.linalg.norm(fit_c - oracle_c) < 1e-9
        assert abs(oracle_r - 0.5) < 1e-9

    def test_axis_through_origin_zero_radius(self):
        # translations collapse to a point: q must come from the rotations
        base = Pose(np.array([1.0, 0, 0, 0]), np.zeros(3))
        seq, qs = revolute_seq(base=base)
        m = fit_revolute(seq)
        assert np.allclose(m.configurations, qs, atol=1e-9)
        assert model_fit_error(m, seq)[0] < 1e-9

    def test_equivariance(self):
        seq, qs = revolute_seq(center=(0.2, 0.1, 0.0))
        g = Pose.from_rotvec([0.2, 0.4, -0.3], [1.0, -0.5, 0.8])
        seq2 = make_seq([conjugate(d, g) for d in seq.deltas])
        m1 = fit_revolute(seq)
        m2 = fit_revolute(seq2)
        assert np.linalg.norm(m2.params["axis"] - quat_rotate(g.q, m1.params["axis"])) < 1e-6
        # transformed center must lie on the fitted line
        c_true = apply_pose(g, m1.params["center"])
        off = c_true - m2.params["center"]
        perp = off - (off @ m2.params["axis"]) * m2.params["axis"]
        assert np.linalg.norm(perp) < 1e-6
        assert np.allclose(m2.configurations, m1.configurations, atol=1e-6)
        assert abs(loglik(m1, seq) - loglik(m2, seq2)) < 1e-6

    def test_degenerate_small_span(self):
        seq, _ = revolute_seq(span=np.deg2rad(2.0))
        assert fit_revolute(seq).degenerate

    def test_noisy_door_axis(self):
        # regression: measured 0.13 deg / 0.5 cm on this seed
        import dataclasses

        spec = synth.default_specs()["door"].with_noise(sigma_pos=0.005)
        spec = dataclasses.replace(spec, features_per_part=60)
        demo = synth.generate(spec, frames=120, seed=21)
        rel, gt = pipeline_relative(demo)
        m = fit_revolute(rel)
        true_axis = gt.joints[0].axis
        cosang = abs(float(m.params["axis"] @ true_axis))
        assert np.degrees(np.arccos(np.clip(cosang, -1, 1))) < 2.0
        # line-to-line distance between fitted and true axes
        off = m.params["center"] - gt.joints[0].origin
        cross = np.cross(m.params["axis"], true_axis)
        if np.linalg.norm(cross) > 1e-9:
            dist = abs(off @ cross) / np.linalg.norm(cross)
        else:
            dist = np.linalg.norm(off - (off @ true_axis) * true_axis)
        assert dist < 0.02


class TestLoglik:
    def test_zero_residual_closed_form(self):
        d = Pose.from_rotvec([0.0, 0.0, 0.1], [0.1, 0.0, 0.0])
        n = 12
        seq = make_seq([d] * n)
        m = fit_rigid(seq)
        noise = NoiseModel()
        expected = n * (
            -0.5 * np.log(2 * np.pi * noise.sigma_pos**2)
            - 0.5 * np.log(2 * np.pi * noise.sigma_rot**2)
        )
        assert abs(loglik(m, seq, noise) - expected) < 1e-9

    def test_monotone_in_residual(self):
        d = Pose(np.array([1.0, 0, 0, 0]), np.zeros(3))
        m = fit_rigid(make_seq([d] * 5))
        small = make_seq([d] * 4 + [Pose(d.q, [0.01, 0, 0])])
        big = make_seq([d] * 4 + [Pose(d.q, [0.02, 0, 0])])
        assert loglik(m, big) < loglik(m, small) < loglik(m, make_seq([d] * 5))

    def test_revolute_beats_rigid_on_turning_data(self):
        seq, _ = revolute_seq(n=300)
        lr = fit_rigid(seq).loglik
        lv = fit_revolute(seq).loglik
        assert lv - lr > 100.0


class TestSelectModel:
    def test_static_pair_rigid(self):
        rng = np.random.default_rng(22)
        d = Pose.from_rotvec([0.0, 0.0, 0.2], [0.3, 0.0, 0.0])
        deltas = [
            Pose(d.q, d.t + rng.normal(0, 0.001, 3)) for _ in range(50)
        ]
        assert select_model(make_seq(deltas)).kind == "rigid"

    def test_drawer_prismatic_with_margin(self):
        from kinlearn.joints import fit_prismatic, fit_revolute, fit_rigid

        spec = synth.default_specs()["drawer"].with_noise(sigma_pos=0.005)
        demo = synth.generate(spec, frames=300, seed=23)
        rel, _ = pipeline_relative(demo)
        models = {m.kind: m for m in
                  (fit_rigid(rel), fit_prismatic(rel), fit_revolute(rel))}
        winner = select_model(rel)
        assert winner.kind == "prismatic"
        margin_rigid = models["rigid"].bic - models["prismatic"].bic
        margin_rev = models["revolute"].bic - models["prismatic"].bic
        assert margin_rigid > 10.0
        assert margin_rev > 10.0

    def test_door_revolute(self):
        spec = synth.default_specs()["door"].with_noise(sigma_pos=0.005)
        demo = synth.generate(spec, frames=120, seed=24)
        rel, _ = pipeline_relative(demo)
        assert select_model(rel).kind == "revolute"

    def test_bic_consistency_with_n(self):
        diffs = []
        for n in (30, 100, 300):
            seq, _ = prismatic_seq(n=n)
            mp = fit_prismatic(seq)
            mr = fit_rigid(seq)
            diffs.append(mp.bic - mr.bic)
        assert diffs[0] > diffs[1] > diffs[2]

    def test_zero_motion_loses_to_rigid(self):
        d = Pose.from_rotvec([0.0, 0.1, 0.0], [0.2, 0.0, 0.0])
        seq = make_seq([d] * 30)
        winner = select_model(seq)
        assert winner.kind == "rigid"
        assert fit_prismatic(seq).degenerate
        assert fit_revolute(seq).degenerate

    @pytest.mark.parametrize("kind", ["rigid", "prismatic", "revolute"])
    def test_bics_are_the_candidate_fits(self, kind):
        rng = np.random.default_rng(27)
        d = Pose.from_rotvec([0.0, 0.0, 0.2], [0.3, 0.0, 0.0])
        clean = {
            "rigid": make_seq([d] * 30),
            "prismatic": prismatic_seq(n=30)[0],
            "revolute": revolute_seq(n=30)[0],
        }[kind]
        seq = make_seq([Pose(p.q, p.t + rng.normal(0, 0.001, 3)) for p in clean.deltas])
        noise = NoiseModel(sigma_pos=0.02, sigma_rot=0.05)
        winner = select_model(seq, noise)
        assert winner.kind == kind
        fits = {"rigid": fit_rigid, "prismatic": fit_prismatic, "revolute": fit_revolute}
        expected = {k: fit(seq, noise).bic for k, fit in fits.items()}
        assert list(winner.bics) == list(expected)
        assert all(winner.bics[k].tobytes() == expected[k].tobytes() for k in expected)
        assert winner.bic == winner.bics[kind]

    def test_noise_free_catalog_types(self):
        expected = {
            "door": "revolute", "drawer": "prismatic", "fridge": "revolute",
            "laptop": "revolute", "microwave": "revolute", "chair": "revolute",
        }
        for name, kind in expected.items():
            demo = synth.generate(synth.default_specs()[name], frames=80, seed=25)
            rel, _ = pipeline_relative(demo)
            assert select_model(rel).kind == kind, name


class TestGauge:
    def test_first_configuration_zero(self):
        for fit, data in (
            (fit_prismatic, prismatic_seq()[0]),
            (fit_revolute, revolute_seq()[0]),
        ):
            m = fit(data)
            assert m.configurations[0] == 0.0

    def test_frame_shift_leaves_theta_unchanged(self):
        seq, _ = revolute_seq()
        shifted = RelativePoseSequence(
            seq.pair, tuple(f + 500 for f in seq.frames), seq.deltas
        )
        m1, m2 = fit_revolute(seq), fit_revolute(shifted)
        assert np.array_equal(m1.params["axis"], m2.params["axis"])
        assert np.array_equal(m1.params["center"], m2.params["center"])
        assert np.array_equal(m1.configurations, m2.configurations)


class TestModelFitError:
    def test_exact_zero(self):
        seq, _ = revolute_seq()
        m = fit_revolute(seq)
        ep, er = model_fit_error(m, seq)
        assert ep < 1e-9 and er < 1e-9

    def test_single_observation_rigid(self):
        d = Pose(np.array([1.0, 0, 0, 0]), np.array([0.1, 0.0, 0.0]))
        m = fit_rigid(make_seq([d] * 3))
        off = make_seq([Pose(d.q, d.t + [0.05, 0, 0])])
        ep, er = model_fit_error(m, off)
        assert abs(ep - 0.05) < 1e-12
        assert er < 1e-9

    def test_reprojection_beats_stored_configs(self):
        # fit error uses per-frame best q, so it never exceeds the
        # residual at the stored configurations
        rng = np.random.default_rng(26)
        seq, _ = revolute_seq(n=40)
        noisy = make_seq([
            Pose(d.q, d.t + rng.normal(0, 0.003, 3)) for d in seq.deltas
        ])
        m = fit_revolute(noisy)
        from kinlearn.geometry import rotation_angle

        def combined(q, d):
            err = compose(inverse(m.predict(float(q))), d)
            return np.linalg.norm(err.t) + 0.1 * rotation_angle(err)

        reproj = [combined(m.project(d), d) for d in noisy.deltas]
        stored = [combined(q, d) for q, d in zip(m.configurations, noisy.deltas)]
        assert np.mean(reproj) <= np.mean(stored) + 1e-12


def _reference_residual(delta, predicted):
    """(translation norm, rotation angle) of one frame, from its own arrays."""
    err = compose(inverse(predicted), delta)
    return float(np.linalg.norm(err.t)), float(quat_angle(err.q))


def _reference_project(model, delta):
    """One frame's best configuration: every candidate scored on its own,
    the first of equal scores kept."""
    if model.kind == "rigid":
        return 0.0
    if model.kind == "prismatic":
        return float((delta.t - model.params["base"]) @ model.params["axis"])
    axis, center, base = (model.params[k] for k in ("axis", "center", "base"))
    candidates = [float(quat_to_rotvec(quat_mul(delta.q, quat_conj(base.q))) @ axis)]
    u, v = _plane_basis(axis)
    a = np.array([(delta.t - center) @ u, (delta.t - center) @ v])
    b = np.array([(base.t - center) @ u, (base.t - center) @ v])
    if np.linalg.norm(a) > 1e-9 and np.linalg.norm(b) > 1e-9:
        candidates.append(float(np.arctan2(b[0] * a[1] - b[1] * a[0], b @ a)))

    def score(q):
        m, rad = _reference_residual(delta, model.predict(q))
        return m + 0.1 * rad

    return min(candidates, key=score)


def _noisy(seq, seed, sigma_t=0.004, sigma_r=0.03):
    rng = np.random.default_rng(seed)
    return make_seq([
        compose(Pose.from_rotvec(rng.normal(0, sigma_r, 3), rng.normal(0, sigma_t, 3)), d)
        for d in seq.deltas
    ])


class TestBatchedResiduals:
    """loglik and model_fit_error score a whole sequence in one residual
    call; each must equal a per-frame loop bit for bit."""

    def sequences(self):
        rev, _ = revolute_seq(n=40, axis=(0.2, 0.3, 0.9), center=(0.1, -0.2, 0.3))
        on_line, _ = revolute_seq(n=25, center=(0.3, 0.1, 0.0),
                                  base=Pose.from_rotvec([0.0, 0.0, 0.1], [0.3, 0.1, 0.0]))
        pri, _ = prismatic_seq(n=30, axis=(0.6, 0.0, 0.8))
        # noise-free sequences leave residuals of a few ulps, where one bit
        # of a delta's quaternion shows in the log-likelihood
        return [_noisy(rev, 1), _noisy(rev, 2, sigma_t=0.02, sigma_r=0.2), on_line,
                _noisy(pri, 3), rev, pri]

    def models(self):
        for seq in self.sequences():
            for fit in (fit_rigid, fit_prismatic, fit_revolute):
                yield fit(seq), seq

    def test_loglik_matches_per_frame_loop(self):
        noise = NoiseModel(sigma_pos=0.004, sigma_rot=0.05)
        for model, seq in self.models():
            qs = model.configurations if model.configurations.size else np.zeros(len(seq))
            res = np.array([_reference_residual(d, model.predict(float(q)))
                            for q, d in zip(qs, seq.deltas)])
            want = float(
                np.sum(-0.5 * np.log(2 * np.pi * noise.sigma_pos**2)
                       - res[:, 0] ** 2 / (2 * noise.sigma_pos**2))
                + np.sum(-0.5 * np.log(2 * np.pi * noise.sigma_rot**2)
                         - res[:, 1] ** 2 / (2 * noise.sigma_rot**2))
            )
            assert loglik(model, seq, noise) == want

    def test_model_fit_error_matches_per_frame_loop(self):
        winners = set()
        for model, seq in self.models():
            t_res, r_res = [], []
            for d in seq.deltas:
                q = _reference_project(model, d)
                assert repr(model.project(d)) == repr(q)
                if model.kind == "revolute":
                    rot = float(quat_to_rotvec(
                        quat_mul(d.q, quat_conj(model.params["base"].q))) @ model.params["axis"])
                    winners.add("rotation" if q == rot else "translation")
                m, rad = _reference_residual(d, model.predict(q))
                t_res.append(m)
                r_res.append(rad)
            want = (float(np.mean(t_res)), float(np.mean(np.degrees(r_res))))
            assert model_fit_error(model, seq) == want
        # both revolute candidates win on some frame
        assert winners == {"rotation", "translation"}

    def test_predict_takes_an_array_of_configurations(self):
        qs = np.linspace(-1.5, 3.0, 31)
        for model, _ in self.models():
            stacked = model.predict(qs)
            flags = model.extrapolates(qs)
            for k, q in enumerate(qs):
                one = model.predict(float(q))
                assert np.array_equal(np.broadcast_to(stacked.q, (len(qs), 4))[k], one.q)
                assert np.array_equal(np.broadcast_to(stacked.t, (len(qs), 3))[k], one.t)
                assert flags[k] == model.extrapolates(float(q))
