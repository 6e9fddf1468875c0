import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinlearn.errors import DegenerateGeometry, EmptyInput
from kinlearn.geometry import (
    Pose,
    Twist,
    align_point_sets,
    apply_pose,
    compose,
    exp_twist,
    fit_triples,
    inverse,
    kabsch,
    log_pose,
    mean_rotation,
    pose_distance,
    pose_residual,
    quat_angle,
    quat_canonical,
    quat_from_matrix,
    quat_from_rotvec,
    quat_mul,
    quat_normalize,
    quat_rotate,
    quat_to_rotvec,
    relative,
    rotation_angle,
)


def random_pose(rng, max_angle=3.0):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(-max_angle, max_angle)
    return Pose.from_rotvec(axis * angle, rng.normal(size=3))


def assert_pose_close(a, b, tol=1e-9):
    dt, dr = pose_distance(a, b)
    assert dt < tol, f"translation differs by {dt}"
    assert dr < tol, f"rotation differs by {dr} rad"


seeds = st.integers(min_value=0, max_value=2**31 - 1)


class TestPoseBasics:
    def test_quaternion_stays_unit(self):
        rng = np.random.default_rng(0)
        p = random_pose(rng)
        for _ in range(100):
            p = compose(p, random_pose(rng))
            assert abs(np.linalg.norm(p.q) - 1.0) < 1e-9

    def test_canonical_sign(self):
        p = Pose(np.array([-1.0, 0.0, 0.0, 0.0]), np.zeros(3))
        assert p.q[0] == 1.0
        # w = 0: first nonzero vector component made positive
        p = Pose(np.array([0.0, -1.0, 0.0, 0.0]), np.zeros(3))
        assert p.q[1] == 1.0

    def test_identity_neutral(self):
        rng = np.random.default_rng(1)
        p = random_pose(rng)
        assert_pose_close(compose(Pose.identity(), p), p)
        assert_pose_close(compose(p, Pose.identity()), p)

    def test_compose_inverse_is_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            p = random_pose(rng)
            assert_pose_close(compose(p, inverse(p)), Pose.identity())
            assert_pose_close(compose(inverse(p), p), Pose.identity())

    def test_compose_hand_example(self):
        # (rot 90deg about z, t=(1,0,0)) (+) (rot 0, t=(1,0,0))
        a = Pose.from_rotvec([0, 0, np.pi / 2], [1, 0, 0])
        b = Pose(t=np.array([1.0, 0.0, 0.0]))
        expected = Pose.from_rotvec([0, 0, np.pi / 2], [1, 1, 0])
        assert_pose_close(compose(a, b), expected)

    def test_compose_matches_matrix_product(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b = random_pose(rng), random_pose(rng)
            assert_pose_close(compose(a, b), Pose.from_matrix(a.matrix() @ b.matrix()), 1e-12)

    @given(seeds)
    @settings(max_examples=50, deadline=None)
    def test_associativity(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (random_pose(rng) for _ in range(3))
        assert_pose_close(compose(compose(a, b), c), compose(a, compose(b, c)))


class TestRelative:
    def test_relative_self_is_identity(self):
        p = random_pose(np.random.default_rng(4))
        assert_pose_close(relative(p, p), Pose.identity())

    def test_relative_to_identity(self):
        p = random_pose(np.random.default_rng(5))
        assert_pose_close(relative(p, Pose.identity()), p)

    def test_relative_hand_example(self):
        b = Pose.from_rotvec([0, 0, np.pi / 2], [0, 0, 0])
        a = Pose.from_rotvec([0, 0, np.pi / 2], [0, 1, 0])
        # matrix algebra oracle: inv(B) @ A
        oracle = Pose.from_matrix(np.linalg.inv(b.matrix()) @ a.matrix())
        got = relative(a, b)
        assert_pose_close(got, oracle, 1e-12)
        assert_pose_close(got, Pose(t=np.array([1.0, 0.0, 0.0])))

    @given(seeds)
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_pose(rng), random_pose(rng)
        assert_pose_close(compose(b, relative(a, b)), a)


class TestTwist:
    @given(seeds)
    @settings(max_examples=100, deadline=None)
    def test_exp_log_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        p = random_pose(rng, max_angle=np.pi - 0.01)
        assert_pose_close(exp_twist(log_pose(p)), p)

    def test_log_exp_roundtrip(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            v = rng.normal(size=3)
            v *= rng.uniform(0, np.pi - 0.01) / np.linalg.norm(v)
            tw = Twist(v, rng.normal(size=3))
            back = log_pose(exp_twist(tw))
            assert np.allclose(back.vector(), tw.vector(), atol=1e-9)

    def test_small_angle(self):
        tw = Twist(np.array([1e-12, 0, 0]), np.zeros(3))
        back = log_pose(exp_twist(tw))
        assert np.allclose(back.rot, tw.rot, atol=1e-15)


class TestMeanRotation:
    def test_single(self):
        q = quat_from_rotvec(np.array([0.3, -0.2, 0.9]))
        assert np.allclose(mean_rotation([q]), q, atol=1e-12)

    def test_duplicates(self):
        q = quat_from_rotvec(np.array([0.1, 0.5, -0.4]))
        assert np.allclose(mean_rotation([q, q]), q, atol=1e-12)

    def test_symmetric_pair_gives_identity(self):
        a = np.deg2rad(10.0)
        qp = quat_from_rotvec(np.array([0, 0, a]))
        qm = quat_from_rotvec(np.array([0, 0, -a]))
        m = mean_rotation([qp, qm])
        assert quat_angle(m) < 1e-9

    def test_symmetric_pair_vs_grid_oracle(self):
        # brute force over candidate mean angles about z: the chordal cost
        # sum_i min(|q - qi|, |q + qi|)^2 must be minimized at angle 0
        a = np.deg2rad(10.0)
        qs = [quat_from_rotvec(np.array([0, 0, s * a])) for s in (+1, -1)]

        def chordal_cost(angle):
            q = quat_from_rotvec(np.array([0, 0, angle]))
            return sum(
                min(np.sum((q - qi) ** 2), np.sum((q + qi) ** 2)) for qi in qs
            )

        grid = np.linspace(-np.pi, np.pi, 20001)
        best = grid[np.argmin([chordal_cost(g) for g in grid])]
        assert abs(best) < 1e-3
        assert quat_angle(mean_rotation(qs)) < 1e-9

    def test_sign_invariance(self):
        rng = np.random.default_rng(8)
        qs = [random_pose(rng).q for _ in range(5)]
        m1 = mean_rotation(qs)
        m2 = mean_rotation([-q for q in qs])
        assert np.allclose(m1, m2, atol=1e-12)

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            mean_rotation([])


class TestAlignPointSets:
    def test_identity(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(10, 3))
        assert_pose_close(align_point_sets(pts, pts), Pose.identity())

    def test_exact_recovery(self):
        rng = np.random.default_rng(10)
        src = rng.normal(size=(8, 3))
        truth = Pose.from_rotvec([0, 0, np.deg2rad(30)], [0.1, 0, 0])
        dst = apply_pose(truth, src)
        assert_pose_close(align_point_sets(src, dst), truth)

    def test_noisy_recovery(self):
        rng = np.random.default_rng(11)
        src = rng.normal(size=(10, 3))
        truth = random_pose(rng)
        dst = apply_pose(truth, src) + rng.normal(scale=1e-3, size=(10, 3))
        est = align_point_sets(src, dst)
        dt, dr = pose_distance(est, truth)
        assert dt < 5e-3
        assert dr < np.deg2rad(1.0)

    def test_left_invariance(self):
        rng = np.random.default_rng(13)
        src = rng.normal(size=(12, 3))
        dst = apply_pose(random_pose(rng), src) + rng.normal(scale=1e-3, size=(12, 3))
        est = align_point_sets(src, dst)
        res = np.linalg.norm(dst - apply_pose(est, src))
        g = random_pose(rng)
        est2 = align_point_sets(apply_pose(g, src), apply_pose(g, dst))
        res2 = np.linalg.norm(apply_pose(g, dst) - apply_pose(est2, apply_pose(g, src)))
        assert abs(res - res2) < 1e-9

    def test_no_reflection(self):
        # mirrored targets must still yield a proper rotation
        rng = np.random.default_rng(14)
        src = rng.normal(size=(6, 3))
        dst = src.copy()
        dst[:, 2] *= -1.0
        est = align_point_sets(src, dst)
        assert np.linalg.det(est.rotation_matrix()) > 0.999999999

    def test_too_few_points(self):
        with pytest.raises(DegenerateGeometry):
            align_point_sets(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_collinear(self):
        src = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]], dtype=float)
        with pytest.raises(DegenerateGeometry):
            align_point_sets(src, src)


def reference_quat_rotate(q, v):
    """The cross-product form of quaternion rotation."""
    w, u = q[..., :1], q[..., 1:]
    return v + 2.0 * np.cross(u, np.cross(u, v) + w * v)


def reference_quat_canonical(q):
    """Per-component sign search, first nonzero component made positive."""
    sign = np.zeros(q.shape[:-1])
    for k in range(4):
        sign = np.where(sign == 0.0, np.sign(q[..., k]), sign)
    return q * np.where(sign == 0.0, 1.0, sign)[..., None]


def reference_quat_from_matrix(R):
    """Shepperd's method on one 3x3 matrix."""
    t = np.trace(R)
    if t > 0:
        s = np.sqrt(t + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s]
        )
    else:
        i = int(np.argmax(np.diag(R)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(R[i, i] - R[j, j] - R[k, k] + 1.0) * 2.0
        q = np.empty(4)
        q[0] = (R[k, j] - R[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (R[j, i] + R[i, j]) / s
        q[1 + k] = (R[k, i] + R[i, k]) / s
    return reference_quat_canonical(q / np.linalg.norm(q, axis=-1, keepdims=True))


def reference_align_point_sets(src, dst):
    """One-item Kabsch built from the reference primitives above."""
    ones = np.ones(len(src))
    cs = (ones @ src) / len(src)
    cd = (ones @ dst) / len(src)
    src_c, dst_c = src - cs, dst - cd
    sv = np.linalg.svd(src_c, compute_uv=False)
    if sv[1] < 1e-6 * max(sv[0], 1e-300):
        raise DegenerateGeometry("collinear")
    U, _, Vt = np.linalg.svd(src_c.T @ dst_c)
    d = np.sign(np.linalg.det(Vt.T @ U.T))
    q = reference_quat_from_matrix(Vt.T @ np.diag([1.0, 1.0, d]) @ U.T)
    return Pose(q, cd - reference_quat_rotate(q, cs))


class TestBatchedKernels:
    """Batched forms must equal their one-item references bit for bit."""

    @pytest.mark.parametrize("n", [3, 7])
    def test_kabsch_equals_separate_calls(self, n):
        rng = np.random.default_rng(n)
        K = 40
        src = rng.normal(size=(K, n, 3))
        src[::9] = np.outer(np.arange(n), [1.0, 2.0, -1.0])  # collinear items
        dst = np.array([apply_pose(random_pose(rng), s) for s in src])
        dst += rng.normal(scale=0.01, size=dst.shape)
        valid, q, t = kabsch(src, dst)
        assert not valid[::9].any()
        assert np.isnan(q[~valid]).all() and np.isnan(t[~valid]).all()
        for k in range(K):
            if not valid[k]:
                with pytest.raises(DegenerateGeometry):
                    align_point_sets(src[k], dst[k])
                continue
            ref = align_point_sets(src[k], dst[k])
            got = Pose(q[k], t[k])
            assert got.q.tobytes() == ref.q.tobytes()
            assert got.t.tobytes() == ref.t.tobytes()

    def test_align_point_sets_equals_reference(self):
        rng = np.random.default_rng(18)
        for case in range(300):
            n = (3, 4, 10, 40)[case % 4]
            src = rng.normal(size=(n, 3))
            truth = random_pose(rng, max_angle=np.pi)  # trace <= 0 on some cases
            dst = apply_pose(truth, src) + rng.normal(scale=0.01, size=(n, 3))
            got = align_point_sets(src, dst)
            ref = reference_align_point_sets(src, dst)
            assert got.q.tobytes() == ref.q.tobytes()
            assert got.t.tobytes() == ref.t.tobytes()

    @pytest.mark.parametrize(
        "q_shape, v_shape", [((4,), (9, 3)), ((9, 4), (9, 3)), ((5, 1, 4), (1, 9, 3))]
    )
    def test_quat_rotate_equals_cross_form(self, q_shape, v_shape):
        rng = np.random.default_rng(15)
        q = rng.normal(size=q_shape)
        q /= np.linalg.norm(q, axis=-1, keepdims=True)
        v = rng.normal(size=v_shape)
        got, ref = quat_rotate(q, v), reference_quat_rotate(q, v)
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()

    def test_quat_from_matrix_equals_scalar_shepperd(self):
        rng = np.random.default_rng(16)
        # half the rotations near pi, where the trace is negative
        poses = [random_pose(rng) for _ in range(100)]
        poses += [Pose.from_rotvec(p.q[1:] / np.linalg.norm(p.q[1:]) * (np.pi - 0.1))
                  for p in poses]
        R = np.array([p.rotation_matrix() for p in poses])
        assert (np.trace(R, axis1=1, axis2=2) <= 0).sum() > 50
        got = quat_from_matrix(R)
        for k in range(len(R)):
            assert got[k].tobytes() == reference_quat_from_matrix(R[k]).tobytes()
        assert quat_from_matrix(R[0]).tobytes() == got[0].tobytes()

    def test_quat_canonical_equals_sign_search(self):
        rng = np.random.default_rng(17)
        q = rng.normal(size=(500, 4))
        holes = rng.random(size=q.shape) < 0.4
        q[holes] = rng.choice([0.0, -0.0, np.nan], size=holes.sum())
        assert quat_canonical(q).tobytes() == reference_quat_canonical(q).tobytes()
        assert quat_canonical(q[3]).tobytes() == reference_quat_canonical(q[3]).tobytes()


# The kernels as they were written with numpy's wrapper functions
# (moveaxis, stack, take_along_axis, linalg.norm): the lean kernels must
# keep their bits.


def wrapper_quat_mul(a, b):
    aw, ax, ay, az = np.moveaxis(np.asarray(a, dtype=float), -1, 0)
    bw, bx, by, bz = np.moveaxis(np.asarray(b, dtype=float), -1, 0)
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def wrapper_quat_rotate(q, v):
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    vx, vy, vz = v[..., 0], v[..., 1], v[..., 2]
    sx = (y * vz - z * vy) + w * vx
    sy = (z * vx - x * vz) + w * vy
    sz = (x * vy - y * vx) + w * vz
    return np.stack(
        [vx + 2.0 * (y * sz - z * sy), vy + 2.0 * (z * sx - x * sz), vz + 2.0 * (x * sy - y * sx)],
        axis=-1,
    )


def wrapper_quat_canonical(q):
    first = np.argmax(q != 0.0, axis=-1)[..., None]
    sign = np.sign(np.take_along_axis(q, first, axis=-1))
    return q * np.where(sign == 0.0, 1.0, sign)


def wrapper_quat_normalize(q):
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def wrapper_quat_from_rotvec(v):
    angle = np.linalg.norm(v, axis=-1)
    half = 0.5 * angle
    small = angle < 1e-8
    safe = np.where(small, 1.0, angle)
    k = np.where(small, 0.5 - angle**2 / 48.0, np.sin(half) / safe)
    w = np.cos(half)
    return wrapper_quat_canonical(np.concatenate([w[..., None], v * k[..., None]], axis=-1))


def wrapper_quat_to_rotvec(q):
    q = wrapper_quat_canonical(q)
    u = q[..., 1:]
    n = np.linalg.norm(u, axis=-1)
    angle = 2.0 * np.arctan2(n, q[..., 0])
    small = n < 1e-12
    scale = np.where(small, 2.0, angle / np.where(small, 1.0, n))
    return u * scale[..., None]


def wrapper_quat_angle(q):
    return 2.0 * np.arctan2(np.linalg.norm(q[..., 1:], axis=-1), np.abs(q[..., 0]))


def awkward_quaternions(rng, n=400):
    """Random rows plus zeros, signed zeros, NaN rows and rows whose
    leading components are zeros of either sign (first-component ties)."""
    q = rng.normal(size=(n, 4))
    holes = rng.random(size=q.shape) < 0.3
    q[holes] = rng.choice([0.0, -0.0], size=holes.sum())
    q[::17] = np.nan
    q[5::23, 1] = np.nan
    q[::29] = 0.0
    q[1::29] = -0.0
    q[2::31, :3] = rng.choice([0.0, -0.0], size=(len(q[2::31]), 3))
    q[3::37, :2] = 0.0
    q[4::41] = [-0.0, 0.0, -1.5, 1.5]
    return q


class TestLeanKernels:
    """Each kernel equals its numpy-wrapper form bit for bit."""

    SHAPES = [((400, 4), (400, 4)), ((4,), (400, 4)), ((400, 4), (4,)),
              ((6, 1, 4), (400, 4)), ((4,), (4,))]

    @staticmethod
    def same(got, ref):
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()

    def operands(self, seed, a_shape, b_shape, last=4):
        rng = np.random.default_rng(seed)
        a = awkward_quaternions(rng, int(np.prod(a_shape[:-1]))).reshape(a_shape)
        b = awkward_quaternions(rng, int(np.prod(b_shape[:-1]))).reshape(b_shape)
        return a, b[..., :last]

    @pytest.mark.parametrize("a_shape, b_shape", SHAPES)
    def test_quat_mul(self, a_shape, b_shape):
        a, b = self.operands(1, a_shape, b_shape)
        with np.errstate(all="ignore"):
            self.same(quat_mul(a, b), wrapper_quat_mul(a, b))

    @pytest.mark.parametrize("a_shape, b_shape", SHAPES)
    def test_quat_rotate(self, a_shape, b_shape):
        q, v = self.operands(2, a_shape, b_shape, last=3)
        with np.errstate(all="ignore"):
            self.same(quat_rotate(q, v), wrapper_quat_rotate(q, v))

    @pytest.mark.parametrize("shape", [(400, 4), (4,), (20, 5, 4)])
    def test_one_operand_kernels(self, shape):
        q = awkward_quaternions(np.random.default_rng(3))
        inputs = list(q) if len(shape) == 1 else [q[:int(np.prod(shape[:-1]))].reshape(shape)]
        with np.errstate(all="ignore"):
            for q in inputs:
                self.same(quat_canonical(q), wrapper_quat_canonical(q))
                self.same(quat_normalize(q), wrapper_quat_normalize(q))
                self.same(quat_to_rotvec(q), wrapper_quat_to_rotvec(q))
                self.same(quat_angle(q), wrapper_quat_angle(q))
                self.same(quat_from_rotvec(q[..., 1:]), wrapper_quat_from_rotvec(q[..., 1:]))

    def test_rotation_vectors_near_zero(self):
        rng = np.random.default_rng(4)
        v = rng.normal(size=(300, 3)) * 10.0 ** rng.integers(-12, 1, size=(300, 1))
        v[::7] = 0.0
        v[1::7] = -0.0
        self.same(quat_from_rotvec(v), wrapper_quat_from_rotvec(v))
        q = wrapper_quat_from_rotvec(v)
        self.same(quat_to_rotvec(q), wrapper_quat_to_rotvec(q))


class TestAngles:
    def test_rotation_angle(self):
        p = Pose.from_rotvec([0, 0, np.deg2rad(40)])
        assert abs(rotation_angle(p) - np.deg2rad(40)) < 1e-12

    def test_relative_angle(self):
        a = Pose.from_rotvec([0, 0, np.deg2rad(70)])
        b = Pose.from_rotvec([0, 0, np.deg2rad(30)])
        assert abs(rotation_angle(a, b) - np.deg2rad(40)) < 1e-12


class TestPoseStacks:
    def poses(self, n=200, seed=5):
        rng = np.random.default_rng(seed)
        return [random_pose(rng) for _ in range(n)]

    def test_stack_keeps_each_pose_byte_for_byte(self):
        ps = self.poses()
        stacked = Pose.stack(ps)
        assert stacked.q.shape == (len(ps), 4) and stacked.t.shape == (len(ps), 3)
        for k, p in enumerate(ps):
            assert stacked.q[k].tobytes() == p.q.tobytes()
            assert stacked.t[k].tobytes() == p.t.tobytes()
        # building the stack through the constructor normalizes again,
        # which moves the last bit of some of these quaternions
        renormalized = Pose(np.array([p.q for p in ps]), np.array([p.t for p in ps]))
        assert not np.array_equal(renormalized.q, stacked.q)

    def test_getitem_returns_the_stored_bytes(self):
        # all 200 poses, some of which a second normalization would move
        ps = self.poses()
        stacked = Pose.stack(ps)
        for k, want in enumerate(ps):
            got = stacked[k]
            assert got.q.tobytes() == want.q.tobytes() and got.t.tobytes() == want.t.tobytes()
        order = np.random.default_rng(1).permutation(len(ps))
        for k, items in ((slice(None), ps), (slice(150, 2, -3), ps[150:2:-3]),
                         (order, [ps[i] for i in order])):
            got = stacked[k]
            assert got.q.tobytes() == np.array([p.q for p in items]).tobytes()
            assert got.t.tobytes() == np.array([p.t for p in items]).tobytes()
        assert stacked[-1] == ps[-1]
        with pytest.raises(IndexError):
            stacked[len(ps)]

    def test_iterating_a_stack_yields_its_poses(self):
        ps = self.poses(n=15)
        assert list(Pose.stack(ps)) == ps

    def test_stack_of_empty_list_and_of_generator(self):
        empty = Pose.stack([])
        assert empty.q.shape == (0, 4) and empty.t.shape == (0, 3)
        assert list(empty) == []
        ps = self.poses(n=120)
        from_generator = Pose.stack(p for p in ps)
        assert from_generator == Pose.stack(ps)
        assert from_generator.q.shape == (120, 4)

    def test_operations_match_one_pose_at_a_time(self):
        ps, qs = self.poses(), self.poses(seed=6)
        a, b = Pose.stack(ps), Pose.stack(qs)
        residual, distance = pose_residual(a, b), pose_distance(a, b)
        angle = rotation_angle(a, b)
        for k, (p, q) in enumerate(zip(ps, qs)):
            for got, want in ((compose(a, b), compose(p, q)), (relative(a, b), relative(p, q)),
                              (inverse(a), inverse(p))):
                assert np.array_equal(got.q[k], want.q) and np.array_equal(got.t[k], want.t)
            one = pose_residual(p, q)
            assert type(one[0]) is float and type(one[1]) is float
            assert (residual[0][k], residual[1][k]) == one
            assert (distance[0][k], distance[1][k]) == pose_distance(p, q)
            assert angle[k] == rotation_angle(p, q)

    def test_one_pose_residual_keeps_the_vector_norm(self):
        for p, q in zip(self.poses(), self.poses(seed=7)):
            err = relative(p, q)
            assert pose_residual(p, q) == (
                float(np.linalg.norm(err.t)), float(quat_angle(err.q))
            )

    def test_rot_about_line_takes_an_array_of_angles(self):
        axis, point = np.array([0.3, -0.2, 0.9]), np.array([0.1, 0.5, -0.4])
        angles = np.linspace(-4.0, 7.0, 23)
        stacked = Pose.rot_about_line(axis, point, angles)
        for k, angle in enumerate(angles):
            one = Pose.rot_about_line(axis, point, float(angle))
            assert np.array_equal(stacked.q[k], one.q) and np.array_equal(stacked.t[k], one.t)

    def test_last_axis_is_checked(self):
        with pytest.raises(ValueError):
            Pose(np.ones((5, 3)), np.zeros((5, 3)))
        with pytest.raises(ValueError):
            Pose(1.0, np.zeros(3))


class TestPoseMatrices:
    def test_stack_gives_one_matrix_per_pose(self):
        ps = [random_pose(np.random.default_rng(9)) for _ in range(5)]
        for n in (1, 3, 4, 5):
            stacked = Pose.stack(ps[:n])
            R, T = stacked.rotation_matrix(), stacked.matrix()
            assert R.shape == (n, 3, 3) and T.shape == (n, 4, 4)
            for k in range(n):
                assert R[k].tobytes() == ps[k].rotation_matrix().tobytes()
                assert T[k].tobytes() == ps[k].matrix().tobytes()

    def test_one_pose_keeps_its_bytes(self):
        # the one-pose formulas as written before stacks were taken
        for p in [random_pose(np.random.default_rng(s)) for s in range(50)]:
            w, x, y, z = p.q
            R = np.array([
                [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
                [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
                [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
            ])
            T = np.eye(4)
            T[:3, :3], T[:3, 3] = R, p.t
            assert p.rotation_matrix().tobytes() == R.tobytes()
            assert p.matrix().tobytes() == T.tobytes()


def triples_with_ratio(rng, ratios, scale=0.1):
    """Triples (K, 3, 3) whose centred points have singular values
    (scale, ratio * scale, 0), placed within 1 m of the origin."""
    out = []
    for ratio in ratios:
        basis, _ = np.linalg.qr(np.column_stack([np.ones(3), rng.normal(size=(3, 2))]))
        V, _ = np.linalg.qr(rng.normal(size=(3, 2)))
        out.append(basis[:, 1:] @ np.diag([scale, ratio * scale]) @ V.T + rng.uniform(-1, 1, 3))
    return np.array(out)


def moved_by_kabsch(src, dst, points):
    valid, q, t = kabsch(src, dst)
    return valid, apply_pose(Pose(q[:, None, :], t[:, None, :]), points)


def moved_by_fit(src, dst, points):
    valid, R, t, unsure = fit_triples(src, dst)
    return valid, R @ points.swapaxes(1, 2) + t[:, :, None], unsure


class TestFitTriples:
    """The closed-form 3-point fit against ``kabsch``: the same validity and
    moved points within 1e-12 m wherever the fit is not marked unsure."""

    def test_agrees_with_kabsch_on_random_triples(self):
        rng = np.random.default_rng(27)
        K = 100_000
        src = rng.uniform(-0.3, 0.3, size=(K, 3, 3)) + rng.uniform(-1, 1, size=(K, 1, 3))
        q = quat_from_rotvec(rng.normal(size=(K, 3)))
        dst = apply_pose(Pose(q[:, None], rng.normal(scale=0.3, size=(K, 1, 3))), src)
        dst[: K // 2] += rng.normal(scale=0.01, size=(K // 2, 3, 3))  # rigid and noisy
        dst[K // 2:] = rng.uniform(-1, 1, size=(K - K // 2, 3, 3))  # unrelated targets
        # the triple itself and four more points up to 1 m from its centroid
        points = np.concatenate(
            [src, src.mean(axis=1, keepdims=True) + rng.uniform(-0.6, 0.6, (K, 4, 3))], axis=1)
        want_valid, want = moved_by_kabsch(src, dst, points)
        valid, got, unsure = moved_by_fit(src, dst, points)
        assert unsure.sum() < K // 100  # almost every item is solved in closed form
        sure = ~unsure
        assert np.array_equal(valid[sure], want_valid[sure])
        both = sure & want_valid
        assert np.abs(got.swapaxes(1, 2)[both] - want[both]).max() < 1e-12

    def test_validity_at_the_collinearity_rule(self):
        # sv ratio 1e-6 (1 +- 1e-4) lies inside the 0.1 % band: unsure, so
        # kabsch decides. At 1e-6 (1 +- 1e-2) the Gram ratio alone gives
        # kabsch's answer; a wrong l0 * l1 constant fails here. Thin valid
        # sources are unsure anyway, as near ties.
        rng = np.random.default_rng(28)
        for spread in (1e-4, 1e-2):
            ratios = 1e-6 * (1 + spread * np.tile([-1.0, 1.0], 200))
            src = triples_with_ratio(rng, ratios)
            dst = src + rng.normal(scale=0.01, size=src.shape)
            want, _, _ = kabsch(src, dst)
            assert np.array_equal(want, ratios > 1e-6)
            valid, _, _, unsure = fit_triples(src, dst)
            if spread < 1e-3:
                assert unsure.all()
            else:
                assert np.array_equal(valid, want) and not unsure[~want].any()
            assert np.array_equal(np.where(unsure, want, valid), want)

    def test_marks_degenerate_targets_and_branch_ties(self):
        rng = np.random.default_rng(29)
        src = triples_with_ratio(rng, np.full(10, 0.3))
        step = random_pose(rng)
        line = rng.uniform(-0.2, 0.2, size=(10, 3, 1)) * [1.0, 0.0, 0.0] + 0.5
        thin = triples_with_ratio(rng, np.full(10, 0.01))
        coincident = np.full((10, 3, 3), 0.5)
        cases = {
            "collinear target": (src, line),
            "near-collinear target": (src, triples_with_ratio(rng, np.full(10, 1e-5))),
            # two thin triangles: the in-plane rotation and reflection nearly tie
            "branch tie": (thin, apply_pose(step, thin)),
            "coincident source": (coincident, src),
        }
        for name, (s, d) in cases.items():
            assert fit_triples(s, d)[3].all(), name
        assert not fit_triples(src, apply_pose(step, src))[3].any()
