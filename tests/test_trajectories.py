import dataclasses
import random

import numpy as np
import pytest

from kinlearn import synth, trajectories
from kinlearn.errors import InvalidSpec, ParseError, SchemaVersionMismatch
from kinlearn.geometry import Pose, apply_pose, compose, quat_from_rotvec, quat_rotate
from kinlearn.synth import JointSpec, MotionProfile, ObjectSpec, PartSpec
from kinlearn.kingraph import load_db
from kinlearn.trajectories import (
    PRISMATIC,
    REVOLUTE,
    RIGID,
    FeatureTrajectory,
    load,
    load_ground_truth,
    save,
)


def single_part_spec(**kw):
    return ObjectSpec(
        name="slab",
        parts=(PartSpec(center=(0, 0, 0), u=(0.3, 0, 0), v=(0, 0.3, 0)),),
        joints=(),
        **kw,
    )


class TestGenerator:
    def test_rigid_part_preserves_pairwise_distances(self):
        spec = single_part_spec(features_per_part=10)
        demo = synth.generate(spec, frames=20, seed=0)
        pos = np.array([t.positions for t in demo.trajectories])  # (n, 20, 3)
        d0 = np.linalg.norm(pos[:, None, 0] - pos[None, :, 0], axis=-1)
        for f in range(1, 20):
            df = np.linalg.norm(pos[:, None, f] - pos[None, :, f], axis=-1)
            assert np.max(np.abs(df - d0)) < 1e-12

    def test_door_feature_axis_distance_constant(self):
        spec = synth.default_specs()["door"]
        demo = synth.generate(spec, frames=40, seed=1)
        gt = demo.ground_truth
        axis = gt.joints[0].axis
        origin = gt.joints[0].origin
        for traj in demo.trajectories:
            if gt.labels[traj.id] != 1:
                continue
            rel = traj.positions - origin
            radial = rel - np.outer(rel @ axis, axis)
            r = np.linalg.norm(radial, axis=1)
            assert np.ptp(r) < 1e-9

    def test_ground_truth_consistency_noise_free(self):
        spec = synth.default_specs()["drawer"]
        demo = synth.generate(spec, frames=30, seed=2)
        gt = demo.ground_truth
        for traj in demo.trajectories:
            part = gt.labels[traj.id]
            # body point recovered from the first observation
            first = traj.observations[0]
            p0 = gt.part_poses[part][first.frame]
            body = apply_pose(p0, np.zeros(3))  # placeholder, computed below
            body = np.linalg.inv(p0.matrix()) @ np.append(first.position, 1.0)
            for o in traj.observations:
                pred = apply_pose(gt.part_poses[part][o.frame], body[:3])
                assert np.linalg.norm(pred - o.position) < 1e-12

    def test_determinism_byte_identical(self, tmp_path):
        spec = synth.default_specs()["drawer"].with_noise(sigma_pos=0.005)
        p1, p2 = tmp_path / "a.traj", tmp_path / "b.traj"
        save(synth.generate(spec, frames=60, seed=42), str(p1))
        save(synth.generate(spec, frames=60, seed=42), str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert (tmp_path / "a.gt").read_bytes() == (tmp_path / "b.gt").read_bytes()

    def test_different_seed_differs(self):
        spec = single_part_spec(noise_sigma_pos=0.001)
        d1 = synth.generate(spec, frames=20, seed=1)
        d2 = synth.generate(spec, frames=20, seed=2)
        assert d1 != d2

    def test_normals_unit_under_noise(self):
        spec = single_part_spec(noise_sigma_normal=0.2)
        demo = synth.generate(spec, frames=20, seed=3)
        for traj in demo.trajectories:
            norms = np.linalg.norm(traj.normals, axis=1)
            assert np.max(np.abs(norms - 1.0)) < 1e-6

    def test_dropout_and_rebirth(self):
        spec = single_part_spec(features_per_part=12, dropout_prob=0.05, track_lifetime=30)
        demo = synth.generate(spec, frames=100, seed=4)
        assert len(demo.trajectories) > 12  # rebirth created new ids
        for traj in demo.trajectories:
            assert len(traj.observations) >= 2

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpec):
            synth.generate(single_part_spec(), frames=5, seed=0)
        bad_axis = ObjectSpec(
            name="bad",
            parts=(
                PartSpec((0, 0, 0), (0.1, 0, 0), (0, 0.1, 0)),
                PartSpec((0.5, 0, 0), (0.1, 0, 0), (0, 0.1, 0)),
            ),
            joints=(JointSpec(0, 1, "revolute", axis=(0, 0, 2.0)),),
        )
        with pytest.raises(InvalidSpec):
            synth.generate(bad_axis, frames=20, seed=0)
        cyclic = ObjectSpec(
            name="cyclic",
            parts=(
                PartSpec((0, 0, 0), (0.1, 0, 0), (0, 0.1, 0)),
                PartSpec((0.5, 0, 0), (0.1, 0, 0), (0, 0.1, 0)),
            ),
            joints=(JointSpec(1, 0, "rigid"),),  # would re-parent the root
        )
        with pytest.raises(InvalidSpec):
            synth.generate(cyclic, frames=20, seed=0)


    @pytest.mark.parametrize("setting", [
        {"noise_sigma_pos": -0.001},
        {"noise_sigma_normal": -0.1},
        {"dropout_prob": 1.0},
        {"dropout_prob": -0.1},
        {"noise_sigma_pos": float("nan")},
        {"noise_sigma_pos": float("inf")},
    ])
    def test_invalid_noise_settings(self, setting):
        with pytest.raises(InvalidSpec):
            synth.generate(single_part_spec(**setting), frames=20, seed=0)

    def test_joint_order_does_not_matter(self):
        # the monitor's joints listed child-first generate the same demo
        spec = synth.default_specs()["monitor"].with_noise(sigma_pos=0.002)
        flipped = dataclasses.replace(spec, joints=spec.joints[::-1])
        a = synth.generate(spec, frames=20, seed=3)
        b = synth.generate(flipped, frames=20, seed=3)
        assert a.trajectories == b.trajectories
        assert a.ground_truth.labels == b.ground_truth.labels
        assert a.ground_truth.part_poses == b.ground_truth.part_poses
        assert a.ground_truth.joints == b.ground_truth.joints[::-1]


def reference_part_poses(joints, frames):
    """``synth._part_pose_sequences``'s poses made one frame at a time with
    ``compose``: {part: [pose per frame]}."""
    s = np.arange(frames) / max(frames - 1, 1)
    poses = {0: [Pose.identity()] * frames}
    for j in joints:
        steps = []
        for q in j.profile.value(s):
            if j.kind == REVOLUTE:
                steps.append(Pose.rot_about_line(j.axis, j.origin, q))
            elif j.kind == PRISMATIC:
                steps.append(Pose(t=q * np.asarray(j.axis, dtype=float)))
            else:
                steps.append(Pose.identity())
        poses[j.child] = [compose(poses[j.parent][f], steps[f]) for f in range(frames)]
    return poses


RIGID_THEN_HINGE = ObjectSpec(
    name="bracketed-door",
    parts=(
        PartSpec(center=(-0.5, 0.0, 1.0), u=(0.2, 0.0, 0.0), v=(0.0, 0.0, 0.35)),
        PartSpec(center=(0.0, 0.1, 1.0), u=(0.05, 0.0, 0.0), v=(0.0, 0.0, 0.2)),
        PartSpec(center=(0.5, 0.0, 1.0), u=(0.3, 0.0, 0.0), v=(0.0, 0.0, 0.35)),
    ),
    joints=(
        JointSpec(0, 1, RIGID),
        JointSpec(1, 2, REVOLUTE, axis=(0.0, 0.0, 1.0), origin=(0.0, 0.0, 0.0),
                  profile=MotionProfile("smoothstep", np.deg2rad(90.0))),
    ),
)


@pytest.mark.parametrize("spec", [
    synth.default_specs()["monitor"], synth.default_specs()["drawer"], RIGID_THEN_HINGE,
], ids=["monitor", "drawer", "rigid"])
def test_stacked_part_poses_match_per_frame_compose(spec):
    frames = 37
    joints = synth._validate(spec, frames)
    stacked, _ = synth._part_pose_sequences(joints, frames)
    reference = reference_part_poses(joints, frames)
    assert sorted(stacked) == sorted(reference) == list(range(len(spec.parts)))
    for part, poses in reference.items():
        assert np.array_equal(stacked[part].q, np.array([p.q for p in poses]))
        assert np.array_equal(stacked[part].t, np.array([p.t for p in poses]))


def reference_generate(spec, frames, seed):
    """``synth.generate``'s observations, made one at a time with a pose per
    frame: {track id: (part, [(frame, position, normal), ...])}."""
    rng = np.random.default_rng(seed)
    part_poses, _ = synth._part_pose_sequences(synth._validate(spec, frames), frames)
    tracks = []
    for part_idx, part in enumerate(spec.parts):
        u, v, c = (np.asarray(x, dtype=float) for x in (part.u, part.v, part.center))
        for _slot in range(spec.features_per_part):
            start = 0
            while start < frames:
                a, b = rng.uniform(-1.0, 1.0, size=2)
                life = int(rng.geometric(1.0 / spec.track_lifetime))
                stop = min(start + max(life, 1), frames)
                body = c + a * u + b * v
                tracks.append((len(tracks), part_idx, body, part.normal(), start, stop))
                start = stop
    result = {}
    for tid, part_idx, body_pos, body_normal, start, stop in tracks:
        rows = []
        for frame in range(start, stop):
            pose = part_poses[part_idx][frame]
            pos = apply_pose(pose, body_pos)
            nrm = quat_rotate(pose.q, body_normal)
            pos = pos + rng.normal(0.0, spec.noise_sigma_pos, size=3)
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = abs(rng.normal(0.0, spec.noise_sigma_normal))
            nrm = quat_rotate(quat_from_rotvec(axis * angle), nrm)
            if rng.uniform() < spec.dropout_prob:
                continue
            rows.append((frame, pos, nrm))
        if len(rows) >= 2:
            result[tid] = (part_idx, rows)
    return result


class TestBatchedGenerate:
    """Every noise source at once: the batched transport and noise must
    reproduce the one-observation-at-a-time loop bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_observation_loop(self, tmp_path, seed):
        spec = dataclasses.replace(
            synth.default_specs()["monitor"], noise_sigma_pos=0.004,
            noise_sigma_normal=0.1, dropout_prob=0.3, track_lifetime=8.0,
        )
        demo = synth.generate(spec, frames=40, seed=seed)
        want = reference_generate(spec, 40, seed)
        assert [t.id for t in demo.trajectories] == sorted(want)
        for traj in demo.trajectories:
            part, rows = want[traj.id]
            assert demo.ground_truth.labels[traj.id] == part
            assert traj.frames.tolist() == [f for f, _, _ in rows]
            assert traj.positions.tobytes() == np.array([p for _, p, _ in rows]).tobytes()
            assert traj.normals.tobytes() == np.array([n for _, _, n in rows]).tobytes()

        path = tmp_path / "demo.traj"
        save(demo, str(path))
        written = [line.split()[0] for line in path.read_text().splitlines()[1:]]
        for traj in demo.trajectories:
            assert len(traj.observations) == written.count(str(traj.id))


class TestCatalog:
    def test_catalog_contents(self):
        specs = synth.default_specs()
        for name in ("door", "drawer", "fridge", "laptop", "microwave", "chair", "monitor"):
            assert name in specs

    def test_door_is_one_revolute(self):
        door = synth.default_specs()["door"]
        assert len(door.parts) == 2
        assert len(door.joints) == 1
        assert door.joints[0].kind == "revolute"
        assert abs(door.joints[0].profile.extent - np.pi / 2) < 1e-12

    def test_drawer_is_one_prismatic(self):
        drawer = synth.default_specs()["drawer"]
        assert len(drawer.parts) == 2
        assert drawer.joints[0].kind == "prismatic"
        assert abs(drawer.joints[0].profile.extent - 0.4) < 1e-12

    def test_monitor_two_dof(self):
        monitor = synth.default_specs()["monitor"]
        assert len(monitor.parts) == 3
        assert len(monitor.joints) == 2


class TestFeatureTrajectory:
    def test_negative_frame_rejected(self):
        # a negative frame would land in a wrapped-around column of packed()
        with pytest.raises(ValueError, match="negative frame -1"):
            FeatureTrajectory.from_arrays(0, [-1, 0, 1], np.zeros((3, 3)), [0.0, 0.0, 1.0])

    def test_observation_array_taken_as_its_own(self):
        obs = np.zeros(3, dtype=trajectories.OBSERVATION)
        obs["frame"] = [0, 2, 5]
        traj = FeatureTrajectory(4, obs)
        assert np.shares_memory(traj.observations, obs)
        assert not obs.flags.writeable and not traj.observations.flags.writeable
        with pytest.raises(ValueError):
            obs["frame"][0] = 1

    def test_records_are_converted_and_checked(self):
        records = [(0, (0.0, 0.0, 0.0), (0.0, 0.0, 1.0)), (3, (1.0, 2.0, 3.0), (0.0, 1.0, 0.0))]
        traj = FeatureTrajectory(4, records)
        assert traj.frames.tolist() == [0, 3]
        assert traj.positions.tolist() == [[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]
        assert not traj.observations.flags.writeable
        with pytest.raises(ValueError, match="not strictly increasing"):
            FeatureTrajectory(5, records[::-1])


class TestSerialization:
    def test_round_trip(self, tmp_path):
        spec = synth.default_specs()["door"].with_noise(sigma_pos=0.002, sigma_normal=0.05)
        demo = synth.generate(spec, frames=40, seed=5)
        path = tmp_path / "door.traj"
        save(demo, str(path))
        assert load(str(path)) == demo

    def test_round_trip_without_ground_truth(self, tmp_path):
        demo = synth.generate(single_part_spec(), frames=15, seed=6)
        demo = trajectories.Demonstration(demo.trajectories, demo.frame_rate, None)
        path = tmp_path / "plain.traj"
        save(demo, str(path))
        assert load(str(path)) == demo

    def test_truncated_file(self, tmp_path):
        demo = synth.generate(single_part_spec(), frames=15, seed=7)
        path = tmp_path / "t.traj"
        save(trajectories.Demonstration(demo.trajectories, demo.frame_rate), str(path))
        text = path.read_text().splitlines()
        broken = "\n".join(text[:4] + [text[4].rsplit(" ", 1)[0]])
        path.write_text(broken)
        with pytest.raises(ParseError) as err:
            load(str(path))
        assert err.value.line == 5

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "dup.traj"
        path.write_text(
            "traj 1 30.0\n"
            "0 0 0 0 0 0 0 1\n"
            "0 1 0 0 0 0 0 1\n"
            "1 0 1 0 0 0 0 1\n"
            "1 1 1 0 0 0 0 1\n"
            "0 2 0 0 0 0 0 1\n"  # id 0 reappears after id 1
        )
        with pytest.raises(ParseError, match="duplicate id"):
            load(str(path))

    def test_non_increasing_frame(self, tmp_path):
        path = tmp_path / "bad.traj"
        path.write_text(
            "traj 1 30.0\n"
            "0 0 0 0 0 0 0 1\n"
            "0 0 0 0 0 0 0 1\n"
        )
        with pytest.raises(ParseError, match="not increasing"):
            load(str(path))

    def test_negative_frame_in_file(self, tmp_path):
        path = tmp_path / "neg.traj"
        path.write_text(
            "traj 1 30.0\n"
            "0 -1 0 0 0 0 0 1\n"
            "0 0 0 0 0 0 0 1\n"
        )
        with pytest.raises(ParseError, match="frame -1 not increasing"):
            load(str(path))

    @staticmethod
    def two_records(path, tid, frame):
        path.write_text(f"traj 1 30.0\n{tid} 0 0 0 0 0 0 1\n{tid} {frame} 0 0 0 0 0 1\n")
        return str(path)

    @pytest.mark.parametrize("tid, frame", [(2**63 - 1, 1), (-2**63, 1), (0, 2**63 - 1)])
    def test_int64_limits_load(self, tmp_path, tid, frame):
        (track,) = load(self.two_records(tmp_path / "edge.traj", tid, frame)).trajectories
        assert track.id == tid and track.frames.tolist() == [0, frame]

    @pytest.mark.parametrize("value", [2**63, -2**63 - 1])
    def test_past_int64_is_parse_error(self, tmp_path, value):
        path = tmp_path / "past.traj"
        with pytest.raises(ParseError, match=f"^line 2: id {value} does not fit in int64$"):
            load(self.two_records(path, value, 1))
        with pytest.raises(ParseError, match=f"^line 3: frame {value} does not fit in int64$"):
            load(self.two_records(path, 0, value))

    def test_schema_mismatch(self, tmp_path):
        path = tmp_path / "v9.traj"
        path.write_text("traj 9 30.0\n0 0 0 0 0 0 0 1\n0 1 0 0 0 0 0 1\n")
        with pytest.raises(SchemaVersionMismatch) as err:
            load(str(path))
        assert "9" in str(err.value) and "1" in str(err.value)


# per record format: loader, header "{tag} {schema}" with the fields that
# follow it, two well-formed records and one malformed record
RECORD_FILES = {
    ".traj": (load, "traj {} 30.0", ["0 0 0 0 0 0 0 1", "0 1 0 0 0 0 0 1"], "0 2 0 0 x 0 0 1"),
    ".gt": (load_ground_truth, "gt {}", ["label 0 0", "label 1 0"], "label x 0"),
    ".db": (load_db, "kgraphdb {}", ["object solo", "vertices 0"], "vertices a"),
}


@pytest.mark.parametrize("suffix", sorted(RECORD_FILES))
class TestRecordFiles:
    def load(self, tmp_path, suffix, lines):
        path = tmp_path / f"f{suffix}"
        path.write_text("".join(line + "\n" for line in lines))
        return RECORD_FILES[suffix][0](str(path))

    def test_well_formed_file_loads(self, tmp_path, suffix):
        _, header, records, _ = RECORD_FILES[suffix]
        self.load(tmp_path, suffix, [header.format(1), *records])

    def test_empty_file(self, tmp_path, suffix):
        with pytest.raises(ParseError, match="empty file") as err:
            self.load(tmp_path, suffix, [])
        assert err.value.line == 1

    def test_wrong_tag(self, tmp_path, suffix):
        _, header, records, _ = RECORD_FILES[suffix]
        wrong = "nope " + header.format(1).split(" ", 1)[1]
        with pytest.raises(ParseError, match="expected header") as err:
            self.load(tmp_path, suffix, [wrong, *records])
        assert err.value.line == 1

    def test_wrong_schema(self, tmp_path, suffix):
        _, header, records, _ = RECORD_FILES[suffix]
        with pytest.raises(SchemaVersionMismatch, match="'7', expected '1'"):
            self.load(tmp_path, suffix, [header.format(7), *records])

    def test_bad_record_line_number(self, tmp_path, suffix):
        # the blank line 3 is skipped but still counted
        _, header, records, bad = RECORD_FILES[suffix]
        with pytest.raises(ParseError, match="^line 4: ") as err:
            self.load(tmp_path, suffix, [header.format(1), records[0], "", bad])
        assert err.value.line == 4


def read_per_record(path):
    """``outcome`` of a ``.traj`` reader that reads and checks one record at
    a time: the reference that ``load`` must reproduce, result and error
    alike. Files read through it have no ground truth."""
    done, seen = [], set()
    open_id, rows = None, []  # the open track: its id, its (frame, six floats)

    def close():
        nonlocal open_id
        if open_id is not None:
            frames, values = [r[0] for r in rows], np.array([r[1] for r in rows])
            done.append(FeatureTrajectory.from_arrays(open_id, frames, values[:, :3],
                                                      values[:, 3:]))
            open_id = None

    def record(parts):
        nonlocal open_id, rows
        if len(parts) != 8:
            raise ValueError(f"expected 8 fields, got {len(parts)}")
        tid = int(parts[0])
        frame = int(parts[1])
        vals = [float(v) for v in parts[2:]]
        for name, v in (("id", tid), ("frame", frame)):
            if not -2**63 <= v < 2**63:
                raise ValueError(f"{name} {v} does not fit in int64")
        if tid != open_id:
            close()
            if tid in seen:
                raise ValueError(f"duplicate id {tid}")
            open_id, rows = tid, []
            seen.add(tid)
        if frame <= (rows[-1][0] if rows else -1):
            raise ValueError(f"trajectory {tid}: frame {frame} not increasing")
        rows.append((frame, vals))

    try:
        (frame_rate,) = trajectories.read_records(path, "traj", trajectories.TRAJ_SCHEMA,
                                                  record, close, fields=("frame_rate",))
    except Exception as exc:  # the error is part of what must match
        return type(exc).__name__, str(exc)
    return [(t.id, t.observations.tobytes()) for t in done], frame_rate


def outcome(path):
    """(trajectory ids and bytes, frame rate) of a load, or its error."""
    try:
        demo = load(path)
    except Exception as exc:  # the error is part of what must match
        return type(exc).__name__, str(exc)
    return [(t.id, t.observations.tobytes()) for t in demo.trajectories], demo.frame_rate


# field values that a corruption writes: not numbers, numbers of the other
# type, Python-only literals, the block reader's separator, out of int64
GARBAGE = ["x", "3.0", "1_0", "|", str(2**70), str(-2**70), "-1", "nan", "1e999", "0x1"]


def corrupt(lines, rng):
    """``lines`` (header first) with one to three random edits of the body."""
    lines = list(lines)
    for _ in range(rng.randint(1, 3)):
        if len(lines) < 3:
            break
        i, j = rng.randrange(1, len(lines)), rng.randrange(1, len(lines))
        parts = lines[i].split()
        kind = rng.randrange(11)
        if kind == 0 and parts:  # a field replaced with garbage
            parts[rng.randrange(len(parts))] = rng.choice(GARBAGE)
            lines[i] = " ".join(parts)
        elif kind == 1:  # an extra field
            lines[i] += " " + rng.choice(GARBAGE + ["0.5"])
        elif kind == 2:  # a missing field
            lines[i] = lines[i].rsplit(" ", 1)[0]
        elif kind == 3:  # two lines swapped
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == 4:  # a line duplicated
            lines.insert(j, lines[i])
        elif kind == 5:  # a line deleted
            del lines[i]
        elif kind == 6:  # a line moved
            lines.insert(j, lines.pop(i))
        elif kind == 7:  # a blank line
            lines.insert(i, rng.choice(["", "  \t"]))
        elif kind == 8 and parts:  # an id changed to another line's id
            parts[0] = (lines[j].split() or ["7"])[0]
            lines[i] = " ".join(parts)
        elif kind == 9 and len(parts) > 1 and parts[1].lstrip("-").isdigit():  # a frame shifted
            parts[1] = str(int(parts[1]) + rng.choice([-2, -1, 1, 2]))
            lines[i] = " ".join(parts)
        elif kind == 10:  # the file cut short, perhaps inside a line
            lines = lines[:i] + [lines[i][:rng.randrange(len(lines[i]) + 1)]]
    return lines


class TestBlockReader:
    """``load`` parses a block of lines at once; every block size must read
    what the one-record-at-a-time path reads and raise what it raises."""

    @pytest.fixture
    def lines(self, tmp_path):
        # dropout leaves tracks of unequal lengths with frame gaps
        spec = synth.default_specs()["door"].with_noise(sigma_pos=0.002, dropout=0.1)
        demo = synth.generate(dataclasses.replace(spec, features_per_part=4), frames=12, seed=3)
        path = tmp_path / "door.traj"
        save(trajectories.Demonstration(demo.trajectories, demo.frame_rate), str(path))
        return path.read_text().splitlines()

    @staticmethod
    def edit(lines, i, k, value):
        """``lines`` with field k of line i (0-based, header included) replaced."""
        parts = lines[i].split()
        parts[k] = value
        return lines[:i] + [" ".join(parts)] + lines[i + 1:]

    def cases(self, lines):
        ids = [line.split()[0] for line in lines]
        # the first lines of the second and third tracks
        start, after = [i for i in range(2, len(ids)) if ids[i] != ids[i - 1]][:2]
        return {
            "clean": lines,
            "blank lines": lines[:3] + ["", "  \t"] + lines[3:20] + [""] + lines[20:],
            "non-integer id": self.edit(lines, 30, 0, "x"),
            "non-integer frame": self.edit(lines, 30, 1, "3.0"),
            "non-numeric position": self.edit(lines, 41, 3, "abc"),
            "python float text": self.edit(self.edit(lines, 17, 2, "1_0.5"), 18, 7, " +inf"),
            "7 fields": lines[:25] + [lines[25].rsplit(" ", 1)[0]] + lines[26:],
            "9 fields": lines[:25] + [lines[25] + " 0.5"] + lines[26:],
            "7 then 9 fields": lines[:25] + [lines[25].rsplit(" ", 1)[0], lines[26] + " 1"]
            + lines[27:],
            "separator token": lines[:9] + ["| " + lines[9]] + lines[10:],
            "duplicate id": lines + lines[1:3],
            "non-increasing frame": lines[:start + 1] + [lines[start + 2], lines[start + 1]]
            + lines[start + 3:],
            "negative frame": self.edit(lines, start, 1, "-2"),
            "one-observation track": lines[:start + 1] + lines[after:],
            "one-observation last track": lines + [self.edit(lines, 1, 0, "999")[1]],
            "blank line before an error": lines[:5] + [""] + self.edit(lines, 9, 4, "?")[5:],
            "frame past int64, then smaller": self.edit(lines, 6, 1, str(2**70)),
            "id past int64": [lines[0]] + [f"{2**70} {line.split(' ', 1)[1]}"
                                           for line in lines[1:start]] + lines[start:],
        }

    @pytest.mark.parametrize("block", [1, 2, 5, 512])
    def test_same_result_as_per_record(self, tmp_path, monkeypatch, lines, block):
        monkeypatch.setattr(trajectories, "_BLOCK", block)
        for name, text in self.cases(lines).items():
            path = tmp_path / f"case-{block}.traj"
            path.write_text("\n".join(text) + "\n")
            assert outcome(str(path)) == read_per_record(str(path)), name

    def test_random_corruptions_match_per_record(self, tmp_path, monkeypatch):
        # 300 seeded corruptions of 3 small demos, with and without dropout
        bases = []
        for name, dropout, seed in (("door", 0.1, 3), ("drawer", 0.0, 4), ("monitor", 0.2, 5)):
            spec = synth.default_specs()[name].with_noise(sigma_pos=0.002, dropout=dropout)
            demo = synth.generate(dataclasses.replace(spec, features_per_part=3), frames=10,
                                  seed=seed)
            save(trajectories.Demonstration(demo.trajectories, demo.frame_rate),
                 str(tmp_path / "base.traj"))
            bases.append((tmp_path / "base.traj").read_text().splitlines())
        rng = random.Random(0)
        path = tmp_path / "case.traj"
        for case in range(300):
            path.write_text("\n".join(corrupt(bases[case % 3], rng)) + "\n")
            expected = read_per_record(str(path))
            for block in (1, 5, 128):
                monkeypatch.setattr(trajectories, "_BLOCK", block)
                assert outcome(str(path)) == expected, (case, block)

    @pytest.mark.parametrize("body, error", [
        # a rule error before a malformed line of the same block
        (["0 0", "0 0", "0 x"], "line 3: trajectory 0: frame 0 not increasing"),
        # a one-record track whose next line is malformed: the malformed line
        (["0 0", "0 1", "1 0", "2 x"], "line 5: invalid literal for int() with base 10: 'x'"),
        # a track head that is a duplicate id and out of order: the duplicate
        (["0 0", "0 1", "1 0", "1 1", "0 -1"], "line 6: duplicate id 0"),
        # a track head that closes a one-record track and is a duplicate id
        (["0 0", "0 1", "1 0", "0 2"], "line 5: trajectory 1 has fewer than 2 observations"),
        # a one-record last track: the line past the end
        (["0 0", "0 1", "1 0"], "line 5: trajectory 1 has fewer than 2 observations"),
    ])
    def test_first_error_in_file_order(self, tmp_path, body, error):
        path = tmp_path / "bad.traj"
        path.write_text("traj 1 30.0\n" + "".join(f"{r} 0 0 0 0 0 1\n" for r in body))
        assert outcome(str(path)) == read_per_record(str(path)) == ("ParseError", error)

    def test_errors_name_their_line(self, tmp_path, monkeypatch, lines):
        monkeypatch.setattr(trajectories, "_BLOCK", 4)
        path = tmp_path / "bad.traj"
        path.write_text("\n".join(self.cases(lines)["blank line before an error"]) + "\n")
        with pytest.raises(ParseError, match="^line 11: could not convert string to float: '\\?'"):
            load(str(path))

    def test_clean_file_reads_every_block_whole(self, tmp_path, monkeypatch, lines):
        # no block of a well-formed file falls back to the per-record path
        path = tmp_path / "door.traj"
        path.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(trajectories, "_BLOCK", 3)
        monkeypatch.setattr(trajectories, "_record", None)
        demo = load(str(path))
        assert sum(len(t.observations) for t in demo.trajectories) == len(lines) - 1

    def test_peak_memory_bounded(self, tmp_path):
        # 900 frames x 120 tracks: the reader's peak stays within 1.25x that
        # of reading the same records with the generic per-line reader
        import tracemalloc

        rng = np.random.default_rng(0)
        frames = np.arange(900)
        tracks = [FeatureTrajectory.from_arrays(i, frames, rng.normal(size=(900, 3)),
                                                [0.0, 0.0, 1.0]) for i in range(120)]
        path = str(tmp_path / "big.traj")
        save(trajectories.Demonstration(tracks), path)

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        generic = peak(lambda: trajectories.read_records(
            path, "traj", trajectories.TRAJ_SCHEMA, lambda parts: None, fields=("frame_rate",)))
        assert peak(lambda: load(path)) <= 1.25 * generic


class TestGroundTruthRecords:
    @pytest.fixture
    def gt_lines(self, tmp_path):
        demo = synth.generate(synth.default_specs()["door"], frames=10, seed=1)
        save_path = tmp_path / "door.traj"
        save(demo, str(save_path))
        return (tmp_path / "door.gt").read_text().splitlines()

    def load_gt(self, tmp_path, lines):
        path = tmp_path / "edited.gt"
        path.write_text("\n".join(lines) + "\n")
        return load_ground_truth(str(path))

    @pytest.mark.parametrize("change", [-1, 1])
    def test_joint_needs_6_floats(self, tmp_path, gt_lines, change):
        i = next(i for i, line in enumerate(gt_lines) if line.startswith("joint "))
        joint = gt_lines[i].rsplit(" ", 1)[0] if change < 0 else gt_lines[i] + " 0.0"
        with pytest.raises(ParseError, match="joint record needs 6 floats") as err:
            self.load_gt(tmp_path, gt_lines[:i] + [joint] + gt_lines[i + 1:])
        assert err.value.line == i + 1

    def test_config_frames_contiguous(self, tmp_path, gt_lines):
        i = next(i for i, line in enumerate(gt_lines)
                 if line.startswith("config ") and line.split()[3] == "5")
        with pytest.raises(ParseError, match=r"joint \(0, 1\): config frames not contiguous"):
            self.load_gt(tmp_path, gt_lines[:i] + gt_lines[i + 1:])

    def test_config_order_free(self, tmp_path, gt_lines):
        first = next(i for i, line in enumerate(gt_lines) if line.startswith("config "))
        shuffled = gt_lines[:first] + gt_lines[first:][::-1]
        assert self.load_gt(tmp_path, shuffled) == self.load_gt(tmp_path, gt_lines)
