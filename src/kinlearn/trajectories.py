"""Feature-trajectory data model and the on-disk .traj / .gt formats.

A demonstration is a set of time-stamped 3-D feature trajectories, each
observation carrying a position (m) and a unit surface normal. The text
format is newline-delimited, one record per (trajectory, frame)
observation, preceded by a header with schema version and frame rate:

    traj 1 <frame_rate>
    <id> <frame> <px> <py> <pz> <nx> <ny> <nz>

Records are grouped by trajectory id with strictly increasing frame
indices inside a group. Ground truth lives in a sidecar ``.gt`` file (see
``save_ground_truth``) holding part labels, per-part per-frame poses and
the true joint specs with their configuration sequences.

This module owns the text format of every file the package writes:
``fmt_floats`` writes each float with ``repr`` (so the round trip is
lossless and runs are byte-identical for a fixed seed), ``write_lines``
writes every file, and ``read_records`` reads every record file (``.traj``,
``.gt`` and the model database), checking its header and schema and
reporting parse errors with their line numbers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, SchemaVersionMismatch
from .geometry import Pose

TRAJ_SCHEMA = 1
GT_SCHEMA = 1

RIGID = "rigid"
PRISMATIC = "prismatic"
REVOLUTE = "revolute"
JOINT_KINDS = (RIGID, PRISMATIC, REVOLUTE)


@dataclass(frozen=True)
class FeatureObservation:
    """One feature sighting: frame index, position (m), unit normal."""

    frame: int
    position: np.ndarray
    normal: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.position, dtype=float)
        n = np.asarray(self.normal, dtype=float)
        p.flags.writeable = False
        n.flags.writeable = False
        object.__setattr__(self, "position", p)
        object.__setattr__(self, "normal", n)

    def __eq__(self, other):
        if not isinstance(other, FeatureObservation):
            return NotImplemented
        return (
            self.frame == other.frame
            and np.array_equal(self.position, other.position)
            and np.array_equal(self.normal, other.normal)
        )


@dataclass(frozen=True)
class FeatureTrajectory:
    """One tracked point's observations, frames strictly increasing."""

    id: int
    observations: tuple[FeatureObservation, ...]

    def __post_init__(self):
        obs = tuple(self.observations)
        if len(obs) < 2:
            raise ValueError(f"trajectory {self.id}: needs >=2 observations")
        frames = [o.frame for o in obs]
        if any(b <= a for a, b in zip(frames, frames[1:])):
            raise ValueError(f"trajectory {self.id}: frames not strictly increasing")
        object.__setattr__(self, "observations", obs)

    @property
    def frames(self) -> np.ndarray:
        return np.array([o.frame for o in self.observations])

    @property
    def positions(self) -> np.ndarray:
        return np.array([o.position for o in self.observations])

    @property
    def normals(self) -> np.ndarray:
        return np.array([o.normal for o in self.observations])


@dataclass(frozen=True)
class GroundTruthJoint:
    parent: int
    child: int
    kind: str
    axis: np.ndarray  # world frame at frame 0 (unit; zeros for rigid)
    origin: np.ndarray  # point on the axis, world frame at frame 0
    configurations: np.ndarray  # q per frame (radians or meters)

    def __eq__(self, other):
        if not isinstance(other, GroundTruthJoint):
            return NotImplemented
        return (
            (self.parent, self.child, self.kind) == (other.parent, other.child, other.kind)
            and np.array_equal(self.axis, other.axis)
            and np.array_equal(self.origin, other.origin)
            and np.array_equal(self.configurations, other.configurations)
        )


@dataclass
class GroundTruth:
    """Synthetic stand-in for marker-based ground truth."""

    labels: dict[int, int]  # trajectory id -> part id
    part_poses: dict[int, list[Pose]]  # part id -> pose per frame
    joints: list[GroundTruthJoint]

    def parts(self) -> list[int]:
        return sorted(self.part_poses)

    def validate(self, trajectory_ids) -> None:
        for tid in trajectory_ids:
            if tid not in self.labels:
                raise ValueError(f"trajectory {tid} has no part label")
            if self.labels[tid] not in self.part_poses:
                raise ValueError(f"trajectory {tid} labeled with unknown part")

    def __eq__(self, other):
        if not isinstance(other, GroundTruth):
            return NotImplemented
        if self.labels != other.labels or self.joints != other.joints:
            return False
        if set(self.part_poses) != set(other.part_poses):
            return False
        return all(self.part_poses[p] == other.part_poses[p] for p in self.part_poses)


@dataclass
class Demonstration:
    trajectories: list[FeatureTrajectory]
    frame_rate: float = 30.0
    ground_truth: GroundTruth | None = None

    def __post_init__(self):
        ids = [t.id for t in self.trajectories]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate trajectory ids")
        if self.ground_truth is not None:
            self.ground_truth.validate(ids)

    def n_frames(self) -> int:
        return 1 + max((int(t.frames[-1]) for t in self.trajectories), default=-1)

    def by_id(self) -> dict[int, FeatureTrajectory]:
        return {t.id: t for t in self.trajectories}

    def __eq__(self, other):
        if not isinstance(other, Demonstration):
            return NotImplemented
        return (
            self.frame_rate == other.frame_rate
            and self.trajectories == other.trajectories
            and self.ground_truth == other.ground_truth
        )


# ---------------------------------------------------------------------------
# text files


def fmt_floats(values, sep: str = " ") -> str:
    """The text form of every float the package writes: ``repr``, so that
    reading it back is lossless."""
    return sep.join(repr(float(v)) for v in values)


def write_lines(path: str, lines) -> None:
    """Write ``lines`` to ``path``, each one newline-terminated."""
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def read_records(path: str, tag: str, schema: int, record, finish=None, fields=()):
    """Read a record file whose header is ``<tag> <schema> <fields...>``.

    Rejects an empty file, a wrong header and another schema version,
    then calls ``record(parts)`` with the split fields of every non-blank
    line after the header and, once the file is read, ``finish()``. A
    ValueError or IndexError raised while handling line n becomes
    ``ParseError(line=n)``; for ``finish`` n is the line past the end.
    Returns the header's ``fields`` parsed as floats (errors: line 1).
    """
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines:
        raise ParseError("empty file", line=1)
    header = lines[0].split()
    if len(header) != 2 + len(fields) or header[0] != tag:
        expected = " ".join([tag, "<schema>", *(f"<{name}>" for name in fields)])
        raise ParseError(f"expected header {expected!r}", line=1)
    if header[1] != str(schema):
        raise SchemaVersionMismatch(header[1], str(schema))
    lineno = 1
    try:
        values = [float(v) for v in header[2:]]
        for lineno, raw in enumerate(lines[1:], start=2):
            parts = raw.split()
            if parts:
                record(parts)
        lineno = len(lines) + 1
        if finish is not None:
            finish()
    except (ValueError, IndexError) as exc:
        raise ParseError(str(exc), line=lineno) from None
    return values


def gt_path_for(path: str) -> str:
    root, _ = os.path.splitext(path)
    return root + ".gt"


def save(demo: Demonstration, path: str, with_ground_truth: bool = True) -> None:
    """Write a demonstration; ground truth goes to the ``.gt`` sidecar."""
    lines = [f"traj {TRAJ_SCHEMA} {fmt_floats((demo.frame_rate,))}"]
    for traj in demo.trajectories:
        for o in traj.observations:
            lines.append(f"{traj.id} {o.frame} {fmt_floats(o.position)} {fmt_floats(o.normal)}")
    write_lines(path, lines)
    if with_ground_truth and demo.ground_truth is not None:
        save_ground_truth(demo.ground_truth, gt_path_for(path))


def save_ground_truth(gt: GroundTruth, path: str) -> None:
    lines = [f"gt {GT_SCHEMA}"]
    for tid in sorted(gt.labels):
        lines.append(f"label {tid} {gt.labels[tid]}")
    for part in sorted(gt.part_poses):
        for frame, pose in enumerate(gt.part_poses[part]):
            lines.append(f"pose {part} {frame} {fmt_floats(pose.q)} {fmt_floats(pose.t)}")
    for j in gt.joints:
        lines.append(
            f"joint {j.parent} {j.child} {j.kind} {fmt_floats(j.axis)} {fmt_floats(j.origin)}"
        )
        for frame, q in enumerate(j.configurations):
            lines.append(f"config {j.parent} {j.child} {frame} {fmt_floats((q,))}")
    write_lines(path, lines)


def load(path: str) -> Demonstration:
    """Read a ``.traj`` file; loads the ``.gt`` sidecar when present."""
    trajectories: list[FeatureTrajectory] = []
    seen: set[int] = set()
    cur_id: int | None = None
    cur_obs: list[FeatureObservation] = []
    last_frame = -1

    def flush():
        if cur_id is None:
            return
        if len(cur_obs) < 2:
            raise ValueError(f"trajectory {cur_id} has fewer than 2 observations")
        trajectories.append(FeatureTrajectory(cur_id, tuple(cur_obs)))

    def record(parts):
        nonlocal cur_id, cur_obs, last_frame
        if len(parts) != 8:
            raise ValueError(f"expected 8 fields, got {len(parts)}")
        tid = int(parts[0])
        frame = int(parts[1])
        vals = [float(v) for v in parts[2:]]
        if tid != cur_id:
            flush()
            if tid in seen:
                raise ValueError(f"duplicate id {tid}")
            seen.add(tid)
            cur_id, cur_obs, last_frame = tid, [], -1
        if frame <= last_frame:
            raise ValueError(f"trajectory {tid}: frame {frame} not increasing")
        last_frame = frame
        cur_obs.append(FeatureObservation(frame, np.array(vals[:3]), np.array(vals[3:])))

    (frame_rate,) = read_records(path, "traj", TRAJ_SCHEMA, record, flush, ("frame_rate",))
    gt_path = gt_path_for(path)
    gt = load_ground_truth(gt_path) if os.path.exists(gt_path) else None
    try:
        return Demonstration(trajectories, frame_rate, gt)
    except ValueError as exc:  # the ground truth does not label every trajectory
        raise ParseError(f"{gt_path}: {exc}") from None


def load_ground_truth(path: str) -> GroundTruth:
    labels: dict[int, int] = {}
    poses: dict[int, dict[int, Pose]] = {}
    joints: dict[tuple[int, int], dict] = {}
    configs: dict[tuple[int, int], dict[int, float]] = {}

    def record(parts):
        tag = parts[0]
        if tag == "label":
            labels[int(parts[1])] = int(parts[2])
        elif tag == "pose":
            part, frame = int(parts[1]), int(parts[2])
            vals = [float(v) for v in parts[3:]]
            if len(vals) != 7:
                raise ValueError("pose record needs 7 floats")
            poses.setdefault(part, {})[frame] = Pose(np.array(vals[:4]), np.array(vals[4:]))
        elif tag == "joint":
            key = (int(parts[1]), int(parts[2]))
            kind = parts[3]
            if kind not in JOINT_KINDS:
                raise ValueError(f"unknown joint kind {kind!r}")
            vals = [float(v) for v in parts[4:]]
            joints[key] = {
                "kind": kind,
                "axis": np.array(vals[:3]),
                "origin": np.array(vals[3:]),
            }
        elif tag == "config":
            key = (int(parts[1]), int(parts[2]))
            configs.setdefault(key, {})[int(parts[3])] = float(parts[4])
        else:
            raise ValueError(f"unknown record tag {tag!r}")

    read_records(path, "gt", GT_SCHEMA, record)

    part_poses: dict[int, list[Pose]] = {}
    for part, by_frame in poses.items():
        n = 1 + max(by_frame)
        if sorted(by_frame) != list(range(n)):
            raise ParseError(f"part {part}: pose frames not contiguous from 0")
        part_poses[part] = [by_frame[f] for f in range(n)]

    gt_joints = []
    for key, info in joints.items():
        by_frame = configs.get(key, {})
        qs = np.array([by_frame[f] for f in sorted(by_frame)])
        gt_joints.append(
            GroundTruthJoint(key[0], key[1], info["kind"], info["axis"], info["origin"], qs)
        )
    return GroundTruth(labels, part_poses, gt_joints)
