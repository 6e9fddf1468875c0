"""Feature-trajectory data model and the on-disk .traj / .gt formats.

A demonstration is a set of time-stamped 3-D feature trajectories, each
observation carrying a position (m) and a unit surface normal. A
trajectory keeps them in one read-only record array of dtype
``OBSERVATION`` (fields ``frame``, ``position``, ``normal``; one row per
observation, frames strictly increasing), built with
``FeatureTrajectory.from_arrays(id, frames, positions, normals)``.
``Demonstration.packed`` gives the track x frame arrays that segmentation
and pose estimation read.

The text format is newline-delimited, one record per (trajectory, frame)
observation, preceded by a header with schema version and frame rate:

    traj 1 <frame_rate>
    <id> <frame> <px> <py> <pz> <nx> <ny> <nz>

Records are grouped by trajectory id with strictly increasing frame
indices inside a group. Ground truth lives in a sidecar ``.gt`` file (see
``save_ground_truth``) holding part labels, per-part per-frame poses and
the true joint specs with their configuration sequences; in memory each
part's poses are one ``Pose`` stack, ``gt.part_poses[part][frame]``.

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


# one row per observation: frame index, position (m), unit normal
OBSERVATION = np.dtype(
    [("frame", np.int64), ("position", np.float64, (3,)), ("normal", np.float64, (3,))]
)


@dataclass(frozen=True, eq=False)
class FeatureTrajectory:
    """One tracked point's observations, frames nonnegative and strictly
    increasing.

    ``observations`` is a read-only ``np.recarray`` of dtype
    ``OBSERVATION``; the constructor copies whatever it is given into one.
    """

    id: int
    observations: np.recarray

    def __post_init__(self):
        obs = np.array(self.observations, dtype=OBSERVATION).view(np.recarray)
        obs.flags.writeable = False
        if len(obs) < 2:
            raise ValueError(f"trajectory {self.id} has fewer than 2 observations")
        if np.any(np.diff(obs.frame) <= 0):
            raise ValueError(f"trajectory {self.id}: frames not strictly increasing")
        if obs.frame[0] < 0:
            raise ValueError(f"trajectory {self.id}: negative frame {obs.frame[0]}")
        object.__setattr__(self, "observations", obs)

    @classmethod
    def from_arrays(cls, id, frames, positions, normals) -> "FeatureTrajectory":
        """Trajectory from per-field arrays; a single (3,) row broadcasts."""
        obs = np.empty(len(frames), dtype=OBSERVATION)
        obs["frame"], obs["position"], obs["normal"] = frames, positions, normals
        return cls(id, obs)

    @property
    def frames(self) -> np.ndarray:
        return self.observations.frame

    @property
    def positions(self) -> np.ndarray:
        return self.observations.position

    @property
    def normals(self) -> np.ndarray:
        return self.observations.normal

    def __eq__(self, other):
        if not isinstance(other, FeatureTrajectory):
            return NotImplemented
        return self.id == other.id and np.array_equal(self.observations, other.observations)


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
    part_poses: dict[int, Pose]  # part id -> stack of poses, one per frame
    joints: list[GroundTruthJoint]

    def parts(self) -> list[int]:
        return sorted(self.part_poses)

    def validate(self, trajectory_ids) -> None:
        for tid in trajectory_ids:
            if tid not in self.labels:
                raise ValueError(f"trajectory {tid} has no part label")
            if self.labels[tid] not in self.part_poses:
                raise ValueError(f"trajectory {tid} labeled with unknown part")


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

    def packed(self, ids=None):
        """Track x frame layout of the trajectories ``ids`` (default all).

        Returns ``(ids, positions, normals, valid)``: the ids ascending as
        an int array, positions and normals of shape (n, n_frames, 3), NaN
        where a track is unobserved, and the (n, n_frames) mask of observed
        entries; ``n_frames`` runs to the last frame these tracks observe.
        """
        lookup = {t.id: t for t in self.trajectories}
        ids = np.array(sorted(lookup if ids is None else ids), dtype=np.int64)
        n_frames = 1 + max((int(lookup[tid].frames[-1]) for tid in ids), default=-1)
        valid = np.zeros((len(ids), n_frames), dtype=bool)
        pos = np.full(valid.shape + (3,), np.nan)
        nrm = np.full(valid.shape + (3,), np.nan)
        for i, tid in enumerate(ids):
            obs = lookup[tid].observations
            pos[i, obs.frame] = obs.position
            nrm[i, obs.frame] = obs.normal
            valid[i, obs.frame] = True
        return ids, pos, nrm, valid


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
        obs = traj.observations
        rows = zip(obs.frame.tolist(), obs.position.tolist(), obs.normal.tolist())
        for frame, pos, nrm in rows:
            lines.append(f"{traj.id} {frame} {fmt_floats(pos)} {fmt_floats(nrm)}")
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
    cur_frames: list[int] = []
    cur_rows: list[list[float]] = []  # position then normal, per observation

    def flush():
        if cur_id is not None:
            rows = np.array(cur_rows)
            trajectories.append(
                FeatureTrajectory.from_arrays(cur_id, cur_frames, rows[:, :3], rows[:, 3:])
            )

    def record(parts):
        nonlocal cur_id, cur_frames, cur_rows
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
            cur_id, cur_frames, cur_rows = tid, [], []
        if frame <= (cur_frames[-1] if cur_frames else -1):
            raise ValueError(f"trajectory {tid}: frame {frame} not increasing")
        cur_frames.append(frame)
        cur_rows.append(vals)

    (frame_rate,) = read_records(path, "traj", TRAJ_SCHEMA, record, flush, ("frame_rate",))
    gt_path = gt_path_for(path)
    gt = load_ground_truth(gt_path) if os.path.exists(gt_path) else None
    try:
        return Demonstration(trajectories, frame_rate, gt)
    except ValueError as exc:  # the ground truth does not label every trajectory
        raise ParseError(f"{gt_path}: {exc}") from None


def load_ground_truth(path: str) -> GroundTruth:
    labels: dict[int, int] = {}
    poses: dict[int, dict[int, list[float]]] = {}  # part -> frame -> q then t
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
            poses.setdefault(part, {})[frame] = vals
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

    part_poses: dict[int, Pose] = {}
    for part, by_frame in poses.items():
        n = 1 + max(by_frame)
        if sorted(by_frame) != list(range(n)):
            raise ParseError(f"part {part}: pose frames not contiguous from 0")
        rows = np.array([by_frame[f] for f in range(n)])
        part_poses[part] = Pose(rows[:, :4], rows[:, 4:])

    gt_joints = []
    for key, info in joints.items():
        by_frame = configs.get(key, {})
        qs = np.array([by_frame[f] for f in sorted(by_frame)])
        gt_joints.append(
            GroundTruthJoint(key[0], key[1], info["kind"], info["axis"], info["origin"], qs)
        )
    return GroundTruth(labels, part_poses, gt_joints)
