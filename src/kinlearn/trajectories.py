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
writes every file, and ``read_records`` reads every record file (``.gt`` and
the model database) one line at a time, checking its header and schema and
reporting parse errors with their line numbers.

``load`` checks a ``.traj`` header the same way, then reads the body in
blocks of at most ``_BLOCK`` lines: one ``str.split`` per block, one
``int``/``float`` conversion pass per field group with Python's text
rules, and each track built from slices of the block's arrays, so the
parse's temporaries stay bounded whatever the file's size. A block that
holds a blank line or breaks a rule is read again one record at a time,
which raises the first error with the message and line number that the
per-record reader gives.
"""

from __future__ import annotations

import itertools
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
        obs = np.array(self.observations, dtype=OBSERVATION)
        obs.flags.writeable = False
        frames = obs["frame"]
        if len(obs) < 2:
            raise ValueError(f"trajectory {self.id} has fewer than 2 observations")
        if np.any(frames[1:] - frames[:-1] <= 0):  # np.diff, without its wrapper
            raise ValueError(f"trajectory {self.id}: frames not strictly increasing")
        if frames[0] < 0:
            raise ValueError(f"trajectory {self.id}: negative frame {frames[0]}")
        object.__setattr__(self, "observations", obs.view(np.recarray))

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
        tracks = [lookup[tid].observations for tid in ids.tolist()]
        # every observation once, track after track, as plain record fields
        obs = np.concatenate(tracks or [np.empty(0, OBSERVATION)]).view(np.ndarray)
        rows = np.repeat(np.arange(len(ids)), [len(t) for t in tracks])
        frames = obs["frame"]
        valid = np.zeros((len(ids), 1 + int(frames.max(initial=-1))), dtype=bool)
        pos = np.full(valid.shape + (3,), np.nan)
        nrm = np.full(valid.shape + (3,), np.nan)
        pos[rows, frames] = obs["position"]
        nrm[rows, frames] = obs["normal"]
        valid[rows, frames] = True
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


def _read_header(path: str, tag: str, schema: int, fields):
    """The lines of a record file whose header ``<tag> <schema> <fields...>``
    is checked, and the header's ``fields`` parsed as floats (errors: line 1)."""
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
    return lines, _at_line(1, lambda: [float(v) for v in header[2:]])


def _at_line(lineno: int, fn, *args):
    """``fn(*args)``, a ValueError or IndexError raised as ``ParseError(line=lineno)``."""
    try:
        return fn(*args)
    except (ValueError, IndexError) as exc:
        raise ParseError(str(exc), line=lineno) from None


def _records(lines, start: int, record) -> None:
    """``record(parts)`` with the split fields of every non-blank line of
    ``lines``, the first of which is line ``start`` of its file."""
    for lineno, raw in enumerate(lines, start):
        parts = raw.split()
        if parts:
            _at_line(lineno, record, parts)


def read_records(path: str, tag: str, schema: int, record, finish=None, fields=()):
    """Read a record file whose header is ``<tag> <schema> <fields...>``.

    Rejects an empty file, a wrong header and another schema version,
    then calls ``record(parts)`` with the split fields of every non-blank
    line after the header and, once the file is read, ``finish()``. A
    ValueError or IndexError raised while handling line n becomes
    ``ParseError(line=n)``; for ``finish`` n is the line past the end.
    Returns the header's ``fields`` parsed as floats (errors: line 1).
    """
    lines, values = _read_header(path, tag, schema, fields)
    _records(itertools.islice(lines, 1, None), 2, record)
    if finish is not None:
        _at_line(len(lines) + 1, finish)
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


class _Tracks:
    """The trajectories of a ``.traj`` body, read a block of lines at a time.

    ``take`` reads a block with one ``str.split`` and three conversion
    passes (ids, frames, the six floats); a block it cannot take whole (a
    blank line, a malformed field, a broken rule) goes to ``replay``,
    which reads it one record at a time and raises the first error at its
    line. The track open at the end of a block carries over to the next.
    """

    def __init__(self):
        self.done: list[FeatureTrajectory] = []
        self.seen: set[int] = set()
        self.id: int | None = None  # the open track
        self.count = 0  # its rows so far
        self.last = -1  # its last frame
        self.pieces: list = []  # its (frames, position then normal) pieces

    def flush(self) -> None:
        """Close the open track, if any."""
        if self.id is not None:
            frames = np.concatenate([f for f, _ in self.pieces])
            rows = np.concatenate([v for _, v in self.pieces])
            self.done.append(
                FeatureTrajectory.from_arrays(self.id, frames, rows[:, :3], rows[:, 3:])
            )
            self.id = None

    def open(self, tid: int) -> None:
        self.flush()
        self.id, self.count, self.last, self.pieces = tid, 0, -1, []
        self.seen.add(tid)

    def extend(self, frames, rows) -> None:
        self.pieces.append((frames, rows))
        self.count += len(frames)
        self.last = int(frames[-1])

    def take(self, lines) -> bool:
        """Read every line of a block at once; False, having read nothing,
        unless each line is a well-formed record that breaks no rule."""
        n = len(lines)
        tokens = " | ".join(lines).split()  # "|" ends each line's 8 fields
        if len(tokens) != 9 * n - 1 or tokens[8::9].count("|") != n - 1:
            return False
        try:
            ids = np.fromiter(map(int, tokens[0::9]), np.int64, n)
            frames = np.fromiter(map(int, tokens[1::9]), np.int64, n)
            del tokens[8::9], tokens[0::8], tokens[0::7]  # leaves the 6 floats of each line
            rows = np.fromiter(map(float, tokens), float, 6 * n).reshape(n, 6)
            prev = np.empty(n, dtype=np.int64)  # the frame each row must exceed
            prev[0], prev[1:] = self.last, frames[:-1]
        except (ValueError, OverflowError):
            return False
        opens = np.empty(n, dtype=bool)  # rows that start a track
        opens[0] = int(ids[0]) != self.id
        opens[1:] = ids[1:] != ids[:-1]
        heads = np.flatnonzero(opens).tolist()
        prev[opens] = -1
        new = ids[heads].tolist()
        ends = heads[1:] + [n]
        if (np.any(frames <= prev) or len(set(new)) < len(new) or not self.seen.isdisjoint(new)
                or (opens[0] and self.id is not None and self.count < 2)
                or any(e - h < 2 for h, e in zip(heads, ends[:-1]))):
            return False
        first = heads[0] if heads else n
        if first:  # rows that continue the open track
            self.extend(frames[:first], rows[:first])
        for tid, h, e in zip(new, heads, ends):
            self.open(tid)
            self.extend(frames[h:e], rows[h:e])
        return True

    def record(self, parts) -> None:
        """Read one record, checking it as ``take`` checks a block."""
        if len(parts) != 8:
            raise ValueError(f"expected 8 fields, got {len(parts)}")
        tid = int(parts[0])
        frame = int(parts[1])
        vals = [float(v) for v in parts[2:]]
        if tid != self.id:
            self.flush()
            if tid in self.seen:
                raise ValueError(f"duplicate id {tid}")
            self.open(tid)
        if frame <= self.last:
            raise ValueError(f"trajectory {tid}: frame {frame} not increasing")
        self.extend([frame], [vals])

    def replay(self, lines, start: int) -> None:
        """Read a block one record at a time; its first line is line ``start``."""
        _records(lines, start, self.record)


_BLOCK = 128  # .traj lines that load splits and converts together


def load(path: str) -> Demonstration:
    """Read a ``.traj`` file, block by block; loads the ``.gt`` sidecar when present."""
    lines, (frame_rate,) = _read_header(path, "traj", TRAJ_SCHEMA, ("frame_rate",))
    tracks = _Tracks()
    for start in range(1, len(lines), _BLOCK):
        block = lines[start:start + _BLOCK]
        if not tracks.take(block):
            tracks.replay(block, start + 1)
    _at_line(len(lines) + 1, tracks.flush)
    gt_path = gt_path_for(path)
    gt = load_ground_truth(gt_path) if os.path.exists(gt_path) else None
    try:
        return Demonstration(tracks.done, frame_rate, gt)
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
            if len(vals) != 6:
                raise ValueError("joint record needs 6 floats")
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
        if sorted(by_frame) != list(range(len(by_frame))):
            raise ParseError(f"joint {key}: config frames not contiguous from 0")
        qs = np.array([by_frame[f] for f in range(len(by_frame))])
        gt_joints.append(
            GroundTruthJoint(key[0], key[1], info["kind"], info["axis"], info["origin"], qs)
        )
    return GroundTruth(labels, part_poses, gt_joints)
