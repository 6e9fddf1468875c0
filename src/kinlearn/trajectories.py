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

``load`` checks a ``.traj`` header the same way, parses the body into
columns (id, frame, six floats, line number) up to its first malformed
line, with Python's text rules, and then checks each rule of the format
once, on the columns: a track's records are adjacent and its id heads no
other track, its frames increase strictly from 0 or more, it holds at
least 2 records, and every id and frame fits in int64. The first error in
file order is raised with its line number; each track is built from
slices of the columns.
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
    ``OBSERVATION``. The constructor takes an ``OBSERVATION`` array as its
    own, without a copy, and marks it read-only; any other input is
    converted into a new one.
    """

    id: int
    observations: np.recarray

    def __post_init__(self):
        obs = np.asarray(self.observations, dtype=OBSERVATION)
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

    def packed(self):
        """Track x frame layout of every trajectory.

        Returns ``(ids, positions, normals, valid)``: the ids ascending as
        an int array, positions and normals of shape (n, n_frames, 3), NaN
        where a track is unobserved, and the (n, n_frames) mask of observed
        entries; ``n_frames`` runs to the last frame any track observes. The
        rows of a subset of tracks are found with ``np.searchsorted(ids, ...)``.
        """
        by_id = sorted(self.trajectories, key=lambda t: t.id)
        ids = np.array([t.id for t in by_id], dtype=np.int64)
        tracks = [t.observations for t in by_id]
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
    for lineno, raw in enumerate(itertools.islice(lines, 1, None), 2):
        parts = raw.split()
        if parts:
            _at_line(lineno, record, parts)
    if finish is not None:
        _at_line(len(lines) + 1, finish)
    return values


def gt_path_for(path: str) -> str:
    root, _ = os.path.splitext(path)
    return root + ".gt"


def save(demo: Demonstration, path: str) -> None:
    """Write a demonstration; its ground truth, if any, goes to the ``.gt``
    sidecar (a demonstration without one writes no sidecar)."""
    lines = [f"traj {TRAJ_SCHEMA} {fmt_floats((demo.frame_rate,))}"]
    for traj in demo.trajectories:
        obs = traj.observations
        rows = zip(obs.frame.tolist(), obs.position.tolist(), obs.normal.tolist())
        for frame, pos, nrm in rows:
            lines.append(f"{traj.id} {frame} {fmt_floats(pos)} {fmt_floats(nrm)}")
    write_lines(path, lines)
    if demo.ground_truth is not None:
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


def _record(parts):
    """(id, frame, the six floats) of one split ``.traj`` record."""
    if len(parts) != 8:
        raise ValueError(f"expected 8 fields, got {len(parts)}")
    tid, frame = int(parts[0]), int(parts[1])
    values = [float(v) for v in parts[2:]]
    for name, v in (("id", tid), ("frame", frame)):
        if not -2**63 <= v < 2**63:
            raise ValueError(f"{name} {v} does not fit in int64")
    return tid, frame, values


_BLOCK = 128  # .traj lines that _body splits and converts together


def _body(lines):
    """The records of a ``.traj`` file's ``lines`` (header first) as columns.

    Returns ``(ids, frames, values, linenos, error)``: the id, frame, six
    floats (position then normal) and line number of every record before
    the first malformed line, and that line's ``ParseError`` (None if no
    line is malformed). A block of ``_BLOCK`` lines is read with one
    ``str.split`` and one conversion pass per field group; a block that
    this cannot read whole is read again with ``_record``, line by line.
    """
    size = len(lines)
    ids, frames = np.empty(size, np.int64), np.empty(size, np.int64)
    values, linenos = np.empty((size, 6)), np.empty(size, np.int64)
    n = 0  # records read
    for start in range(1, size, _BLOCK):
        block = lines[start:start + _BLOCK]
        k = len(block)
        tokens = " | ".join(block).split()  # "|" ends each line's 8 fields
        if len(tokens) == 9 * k - 1 and tokens[8::9].count("|") == k - 1:
            try:
                ids[n:n + k] = np.fromiter(map(int, tokens[0::9]), np.int64, k)
                frames[n:n + k] = np.fromiter(map(int, tokens[1::9]), np.int64, k)
                del tokens[8::9], tokens[0::8], tokens[0::7]  # leaves the 6 floats of each line
                values[n:n + k] = np.fromiter(map(float, tokens), float, 6 * k).reshape(k, 6)
            except (ValueError, OverflowError):
                pass
            else:
                linenos[n:n + k] = np.arange(start + 1, start + 1 + k)
                n += k
                continue
        for lineno, raw in enumerate(block, start + 1):
            parts = raw.split()
            if not parts:
                continue
            try:
                ids[n], frames[n], values[n] = _record(parts)
            except ValueError as exc:
                return ids[:n], frames[:n], values[:n], linenos[:n], ParseError(str(exc), lineno)
            linenos[n] = lineno
            n += 1
    return ids[:n], frames[:n], values[:n], linenos[:n], None


def load(path: str) -> Demonstration:
    """Read a ``.traj`` file; loads the ``.gt`` sidecar when present.

    Parses the body up to its first malformed line (an id or frame out of
    int64 among them), then raises the first error in file order: a
    one-record track (at the next track's head), an id that heads a second
    track, a frame not above its track's last one or negative; then the
    malformed line; then a one-record last track (at the line past the end).
    """
    lines, (frame_rate,) = _read_header(path, "traj", TRAJ_SCHEMA, ("frame_rate",))
    end = len(lines) + 1
    ids, frames, values, linenos, error = _body(lines)
    del lines
    n = len(ids)
    opens = np.ones(n, dtype=bool)  # rows that head a track
    opens[1:] = ids[1:] != ids[:-1]
    late = np.flatnonzero(frames <= np.where(opens, -1, np.roll(frames, 1)))
    first = int(late[0]) if len(late) else n  # the first row out of order
    heads = np.flatnonzero(opens).tolist()
    tids = ids[heads].tolist()
    seen = set()
    for i, (h, tid) in enumerate(zip(heads, tids)):
        if h > first:
            break
        if i and h - heads[i - 1] < 2:
            raise ParseError(f"trajectory {tids[i - 1]} has fewer than 2 observations",
                             int(linenos[h]))
        if tid in seen:
            raise ParseError(f"duplicate id {tid}", int(linenos[h]))
        seen.add(tid)
    if first < n:
        raise ParseError(f"trajectory {ids[first]}: frame {frames[first]} not increasing",
                         int(linenos[first]))
    if error is not None:
        raise error
    if heads and n - heads[-1] < 2:
        raise ParseError(f"trajectory {tids[-1]} has fewer than 2 observations", end)
    tracks = [FeatureTrajectory.from_arrays(tid, frames[h:e], values[h:e, :3], values[h:e, 3:])
              for tid, h, e in zip(tids, heads, heads[1:] + [n])]
    gt_path = gt_path_for(path)
    gt = load_ground_truth(gt_path) if os.path.exists(gt_path) else None
    try:
        return Demonstration(tracks, frame_rate, gt)
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
