"""Kinematic tree assembly, persistence and articulated-motion prediction.

Every pair of clusters sharing enough frames gets a fitted joint model;
the object's structure is the minimum spanning tree of the resulting
graph under BIC edge costs, with deterministic lexicographic
tie-breaking. Learned graphs live in a schema-versioned text database
keyed by object id and can be replayed at arbitrary configurations.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DisconnectedParts,
    DuplicateObject,
    MissingConfiguration,
    UnknownObject,
)
from .geometry import Pose, compose, inverse, pose_residual
from .joints import (
    JointModel,
    NoiseModel,
    model_fit_error,
    relative_pose_sequence,
    select_model,
)
from .trajectories import PRISMATIC, REVOLUTE, RIGID, fmt_floats, read_records, write_lines

__all__ = [
    "KinematicGraph",
    "ModelDatabase",
    "EdgeReport",
    "EvaluationReport",
    "build_graph",
    "minimum_spanning_tree",
    "predict",
    "save_db",
    "load_db",
    "evaluate",
]

DB_SCHEMA = 1

SUCCESS_MAX_POS = 0.10  # meters, mean pose error
SUCCESS_MAX_ROT = 25.0  # degrees, mean pose error


@dataclass
class KinematicGraph:
    """Spanning tree of part ids with a joint model per edge.

    An edge (a, b, model) means pose_b = pose_a composed with the model's
    predicted relative pose; the root is the lowest part id.
    """

    object_id: str
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int, JointModel], ...]

    def __post_init__(self):
        self.vertices = tuple(sorted(self.vertices))
        if len(self.edges) != len(self.vertices) - 1 or {
            self.root(), *(dst for _, dst, _, _ in self.walk())
        } != set(self.vertices):
            raise ValueError("edges do not form a spanning tree")

    def root(self) -> int:
        return self.vertices[0]

    def walk(self) -> list[tuple[int, int, JointModel, bool]]:
        """Edges reachable from the root, breadth-first, as (src, dst,
        model, forward): ``src`` is reached before the edge and ``dst``
        through it; ``forward`` tells whether the edge is stored as
        (src, dst) rather than (dst, src)."""
        adjacent: dict[int, list] = {}
        for a, b, model in self.edges:
            adjacent.setdefault(a, []).append((b, model, True))
            adjacent.setdefault(b, []).append((a, model, False))
        reached, order = [self.root()], []
        for src in reached:  # grows while it is walked
            for dst, model, forward in adjacent.get(src, ()):
                if dst not in reached:
                    reached.append(dst)
                    order.append((src, dst, model, forward))
        return order


def build_graph(pose_seqs, noise: NoiseModel | None = None, object_id: str = "") -> KinematicGraph:
    """Fit all pairwise joint models and keep the BIC-minimum spanning tree.

    Pairs sharing fewer than 3 frames get no candidate edge; if the
    remaining candidates cannot connect every cluster, DisconnectedParts
    is raised. A single cluster yields a trivial one-vertex graph with a
    warning.
    """
    seqs = sorted(pose_seqs, key=lambda s: s.cluster_id)
    ids = [s.cluster_id for s in seqs]
    if len(ids) == 1:
        warnings.warn("single part: trivial kinematic graph", RuntimeWarning)
        return KinematicGraph(object_id, tuple(ids), ())

    candidates = []
    for i in range(len(seqs)):
        for j in range(i + 1, len(seqs)):
            a, b = seqs[i], seqs[j]
            if len(np.intersect1d(a.poses.frames, b.poses.frames)) < 3:
                continue
            rel = relative_pose_sequence(b, a)
            model = select_model(rel, noise)
            candidates.append((float(model.bic), a.cluster_id, b.cluster_id, model))

    try:
        edges = minimum_spanning_tree(ids, candidates)
    except DisconnectedParts:
        raise DisconnectedParts(
            "no spanning tree: some cluster pairs never share enough frames"
        ) from None
    return KinematicGraph(object_id, tuple(ids), tuple(edges))


def minimum_spanning_tree(ids, candidates):
    """Kruskal over (cost, a, b, payload) candidates, deterministic ties.

    Candidates are visited in ascending (cost, a, b) order so equal-cost
    instances always resolve the same way. Returns (a, b, payload) edges;
    raises DisconnectedParts when the candidates cannot span ``ids``.
    """
    ids = sorted(ids)
    ordered = sorted(candidates, key=lambda c: (c[0], c[1], c[2]))
    parent = {v: v for v in ids}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    edges = []
    for cost, a, b, payload in ordered:
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        parent[ra] = rb
        edges.append((a, b, payload))
        if len(edges) == len(ids) - 1:
            break
    if len(edges) != len(ids) - 1:
        raise DisconnectedParts("candidate edges do not span all parts")
    return edges


def predict(
    graph: KinematicGraph,
    configurations: dict,
    base_pose: Pose | None = None,
) -> dict[int, Pose]:
    """Part poses at the given per-edge configurations.

    A configuration is a number or an array; arrays of one shape give
    every part a stack of poses of that shape in one walk of the tree. The
    root part carries ``base_pose`` (identity by default); every other
    part's pose follows its path to the root through the edge models. Rigid
    edges need no configuration; configurations outside the observed range
    trigger an extrapolation warning but are honored.
    """
    poses = {graph.root(): base_pose or Pose.identity()}
    for src, dst, model, forward in graph.walk():
        a, b = (src, dst) if forward else (dst, src)
        if model.kind == RIGID:
            q = 0.0
        else:
            q = configurations.get((a, b), configurations.get((b, a)))
            if q is None:
                raise MissingConfiguration(
                    f"edge ({a}, {b}) [{model.kind}] needs a configuration"
                )
            outside = np.count_nonzero(model.extrapolates(q))
            if outside:
                lo, hi = model.q_range()
                warnings.warn(
                    f"edge ({a}, {b}): {outside} of {np.size(q)} configuration(s) outside "
                    f"observed range [{lo}, {hi}], extrapolating",
                    RuntimeWarning,
                )
        delta = model.predict(q)
        poses[dst] = compose(poses[src], delta if forward else inverse(delta))
    return poses


# ---------------------------------------------------------------------------
# persistence


@dataclass
class ModelDatabase:
    """Object id -> learned kinematic graph plus free-form provenance."""

    graphs: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def add(self, graph: KinematicGraph, provenance: dict | None = None) -> None:
        if graph.object_id in self.graphs:
            raise DuplicateObject(f"object {graph.object_id!r} already stored")
        if not graph.object_id or any(c.isspace() for c in graph.object_id):
            raise ValueError("object id must be a non-empty token")
        self.graphs[graph.object_id] = graph
        self.provenance[graph.object_id] = dict(provenance or {})

    def get(self, object_id: str) -> KinematicGraph:
        if object_id not in self.graphs:
            raise UnknownObject(
                f"no model for object {object_id!r}; known objects: "
                + ", ".join(sorted(self.graphs))
            )
        return self.graphs[object_id]


_PARAM_NAMES = {
    RIGID: ("rotation", "translation"),
    PRISMATIC: ("axis", "base", "rotation"),
    REVOLUTE: ("axis", "center", "base"),
}


def save_db(db: ModelDatabase, path: str) -> None:
    lines = [f"kgraphdb {DB_SCHEMA}"]
    for oid in sorted(db.graphs):
        g = db.graphs[oid]
        lines.append(f"object {oid}")
        for key in sorted(db.provenance.get(oid, {})):
            lines.append(f"provenance {key} {db.provenance[oid][key]}")
        lines.append("vertices " + " ".join(str(v) for v in g.vertices))
        for a, b, m in g.edges:
            lines.append(
                f"edge {a} {b} {m.kind} {m.p} "
                f"{fmt_floats((m.loglik, m.bic))} {int(m.degenerate)}"
            )
            for name in _PARAM_NAMES[m.kind]:
                value = m.params[name]
                if isinstance(value, Pose):
                    lines.append(f"param {name} {fmt_floats(value.q)} {fmt_floats(value.t)}")
                else:
                    lines.append(f"param {name} {fmt_floats(value)}")
            lines.append("configs " + fmt_floats(m.configurations))
    write_lines(path, lines)


def load_db(path: str) -> ModelDatabase:
    db = ModelDatabase()
    oid = None
    vertices: list[int] = []
    edges: list = []
    provenance: dict = {}
    open_edge: list | None = None  # [a, b, model kwargs] of the edge being read

    def finish_edge():
        nonlocal open_edge
        if open_edge is None:
            return
        a, b, kw = open_edge
        missing = [n for n in _PARAM_NAMES[kw["kind"]] if n not in kw["params"]]
        missing += ["configs"] if kw["configurations"] is None else []
        if missing:
            raise ValueError(f"edge ({a}, {b}) incomplete: missing {missing}")
        edges.append((a, b, JointModel(**kw)))
        open_edge = None

    def finish_object():
        nonlocal oid, vertices, edges, provenance
        if oid is None:
            return
        finish_edge()
        try:
            graph = KinematicGraph(oid, tuple(vertices), tuple(edges))
        except ValueError as exc:
            raise ValueError(f"object {oid}: {exc}") from None
        db.add(graph, provenance)
        oid, vertices, edges, provenance = None, [], [], {}

    def record(parts):
        nonlocal oid, vertices, open_edge
        tag = parts[0]
        if tag == "object":
            finish_object()
            oid = parts[1]
            if oid in db.graphs:
                raise ValueError(f"object {oid!r} stored twice")
        elif tag == "provenance":
            provenance[parts[1]] = " ".join(parts[2:])
        elif tag == "vertices":
            vertices = [int(v) for v in parts[1:]]
        elif tag == "edge":
            finish_edge()
            kind = parts[3]
            if kind not in _PARAM_NAMES:
                raise ValueError(f"unknown joint kind {kind!r}")
            open_edge = [
                int(parts[1]),
                int(parts[2]),
                {
                    "kind": kind,
                    "params": {},
                    "p": int(parts[4]),
                    "loglik": float(parts[5]),
                    "bic": float(parts[6]),
                    "configurations": None,
                    "degenerate": bool(int(parts[7])),
                },
            ]
        elif tag == "param":
            if open_edge is None:
                raise ValueError("param record outside an edge")
            name = parts[1]
            vals = np.array([float(v) for v in parts[2:]])
            if name == "base" and open_edge[2]["kind"] == REVOLUTE:
                if len(vals) != 7:
                    raise ValueError("base pose needs 7 floats")
                open_edge[2]["params"][name] = Pose(vals[:4], vals[4:])
            else:
                open_edge[2]["params"][name] = vals
        elif tag == "configs":
            if open_edge is None:
                raise ValueError("configs record outside an edge")
            open_edge[2]["configurations"] = np.array([float(v) for v in parts[1:]])
        else:
            raise ValueError(f"unknown record tag {tag!r}")

    read_records(path, "kgraphdb", DB_SCHEMA, record, finish_object)
    return db


# ---------------------------------------------------------------------------
# evaluation


@dataclass
class EdgeReport:
    clusters: tuple[int, int]
    parts: tuple[int, int]
    kind: str
    true_kind: str | None
    kind_correct: bool
    axis_error_deg: float | None
    axis_position_error_m: float | None
    fit_error_m: float
    fit_error_deg: float


@dataclass
class EvaluationReport:
    part_of_cluster: dict[int, int]
    pose_rmse_m: dict[int, float]
    pose_rmse_deg: dict[int, float]
    edges: list[EdgeReport]
    mean_pose_error_m: float
    mean_pose_error_deg: float
    types_correct: bool
    success: bool


def _axis_direction_error(fitted, true_axis) -> float:
    cosang = abs(float(np.asarray(fitted) @ np.asarray(true_axis)))
    return float(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))))


def _line_distance(p1, d1, p2, d2) -> float:
    """Distance between two 3-D lines (point, direction)."""
    cross = np.cross(d1, d2)
    off = np.asarray(p2) - np.asarray(p1)
    n = np.linalg.norm(cross)
    if n < 1e-9:  # parallel lines
        return float(np.linalg.norm(off - (off @ d1) * np.asarray(d1)))
    return float(abs(off @ cross) / n)


def evaluate(
    graph: KinematicGraph,
    pose_seqs,
    assignment,
    ground_truth,
) -> EvaluationReport:
    """Compare a learned graph against synthetic ground truth.

    Clusters map to parts by majority vote over their member labels.
    Pose RMSE compares each cluster's estimated motion with the true
    part motion relative to the cluster's first observed frame; the
    success flag applies the mean 10 cm / 25 degree rule. ``types_correct``
    needs every edge's kind to be right and at least as many edges as the
    ground truth has joints.
    """
    by_cluster = {s.cluster_id: s for s in pose_seqs}
    part_of_cluster: dict[int, int] = {}
    for cid, members in assignment.clusters.items():
        if cid not in by_cluster:
            continue
        votes: dict[int, int] = {}
        for tid in members:
            part = ground_truth.labels[tid]
            votes[part] = votes.get(part, 0) + 1
        part_of_cluster[cid] = max(sorted(votes), key=lambda p: votes[p])

    pose_rmse_m: dict[int, float] = {}
    pose_rmse_deg: dict[int, float] = {}
    all_pos: list[float] = []
    all_rot: list[float] = []
    for cid, seq in by_cluster.items():
        part = part_of_cluster[cid]
        truth = ground_truth.part_poses[part]
        true = compose(truth[seq.poses.frames], inverse(truth[seq.first_frame()]))
        m, rad = pose_residual(seq.poses.stack, true)
        # squared per frame with Python floats, as numpy's square can differ
        # from float ** 2 in the last bit
        sq_pos = [v ** 2 for v in m.tolist()]
        sq_rot = [v ** 2 for v in np.degrees(rad).tolist()]
        all_pos += np.sqrt(sq_pos).tolist()
        all_rot += np.sqrt(sq_rot).tolist()
        pose_rmse_m[part] = float(np.sqrt(np.mean(sq_pos)))
        pose_rmse_deg[part] = float(np.sqrt(np.mean(sq_rot)))

    gt_joints = {
        frozenset((j.parent, j.child)): j for j in ground_truth.joints
    }
    edge_reports: list[EdgeReport] = []
    for a, b, model in graph.edges:
        pa, pb = part_of_cluster[a], part_of_cluster[b]
        true_joint = gt_joints.get(frozenset((pa, pb)))
        true_kind = true_joint.kind if true_joint else None
        correct = true_kind == model.kind
        axis_err = pos_err = None
        if correct and model.kind in (PRISMATIC, REVOLUTE):
            axis_err = _axis_direction_error(model.params["axis"], true_joint.axis)
            if model.kind == REVOLUTE:
                pos_err = _line_distance(
                    model.params["center"], model.params["axis"],
                    true_joint.origin, true_joint.axis,
                )
        rel = relative_pose_sequence(by_cluster[b], by_cluster[a])
        fe_m, fe_deg = model_fit_error(model, rel)
        edge_reports.append(
            EdgeReport((a, b), (pa, pb), model.kind, true_kind, correct,
                       axis_err, pos_err, fe_m, fe_deg)
        )

    mean_pos = float(np.mean(all_pos)) if all_pos else 0.0
    mean_rot = float(np.mean(all_rot)) if all_rot else 0.0
    # a graph missing edges has not typed every joint, even if no edge is wrong
    types_ok = len(edge_reports) >= len(ground_truth.joints) and all(
        e.kind_correct for e in edge_reports
    )
    success = mean_pos < SUCCESS_MAX_POS and mean_rot < SUCCESS_MAX_ROT
    return EvaluationReport(
        part_of_cluster, pose_rmse_m, pose_rmse_deg, edge_reports,
        mean_pos, mean_rot, types_ok, success,
    )
