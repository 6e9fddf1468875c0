"""Command-line pipeline: generate | segment | learn | predict | eval.

All randomized stages draw from the single ``--seed`` flag, every
tolerance is a flag with its library default, and all emitted files use
``repr`` floats, so repeating an invocation with the same inputs and
seed produces byte-identical artifacts.

Exit codes: 0 success; 2 bad input; 3 fewer than 2 clusters;
4 disconnected parts; 5 unknown object id in a model database.
``EXIT_CODES`` maps each failure type to its code, and ``main`` applies
it to every subcommand.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings

import numpy as np

from . import synth, trajectories
from .errors import (
    DisconnectedParts,
    InvalidSpec,
    KinlearnError,
    MissingConfiguration,
    ParseError,
    SchemaVersionMismatch,
    UnknownObject,
)
from .joints import DEFAULT_SIGMA_POS, DEFAULT_SIGMA_ROT, NoiseModel
from .kingraph import (
    ModelDatabase,
    build_graph,
    evaluate,
    load_db,
    predict,
    save_db,
)
from .posegraph import (
    DEFAULT_INLIER_THRESHOLD,
    DEFAULT_SPARSE_STRIDE,
    estimate_cluster_poses,
)
from .segmentation import (
    DEFAULT_EPS,
    DEFAULT_GAMMA_NORMAL,
    DEFAULT_GAMMA_POS,
    DEFAULT_MIN_PTS,
    NOISE,
    SimilarityParams,
    cluster,
    similarity_matrix,
)
from .trajectories import RIGID, fmt_floats, write_lines

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_TOO_FEW_CLUSTERS = 3
EXIT_DISCONNECTED = 4
EXIT_UNKNOWN_OBJECT = 5

MIN_FRAMES = 10


def _write(path: str | None, lines, stdout) -> None:
    if path:
        write_lines(path, lines)
    else:
        stdout.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# shared pipeline stages


def _segment(demo, args):
    params = SimilarityParams(gamma_pos=args.gamma_pos, gamma_normal=args.gamma_normal)
    matrix = similarity_matrix(demo, params)
    assignment = cluster(matrix, eps=args.eps, min_pts=args.min_pts)
    return matrix, assignment


def _noise_model(args) -> NoiseModel:
    return NoiseModel(sigma_pos=args.sigma_pos, sigma_rot=args.sigma_rot)


def _dump_similarity(matrix, path: str) -> None:
    lines = ["id," + ",".join(str(i) for i in matrix.ids)]
    for tid, row in zip(matrix.ids, matrix.values):
        # the only "nan" in a row of repr floats is an Undefined field: blank it
        lines.append(f"{tid},{fmt_floats(row, ',').replace('nan', '')}")
    write_lines(path, lines)


def _learn_pipeline(demo, assignment, args):
    """segmentation -> per-cluster poses -> kinematic graph; shared by learn/eval."""
    if assignment.n_clusters() < 2:
        raise TooFewClusters(assignment.n_clusters())
    seqs = estimate_cluster_poses(
        demo, assignment,
        inlier_threshold=args.inlier_thresh,
        sparse_stride=args.sparse_stride,
        seed=args.seed,
    )
    if len(seqs) < 2:
        raise TooFewClusters(len(seqs))
    graph = build_graph(seqs, noise=_noise_model(args), object_id=args.object)
    return seqs, graph


class TooFewClusters(KinlearnError):
    def __init__(self, n):
        super().__init__(f"segmentation produced {n} cluster(s); need at least 2")
        self.n = n


EXIT_CODES = {
    FileNotFoundError: EXIT_BAD_INPUT,
    ParseError: EXIT_BAD_INPUT,
    SchemaVersionMismatch: EXIT_BAD_INPUT,
    InvalidSpec: EXIT_BAD_INPUT,
    MissingConfiguration: EXIT_BAD_INPUT,
    TooFewClusters: EXIT_TOO_FEW_CLUSTERS,
    DisconnectedParts: EXIT_DISCONNECTED,
    UnknownObject: EXIT_UNKNOWN_OBJECT,
}


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args, stdout, stderr) -> int:
    specs = synth.default_specs()
    if args.object not in specs:
        raise InvalidSpec(f"unknown object {args.object!r}; catalog: " + ", ".join(sorted(specs)))
    if args.frames < MIN_FRAMES:
        raise InvalidSpec(f"--frames must be >= {MIN_FRAMES}")
    spec = specs[args.object].with_noise(sigma_pos=args.noise, dropout=args.dropout)
    demo = synth.generate(spec, frames=args.frames, seed=args.seed)
    trajectories.save(demo, args.output)
    stdout.write(
        f"{args.object}: {len(demo.trajectories)} trajectories, "
        f"{args.frames} frames -> {args.output}\n"
    )
    return EXIT_OK


def cmd_segment(args, stdout, stderr) -> int:
    demo = trajectories.load(args.demo)
    matrix, assignment = _segment(demo, args)
    if args.dump_similarity:
        _dump_similarity(matrix, args.dump_similarity)
    noise = sum(1 for c in assignment.labels.values() if c == NOISE)
    lines = []
    if args.format == "csv":
        lines.append("trajectory,cluster")
        for tid in sorted(assignment.labels):
            lines.append(f"{tid},{assignment.labels[tid]}")
    else:
        lines.append(f"clusters: {assignment.n_clusters()} (noise: {noise})")
        for cid in sorted(assignment.clusters):
            members = assignment.clusters[cid]
            lines.append(f"cluster {cid}: {len(members)} trajectories")
    _write(args.output, lines, stdout)
    if assignment.n_clusters() < 2:
        stderr.write("error: fewer than 2 clusters; nothing articulated to learn\n")
        return EXIT_TOO_FEW_CLUSTERS
    return EXIT_OK


def _bic_table(graph) -> list[str]:
    lines = []
    for a, b, model in graph.edges:
        table = " ".join(f"{k}={fmt_floats((v,))}" for k, v in model.bics.items())
        lines.append(f"edge ({a}, {b}): {model.kind}  BIC {table}")
    return lines


def cmd_learn(args, stdout, stderr) -> int:
    demo = trajectories.load(args.demo)
    matrix, assignment = _segment(demo, args)
    if args.dump_similarity:
        _dump_similarity(matrix, args.dump_similarity)
    seqs, graph = _learn_pipeline(demo, assignment, args)
    db = ModelDatabase()
    db.add(graph, provenance={"demo": args.demo, "seed": str(args.seed)})
    save_db(db, args.output)

    poses_path = args.poses or args.output + ".poses.csv"
    lines = ["cluster,frame,qw,qx,qy,qz,tx,ty,tz,inliers"]
    for seq in seqs:
        for frame, q, t in zip(seq.poses.frames.tolist(), seq.poses.stack.q, seq.poses.stack.t):
            lines.append(
                f"{seq.cluster_id},{frame},{fmt_floats((*q, *t), ',')},"
                f"{seq.inlier_counts.get(frame, 0)}"
            )
    write_lines(poses_path, lines)

    noise = sum(1 for c in assignment.labels.values() if c == NOISE)
    stdout.write(f"clusters: {assignment.n_clusters()} (noise: {noise})\n")
    for line in _bic_table(graph):
        stdout.write(line + "\n")
    stdout.write(f"model db -> {args.output}\n")
    stdout.write(f"cluster poses -> {poses_path}\n")
    return EXIT_OK


def _parse_sweep(text: str):
    lo, hi, step = (float(v) for v in text.split(":"))
    if not np.isfinite([lo, hi, step]).all():
        raise ValueError("sweep LO, HI and STEP must be finite")
    if step <= 0 or hi < lo:
        raise ValueError("sweep must be LO:HI:STEP with STEP > 0 and HI >= LO")
    try:  # a row count past any integer or any memory is bad input too
        return lo + step * np.arange(int(np.floor((hi - lo) / step + 1e-9)) + 1)
    except (OverflowError, MemoryError):
        raise ValueError(f"sweep {text!r} has too many rows") from None


def _configuration_rows(args, n_free: int) -> np.ndarray:
    """One row of configurations per predicted pose set, from --schedule
    or --sweep; a value that does not parse or is not finite is bad input."""
    try:
        if args.schedule:
            rows = np.loadtxt(args.schedule, ndmin=2)
        elif args.sweep:
            return np.repeat(_parse_sweep(args.sweep)[:, None], n_free, axis=1)
        elif n_free:
            raise MissingConfiguration("need --sweep or --schedule for non-rigid edges")
        else:
            return np.zeros((1, 0))
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    if rows.shape[1] != n_free:
        raise ParseError(
            f"schedule has {rows.shape[1]} column(s), graph has {n_free} non-rigid edge(s)"
        )
    if not np.isfinite(rows).all():
        raise ParseError("schedule holds a configuration that is not finite")
    return rows


def cmd_predict(args, stdout, stderr) -> int:
    graph = load_db(args.db).get(args.object)
    free_edges = [(a, b, m) for a, b, m in graph.edges if m.kind != RIGID]
    rows = _configuration_rows(args, len(free_edges))

    header = ["row"]
    header += [f"q_{a}_{b}" for a, b, _ in free_edges]
    for v in graph.vertices:
        header += [f"p{v}_{c}" for c in ("qw", "qx", "qy", "qz", "tx", "ty", "tz")]
    header.append("extrapolated")
    lines = [",".join(header)]
    configs, extrapolated = {}, np.zeros(len(rows), dtype=bool)
    for (a, b, m), qs in zip(free_edges, rows.T):
        configs[(a, b)] = qs
        extrapolated |= m.extrapolates(qs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        poses = predict(graph, configs)
    columns = [rows]
    for v in graph.vertices:  # a part behind rigid edges only has one pose
        columns += [np.broadcast_to(poses[v].q, (len(rows), 4)),
                    np.broadcast_to(poses[v].t, (len(rows), 3))]
    table = np.concatenate(columns, axis=1)
    for r, values in enumerate(table):
        lines.append(f"{r},{fmt_floats(values, ',')},{'1' if extrapolated[r] else '0'}")
    _write(args.output, lines, stdout)
    return EXIT_OK


def cmd_eval(args, stdout, stderr) -> int:
    load_db(args.db).get(args.object)
    rows = []
    successes = types_ok = 0
    for demo_path in args.demos:
        demo = trajectories.load(demo_path)
        if demo.ground_truth is None:
            raise FileNotFoundError(f"{demo_path}: no ground truth sidecar")
        try:
            _, assignment = _segment(demo, args)
            seqs, graph = _learn_pipeline(demo, assignment, args)
            report = evaluate(graph, seqs, assignment, demo.ground_truth)
        except KinlearnError as exc:
            rows.append((demo_path, False, False, float("nan"), float("nan"), str(exc)))
            continue
        successes += report.success
        types_ok += report.types_correct
        rows.append((
            demo_path, report.success, report.types_correct,
            report.mean_pose_error_m, report.mean_pose_error_deg, "",
        ))

    n = len(args.demos)
    lines = []
    if args.format == "csv":
        lines.append("demo,success,types_correct,mean_pos_m,mean_rot_deg,note")
        for path, ok, tc, pos, rot, note in rows:
            lines.append(f"{path},{int(ok)},{int(tc)},{fmt_floats((pos, rot), ',')},{note}")
    else:
        for path, ok, tc, pos, rot, note in rows:
            status = "ok" if ok else "FAIL"
            detail = note or (
                f"mean {fmt_floats((pos,))} m / {fmt_floats((rot,))} deg, "
                f"types {'ok' if tc else 'WRONG'}"
            )
            lines.append(f"{path}: {status} ({detail})")
        lines.append(f"{args.object}: {successes}/{n} success, {types_ok}/{n} correct types")
    _write(args.output, lines, stdout)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _checked(kind, ok, rule):
    """argparse type: a ``kind`` for which ``ok`` holds; anything else is a
    usage error naming ``rule``, which exits 2 before any file is read."""
    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value
    parse.__name__ = kind.__name__  # unparseable text still reads "invalid float value"
    return parse


def _positive(kind):
    """argparse type: a finite ``kind`` above 0."""
    return _checked(kind, lambda v: np.isfinite(v) and v > 0, "positive and finite")


def _non_negative(kind):
    """argparse type: a finite ``kind`` of at least 0."""
    return _checked(kind, lambda v: np.isfinite(v) and v >= 0, "finite and >= 0")


def _add_segmentation_flags(p):
    p.add_argument("--eps", type=_non_negative(float), default=DEFAULT_EPS)
    p.add_argument("--min-pts", type=_positive(int), default=DEFAULT_MIN_PTS, dest="min_pts")
    p.add_argument("--gamma-pos", type=_positive(float), default=DEFAULT_GAMMA_POS,
                   dest="gamma_pos")
    p.add_argument("--gamma-normal", type=_positive(float), default=DEFAULT_GAMMA_NORMAL,
                   dest="gamma_normal")


def _add_learning_flags(p):
    p.add_argument("--inlier-thresh", type=_positive(float),
                   default=DEFAULT_INLIER_THRESHOLD, dest="inlier_thresh")
    p.add_argument("--sparse-stride", type=_positive(int), default=DEFAULT_SPARSE_STRIDE,
                   dest="sparse_stride")
    p.add_argument("--sigma-pos", type=_positive(float), default=DEFAULT_SIGMA_POS,
                   dest="sigma_pos")
    p.add_argument("--sigma-rot", type=_positive(float), default=DEFAULT_SIGMA_ROT,
                   dest="sigma_rot")


@functools.cache  # a parser per call would leave reference cycles for the cyclic collector
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kinlearn",
        description="Learn kinematic models of articulated objects from "
                    "3-D feature trajectories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="synthesize a demonstration")
    g.add_argument("--object", required=True)
    g.add_argument("--frames", type=_checked(int, lambda v: v < 2**63, "below 2**63"),
                   default=120)
    g.add_argument("--noise", type=float, default=0.0, help="position sigma (m)")
    g.add_argument("--dropout", type=float, default=0.0, help="per-frame loss prob")
    g.add_argument("--seed", type=_non_negative(int), default=0)
    g.add_argument("-o", "--output", required=True)

    s = sub.add_parser("segment", help="cluster trajectories into rigid parts")
    s.add_argument("demo")
    _add_segmentation_flags(s)
    s.add_argument("--dump-similarity", dest="dump_similarity", metavar="CSV")
    s.add_argument("--format", choices=("text", "csv"), default="text")
    s.add_argument("-o", "--output")

    l = sub.add_parser("learn", help="learn a kinematic graph from a demo")
    l.add_argument("demo")
    l.add_argument("--object", required=True, help="object id for the model db")
    l.add_argument("--seed", type=_non_negative(int), default=0)
    _add_segmentation_flags(l)
    l.add_argument("--dump-similarity", dest="dump_similarity", metavar="CSV")
    _add_learning_flags(l)
    l.add_argument("--poses", metavar="CSV", help="per-cluster pose CSV path")
    l.add_argument("-o", "--output", required=True, help="model db path")

    p = sub.add_parser("predict", help="sweep configurations through a model")
    p.add_argument("db")
    p.add_argument("--object", required=True)
    p.add_argument("--sweep", metavar="LO:HI:STEP")
    p.add_argument("--schedule", metavar="FILE")
    p.add_argument("-o", "--output")

    e = sub.add_parser("eval", help="evaluate models against ground truth")
    e.add_argument("db")
    e.add_argument("demos", nargs="+")
    e.add_argument("--object", required=True)
    e.add_argument("--seed", type=_non_negative(int), default=0)
    _add_segmentation_flags(e)
    _add_learning_flags(e)
    e.add_argument("--format", choices=("text", "csv"), default="text")
    e.add_argument("-o", "--output")
    return parser


_COMMANDS = {
    "generate": cmd_generate,
    "segment": cmd_segment,
    "learn": cmd_learn,
    "predict": cmd_predict,
    "eval": cmd_eval,
}


def main(argv=None, stdout=None, stderr=None) -> int:
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, stdout, stderr)
    except tuple(EXIT_CODES) as exc:
        stderr.write(f"error: {exc}\n")
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
