"""Benchmark of the kinlearn CLI on synthetic catalog demonstrations.

Run from the repository root:

    python3 perfbench/run.py --workload clean-long --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

One run repeats whole rounds of ``generate``, ``learn``, ``predict`` and
``eval`` (called in-process through ``kinlearn.cli.main``) until its
``--seconds`` are used, checks every output with ``checks.py`` and prints
one JSON object as its last line. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs one untraced round and then traced rounds,
and reports the per-layer metrics of ``spans.py`` plus the tracing
overhead. Everything a run writes goes under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from contextlib import contextmanager, nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR / "out"
COMMANDS = ("generate", "learn", "predict", "eval")
# (name, unit) of the end-to-end metrics, reported by untraced runs
END_TO_END = (
    ("setup_s", "s"),
    ("generate_s", "s"),
    ("learn_s", "s"),
    ("predict_s", "s"),
    ("eval_s", "s"),
    ("peak_rss_mb", "MB"),
)
SETUP_PROBES = 7


def setup(directory: Path):
    """Everything before the first timed command: BLAS pinned to one
    thread, the program and the benchmark imported, the workload
    directory created empty."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import spans
    import workloads
    from kinlearn import cli, synth

    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    return cli, synth, checks, spans, workloads


def measure_setup(workload: str) -> float:
    """Median set-up time of fresh interpreters, from launch to ready."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--setup-probe"],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.split()[-1]) - start)
    return statistics.median(times)


@dataclasses.dataclass
class Op:
    command: str
    index: int  # of the demo in the workload
    demo: object  # workloads.Demo
    argv: list
    outputs: list  # files the command writes


def plan(workload, seed: int, directory: Path) -> list[Op]:
    """The commands of one round, in order; every round runs the same.

    Objects run one after another, so each command's time is spread over
    the round rather than taken in one stretch of machine load."""
    ops = []
    for i, d in enumerate(workload.demos):
        s_train, s_held = d.seeds(i, seed)
        stem = directory / f"{i}-{d.object}"
        train, held, db = (Path(f"{stem}{ext}") for ext in (".traj", "-heldout.traj", ".db"))
        gen_train, gen_held = (
            Op("generate", i, d, [
                "generate", "--object", d.object, "--frames", str(d.frames),
                "--noise", repr(d.noise), "--dropout", repr(d.dropout),
                "--seed", str(s), "-o", str(path)], [path, path.with_suffix(".gt")])
            for s, path in ((s_train, train), (s_held, held)))
        ops.append(gen_train)
        learn = ["learn", str(train), "--object", d.object, "--seed", str(s_train), "-o", str(db)]
        outputs = [db, Path(f"{db}.poses.csv")]
        if workload.dump_similarity:
            sim = Path(f"{stem}.sim.csv")
            learn += ["--dump-similarity", str(sim)]
            outputs.append(sim)
        ops.append(Op("learn", i, d, learn, outputs))
        pred = Path(f"{stem}.predict.csv")
        ops.append(Op("predict", i, d, [
            "predict", str(db), "--object", d.object, "--sweep", d.sweep(), "-o", str(pred)],
            [pred]))
        ops.append(gen_held)
        ev = Path(f"{stem}.eval.csv")
        ops.append(Op("eval", i, d, [
            "eval", str(db), str(held), "--object", d.object, "--seed", str(s_held),
            "--format", "csv", "-o", str(ev)], [ev]))
    return ops


@contextmanager
def catalog_with_features(synth, demo):
    """``generate`` has no flag for features per part: substitute the
    catalog entry for the length of the call."""
    if demo.features is None:
        yield
        return
    original = synth.default_specs

    def specs():
        catalog = original()
        catalog[demo.object] = dataclasses.replace(
            catalog[demo.object], features_per_part=demo.features)
        return catalog

    synth.default_specs = specs
    try:
        yield
    finally:
        synth.default_specs = original


def run_round(ops, cli, synth, tracer=None):
    """Times per command, and (exit code, stdout, stderr) per op."""
    times = dict.fromkeys(COMMANDS, 0.0)
    results = []
    if tracer is not None:
        tracer.install()
    try:
        for op in ops:
            out, err = io.StringIO(), io.StringIO()
            with catalog_with_features(synth, op.demo):
                with tracer.span(f"cli.{op.command}") if tracer else nullcontext():
                    start = time.perf_counter()
                    try:
                        code = cli.main(op.argv, stdout=out, stderr=err)
                    except Exception:  # a crash fails this op; the run goes on
                        code = -1
                        err.write(traceback.format_exc())
                    times[op.command] += time.perf_counter() - start
            results.append((code, out.getvalue(), err.getvalue()))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return times, results


class Checker:
    """Runs the checks of ``checks.py`` on one round's outputs."""

    def __init__(self, workload, cli, synth, checks, directory):
        self.workload, self.cli, self.checks = workload, cli, checks
        self.specs = synth.default_specs()
        self.directory = directory
        self.segments = {}  # demo index -> {trajectory: cluster}, from `segment`
        self.first_hashes = None

    def _segment(self, op, train):
        if op.index not in self.segments:
            path = self.directory / f"{op.index}-{op.demo.object}.segment.csv"
            code = self.cli.main(["segment", str(train), "--format", "csv", "-o", str(path)],
                                 stdout=io.StringIO(), stderr=io.StringIO())
            if code not in (0, 3):  # 3: fewer than 2 clusters, still labelled
                raise ValueError(f"segment exited with {code}")
            self.segments[op.index] = self.checks.read_labels_csv(path)
        return self.segments[op.index]

    def round(self, ops, results):
        """(failure reasons per op, extrapolated predict rows)."""
        ck, tol = self.checks, self.workload.tolerance
        fails = [[] for _ in ops]
        models = {}  # demo index -> (graph, {cluster: part})
        extrapolated = 0
        hashes = [[hashlib.sha256(p.read_bytes()).hexdigest() if p.exists() else None
                   for p in op.outputs] for op in ops]
        for k, (op, (code, out, err)) in enumerate(zip(ops, results)):
            d = op.demo
            spec = self.specs[d.object]
            if code != 0:
                fails[k].append(f"exit code {code}: {err.strip()[-300:]}")
                continue
            try:
                if op.command == "generate":
                    fails[k] += ck.check_generate(spec, op.outputs[0], op.outputs[1],
                                                  d.frames, d.noise)
                elif op.command == "learn":
                    train = Path(op.argv[1])
                    gt_labels = ck.read_gt(train.with_suffix(".gt"))[0]
                    labels = self._segment(op, train)
                    part_of, seg_fails = ck.cluster_parts(
                        labels, gt_labels, len(spec.parts), allow_noise=d.noise > 0)
                    graph = ck.read_db(op.outputs[0]).get(d.object)
                    if graph is None:
                        fails[k].append(f"model db holds no {d.object}")
                        continue
                    models[op.index] = (graph, part_of)
                    noise = sum(1 for c in labels.values() if c == -1)
                    if out.splitlines()[0] != f"clusters: {len(part_of)} (noise: {noise})":
                        fails[k].append(f"learn reports {out.splitlines()[0]!r}")
                    fails[k] += seg_fails + ck.check_learn(spec, graph, part_of, tol)
                    fails[k] += ck.check_poses_csv(op.outputs[1], graph["vertices"])
                    if self.workload.dump_similarity:
                        fails[k] += ck.check_similarity_csv(op.outputs[2], len(labels))
                elif op.command == "predict":
                    if op.index not in models:
                        fails[k].append("no learned model to check the sweep against")
                        continue
                    graph, part_of = models[op.index]
                    f, n = ck.check_predict(spec, graph, part_of, op.outputs[0], d, tol)
                    fails[k] += f
                    extrapolated += n
                else:
                    fails[k] += ck.check_eval(op.outputs[0], [op.argv[2]])
            except (OSError, ValueError, IndexError, KeyError) as exc:
                fails[k].append(f"unreadable output: {exc!r}")
        if self.first_hashes is None:
            self.first_hashes = hashes
        for k, (h, h0) in enumerate(zip(hashes, self.first_hashes)):
            if h != h0:
                fails[k].append("outputs differ from the first round's")
        return fails, extrapolated


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    setup_s = None if trace else measure_setup(workload_name)
    directory = OUT / f"{workload_name}-s{seed}-{'trace' if trace else 'time'}"
    cli, synth, checks, spans, workloads = setup(directory)
    warnings.simplefilter("ignore", RuntimeWarning)
    workload = workloads.WORKLOADS[workload_name]
    ops = plan(workload, seed, directory)
    checker = Checker(workload, cli, synth, checks, directory)

    rounds = []  # (times, failures, extrapolated, spans or None)
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        tracer = spans.Tracer() if trace and rounds else None
        times, results = run_round(ops, cli, synth, tracer)
        fails, extrapolated = checker.round(ops, results)
        rounds.append((times, fails, extrapolated, tracer.spans if tracer else None))
        for op, reasons in zip(ops, fails):
            for reason in reasons:
                print(f"round {len(rounds)}: {op.command} {op.index}-{op.demo.object}: {reason}",
                      file=sys.stderr)
        now = time.perf_counter()
        if len(rounds) >= (2 if trace else 1) and now - start + (now - began) > seconds:
            break

    failed = [(ops[k].demo.object, ops[k].command)
              for _, fails, _, _ in rounds for k, reasons in enumerate(fails) if reasons]
    result = {
        "correct": all(f in workload.known_faults for f in failed),
        "attempted": len(ops) * len(rounds),
        "failed": len(failed),
    }
    if trace:
        untraced = sum(rounds[0][0].values())
        per_round = []
        for times, _, extrapolated, recorded in rounds[1:]:
            m = spans.layer_metrics(recorded)
            m["kingraph.extrapolated_rows"] = extrapolated
            m["trace.overhead_pct"] = 100.0 * (sum(times.values()) / untraced - 1.0)
            per_round.append(m)
        result["metrics"] = {
            name: {"value": statistics.median(m[name] for m in per_round), "unit": unit}
            for name, unit, _ in spans.PER_LAYER
        }
        with open(directory / "trace.jsonl", "w") as f:
            for r, (_, _, _, recorded) in enumerate(rounds[1:], start=2):
                for s in recorded:
                    f.write(json.dumps({"round": r, **s}) + "\n")
    else:
        values = {f"{c}_s": statistics.median(t[c] for t, _, _, _ in rounds) for c in COMMANDS}
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    with open(directory / "result.json", "w") as f:
        json.dump({**result, "rounds": [
            {"times": t, "failures": {f"{o.command} {o.index}-{o.demo.object}": r
                                      for o, r in zip(ops, fl) if r}}
            for t, fl, _, _ in rounds]}, f, indent=1)
    return result


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    from workloads import WORKLOADS

    summary = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600,
        )
        if done.returncode != 0:
            print(f"{name}: exit code {done.returncode}", file=sys.stderr)
            return 1
        summary[name] = json.loads(done.stdout.splitlines()[-1])
        res = summary[name]
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']}")
        for metric, v in res["metrics"].items():
            print(f"  {metric:32s} {v['value']:12.6g} {v['unit']}")
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="workload name, or 'all'")
    p.add_argument("--seed", type=int, default=0, help="base seed of the inputs (>= 0)")
    p.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (ROOT / "src" / "kinlearn" / "__init__.py").is_file():
        print(f"error: no kinlearn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        setup(OUT / f"probe-{args.workload}")
        print(time.monotonic())
        return 0
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
