"""The benchmark's output checks accept correct outputs and catch wrong ones.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

import io
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from kinlearn import synth  # noqa: E402
from kinlearn.cli import main  # noqa: E402
from workloads import EXACT, Demo  # noqa: E402

DOOR = Demo("door", frames=30, sweep_rows=120)


def cli(*argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(list(argv), stdout=io.StringIO(), stderr=io.StringIO()) == 0


@pytest.fixture(scope="module")
def door(tmp_path_factory):
    """A noise-free door learned, swept and evaluated through the CLI."""
    d = tmp_path_factory.mktemp("door")
    p = {k: str(d / k) for k in ("door.traj", "held.traj", "door.db", "seg.csv",
                                 "sweep.csv", "eval.csv")}
    cli("generate", "--object", "door", "--frames", "30", "--seed", "0", "-o", p["door.traj"])
    cli("generate", "--object", "door", "--frames", "30", "--seed", "1", "-o", p["held.traj"])
    cli("learn", p["door.traj"], "--object", "door", "-o", p["door.db"])
    cli("segment", p["door.traj"], "--format", "csv", "-o", p["seg.csv"])
    cli("predict", p["door.db"], "--object", "door", "--sweep", DOOR.sweep(), "-o", p["sweep.csv"])
    cli("eval", p["door.db"], p["held.traj"], "--object", "door", "--format", "csv",
        "-o", p["eval.csv"])
    spec = synth.default_specs()["door"]
    gt_labels = checks.read_gt(str(d / "door.gt"))[0]
    part_of, fails = checks.cluster_parts(checks.read_labels_csv(p["seg.csv"]), gt_labels,
                                          len(spec.parts), allow_noise=False)
    assert fails == []
    return d, p, spec, part_of


def graph_of(path):
    return checks.read_db(path)["door"]


def rotate_axis_in_db(src, dst, degrees):
    """Copy a model db with every edge axis turned by ``degrees``."""
    lines = []
    for line in Path(src).read_text().splitlines():
        if line.startswith("param axis "):
            a = np.array([float(v) for v in line.split()[2:]])
            perp = np.cross(a, [1.0, 0.0, 0.0] if abs(a[0]) < 0.9 else [0.0, 1.0, 0.0])
            perp /= np.linalg.norm(perp)
            a = checks.rodrigues(perp, [math.radians(degrees)])[0] @ a
            line = "param axis " + " ".join(repr(float(v)) for v in a)
        lines.append(line)
    Path(dst).write_text("\n".join(lines) + "\n")


def test_correct_outputs_pass(door):
    d, p, spec, part_of = door
    assert checks.check_generate(spec, p["door.traj"], str(d / "door.gt"), 30, 0.0) == []
    graph = graph_of(p["door.db"])
    assert checks.check_learn(spec, graph, part_of, EXACT) == []
    fails, extrapolated = checks.check_predict(spec, graph, part_of, p["sweep.csv"], DOOR, EXACT)
    assert fails == [] and extrapolated == 0  # 0..1.19 rad lies inside 0..90 deg
    assert checks.check_eval(p["eval.csv"], [p["held.traj"]]) == []


def test_axis_rotated_by_5_degrees_fails(door):
    d, p, spec, part_of = door
    bad_db, bad_sweep = str(d / "rotated.db"), str(d / "rotated.csv")
    rotate_axis_in_db(p["door.db"], bad_db, 5.0)
    cli("predict", bad_db, "--object", "door", "--sweep", DOOR.sweep(), "-o", bad_sweep)
    graph = graph_of(bad_db)
    learn_fails = checks.check_learn(spec, graph, part_of, EXACT)
    assert any("axis off by 5" in f for f in learn_fails)
    predict_fails, _ = checks.check_predict(spec, graph, part_of, bad_sweep, DOOR, EXACT)
    assert any("from the spec's kinematics" in f for f in predict_fails)


def test_swapped_edge_kind_fails(door):
    d, p, spec, part_of = door
    bad_db = d / "swapped.db"
    bad_db.write_text(Path(p["door.db"]).read_text().replace(" revolute ", " prismatic "))
    fails = checks.check_learn(spec, graph_of(bad_db), part_of, EXACT)
    assert any("learned prismatic, spec revolute" in f for f in fails)


def test_moved_observation_fails(door):
    d, p, spec, _ = door
    lines = Path(p["door.traj"]).read_text().splitlines()
    f = lines[5].split()
    f[2] = repr(float(f[2]) + 1e-4)
    lines[5] = " ".join(f)
    (d / "moved.traj").write_text("\n".join(lines) + "\n")
    fails = checks.check_generate(spec, str(d / "moved.traj"), str(d / "door.gt"), 30, 0.0)
    assert any("leave their body point" in f for f in fails)


def test_failed_or_missing_eval_row_fails(door):
    d, p, _, _ = door
    header, row = Path(p["eval.csv"]).read_text().splitlines()
    (d / "bad_eval.csv").write_text(f"{header}\n{row.replace(',1,', ',0,', 1)}\n")
    assert checks.check_eval(str(d / "bad_eval.csv"), [p["held.traj"]])
    assert checks.check_eval(p["eval.csv"], [p["held.traj"], p["door.traj"]])


def test_benchmark_json_names_every_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(spans.PER_LAYER)
