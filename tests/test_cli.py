import dataclasses
import io
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from kinlearn import synth, trajectories
from kinlearn.cli import main
from kinlearn.kingraph import load_db, predict
from kinlearn.segmentation import similarity_matrix


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def door_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("door")
    traj = str(d / "door.traj")
    db = str(d / "door.db")
    code, _, _ = run(["generate", "--object", "door", "--frames", "60",
                      "--seed", "1", "-o", traj])
    assert code == 0
    code, out, _ = run(["learn", traj, "--object", "door", "--seed", "1",
                        "-o", db])
    assert code == 0
    return traj, db, out


def single_part_demo(tmp_path):
    spec = synth.default_specs()["door"]
    solo = dataclasses.replace(spec, parts=spec.parts[:1], joints=())
    p = str(tmp_path / "solo.traj")
    trajectories.save(synth.generate(solo, frames=40, seed=0), p)
    return p


class TestGenerate:
    def test_deterministic_bytes(self, tmp_path):
        paths = [str(tmp_path / f"d{i}.traj") for i in (0, 1)]
        for p in paths:
            code, _, _ = run(["generate", "--object", "drawer", "--frames", "40",
                              "--noise", "0.005", "--seed", "7", "-o", p])
            assert code == 0
        a, b = (open(p, "rb").read() for p in paths)
        assert a == b
        ga, gb = (open(trajectories.gt_path_for(p), "rb").read() for p in paths)
        assert ga == gb

    def test_output_reloadable(self, tmp_path):
        p = str(tmp_path / "d.traj")
        run(["generate", "--object", "laptop", "--frames", "30", "--seed", "2",
             "-o", p])
        demo = trajectories.load(p)
        assert demo.ground_truth is not None
        assert len(demo.trajectories) > 0

    def test_unknown_object_lists_catalog(self, tmp_path):
        code, _, err = run(["generate", "--object", "spaceship", "--frames", "40",
                            "--seed", "0", "-o", str(tmp_path / "x.traj")])
        assert code == 2
        assert "door" in err and "drawer" in err

    def test_too_few_frames(self, tmp_path):
        code, _, err = run(["generate", "--object", "door", "--frames", "5",
                            "--seed", "0", "-o", str(tmp_path / "x.traj")])
        assert code == 2

    @pytest.mark.parametrize("flags", [
        ["--noise", "-1"], ["--dropout", "1.0"], ["--dropout", "-0.1"],
        ["--noise", "nan"], ["--noise", "inf"],
    ])
    def test_bad_noise_settings_exit_2(self, tmp_path, flags):
        out = tmp_path / "x.traj"
        code, _, err = run(["generate", "--object", "door", "--frames", "20",
                            *flags, "-o", str(out)])
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


class TestSegment:
    def test_reports_two_clusters(self, door_files):
        traj, _, _ = door_files
        code, out, _ = run(["segment", traj])
        assert code == 0
        assert "clusters: 2" in out

    def test_csv_format(self, door_files, tmp_path):
        traj, _, _ = door_files
        p = str(tmp_path / "seg.csv")
        code, _, _ = run(["segment", traj, "--format", "csv", "-o", p])
        assert code == 0
        lines = open(p).read().splitlines()
        assert lines[0] == "trajectory,cluster"
        labels = {int(l.split(",")[0]): int(l.split(",")[1]) for l in lines[1:]}
        assert set(labels.values()) == {0, 1}

    def test_dump_similarity(self, door_files, tmp_path):
        traj, _, _ = door_files
        p = str(tmp_path / "sim.csv")
        code, _, _ = run(["segment", traj, "--dump-similarity", p])
        assert code == 0
        lines = open(p).read().splitlines()
        n = len(lines) - 1
        assert all(len(l.split(",")) == n + 1 for l in lines)

    def test_dump_similarity_reads_back_as_the_matrix(self, tmp_path):
        # 40 % dropout leaves about a third of the pairs Undefined
        traj, p = str(tmp_path / "sparse.traj"), str(tmp_path / "sim.csv")
        run(["generate", "--object", "fridge", "--frames", "30", "--seed", "1",
             "--dropout", "0.4", "-o", traj])
        run(["segment", traj, "--dump-similarity", p])
        lines = open(p).read().splitlines()
        matrix = similarity_matrix(trajectories.load(traj))
        assert lines[0] == "id," + ",".join(str(i) for i in matrix.ids)
        cells = [line.split(",") for line in lines[1:]]
        assert [int(row[0]) for row in cells] == list(matrix.ids)
        blank = np.array([[f == "" for f in row[1:]] for row in cells])
        assert blank.sum() > 100
        assert np.array_equal(blank, np.isnan(matrix.values))
        read = np.array([[float(f) if f else np.nan for f in row[1:]] for row in cells])
        assert read.tobytes() == matrix.values.tobytes()

    def test_single_part_exits_3(self, tmp_path):
        p = single_part_demo(tmp_path)
        code, _, err = run(["segment", p])
        assert code == 3


class TestLearn:
    def test_summary_mentions_model_and_bic(self, door_files):
        _, _, out = door_files
        assert "clusters: 2" in out
        assert "revolute" in out
        assert "BIC" in out and "rigid=" in out and "prismatic=" in out

    def test_db_round_trips(self, door_files):
        traj, db, _ = door_files
        loaded = load_db(db)
        graph = loaded.get("door")
        assert len(graph.edges) == 1
        assert graph.edges[0][2].kind == "revolute"
        assert loaded.provenance["door"]["demo"] == traj

    def test_pose_csv_written(self, door_files):
        _, db, _ = door_files
        lines = open(db + ".poses.csv").read().splitlines()
        assert lines[0] == "cluster,frame,qw,qx,qy,qz,tx,ty,tz,inliers"
        assert len(lines) > 100

    def test_deterministic_bytes(self, door_files, tmp_path):
        traj, db, _ = door_files
        again = str(tmp_path / "again.db")
        code, _, _ = run(["learn", traj, "--object", "door", "--seed", "1",
                          "-o", again])
        assert code == 0
        assert open(db, "rb").read() == open(again, "rb").read()

    def test_static_demo_exits_3(self, tmp_path):
        p = single_part_demo(tmp_path)
        code, _, err = run(["learn", p, "--object", "solo",
                            "-o", str(tmp_path / "solo.db")])
        assert code == 3
        assert "cluster" in err

    def test_dump_similarity_matches_segment(self, door_files, tmp_path):
        traj, _, _ = door_files
        seg, learned = str(tmp_path / "seg.csv"), str(tmp_path / "learn.csv")
        code, _, _ = run(["segment", traj, "--dump-similarity", seg])
        assert code == 0
        code, _, _ = run(["learn", traj, "--object", "door", "--seed", "1",
                          "--dump-similarity", learned, "-o", str(tmp_path / "d.db")])
        assert code == 0
        assert open(learned, "rb").read() == open(seg, "rb").read()

    def test_dump_similarity_written_before_exit_3(self, tmp_path):
        p = single_part_demo(tmp_path)
        seg, learned = str(tmp_path / "seg.csv"), str(tmp_path / "learn.csv")
        run(["segment", p, "--dump-similarity", seg])
        code, _, _ = run(["learn", p, "--object", "solo", "--dump-similarity", learned,
                          "-o", str(tmp_path / "solo.db")])
        assert code == 3
        assert open(learned, "rb").read() == open(seg, "rb").read()


class TestPredict:
    def test_door_sweep_91_rows_on_circle(self, door_files, tmp_path):
        _, db, _ = door_files
        out_csv = str(tmp_path / "sweep.csv")
        step = repr(float(np.deg2rad(1.0)))
        hi = repr(float(np.deg2rad(90.0)))
        code, _, _ = run(["predict", db, "--object", "door",
                          "--sweep", f"0:{hi}:{step}", "-o", out_csv])
        assert code == 0
        lines = open(out_csv).read().splitlines()
        assert len(lines) == 92  # header + 91 rows
        header = lines[0].split(",")
        graph = load_db(db).get("door")
        a, b, model = graph.edges[0]
        axis, center = model.params["axis"], model.params["center"]
        v0 = model.params["base"].t - center
        radius = np.linalg.norm(v0 - (v0 @ axis) * axis)
        tx = header.index(f"p{b}_tx")
        for line in lines[1:]:
            cells = [float(c) for c in line.split(",")]
            t = np.array(cells[tx:tx + 3])
            v = t - center
            d = np.linalg.norm(v - (v @ axis) * axis)
            assert abs(d - radius) < 1e-9

    def test_extrapolated_rows_flagged(self, door_files, tmp_path):
        _, db, _ = door_files
        graph = load_db(db).get("door")
        hi = graph.edges[0][2].q_range()[1]
        out_csv = str(tmp_path / "sweep.csv")
        code, _, _ = run(["predict", db, "--object", "door",
                          "--sweep", f"0:{hi + 0.5}:0.25", "-o", out_csv])
        assert code == 0
        lines = open(out_csv).read().splitlines()[1:]
        flags = [l.split(",")[-1] for l in lines]
        qs = [float(l.split(",")[1]) for l in lines]
        for q, f in zip(qs, flags):
            assert f == ("1" if q > hi else "0")
        assert "1" in flags and "0" in flags

    def test_schedule_file(self, door_files, tmp_path):
        _, db, _ = door_files
        sched = tmp_path / "sched.txt"
        sched.write_text("0.0\n0.3\n0.6\n")
        out_csv = str(tmp_path / "out.csv")
        code, _, _ = run(["predict", db, "--object", "door",
                          "--schedule", str(sched), "-o", out_csv])
        assert code == 0
        assert len(open(out_csv).read().splitlines()) == 4

    def test_unknown_object_exits_5(self, door_files):
        _, db, _ = door_files
        code, _, err = run(["predict", db, "--object", "toaster",
                            "--sweep", "0:1:0.5"])
        assert code == 5
        assert "door" in err

    def test_missing_sweep_exits_2(self, door_files):
        _, db, _ = door_files
        code, _, err = run(["predict", db, "--object", "door"])
        assert code == 2

    def test_deterministic_bytes(self, door_files, tmp_path):
        _, db, _ = door_files
        outs = [str(tmp_path / f"p{i}.csv") for i in (0, 1)]
        for p in outs:
            run(["predict", db, "--object", "door", "--sweep", "0:1.5:0.1",
                 "-o", p])
        assert open(outs[0], "rb").read() == open(outs[1], "rb").read()


    def test_rigid_only_rows_match_header(self, tmp_path):
        db = tmp_path / "box.db"
        db.write_text("\n".join([
            "kgraphdb 1", "object box", "vertices 0 1",
            "edge 0 1 rigid 6 10.0 -20.0 0",
            "param rotation 0.9 0.1 0.2 0.3", "param translation 0.1 -0.2 0.3", "configs",
        ]) + "\n")
        for flags, n_rows in (([], 1), (["--sweep", "0:0.2:0.1"], 3)):
            code, out, _ = run(["predict", str(db), "--object", "box", *flags])
            assert code == 0
            header, *rows = out.splitlines()
            assert len(rows) == n_rows
            assert header.split(",")[1] == "p0_qw"
            assert all(len(r.split(",")) == len(header.split(",")) for r in rows)
            assert all(r.split(",")[1] == "1.0" for r in rows)  # p0_qw of the root

    def test_one_call_matches_row_by_row(self, door_files, tmp_path):
        _, db, _ = door_files
        graph = load_db(db).get("door")
        (a, b, model), = graph.edges
        code, out, _ = run(["predict", db, "--object", "door", "--sweep=-1:3:0.25"])
        assert code == 0
        header, *rows = out.splitlines()
        assert len(rows) == 17
        for r, line in enumerate(rows):
            cells = line.split(",")
            q = float(cells[1])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                poses = predict(graph, {(a, b): q})
            values = [q]
            for v in graph.vertices:
                values += [*poses[v].q, *poses[v].t]
            flag = "1" if model.extrapolates(q) else "0"
            assert line == f"{r},{','.join(repr(float(x)) for x in values)},{flag}"

    @pytest.mark.parametrize("flags", [
        ["--sweep", "0:inf:1"], ["--sweep", "0:1:inf"], ["--sweep", "nan:1:0.5"],
        ["--schedule", "nan"], ["--schedule", "inf"], ["--schedule", "-inf"],
    ])
    def test_non_finite_configuration_exits_2(self, door_files, tmp_path, flags):
        _, db, _ = door_files
        if flags[0] == "--schedule":
            sched = tmp_path / "sched.txt"
            sched.write_text(f"0.1\n{flags[1]}\n")
            flags = ["--schedule", str(sched)]
        code, out, err = run(["predict", db, "--object", "door", *flags])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "finite" in err

    @pytest.mark.parametrize("sweep", ["0:1e300:1e-300", "0:1e11:1e-6"])
    def test_oversized_sweep_exits_2(self, door_files, sweep):
        # the row count overflows an integer, or no memory could hold the rows
        _, db, _ = door_files
        code, out, err = run(["predict", db, "--object", "door", "--sweep", sweep])
        assert code == 2
        assert out == ""
        assert err == f"error: sweep {sweep!r} has too many rows\n"


class TestEval:
    def test_success_line(self, door_files):
        traj, db, _ = door_files
        code, out, _ = run(["eval", db, traj, "--object", "door", "--seed", "1"])
        assert code == 0
        assert "door: 1/1 success" in out

    def test_batch_and_csv_format(self, door_files, tmp_path):
        traj, db, _ = door_files
        traj2 = str(tmp_path / "door2.traj")
        run(["generate", "--object", "door", "--frames", "60", "--seed", "9",
             "--noise", "0.005", "-o", traj2])
        out_csv = str(tmp_path / "eval.csv")
        code, _, _ = run(["eval", db, traj, traj2, "--object", "door",
                          "--seed", "1", "--format", "csv", "-o", out_csv])
        assert code == 0
        lines = open(out_csv).read().splitlines()
        assert lines[0].startswith("demo,success,")
        assert len(lines) == 3
        assert all(l.split(",")[1] == "1" for l in lines[1:])

    def test_missing_ground_truth_exits_2(self, door_files, tmp_path):
        traj, db, _ = door_files
        demo = trajectories.load(traj)
        bare = str(tmp_path / "bare.traj")
        trajectories.save(trajectories.Demonstration(demo.trajectories, demo.frame_rate), bare)
        code, _, err = run(["eval", db, bare, "--object", "door"])
        assert code == 2
        assert "ground truth" in err

    def test_unknown_object_exits_5(self, door_files):
        traj, db, _ = door_files
        code, _, _ = run(["eval", db, traj, "--object", "toaster"])
        assert code == 5


def door_copy(door_files, tmp_path, name, edit_traj=None, edit_gt=None):
    """The door demo under a new name, with its .traj and .gt lines edited."""
    traj, _, _ = door_files
    out = tmp_path / f"{name}.traj"
    for src, dst, edit in ((traj, out, edit_traj),
                           (trajectories.gt_path_for(traj), out.with_suffix(".gt"), edit_gt)):
        lines = open(src).read().splitlines()
        dst.write_text("\n".join(edit(lines) if edit else lines) + "\n")
    return str(out)


class TestCrashPaths:
    """Malformed inputs exit with their documented code and one error line."""

    @pytest.mark.parametrize("which", ["traj", "gt"])
    def test_other_schema_exits_2(self, door_files, tmp_path, which):
        def v9(lines):
            return [lines[0].replace(" 1", " 9", 1)] + lines[1:]

        p = door_copy(door_files, tmp_path, "v9", **{f"edit_{which}": v9})
        code, _, err = run(["segment", p])
        assert code == 2
        assert err == "error: schema version '9', expected '1'\n"

    def test_unlabeled_trajectory_names_gt(self, door_files, tmp_path):
        p = door_copy(door_files, tmp_path, "nolabel",
                      edit_gt=lambda lines: [l for l in lines if l != "label 0 0"])
        code, _, err = run(["segment", p])
        assert code == 2
        assert err == f"error: {tmp_path / 'nolabel.gt'}: trajectory 0 has no part label\n"

    def test_non_numeric_frame_rate_is_line_1(self, door_files, tmp_path):
        p = door_copy(door_files, tmp_path, "rate",
                      edit_traj=lambda lines: ["traj 1 fast"] + lines[1:])
        code, _, err = run(["segment", p])
        assert code == 2
        assert err.startswith("error: line 1: ") and "'fast'" in err

    def test_short_joint_record_exits_2(self, door_files, tmp_path):
        # an origin of 2 floats once reached eval and crashed there
        def short_joint(lines):
            return [l.rsplit(" ", 1)[0] if l.startswith("joint ") else l for l in lines]

        p = door_copy(door_files, tmp_path, "joint5", edit_gt=short_joint)
        with open(trajectories.gt_path_for(p)) as f:
            line = 1 + next(i for i, l in enumerate(f) if l.startswith("joint "))
        _, db, _ = door_files
        code, _, err = run(["eval", db, p, "--object", "door"])
        assert (code, err) == (2, f"error: line {line}: joint record needs 6 floats\n")

    def test_missing_config_frame_exits_2(self, door_files, tmp_path):
        # without frame 5, the configurations from frame 5 on were shifted by one
        p = door_copy(door_files, tmp_path, "config-gap",
                      edit_gt=lambda lines: [l for l in lines if not l.startswith("config 0 1 5 ")])
        _, db, _ = door_files
        code, _, err = run(["eval", db, p, "--object", "door"])
        assert (code, err) == (2, "error: joint (0, 1): config frames not contiguous from 0\n")

    @pytest.mark.parametrize("field", ["id", "frame"])
    def test_past_int64_exits_2(self, door_files, tmp_path, field):
        # the first track's ids, or its last frame, past int64: once an
        # uncaught OverflowError (exit 1)
        track = [i for i, l in enumerate(open(door_files[0]).read().splitlines())
                 if l.split()[0] == "0"]
        edited, k = (track, 0) if field == "id" else (track[-1:], 1)

        def past_int64(lines):
            return [" ".join(l.split()[:k] + [str(10**20)] + l.split()[k + 1:])
                    if i in edited else l for i, l in enumerate(lines)]

        p = door_copy(door_files, tmp_path, f"{field}-int64", edit_traj=past_int64)
        code, _, err = run(["segment", p])
        assert (code, err) == (
            2, f"error: line {edited[0] + 1}: {field} {10**20} does not fit in int64\n")

    def test_non_numeric_schedule_exits_2(self, door_files, tmp_path):
        _, db, _ = door_files
        sched = tmp_path / "sched.txt"
        sched.write_text("0.1\nabc\n")
        code, _, err = run(["predict", db, "--object", "door", "--schedule", str(sched)])
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_single_trajectory(self, door_files, tmp_path):
        # one trajectory has no pair to compare: no cluster, exit 3, and a
        # failed eval row rather than a crash
        p = door_copy(door_files, tmp_path, "one",
                      edit_traj=lambda lines: [l for l in lines if l.split()[0] in ("traj", "0")])
        code, out, err = run(["segment", p])
        assert (code, out) == (3, "clusters: 0 (noise: 1)\n")
        assert err == "error: fewer than 2 clusters; nothing articulated to learn\n"
        code, _, err = run(["learn", p, "--object", "door", "-o", str(tmp_path / "one.db")])
        assert code == 3
        assert err == "error: segmentation produced 0 cluster(s); need at least 2\n"
        traj, db, _ = door_files
        code, out, _ = run(["eval", db, p, traj, "--object", "door", "--seed", "1"])
        assert code == 0
        assert f"{p}: FAIL (segmentation produced 0 cluster(s); need at least 2)" in out
        assert "door: 1/2 success" in out


class TestErrors:
    def test_missing_file_exits_2(self):
        code, _, err = run(["segment", "/nonexistent/demo.traj"])
        assert code == 2

    def test_corrupt_db_exits_2(self, tmp_path, door_files):
        traj, _, _ = door_files
        bad = tmp_path / "bad.db"
        bad.write_text("garbage\n")
        code, _, _ = run(["predict", str(bad), "--object", "door",
                          "--sweep", "0:1:0.5"])
        assert code == 2

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_object_stored_twice_exits_2(self, tmp_path, door_files, command):
        traj, db, _ = door_files
        lines = open(db).read().splitlines()
        twice = tmp_path / "twice.db"
        twice.write_text("\n".join(lines + lines[1:]) + "\n")
        args = ["--sweep", "0:1:0.5"] if command == "predict" else [traj]
        code, out, err = run([command, str(twice), *args, "--object", "door"])
        assert code == 2 and out == ""
        # the second copy starts right after the first one's last line
        assert err == f"error: line {len(lines) + 1}: object 'door' stored twice\n"

    @pytest.mark.parametrize("command, flag, value", [
        ("learn", "--sigma-pos", "0"),
        ("eval", "--sigma-rot", "-1"),
        ("learn", "--gamma-pos", "0"),
        ("segment", "--gamma-normal", "0"),
        ("eval", "--gamma-normal", "-2"),
        ("learn", "--inlier-thresh", "-1"),
        ("eval", "--inlier-thresh", "nan"),
        ("learn", "--sparse-stride", "0"),
        ("eval", "--sparse-stride", "-3"),
        ("learn", "--sigma-pos", "inf"),
    ])
    def test_bad_threshold_flag_is_usage_error(self, door_files, tmp_path, capsys,
                                               command, flag, value):
        traj, db, _ = door_files
        out = tmp_path / "out"
        args = {"segment": [traj],
                "learn": [traj, "--object", "door", "-o", str(out)],
                "eval": [db, traj, "--object", "door"]}[command]
        with pytest.raises(SystemExit) as exc:
            run([command, *args, f"{flag}={value}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {flag}: must be positive and finite, got {value!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "learn", "eval"])
    def test_negative_seed_is_usage_error(self, door_files, tmp_path, capsys, command):
        traj, db, _ = door_files
        out = tmp_path / "out"
        args = {"generate": ["--object", "door", "-o", str(out)],
                "learn": [traj, "--object", "door", "-o", str(out)],
                "eval": [db, traj, "--object", "door"]}[command]
        with pytest.raises(SystemExit) as exc:
            run([command, *args, "--seed", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --seed: must be finite and >= 0, got '-1'" in err
        assert not out.exists()


def test_manifest_matches_committed_file():
    """Every command of ``tools/cli_manifest.py`` keeps the exit code, output
    bytes and file bytes recorded in ``tools/manifest.txt``."""
    tools = Path(__file__).resolve().parents[1] / "tools"
    src = str(Path(synth.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, str(tools / "cli_manifest.py"), "--check", str(tools / "manifest.txt")],
        capture_output=True, text=True, env=env, timeout=600)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-2000:]
