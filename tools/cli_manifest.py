"""Byte-identity manifest of the kinlearn command line.

Runs a fixed matrix of ``kinlearn`` commands in a fresh, empty directory
and prints one line per command (argv, exit code, sha256 of stdout and of
stderr) and one line per file left in the directory (name, sha256). The
matrix covers every catalog object, clean, noisy and rough, through generate,
segment, learn --dump-similarity, predict (a short sweep and a 401-row one
that runs from negative configurations past the observed range) and eval,
a fridge at 40 % dropout through segment and learn --dump-similarity,
the rough drawer and monitor through learn at --sparse-stride 1 and 3,
the clean and rough door through learn --poses with part 1's records cut
off at frame 25 (a cluster whose own tracks end before the demo does),
plus the error paths of every subcommand, malformed ``.traj`` and ``.gt``
records among them (ids and frames past int64 too).

The commands run in-process through ``kinlearn.cli.main``, taken from
whichever ``kinlearn`` is first on the import path. Warnings are written
to the captured stderr as ``Category: message`` and an uncaught exception
as ``uncaught Type: message`` with exit code 1, so that no source path or
line number of the package enters the manifest. Standard library only.

Two trees are compared by diffing their manifests:

    PYTHONPATH=<tree-a>/src python3 tools/cli_manifest.py > a.txt
    PYTHONPATH=<tree-b>/src python3 tools/cli_manifest.py > b.txt
    diff a.txt b.txt

``tools/manifest.txt`` is the committed manifest of the current tree, and

    PYTHONPATH=src python3 tools/cli_manifest.py --check tools/manifest.txt

compares a fresh run with it: it prints each line that differs, with the
fields that moved (exit code, stdout, stderr, message or file hash), and
exits 1 on any difference. A change that moves outputs on purpose
regenerates the file; its diff is then the list of moved lines. The
hashes of numeric outputs depend on the numpy and BLAS build, so a new
numpy calls for a regenerated file with no source change.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
import warnings

OBJECTS = ("door", "drawer", "fridge", "laptop", "microwave", "chair", "monitor")
VARIANTS = {
    "clean": [],
    "noisy": ["--noise", "0.005", "--dropout", "0.02"],
    # rough tracks: many pairs fall back to RANSAC and pairs share unequal
    # numbers of features; a last-bit change of one delta shows here first
    "rough": ["--noise", "0.01", "--dropout", "0.2"],
}
FRAMES = "30"
SEED = "1"


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    from kinlearn.cli import main

    out, err = io.StringIO(), io.StringIO()
    crash = ""
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv, stdout=out, stderr=err)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # a crash path: record it, keep going
            crash = f"uncaught {type(exc).__name__}: {exc}\n"
            code = 1
    text = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return code, out.getvalue(), text + err.getvalue() + crash


def pipeline_commands():
    cmds = []
    for obj in OBJECTS:
        for variant, noise in VARIANTS.items():
            stem = f"{obj}-{variant}"
            traj, db = f"{stem}.traj", f"{stem}.db"
            cmds += [
                ["generate", "--object", obj, "--frames", FRAMES, "--seed", SEED,
                 *noise, "-o", traj],
                ["segment", traj],
                ["segment", traj, "--format", "csv", "-o", f"{stem}.seg.csv",
                 "--dump-similarity", f"{stem}.seg-sim.csv"],
                ["learn", traj, "--object", obj, "--seed", SEED,
                 "--dump-similarity", f"{stem}.sim.csv", "-o", db],
                ["predict", db, "--object", obj, "--sweep", "0:1:0.1",
                 "-o", f"{stem}.pred.csv"],
                ["predict", db, "--object", obj, "--sweep=-1:3:0.01",
                 "-o", f"{stem}.long.csv"],
                ["eval", db, traj, "--object", obj, "--seed", SEED],
                ["eval", db, traj, "--object", obj, "--seed", SEED,
                 "--format", "csv", "-o", f"{stem}.eval.csv"],
            ]
    # heavy dropout: many Undefined (NaN) similarity cells and many overlap
    # lengths, so both dumps cover the kernel's grouping and the blank fields
    traj = "fridge-sparse.traj"
    cmds += [
        ["generate", "--object", "fridge", "--frames", FRAMES, "--seed", SEED,
         "--dropout", "0.4", "-o", traj],
        ["segment", traj, "--dump-similarity", "fridge-sparse.seg-sim.csv"],
        ["learn", traj, "--object", "fridge", "--seed", SEED,
         "--dump-similarity", "fridge-sparse.sim.csv", "-o", "fridge-sparse.db"],
    ]
    # pose-graph pair selection at strides other than the default 10
    for obj in ("drawer", "monitor"):
        for stride in ("1", "3"):
            cmds.append(["learn", f"{obj}-rough.traj", "--object", obj, "--seed", SEED,
                         "--sparse-stride", stride, "-o", f"{obj}-rough.s{stride}.db"])
    return cmds


def write(name: str, text: str) -> None:
    with open(name, "w") as f:
        f.write(text)


def read(name: str) -> str:
    with open(name) as f:
        return f.read()


def make_bad_inputs() -> None:
    """Malformed inputs derived from the clean door demo and its model."""
    traj, gt = read("door-clean.traj"), read("door-clean.gt")
    lines, gt_lines = traj.splitlines(), gt.splitlines()
    write("empty.traj", "")
    write("header.traj", "hello\n")
    write("v9.traj", "\n".join(["traj 9 30.0"] + lines[1:]) + "\n")
    write("rate.traj", "\n".join(["traj 1 fast"] + lines[1:]) + "\n")
    write("badrec.traj", "\n".join(lines[:2] + [lines[2].rsplit(" ", 1)[0]] + lines[3:]) + "\n")
    write("v9gt.traj", traj)
    write("v9gt.gt", "\n".join(["gt 9"] + gt_lines[1:]) + "\n")
    write("nolabel.traj", traj)
    first_label = next(i for i, l in enumerate(gt_lines) if l.startswith("label "))
    write("nolabel.gt", "\n".join(gt_lines[:first_label] + gt_lines[first_label + 1:]) + "\n")
    first_id = lines[1].split()[0]
    first_track = [l for l in lines[1:] if l.split()[0] == first_id]
    write("one.traj", "\n".join([lines[0]] + first_track) + "\n")
    write("one.gt", gt)
    write("zero.traj", lines[0] + "\n")
    write("dup-id.traj", "\n".join(lines + first_track[:1]) + "\n")
    write("order.traj", "\n".join([lines[0], lines[2], lines[1]] + lines[3:]) + "\n")
    write("lone.traj", "\n".join(lines[:2] + lines[1 + len(first_track):]) + "\n")
    write("bare.traj", traj)
    # .traj records that the reader rejects or skips, in the first and in later
    # blocks of lines, and a one-observation track closed in the next block
    body = lines[1:]

    def field(i, k, value):  # body line i with field k replaced
        parts = body[i].split()
        parts[k] = value
        return body[:i] + [" ".join(parts)] + body[i + 1:]

    write("id-text.traj", "\n".join([lines[0]] + field(700, 0, "x")) + "\n")
    write("pos-text.traj", "\n".join([lines[0]] + field(3, 2, "abc")) + "\n")
    write("neg-frame.traj", "\n".join([lines[0]] + field(0, 1, "-1")) + "\n")
    write("blank.traj", "\n".join([lines[0]] + body[:1] + [""] + body[1:598] + ["  \t"]
                                   + body[598:]) + "\n")
    write("order-late.traj", "\n".join([lines[0]] + body[:518] + [""] + body[518:800]
                                        + [body[801], body[800]] + body[802:]) + "\n")
    ids = [row.split()[0] for row in body]
    s = max(i for i in range(512) if i == 0 or ids[i] != ids[i - 1])  # last track start in block 1
    e = next(i for i in range(s, len(ids)) if ids[i] != ids[s])
    write("lone-late.traj", "\n".join([lines[0]] + body[:s] + [""] * (511 - s) + [body[s]]
                                       + body[e:]) + "\n")
    # ids and frames past int64: every id of the first track, its last frame
    n, big = ids.count(ids[0]), str(10**20)
    write("id-int64.traj", "\n".join([lines[0]] + [f"{big} {row.split(' ', 1)[1]}"
                                                     for row in body[:n]] + body[n:]) + "\n")
    write("frame-int64.traj", "\n".join([lines[0]] + field(n - 1, 1, big)) + "\n")
    # .gt records: a joint with 5 floats, a joint missing the config of frame 5
    joint = next(i for i, l in enumerate(gt_lines) if l.startswith("joint "))
    config = next(i for i, l in enumerate(gt_lines) if l.startswith("config 0 1 5 "))
    for name, gt_text in (
        ("joint5", gt_lines[:joint] + [gt_lines[joint].rsplit(" ", 1)[0]] + gt_lines[joint + 1:]),
        ("config-gap", gt_lines[:config] + gt_lines[config + 1:]),
    ):
        write(f"{name}.traj", traj)
        write(f"{name}.gt", "\n".join(gt_text) + "\n")
    write("sched-bad.txt", "0.1\nabc\n")
    write("sched-cols.txt", "0.1 0.2\n")
    write("sched-monitor.txt", "0.1 0.2\n0.3 0.4\n")
    write("sched-nan.txt", "0.1\nnan\n")
    write("sched-inf.txt", "0.1\n-inf\n")
    write("corrupt.db", "garbage\n")
    write("v9.db", "kgraphdb 99\n")
    write("empty.db", "")
    db_lines = read("door-clean.db").splitlines()
    write("twice.db", "\n".join(db_lines + db_lines[1:]) + "\n")
    write("rigid.db", "\n".join([
        "kgraphdb 1", "object box", "vertices 0 1",
        "edge 0 1 rigid 6 10.0 -20.0 0",
        "param rotation 0.9 0.1 0.2 0.3", "param translation 0.1 -0.2 0.3", "configs",
    ]) + "\n")


def make_short_parts() -> None:
    """The clean and rough door demos without the records of part 1's tracks
    (labels from the .gt) at frames >= 25, written with no sidecar."""
    for variant in ("clean", "rough"):
        gt = [l.split() for l in read(f"door-{variant}.gt").splitlines()]
        part1 = {l[1] for l in gt if l[0] == "label" and l[2] == "1"}
        lines = read(f"door-{variant}.traj").splitlines()
        kept = [l for l in lines[1:] if l.split()[0] not in part1 or int(l.split()[1]) < 25]
        write(f"short-{variant}.traj", "\n".join(lines[:1] + kept) + "\n")


def short_part_commands():
    return [["learn", f"short-{v}.traj", "--object", "door", "--seed", SEED,
             "--poses", f"short-{v}.poses.csv", "-o", f"short-{v}.db"]
            for v in ("clean", "rough")]


def error_commands():
    door = ["--object", "door"]
    gen = ["generate", *door, "--frames", FRAMES]
    return [
        ["generate", "--object", "spaceship", "-o", "x.traj"],
        [*gen[:3], "--frames", "5", "-o", "x.traj"],
        [*gen[:3], "--frames", "99999999999999999999", "-o", "x.traj"],
        [*gen, "--noise", "-1", "-o", "noise-neg.traj"],
        [*gen, "--dropout", "1.0", "-o", "drop-one.traj"],
        [*gen, "--dropout", "-0.1", "-o", "drop-neg.traj"],
        [*gen, "--noise", "nan", "-o", "noise-nan.traj"],
        [*gen, "--noise", "inf", "-o", "noise-inf.traj"],
        [*gen, "--seed", "-1", "-o", "seed-neg.traj"],
        ["segment", "missing.traj"],
        ["segment", "empty.traj"],
        ["segment", "header.traj"],
        ["segment", "v9.traj"],
        ["segment", "rate.traj"],
        ["segment", "badrec.traj"],
        ["segment", "v9gt.traj"],
        ["segment", "nolabel.traj"],
        ["segment", "one.traj", "--dump-similarity", "one.seg-sim.csv"],
        ["segment", "zero.traj"],
        ["segment", "dup-id.traj"],
        ["segment", "order.traj"],
        ["segment", "lone.traj"],
        ["segment", "id-text.traj"],
        ["segment", "pos-text.traj"],
        ["segment", "neg-frame.traj"],
        ["segment", "blank.traj"],
        ["segment", "order-late.traj"],
        ["segment", "lone-late.traj"],
        ["segment", "id-int64.traj"],
        ["segment", "frame-int64.traj"],
        ["learn", "one.traj", *door, "--dump-similarity", "one.sim.csv", "-o", "one.db"],
        ["learn", "zero.traj", *door, "-o", "zero.db"],
        ["learn", "v9.traj", *door, "-o", "v9.out.db"],
        # a negative seed, on a demo whose deltas need the RANSAC fallback
        ["learn", "drawer-rough.traj", "--object", "drawer", "--seed", "-1",
         "-o", "seed-neg.db"],
        ["eval", "door-clean.db", "one.traj", "door-clean.traj", *door],
        ["eval", "door-clean.db", "bare.traj", *door],
        ["eval", "door-clean.db", "joint5.traj", *door],
        ["eval", "door-clean.db", "config-gap.traj", *door],
        ["eval", "door-clean.db", "missing.traj", *door],
        ["eval", "door-clean.db", "door-clean.traj", "--object", "toaster"],
        ["eval", "corrupt.db", "door-clean.traj", *door],
        ["predict", "door-clean.db", "--object", "toaster", "--sweep", "0:1:0.5"],
        ["predict", "door-clean.db", *door],
        ["predict", "door-clean.db", *door, "--sweep", "1:0:0.1"],
        ["predict", "door-clean.db", *door, "--sweep", "a:b:c"],
        ["predict", "door-clean.db", *door, "--schedule", "sched-bad.txt"],
        ["predict", "door-clean.db", *door, "--schedule", "sched-cols.txt"],
        ["predict", "door-clean.db", *door, "--schedule", "missing.txt"],
        ["predict", "monitor-clean.db", "--object", "monitor",
         "--schedule", "sched-monitor.txt", "-o", "monitor.sched.csv"],
        ["predict", "corrupt.db", *door, "--sweep", "0:1:0.5"],
        ["predict", "v9.db", *door, "--sweep", "0:1:0.5"],
        ["predict", "empty.db", *door, "--sweep", "0:1:0.5"],
        ["predict", "missing.db", *door, "--sweep", "0:1:0.5"],
        ["predict", "twice.db", *door, "--sweep", "0:1:0.5"],
        ["predict", "door-clean.db", *door, "--sweep", "0:inf:1"],
        ["predict", "door-clean.db", *door, "--sweep", "0:1:inf"],
        ["predict", "door-clean.db", *door, "--sweep", "0:1e300:1e-300"],
        ["predict", "door-clean.db", *door, "--sweep", "0:1e11:1e-6"],
        ["predict", "door-clean.db", *door, "--schedule", "sched-nan.txt"],
        ["predict", "door-clean.db", *door, "--schedule", "sched-inf.txt"],
        ["predict", "rigid.db", "--object", "box", "-o", "rigid.csv"],
        ["predict", "rigid.db", "--object", "box", "--sweep", "0:0.2:0.1",
         "-o", "rigid.sweep.csv"],
        # threshold flags that are not positive and finite: usage errors
        ["segment", "door-clean.traj", "--gamma-pos", "0"],
        ["learn", "door-clean.traj", *door, "--gamma-normal", "-1", "-o", "flag.db"],
        ["learn", "door-clean.traj", *door, "--sigma-pos", "0", "-o", "flag.db"],
        ["eval", "door-clean.db", "door-clean.traj", *door, "--sigma-rot", "-1"],
        ["learn", "door-clean.traj", *door, "--inlier-thresh", "-1", "-o", "flag.db"],
        ["learn", "door-clean.traj", *door, "--sparse-stride", "0", "-o", "flag.db"],
        ["eval", "door-clean.db", "door-clean.traj", *door, "--sparse-stride", "-3"],
        ["eval", "door-clean.db", "door-clean.traj", *door, "--gamma-pos", "nan"],
        # --eps below 0 or not finite, --min-pts below 1: usage errors
        ["segment", "door-clean.traj", "--eps", "-1"],
        ["learn", "door-clean.traj", *door, "--eps", "nan", "-o", "flag.db"],
        ["eval", "door-clean.db", "door-clean.traj", *door, "--min-pts", "0"],
        ["segment", "door-clean.traj", "--min-pts", "-5"],
    ]


def manifest_lines():
    """The manifest's lines, one per command as it runs, then one per file."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="cli-manifest-") as root:
        os.chdir(root)
        try:
            for argv in pipeline_commands():
                yield report(argv)
            make_bad_inputs()
            for argv in error_commands():
                yield report(argv)
            make_short_parts()
            for argv in short_part_commands():
                yield report(argv)
            for name in sorted(os.listdir(root)):
                with open(name, "rb") as f:
                    yield f"file {name} {sha(f.read())}"
        finally:
            os.chdir(cwd)


def report(argv) -> str:
    code, out, err = run(argv)
    line = f"cmd {' '.join(argv)} | exit {code} | stdout {sha(out.encode())} | stderr {sha(err.encode())}"
    if code != 0:
        line += f" | {err.strip().splitlines()[-1] if err.strip() else ''}"
    return line


def fields(line: str):
    """(key, {field: value}) of a manifest line: a command's argv and its
    exit, stdout, stderr and message fields, or a file's name and hash."""
    if line.startswith("file "):
        name, _, digest = line[5:].rpartition(" ")
        return f"file {name}", {"hash": digest}
    key, *parts = line.split(" | ")
    named = dict(part.split(" ", 1) for part in parts[:3])
    return key, {**named, "message": " | ".join(parts[3:])}


def check(expected_path: str) -> int:
    """Compare a fresh run with the manifest at ``expected_path``."""
    with open(expected_path) as f:
        expected = dict(fields(line) for line in f.read().splitlines())
    seen, moved = set(), 0
    for line in manifest_lines():
        key, got = fields(line)
        seen.add(key)
        want = expected.get(key)
        if want != got:
            moved += 1
            what = "new line" if want is None else ", ".join(
                name for name in got if got[name] != want.get(name))
            print(f"moved ({what}): {line}", flush=True)
    for key in expected.keys() - seen:
        moved += 1
        print(f"missing: {key}", flush=True)
    print(f"{moved} of {len(expected)} manifest lines differ from {expected_path}")
    return 1 if moved else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="MANIFEST",
                        help="compare with this manifest instead of printing one")
    args = parser.parse_args(argv)
    if args.check:
        return check(args.check)
    for line in manifest_lines():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
