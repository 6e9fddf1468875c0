"""Output checks that do not trust the program's own verdicts.

Each ``check_*`` function reads the files a CLI command wrote, parses them
with the small readers below (not with the program's loaders), compares
them with the object spec and returns a list of failure reasons; an empty
list means the operation passed. Forward kinematics is computed here from
the spec with Rodrigues' formula, independently of ``kinlearn.geometry``.
"""

from __future__ import annotations

import math

import numpy as np

EVAL_HEADER = "demo,success,types_correct,mean_pos_m,mean_rot_deg,note"
POSES_HEADER = "cluster,frame,qw,qx,qy,qz,tx,ty,tz,inliers"
SUCCESS_MAX_POS = 0.10  # the paper's success rule: mean pose error below
SUCCESS_MAX_DEG = 25.0  # 10 cm and 25 degrees


# ---------------------------------------------------------------------------
# geometry


def _skew(k):
    return np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])


def rodrigues(axis, angles) -> np.ndarray:
    """Rotation matrices (n, 3, 3) about ``axis`` by each of ``angles``."""
    k = np.asarray(axis, dtype=float)
    k = k / np.linalg.norm(k)
    K = _skew(k)
    a = np.asarray(angles, dtype=float)[:, None, None]
    return np.eye(3) + np.sin(a) * K + (1.0 - np.cos(a)) * (K @ K)


def joint_transform(joint, q):
    """(R, t) of a spec joint at configurations ``q`` (n,)."""
    q = np.asarray(q, dtype=float)
    n = len(q)
    if joint.kind == "revolute":
        R = rodrigues(joint.axis, q)
        o = np.asarray(joint.origin, dtype=float)
        return R, o - R @ o
    if joint.kind == "prismatic":
        axis = np.asarray(joint.axis, dtype=float)
        return np.repeat(np.eye(3)[None], n, 0), q[:, None] * axis
    return np.repeat(np.eye(3)[None], n, 0), np.zeros((n, 3))


def forward_kinematics(spec, q_by_joint: dict, n: int) -> dict:
    """World (R, t) of every part; ``q_by_joint[(parent, child)]`` is (n,)."""
    poses = {0: (np.repeat(np.eye(3)[None], n, 0), np.zeros((n, 3)))}
    pending = list(spec.joints)
    while pending:
        for j in list(pending):
            if j.parent not in poses:
                continue
            Rp, tp = poses[j.parent]
            Rj, tj = joint_transform(j, q_by_joint.get((j.parent, j.child), np.zeros(n)))
            poses[j.child] = (Rp @ Rj, np.einsum("nij,nj->ni", Rp, tj) + tp)
            pending.remove(j)
    return poses


def quat_to_matrix(q) -> np.ndarray:
    """Rotation matrices (n, 3, 3) of unit quaternions (n, 4), w first."""
    q = np.asarray(q, dtype=float)
    q = q / np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q.T
    return np.stack([
        np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], -1),
        np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], -1),
        np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], -1),
    ], -2)


def rotation_error_deg(Ra, Rb) -> np.ndarray:
    c = (np.einsum("nij,nij->n", Ra, Rb) - 1.0) / 2.0
    return np.degrees(np.arccos(np.clip(c, -1.0, 1.0)))


def axis_angle_deg(a, b) -> float:
    c = abs(float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))))
    return math.degrees(math.acos(min(c, 1.0)))


def line_distance(p1, d1, p2, d2) -> float:
    d1 = np.asarray(d1, dtype=float) / np.linalg.norm(d1)
    d2 = np.asarray(d2, dtype=float) / np.linalg.norm(d2)
    off = np.asarray(p2, dtype=float) - np.asarray(p1, dtype=float)
    cross = np.cross(d1, d2)
    n = np.linalg.norm(cross)
    if n < 1e-9:
        return float(np.linalg.norm(off - (off @ d1) * d1))
    return float(abs(off @ cross) / n)


# ---------------------------------------------------------------------------
# readers


def read_traj(path):
    """{id: (frames (m,), positions (m, 3))} of a ``.traj`` file."""
    with open(path) as f:
        header = f.readline().split()
        if header[:2] != ["traj", "1"] or len(header) != 3:
            raise ValueError(f"bad .traj header {header}")
        rows = np.loadtxt(f, ndmin=2)
    if rows.shape[1] != 8:
        raise ValueError(f".traj records have {rows.shape[1]} fields, expected 8")
    ids = rows[:, 0].astype(int)
    starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
    if len(starts) != len(np.unique(ids)):
        raise ValueError(".traj records are not grouped by trajectory id")
    out = {}
    for s, e in zip(starts, np.r_[starts[1:], len(ids)]):
        frames = rows[s:e, 1].astype(int)
        if np.any(np.diff(frames) <= 0):
            raise ValueError(f"trajectory {ids[s]}: frames not increasing")
        out[int(ids[s])] = (frames, rows[s:e, 2:5])
    return out


def read_gt(path):
    """(labels {traj: part}, poses {part: (R (F,3,3), t (F,3))},
    joints {(parent, child): (kind, axis, origin)}, configs {(p, c): (F,)})."""
    labels, pose_rows, joints, config_rows = {}, {}, {}, {}
    with open(path) as f:
        if f.readline().split() != ["gt", "1"]:
            raise ValueError("bad .gt header")
        for line in f:
            p = line.split()
            if p[0] == "label":
                labels[int(p[1])] = int(p[2])
            elif p[0] == "pose":
                pose_rows.setdefault(int(p[1]), []).append([float(v) for v in p[2:]])
            elif p[0] == "joint":
                v = [float(x) for x in p[4:]]
                joints[(int(p[1]), int(p[2]))] = (p[3], np.array(v[:3]), np.array(v[3:]))
            elif p[0] == "config":
                config_rows.setdefault((int(p[1]), int(p[2])), []).append(
                    (int(p[3]), float(p[4])))
    poses = {}
    for part, rows in pose_rows.items():
        a = np.array(rows)
        if not np.array_equal(a[:, 0], np.arange(len(a))):
            raise ValueError(f"part {part}: pose frames not 0..F-1")
        poses[part] = (quat_to_matrix(a[:, 1:5]), a[:, 5:8])
    configs = {k: np.array([q for _, q in sorted(v)]) for k, v in config_rows.items()}
    return labels, poses, joints, configs


def read_db(path):
    """{object: {"vertices": [...], "edges": [{a, b, kind, params, configs}]}}."""
    with open(path) as f:
        lines = f.read().splitlines()
    if lines[0].split() != ["kgraphdb", "1"]:
        raise ValueError("bad model db header")
    db, obj, edge = {}, None, None
    for line in lines[1:]:
        p = line.split()
        if p[0] == "object":
            obj = db.setdefault(p[1], {"vertices": [], "edges": []})
        elif p[0] == "vertices":
            obj["vertices"] = [int(v) for v in p[1:]]
        elif p[0] == "edge":
            edge = {"a": int(p[1]), "b": int(p[2]), "kind": p[3], "params": {}}
            obj["edges"].append(edge)
        elif p[0] == "param":
            edge["params"][p[1]] = np.array([float(v) for v in p[2:]])
        elif p[0] == "configs":
            edge["configs"] = np.array([float(v) for v in p[1:]])
    return db


def read_labels_csv(path):
    """{trajectory: cluster} from ``kinlearn segment --format csv``."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1, dtype=int, ndmin=2)
    return {int(t): int(c) for t, c in rows}


# ---------------------------------------------------------------------------
# checks


def check_generate(spec, traj_path, gt_path, frames: int, noise: float) -> list[str]:
    """The demo's ground truth follows the spec, and every observation is a
    fixed body point of its part carried by the true part pose, with the
    requested position noise."""
    fails = []
    tracks = read_traj(traj_path)
    labels, poses, joints, configs = read_gt(gt_path)
    if set(labels) != set(tracks):
        fails.append("trajectory ids and .gt labels differ")
    if set(poses) != set(range(len(spec.parts))):
        return fails + [f"ground truth has parts {sorted(poses)}"]
    for j in spec.joints:
        kind, axis, origin = joints.get((j.parent, j.child), (None, None, None))
        if kind != j.kind:
            fails.append(f"joint ({j.parent}, {j.child}) recorded as {kind}")
            continue
        if j.kind != "rigid" and not np.allclose(axis, j.axis):
            fails.append(f"joint ({j.parent}, {j.child}) axis {axis}")
    fk = forward_kinematics(spec, configs, frames)
    for part, (R, t) in poses.items():
        if len(t) != frames:
            fails.append(f"part {part}: {len(t)} ground-truth poses for {frames} frames")
            continue
        Rk, tk = fk[part]
        if np.abs(R - Rk).max() > 1e-9 or np.abs(t - tk).max() > 1e-9:
            fails.append(f"part {part}: ground-truth poses differ from the spec's kinematics")
    if fails:
        return fails
    # body point of each observation: R^T (p - t) is constant up to noise
    dev = []
    for tid, (f, p) in tracks.items():
        R, t = poses[labels[tid]]
        body = np.einsum("nji,nj->ni", R[f], p - t[f])
        dev.append(body - body.mean(axis=0))
    dev = np.concatenate(dev)
    rms = float(np.sqrt(np.mean(np.sum(dev**2, axis=1))))
    if noise == 0.0 and rms > 1e-9:
        fails.append(f"noise-free observations leave their body point by {rms:.3g} m rms")
    elif noise > 0.0 and not 0.8 < rms / (math.sqrt(3.0) * noise) < 1.2:
        fails.append(f"observation noise {rms:.4g} m rms, expected {math.sqrt(3.0) * noise:.4g}")
    return fails


def cluster_parts(seg_labels: dict, gt_labels: dict, n_parts: int, allow_noise: bool):
    """({cluster: part}, failures) with each cluster on exactly one part
    and each part in exactly one cluster."""
    fails, members = [], {}
    for tid, cid in seg_labels.items():
        members.setdefault(cid, set()).add(gt_labels[tid])
    noise = members.pop(-1, set())
    if noise and not allow_noise:
        fails.append("noise points in a noise-free demo")
    part_of = {}
    for cid, parts in sorted(members.items()):
        if len(parts) != 1:
            fails.append(f"cluster {cid} spans parts {sorted(parts)}")
        part_of[cid] = min(parts)
    if sorted(part_of.values()) != list(range(n_parts)):
        fails.append(f"clusters cover parts {sorted(part_of.values())} of {n_parts}")
    return part_of, fails


def _spec_joint(spec, pa, pb):
    for j in spec.joints:
        if {j.parent, j.child} == {pa, pb}:
            return j
    return None


def check_learn(spec, graph, part_of, tol) -> list[str]:
    """Edges form the spec's tree with the spec's joint kinds and axes."""
    fails = []
    if sorted(graph["vertices"]) != sorted(part_of):
        fails.append(f"model vertices {graph['vertices']} but clusters {sorted(part_of)}")
        return fails
    if len(graph["edges"]) != len(spec.joints):
        fails.append(f"{len(graph['edges'])} edges for {len(spec.joints)} joints")
    for e in graph["edges"]:
        j = _spec_joint(spec, part_of[e["a"]], part_of[e["b"]])
        name = f"edge ({e['a']}, {e['b']})"
        if j is None:
            fails.append(f"{name} joins parts that share no joint")
            continue
        if e["kind"] != j.kind:
            fails.append(f"{name} learned {e['kind']}, spec {j.kind}")
            continue
        if j.kind == "rigid":
            continue
        ang = axis_angle_deg(e["params"]["axis"], j.axis)
        if ang > tol.axis_deg:
            fails.append(f"{name} axis off by {ang:.4g} deg")
        if j.kind == "revolute":
            d = line_distance(e["params"]["center"], e["params"]["axis"], j.origin, j.axis)
            if d > tol.offset_m:
                fails.append(f"{name} axis line off by {d * 1000:.4g} mm")
    return fails


def kinds_match(spec, graph, part_of) -> bool:
    for e in graph["edges"]:
        j = _spec_joint(spec, part_of.get(e["a"]), part_of.get(e["b"]))
        if j is None or j.kind != e["kind"]:
            return False
    return len(graph["edges"]) == len(spec.joints)


def check_poses_csv(path, vertices) -> list[str]:
    with open(path) as f:
        if f.readline().strip() != POSES_HEADER:
            return ["bad cluster poses header"]
        rows = np.loadtxt(f, delimiter=",", ndmin=2)
    fails = []
    if sorted(set(rows[:, 0].astype(int))) != sorted(vertices):
        fails.append("cluster poses do not cover the model's vertices")
    norm = np.linalg.norm(rows[:, 2:6], axis=1)
    if np.abs(norm - 1.0).max() > 1e-9:
        fails.append("cluster poses hold non-unit quaternions")
    return fails


def check_similarity_csv(path, n_tracks: int) -> list[str]:
    with open(path) as f:
        ids = f.readline().strip().split(",")[1:]
        rows = [line.rstrip("\n").split(",")[1:] for line in f]
    if len(ids) != n_tracks or len(rows) != n_tracks:
        return [f"similarity dump is {len(rows)}x{len(ids)} for {n_tracks} tracks"]
    diag = [float(rows[i][i]) for i in range(n_tracks)]
    if diag != [1.0] * n_tracks:
        return ["similarity dump diagonal is not 1"]
    return []


def check_predict(spec, graph, part_of, path, demo, tol):
    """(failures, extrapolated rows): row count, configurations and
    extrapolation flags follow the sweep, and every pose inside the
    observed range matches the spec's forward kinematics."""
    with open(path) as f:
        header = f.readline().strip().split(",")
        rows = np.loadtxt(f, delimiter=",", ndmin=2)
    free = [e for e in graph["edges"] if e["kind"] != "rigid"]
    expect = ["row"] + [f"q_{e['a']}_{e['b']}" for e in free]
    for v in graph["vertices"]:
        expect += [f"p{v}_{c}" for c in ("qw", "qx", "qy", "qz", "tx", "ty", "tz")]
    expect.append("extrapolated")
    if header != expect:
        return [f"predict header {header[:4]}... does not match the model"], 0
    n = demo.sweep_rows
    if len(rows) != n or not np.array_equal(rows[:, 0], np.arange(n)):
        return [f"predict wrote {len(rows)} rows for a {n}-row sweep"], 0
    qs = rows[:, 1:1 + len(free)]
    sweep = demo.sweep_step * np.arange(n)
    if len(free) and np.abs(qs - sweep[:, None]).max() > 1e-12:
        return ["predict configurations differ from the sweep"], 0
    inside = np.ones(n, dtype=bool)
    for k, e in enumerate(free):
        c = e["configs"]
        inside &= (qs[:, k] >= c.min()) & (qs[:, k] <= c.max())
    flag = rows[:, -1]
    extrapolated = int(np.sum(flag == 1))
    fails = []
    if not np.array_equal(flag, (~inside).astype(float)):
        fails.append("extrapolated flags differ from the stored configuration ranges")
    if not kinds_match(spec, graph, part_of) or not inside.any():
        return fails, extrapolated  # a wrong model is the learn check's failure
    m = int(inside.sum())
    q_by_joint = {}
    for k, e in enumerate(free):
        j = _spec_joint(spec, part_of[e["a"]], part_of[e["b"]])
        q_by_joint[(j.parent, j.child)] = qs[inside, k]
    fk = forward_kinematics(spec, q_by_joint, m)
    Rr, tr = fk[part_of[graph["vertices"][0]]]
    block = rows[inside]
    for i, v in enumerate(graph["vertices"]):
        col = 1 + len(free) + 7 * i
        Rv, tv = fk[part_of[v]]
        R_true = np.einsum("nji,njk->nik", Rr, Rv)
        t_true = np.einsum("nji,nj->ni", Rr, tv - tr)
        pos = np.linalg.norm(block[:, col + 4:col + 7] - t_true, axis=1).max()
        rot = rotation_error_deg(quat_to_matrix(block[:, col:col + 4]), R_true).max()
        if pos > tol.pose_m or rot > tol.pose_deg:
            fails.append(f"part {part_of[v]} predicted {pos * 1000:.4g} mm / "
                         f"{rot:.4g} deg from the spec's kinematics")
    return fails, extrapolated


def check_eval(path, heldout_paths) -> list[str]:
    """One row per held-out demo, each meeting the paper's success rule."""
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or lines[0] != EVAL_HEADER:
        return ["bad eval header"]
    rows = [line.split(",", 5) for line in lines[1:]]
    if [r[0] for r in rows] != list(heldout_paths):
        return [f"eval rows {[r[0] for r in rows]} for demos {list(heldout_paths)}"]
    fails = []
    for demo, success, _types, pos, rot, note in rows:
        pos, rot = float(pos), float(rot)
        meets = pos < SUCCESS_MAX_POS and rot < SUCCESS_MAX_DEG
        if not meets or success != "1":
            fails.append(f"{demo}: success={success} at {pos:.4g} m / {rot:.4g} deg {note}")
    return fails
