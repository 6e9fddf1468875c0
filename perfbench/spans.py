"""Spans around the program's public functions, for the traced run.

The tracer wraps functions of the ``kinlearn`` modules from outside: for
each target it replaces every module attribute that refers to the
original function (``cli`` imports most of them by name), and restores
them all on ``uninstall``. A span records its name, start, end and
parent; counts measured at the same boundary (observations generated,
inliers kept, Kabsch solves made, ...) are stored on the span. Spans stay
in memory; the caller writes them out once the run ends.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

from kinlearn.trajectories import gt_path_for

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("synth.generate_s", "s", "lower"),
    ("synth.observations", "count", "lower"),
    ("trajectories.save_s", "s", "lower"),
    ("trajectories.load_s", "s", "lower"),
    ("trajectories.bytes", "bytes", "lower"),
    ("segmentation.similarity_s", "s", "lower"),
    ("segmentation.similarity_calls", "count", "lower"),
    ("segmentation.pairs_defined", "count", "lower"),
    ("segmentation.cluster_s", "s", "lower"),
    ("segmentation.noise_points", "count", "lower"),
    ("posegraph.poses_s", "s", "lower"),
    ("posegraph.delta_s", "s", "lower"),
    ("posegraph.deltas", "count", "lower"),
    ("posegraph.kabsch_solves", "count", "lower"),
    ("posegraph.ransac_fallbacks", "count", "lower"),
    ("posegraph.inlier_ratio", "ratio", "higher"),
    ("posegraph.optimize_s", "s", "lower"),
    ("posegraph.gn_iterations", "count", "lower"),
    ("posegraph.unconverged", "count", "lower"),
    ("joints.fit_s", "s", "lower"),
    ("joints.fits", "count", "lower"),
    ("joints.cli_refits", "count", "lower"),
    ("joints.bic_margin", "bic", "higher"),
    ("kingraph.build_graph_s", "s", "lower"),
    ("kingraph.candidate_edges", "count", "lower"),
    ("kingraph.evaluate_s", "s", "lower"),
    ("kingraph.predict_s", "s", "lower"),
    ("kingraph.predict_calls", "count", "lower"),
    ("kingraph.extrapolated_rows", "count", "lower"),
    ("kingraph.db_io_s", "s", "lower"),
    ("kingraph.pose_err_mm", "mm", "lower"),
    ("kingraph.rot_err_deg", "deg", "lower"),
    ("cli.learn_self_s", "s", "lower"),
    ("cli.predict_self_s", "s", "lower"),
    ("cli.eval_self_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)

# estimate_delta makes at most 1 + 20 Kabsch solves without the fallback
MAX_SOLVES_WITHOUT_FALLBACK = 21


def _observations(args, kwargs, demo):
    return {"observations": sum(len(t.observations) for t in demo.trajectories)}


def _saved_bytes(args, kwargs, _):
    path = args[1]
    gt = gt_path_for(path)
    return {"bytes": os.path.getsize(path) + (os.path.getsize(gt) if os.path.exists(gt) else 0)}


def _pairs_defined(args, kwargs, matrix):
    upper = matrix.values[np.triu_indices(len(matrix.ids), 1)]
    return {"pairs": int(np.count_nonzero(~np.isnan(upper)))}


def _noise_points(args, kwargs, assignment):
    return {"noise": sum(1 for c in assignment.labels.values() if c == -1)}


def _inliers(args, kwargs, result):
    prev, curr = args[0], args[1]
    return {"inliers": len(result[1]), "common": len(set(prev.ids) & set(curr.ids))}


def _gauss_newton(args, kwargs, seq):
    return {"iterations": seq.iterations, "converged": seq.converged}


def _bic(args, kwargs, model):
    return {"bic": float(model.bic)}


def _pose_error(args, kwargs, report):
    return {"pos_m": report.mean_pose_error_m, "rot_deg": report.mean_pose_error_deg}


# (module, function, span name, counts taken from the call and its result)
TARGETS = (
    ("synth", "generate", "synth.generate", _observations),
    ("trajectories", "save", "trajectories.save", _saved_bytes),
    ("trajectories", "load", "trajectories.load", None),
    ("segmentation", "similarity_matrix", "segmentation.similarity", _pairs_defined),
    ("segmentation", "cluster", "segmentation.cluster", _noise_points),
    ("posegraph", "estimate_cluster_poses", "posegraph.poses", None),
    ("posegraph", "estimate_delta", "posegraph.delta", _inliers),
    ("posegraph", "optimize", "posegraph.optimize", _gauss_newton),
    ("joints", "fit_rigid", "joints.fit", _bic),
    ("joints", "fit_prismatic", "joints.fit", _bic),
    ("joints", "fit_revolute", "joints.fit", _bic),
    ("joints", "select_model", "joints.select", None),
    ("kingraph", "build_graph", "kingraph.build_graph", None),
    ("kingraph", "evaluate", "kingraph.evaluate", _pose_error),
    ("kingraph", "predict", "kingraph.predict", None),
    ("kingraph", "save_db", "kingraph.db_io", None),
    ("kingraph", "load_db", "kingraph.db_io", None),
    ("cli", "_bic_table", "cli.bic_table", None),
)
# (module, function, count added to the innermost open span per call)
COUNTERS = (("geometry", "align_point_sets", "kabsch"),)


class Tracer:
    """In-memory span recorder; single-threaded, like the CLI it wraps."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "parent": self._stack[-1] if self._stack else -1,
               "start": time.perf_counter(), "end": None}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, measure):
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if measure is not None:
                rec.update(measure(args, kwargs, result))
            return result
        return traced

    def _count(self, key, fn):
        def counted(*args, **kwargs):
            if self._stack:
                rec = self.spans[self._stack[-1]]
                rec[key] = rec.get(key, 0) + 1
            return fn(*args, **kwargs)
        return counted

    def _patch(self, module: str, func: str, wrapper_of) -> None:
        original = getattr(sys.modules[f"kinlearn.{module}"], func)
        wrapper = wrapper_of(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "kinlearn" and not mod_name.startswith("kinlearn."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def install(self) -> None:
        for module, func, name, measure in TARGETS:
            self._patch(module, func, lambda fn, n=name, m=measure: self._wrap(n, fn, m))
        for module, func, key in COUNTERS:
            self._patch(module, func, lambda fn, k=key: self._count(k, fn))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def _duration(s) -> float:
    return s["end"] - s["start"]


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer figures of one traced round (metrics not derived from
    spans, such as extrapolated rows, are added by the caller)."""
    named: dict[str, list[dict]] = {}
    child_time = [0.0] * len(spans)
    for s in spans:
        named.setdefault(s["name"], []).append(s)
        if s["parent"] >= 0:
            child_time[s["parent"]] += _duration(s)

    def total(name):
        return sum(_duration(s) for s in named.get(name, ()))

    def calls(name):
        return len(named.get(name, ()))

    def under(s, ancestor):
        while s["parent"] >= 0:
            s = spans[s["parent"]]
            if s["name"] == ancestor:
                return True
        return False

    def self_time(name):
        return sum(_duration(s) - child_time[i] for i, s in enumerate(spans) if s["name"] == name)

    deltas = [s for s in named.get("posegraph.delta", ()) if "inliers" in s]
    margins = []
    for i, s in enumerate(spans):
        if s["name"] == "joints.select":
            bics = sorted(c["bic"] for c in spans if c["parent"] == i and "bic" in c)
            if len(bics) >= 2:
                margins.append(bics[1] - bics[0])
    evals = named.get("kingraph.evaluate", [])
    fits = named.get("joints.fit", [])
    return {
        "synth.generate_s": total("synth.generate"),
        "synth.observations": sum(s["observations"] for s in named.get("synth.generate", ())),
        "trajectories.save_s": total("trajectories.save"),
        "trajectories.load_s": total("trajectories.load"),
        "trajectories.bytes": sum(s["bytes"] for s in named.get("trajectories.save", ())),
        "segmentation.similarity_s": total("segmentation.similarity"),
        "segmentation.similarity_calls": calls("segmentation.similarity"),
        "segmentation.pairs_defined": sum(s["pairs"] for s in named.get("segmentation.similarity", ())),
        "segmentation.cluster_s": total("segmentation.cluster"),
        "segmentation.noise_points": sum(s["noise"] for s in named.get("segmentation.cluster", ())),
        "posegraph.poses_s": total("posegraph.poses"),
        "posegraph.delta_s": total("posegraph.delta"),
        "posegraph.deltas": calls("posegraph.delta"),
        "posegraph.kabsch_solves": sum(s.get("kabsch", 0) for s in named.get("posegraph.delta", ())),
        "posegraph.ransac_fallbacks": sum(
            1 for s in named.get("posegraph.delta", ())
            if s.get("kabsch", 0) > MAX_SOLVES_WITHOUT_FALLBACK),
        "posegraph.inlier_ratio": (sum(s["inliers"] for s in deltas)
                                   / max(sum(s["common"] for s in deltas), 1)),
        "posegraph.optimize_s": total("posegraph.optimize"),
        "posegraph.gn_iterations": sum(s["iterations"] for s in named.get("posegraph.optimize", ())),
        "posegraph.unconverged": sum(1 for s in named.get("posegraph.optimize", ()) if not s["converged"]),
        "joints.fit_s": total("joints.fit"),
        "joints.fits": len(fits),
        "joints.cli_refits": sum(1 for s in fits if under(s, "cli.bic_table")),
        "joints.bic_margin": statistics.median(margins) if margins else 0.0,
        "kingraph.build_graph_s": total("kingraph.build_graph"),
        "kingraph.candidate_edges": sum(1 for s in named.get("joints.select", ())
                                        if under(s, "kingraph.build_graph")),
        "kingraph.evaluate_s": total("kingraph.evaluate"),
        "kingraph.predict_s": total("kingraph.predict"),
        "kingraph.predict_calls": calls("kingraph.predict"),
        "kingraph.db_io_s": total("kingraph.db_io"),
        "kingraph.pose_err_mm": 1000.0 * statistics.fmean(s["pos_m"] for s in evals) if evals else 0.0,
        "kingraph.rot_err_deg": statistics.fmean(s["rot_deg"] for s in evals) if evals else 0.0,
        "cli.learn_self_s": self_time("cli.learn"),
        "cli.predict_self_s": self_time("cli.predict"),
        "cli.eval_self_s": self_time("cli.eval"),
    }
