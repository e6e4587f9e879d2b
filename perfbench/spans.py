"""Span recorder installed from outside the library.

`Tracer.install` replaces every public function of the freehardy layer
modules with a wrapper, in every module namespace that binds the name
(the defining module, modules that imported it with ``from .x import f``
and the package namespace).  Each call becomes a span: name, start, end,
parent span, job id and whether it raised.  Spans stay in memory in
columnar lists and are written out once, by `write_spans`, when the run
ends.  `uninstall` puts the original functions back.

Counts that the issue calls "computed" (words, bytes, dimensions) and the
repeat ratios are derived from the call arguments.  The arguments are held
only until the job that made the call ends; `end_job` folds them into
per-run totals outside the job's timed interval.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import time
from pathlib import Path

# Layer order follows the package's import order.
LAYERS = ("words", "fock", "series", "parser", "kernels", "clark", "gleason",
          "colligation", "cli")

# fock is wrapped (so any call would show up) but gets no metric: on every
# workflow path only its Side enum is used, and Side is a class, not a call.
NO_METRIC_LAYERS = ("fock",)

FUNCTIONS = {
    "series": ("cayley", "multiply", "invert_series", "evaluate", "word_powers",
               "multiplier_matrix", "schur_norm_estimate"),
    "clark": ("clark_moments", "moment_matrix", "gns_build",
              "herglotz_from_moments", "cuntz_check"),
    "kernels": ("kernel_gram", "kernel_eval", "szego_eval", "membership_norm"),
    "gleason": ("dbr_model", "extremality_gap", "szego_distance", "a_empty_sq",
                "ce_test"),
    "colligation": ("canonical_colligation", "complete_column",
                    "transfer_series"),
}

# Calls whose arguments feed a computed count or a repeat ratio.
ARGS_KEPT = ("series.cayley", "series.multiplier_matrix", "gleason.dbr_model",
             "clark.clark_moments", "clark.moment_matrix")

# Per-layer metric -> (end-to-end metrics it should move, workloads where it
# should move them, workloads where it is predicted flat).
FEEDS = [
    (("series.multiply.self_s", "series.invert_series.self_s",
      "series.cayley.self_s", "series.cayley.words"),
     "jobs_per_s, job_p50_s", "clark_herglotz (also d=3 model_space jobs)", "-"),
    (("series.evaluate.self_s",), "jobs_per_s",
     "kernel_gram (kron path), clark_herglotz (einsum path)", "model_space"),
    (("kernels.kernel_eval.calls", "kernels.self_s",
      "series.cayley.repeat_frac"),
     "jobs_per_s, job_p50_s", "kernel_gram", "clark_herglotz"),
    (("gleason.dbr_model.self_s", "gleason.dbr_model.repeat_frac",
      "gleason.dbr_model.dim", "series.schur_norm_estimate.self_s"),
     "job_p90_s, jobs_per_s", "model_space", "clark_herglotz, kernel_gram"),
    (("clark.clark_moments.words", "clark.moment_window_used_frac",
      "clark.clark_moments.repeat_frac"),
     "job_p90_s", "model_space (d=3 ce-test)", "kernel_gram"),
    (("cli.self_s", "cli.main.bytes_out"), "job_p50_s", "model_space",
     "clark_herglotz, kernel_gram (cli is not on their path)"),
    (("series.multiplier_matrix.bytes", "gleason.dbr_model.dim"),
     "peak_rss_mb", "model_space", "-"),
    (("words.self_s", "words.setup_self_s"), "setup_s", "all", "-"),
    (("trace.overhead_frac", "trace.span_coverage_min_frac"),
     "(trace quality)", "all", "-"),
]


def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name, in output order, with its unit."""
    out = {}
    for layer in LAYERS:
        if layer in NO_METRIC_LAYERS:
            continue
        out[f"{layer}.calls"] = "count"
        out[f"{layer}.self_s"] = "s"
        out[f"{layer}.errors"] = "count"
    for layer, names in FUNCTIONS.items():
        for name in names:
            out[f"{layer}.{name}.calls"] = "count"
            out[f"{layer}.{name}.self_s"] = "s"
    out.update({
        "series.cayley.words": "count",
        "series.multiplier_matrix.bytes": "B",
        "gleason.dbr_model.dim": "count",
        "clark.clark_moments.words": "count",
        "cli.main.bytes_out": "B",
        "gleason.dbr_model.repeat_frac": "ratio",
        "clark.clark_moments.repeat_frac": "ratio",
        "series.cayley.repeat_frac": "ratio",
        "clark.moment_window_used_frac": "ratio",
        "words.setup_self_s": "s",
        "trace.overhead_frac": "ratio",
        "trace.span_coverage_min_frac": "ratio",
    })
    return out


def feeds_of(metric: str) -> list[tuple[str, str, str]]:
    return [(e2e, on, flat) for names, e2e, on, flat in FEEDS if metric in names]


def _word_count(d: int, n: int) -> int:
    return n + 1 if d == 1 else (d ** (n + 1) - 1) // (d - 1)


def _series_fingerprint(F) -> tuple[str, int]:
    """Digest of (alphabet, carried degree, shape, nonzero terms) and the
    degree of the nonzero part, read through the series' JSON form (the
    stable file-format boundary)."""
    data = F.to_json()
    terms = [t for t in data["terms"]
             if any(x != 0 for row in t["re"] + t["im"] for x in row)]
    blob = json.dumps([data["d"], data["deg"], data["p"], data["q"], terms],
                      sort_keys=True)
    degree = max((len(t["word"]) for t in terms), default=0)
    return hashlib.sha1(blob.encode()).hexdigest(), degree


class Tracer:
    """Wraps the public functions of the layer modules and records spans."""

    def __init__(self, package: str = "freehardy"):
        self.modules = {layer: importlib.import_module(f"{package}.{layer}")
                        for layer in LAYERS}
        self.pkg = importlib.import_module(package)
        self._originals: list[tuple[object, str, object]] = []
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.job: list[int] = []
        self.failed: list[bool] = []
        self._stack = [-1]
        self.job_id = -1
        self._kept: list[tuple[str, inspect.Signature, tuple, dict]] = []
        self.counts = {"series.cayley.words": 0,
                       "series.multiplier_matrix.bytes": 0,
                       "gleason.dbr_model.dim": 0,
                       "clark.clark_moments.words": 0,
                       "clark.moment_matrix.words": 0}
        self.repeats = {k: [0, 0] for k in ("series.cayley", "gleason.dbr_model",
                                            "clark.clark_moments")}

    # -- installation ------------------------------------------------------

    def _targets(self) -> dict[int, tuple[str, object]]:
        """id(original) -> (span name, original) for every public function
        defined in a layer module."""
        out = {}
        for layer, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or inspect.isclass(obj):
                    continue
                if not callable(obj) or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                out[id(obj)] = (f"{layer}.{attr}", obj)
        return out

    def install(self) -> int:
        """Bind a wrapper wherever a target is bound; returns the number of
        rebound names."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        targets = self._targets()
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in targets.items()}
        for mod in [self.pkg, *self.modules.values()]:
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._originals.append((mod, attr, obj))
                    setattr(mod, attr, w)
        return len(self._originals)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._originals):
            setattr(mod, attr, obj)
        self._originals.clear()

    def _wrap(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self.span_names))
        if nid == len(self.span_names):
            self.span_names.append(name)
        sig = None
        if name in ARGS_KEPT:
            sig = inspect.signature(fn)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(rec.start)
            rec.name.append(nid)
            rec.parent.append(rec._stack[-1])
            rec.job.append(rec.job_id)
            rec.failed.append(False)
            rec.end.append(0.0)
            if sig is not None:
                rec._kept.append((name, sig, args, kwargs))
            rec._stack.append(i)
            rec.start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec.failed[i] = True
                raise
            finally:
                rec.end[i] = time.perf_counter()
                rec._stack.pop()

        return wrapper

    # -- jobs --------------------------------------------------------------

    def begin_job(self, job_id: int) -> int:
        """Mark the start of a job; returns the index of its first span."""
        self.job_id = job_id
        return len(self.start)

    def end_job(self, fold: bool = True) -> None:
        """Fold the kept arguments of the finished job into the run totals
        (computed counts and repeat ratios), then drop them."""
        if not fold:
            self._kept.clear()
            self.job_id = -1
            return
        seen: set = set()
        fingerprints: dict[int, tuple[str, int]] = {}

        def fp(F):
            if id(F) not in fingerprints:
                fingerprints[id(F)] = _series_fingerprint(F)
            return fingerprints[id(F)]

        for name, sig, args, kwargs in self._kept:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            if name == "series.cayley":
                F = a["F"]
                self.counts["series.cayley.words"] += _word_count(F.d, F.deg) * F.p ** 2
                key = (name, fp(F)[0], a["direction"])
            elif name == "series.multiplier_matrix":
                F, N = a["F"], a["N"]
                nw = _word_count(F.d, N)
                self.counts["series.multiplier_matrix.bytes"] += 16 * (nw * F.p) * (nw * F.q)
                continue
            elif name == "gleason.dbr_model":
                B, N = a["B"], a["N"]
                digest, degree = fp(B)
                self.counts["gleason.dbr_model.dim"] += _word_count(B.d, N - degree) * B.p
                key = (name, digest, N, str(a["side"]), a["rank_tol"])
            elif name == "clark.clark_moments":
                B, deg = a["B"], a["deg"]
                self.counts["clark.clark_moments.words"] += _word_count(B.d, deg)
                key = (name, fp(B)[0], deg)
            else:  # clark.moment_matrix: words whose moments it reads
                self.counts["clark.moment_matrix.words"] += _word_count(a["mu"].d, a["N"])
                continue
            self.repeats[name][0] += key in seen
            self.repeats[name][1] += 1
            seen.add(key)
        self._kept.clear()
        self.job_id = -1

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time covered by its child spans."""
        child = [0.0] * len(self.start)
        for i, par in enumerate(self.parent):
            if par >= 0:
                child[par] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child[i] for i in range(len(self.start))]

    def covered(self, first: int, last: int) -> float:
        """Time covered by the top-level spans among spans[first:last]."""
        return sum(self.end[i] - self.start[i] for i in range(first, last)
                   if self.parent[i] < 0)

    def layer_totals(self, jobs: set[int]) -> dict[str, float]:
        """calls / self_s / errors per layer and per function, over the
        spans of the given jobs."""
        totals: dict[str, float] = {}
        selfs = self.self_times()
        for i, nid in enumerate(self.name):
            if self.job[i] not in jobs:
                continue
            name = self.span_names[nid]
            layer = name.split(".", 1)[0]
            for key in (layer, name):
                totals[f"{key}.calls"] = totals.get(f"{key}.calls", 0) + 1
                totals[f"{key}.self_s"] = totals.get(f"{key}.self_s", 0.0) + selfs[i]
            totals[f"{layer}.errors"] = totals.get(f"{layer}.errors", 0) + self.failed[i]
        return totals

    def write_spans(self, path: Path, t0: float) -> None:
        """Write every span as columns, times in seconds from t0."""
        data = {"names": self.span_names,
                "name": self.name,
                "start": [round(t - t0, 9) for t in self.start],
                "end": [round(t - t0, 9) for t in self.end],
                "parent": self.parent,
                "job": self.job,
                "failed": [int(f) for f in self.failed]}
        path.write_text(json.dumps(data, separators=(",", ":")))
