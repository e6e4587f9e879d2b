"""freehardy benchmark: one workload per process, closed loop, checked jobs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload clark_herglotz --seed 1 --seconds 30 --trace 0

The library is imported from the checkout's ``src/``.  Jobs run one at a
time; each starts when the previous one returns.  Every job's output is
checked, and a job that fails its check is still timed and counted as
failed.

``--trace 0`` is a timed run: nothing is wrapped, and it reports the
end-to-end metrics.  ``--trace 1`` is a traced run: it times one pass of the
workload's jobs, then the same pass with every public library function
wrapped (see spans.py), and reports per-layer metrics and the tracing
overhead.  The spans are written to ``.perfbench_out/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything else
(environment, input sizes, every metric with its unit, fail_frac) is printed
above it and also saved to ``.perfbench_out/``.
"""

from __future__ import annotations

import os

# One BLAS thread, for this process and the set-up probes it starts: the
# dense factorizations are then timed the same way on a busy machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

T_START = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("clark_herglotz", "kernel_gram", "model_space")

# Gated metrics (BENCHMARK.json's end_to_end), then the wall-clock ones,
# which are printed and saved but swing with the host's load.
END_TO_END = {"cal_jobs_per_s": "1/s", "cal_job_p50_s": "s", "cal_job_p90_s": "s",
              "peak_rss_mb": "MB", "setup_s": "s"}
WALL_CLOCK = {"jobs_per_s": "1/s", "job_p50_s": "s", "job_p90_s": "s",
              "setup_wall_s": "s"}
REF_NOMINAL_S = 0.010   # calibrated seconds: the reference kernel takes this long
REF_EVERY_S = 0.25      # time the reference kernel at least this often
REF_WINDOW_S = 1.0
MIN_JOBS = 100          # >= 10 samples beyond the p90
HARD_CAP_S = 150.0      # a timed loop never runs longer than this
SETUP_PROBES = 7        # fresh processes timed for setup_s


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs for the smoke test")
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up the workload, then exit (times setup_s)")
    return ap.parse_args(argv)


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# environment

def git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one (no parent search)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    import scipy
    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    digest = hashlib.sha1()
    for path in sorted((SRC / "freehardy").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": int(BLAS_THREADS),
            "freehardy_commit": git_commit(),
            "freehardy_src_sha1": digest.hexdigest(),
            "machine": platform.machine()}


# ---------------------------------------------------------------------------
# jobs

class Reference:
    """A fixed kernel, independent of the library, timed between jobs.

    It builds a dict of small complex arrays (the allocation-heavy Python
    work of series arithmetic) and factorizes a dense Hermitian matrix (the
    BLAS work of the model spaces).  On a shared host the machine's speed
    drifts by tens of percent over tens of seconds; a job's calibrated time
    is its wall time scaled by REF_NOMINAL_S over the reference times
    measured around it, i.e. its duration on a machine where this kernel
    takes REF_NOMINAL_S.  The library cannot change the kernel, so a change
    to the library moves calibrated and wall-clock times alike."""

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        g = rng.standard_normal((120, 120)) + 1j * rng.standard_normal((120, 120))
        self.herm = g @ g.conj().T
        self.np = np
        self.samples: list[tuple[float, float]] = []   # (time, seconds)

    def measure(self) -> None:
        np = self.np
        t = time.perf_counter()
        table = {}
        for i in range(2000):
            table[(i % 64, i)] = np.zeros((2, 2), dtype=complex)
        acc = 0j
        for m in table.values():
            acc += m[0, 0]
        for _ in range(3):
            np.linalg.eigh(self.herm)
        end = time.perf_counter()
        self.samples.append((end, end - t))

    def around(self, when: float) -> float:
        """Median reference time within REF_WINDOW_S of `when` (at least
        the three nearest samples)."""
        near = sorted(self.samples, key=lambda s: abs(s[0] - when))
        inside = [r for t, r in near if abs(t - when) <= REF_WINDOW_S]
        return statistics.median(inside if len(inside) >= 3 else [r for _, r in near[:3]])


def execute(job, failures: list[str], ref: Reference) -> tuple[float, float]:
    """Run one job, then time the reference kernel if it is due.  Returns
    the job's duration and the time it ended.  A failure is recorded,
    never raised: the loop keeps going."""
    t = time.perf_counter()
    try:
        res = job.run()
    except Exception:
        end = time.perf_counter()
        failures.append(f"{job.label}: raised\n{traceback.format_exc()}")
    else:
        end = time.perf_counter()
        try:
            msg = job.check(res)
        except Exception:
            msg = f"check raised\n{traceback.format_exc()}"
        if msg is not None:
            failures.append(f"{job.label}: {msg}")
    if end - ref.samples[-1][0] >= REF_EVERY_S:
        ref.measure()
    return end - t, end


def calibrated(ref: Reference, timings: list[tuple[float, float]]) -> list[float]:
    return [dt * REF_NOMINAL_S / ref.around(end - dt / 2) for dt, end in timings]


def quantile(values: list[float], q: float, weights: list[float]) -> float:
    """Weighted quantile: each value stands for the middle of its share of
    the total weight, and q is interpolated linearly between those points."""
    pairs = sorted(zip(values, weights))
    total = sum(weights)
    acc, xs, ps = 0.0, [], []
    for v, w in pairs:
        xs.append(v)
        ps.append((acc + w / 2) / total)
        acc += w
    if q <= ps[0]:
        return xs[0]
    for k in range(1, len(xs)):
        if q <= ps[k]:
            return xs[k - 1] + (xs[k] - xs[k - 1]) * (q - ps[k - 1]) / (ps[k] - ps[k - 1])
    return xs[-1]


def pass_weights(n_done: int, pass_len: int) -> list[float]:
    """1 / (times the loop ran that input), so a run that stops part way
    through a pass still weighs every input of the pass equally."""
    full, rest = divmod(n_done, pass_len)
    return [1.0 / (full + (k % pass_len < rest)) for k in range(n_done)]


def timed_run(wl, ref: Reference, seconds: float,
              min_jobs: int) -> tuple[dict, int, list[str], dict]:
    failures: list[str] = []
    timings: list[tuple[float, float]] = []
    for _ in range(3):
        ref.measure()
    t0 = time.perf_counter()
    while True:
        now = time.perf_counter()
        if (now - t0 >= seconds and len(timings) >= min_jobs) or now - t0 >= HARD_CAP_S:
            break
        timings.append(execute(wl.jobs[len(timings) % len(wl.jobs)], failures, ref))
    loop_s = time.perf_counter() - t0
    for _ in range(3):
        ref.measure()
    cal = calibrated(ref, timings)
    wall = [dt for dt, _ in timings]
    w = pass_weights(len(timings), len(wl.jobs))
    p90 = quantile(cal, 0.9, w)
    metrics = {"cal_jobs_per_s": sum(w) / sum(x * y for x, y in zip(cal, w)),
               "cal_job_p50_s": quantile(cal, 0.5, w),
               "cal_job_p90_s": p90,
               "jobs_per_s": sum(w) / sum(x * y for x, y in zip(wall, w)),
               "job_p50_s": quantile(wall, 0.5, w),
               "job_p90_s": quantile(wall, 0.9, w),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    refs = [r for _, r in ref.samples]
    info = {"jobs": len(wall), "loop_wall_s": loop_s,
            "samples_beyond_p90": sum(1 for x in cal if x > p90),
            "passes": len(wall) / len(wl.jobs),
            "reference_s": {"median": statistics.median(refs), "min": min(refs),
                            "max": max(refs), "count": len(refs)}}
    return metrics, len(wall), failures, info


def setup_probes(args, ref: Reference) -> tuple[list[float], float]:
    """Set-up time of fresh processes that import the library, make the
    inputs and warm its tables, then exit.  Each probe times itself from
    the start of this script and prints the figure.  Returns the wall
    times and the calibration factor: REF_NOMINAL_S over the median of the
    reference times taken between the probes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--scale", args.scale,
           "--setup-probe"]
    wall = []
    for _ in range(SETUP_PROBES):
        ref.measure()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             check=True, timeout=120)
        wall.append(float(out.stdout.split()[-1]))
    ref.measure()
    refs = [r for _, r in ref.samples[-(SETUP_PROBES + 1):]]
    return wall, REF_NOMINAL_S / statistics.median(refs)


def traced_run(args, tracer, wl, setup_span_end: int) -> tuple[dict, int, list[str], dict]:
    """One pass untraced, then the same pass traced."""
    from spans import NO_METRIC_LAYERS, per_layer_metric_units

    failures: list[str] = []
    ref = Reference()
    for _ in range(3):
        ref.measure()
    plain = [execute(job, failures, ref) for job in wl.jobs]
    bytes_before = wl.bytes_out
    tracer.install()
    traced, coverage = [], []
    try:
        for k, job in enumerate(wl.jobs):
            first = tracer.begin_job(k)
            traced.append(execute(job, failures, ref))
            coverage.append(tracer.covered(first, len(tracer.start)) / traced[-1][0])
            tracer.end_job()
    finally:
        tracer.uninstall()
    for _ in range(3):
        ref.measure()
    totals = tracer.layer_totals(set(range(len(wl.jobs))))
    setup_totals = tracer.layer_totals({-1})
    metrics = {}
    for name in per_layer_metric_units():
        metrics[name] = totals.get(name, 0)
    metrics.update({k: v for k, v in tracer.counts.items() if k in metrics})
    for key, (rep, tot) in tracer.repeats.items():
        metrics[f"{key}.repeat_frac"] = rep / tot if tot else 0.0
    computed = tracer.counts["clark.clark_moments.words"]
    metrics["clark.moment_window_used_frac"] = (
        tracer.counts["clark.moment_matrix.words"] / computed if computed else 0.0)
    metrics["cli.main.bytes_out"] = wl.bytes_out - bytes_before
    metrics["words.setup_self_s"] = setup_totals.get("words.self_s", 0.0)
    metrics["trace.overhead_frac"] = (sum(calibrated(ref, traced))
                                      / sum(calibrated(ref, plain)) - 1.0)
    metrics["trace.span_coverage_min_frac"] = min(coverage)
    fock_calls = sum(totals.get(f"{layer}.calls", 0) for layer in NO_METRIC_LAYERS)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}-{os.getpid()}.json"
    tracer.write_spans(spans_path, tracer.start[0] if tracer.start else 0.0)
    info = {"jobs_per_pass": len(wl.jobs), "untraced_s": sum(dt for dt, _ in plain),
            "traced_s": sum(dt for dt, _ in traced), "fock_calls": fock_calls,
            "spans": len(tracer.start), "spans_file": str(spans_path.relative_to(ROOT)),
            "setup_spans": setup_span_end}
    return metrics, 2 * len(wl.jobs), failures, info


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "freehardy" / "__init__.py").is_file():
        return fail(f"no library source at {SRC.relative_to(ROOT)}/freehardy; "
                    "run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import freehardy
    if Path(freehardy.__file__).resolve().parent != (SRC / "freehardy").resolve():
        return fail(f"imported freehardy from {freehardy.__file__}, not the checkout")
    import workloads
    from spans import FEEDS, Tracer, feeds_of, per_layer_metric_units

    tiny = args.scale == "tiny"
    work_dir = OUT / f"work-{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
            tracer.begin_job(-1)
        try:
            wl = workloads.build(args.workload, args.seed, tiny, work_dir)
            wl.warm()
        finally:
            if tracer is not None:
                tracer.end_job(fold=False)
                tracer.uninstall()
        own_setup = time.perf_counter() - T_START
        if args.setup_probe:
            print(f"{own_setup!r}")
            return 0

        env = environment()
        min_jobs = 3 if tiny else MIN_JOBS
        if args.trace:
            metrics, attempted, failures, info = traced_run(
                args, tracer, wl, len(tracer.start))
            units = per_layer_metric_units()
        else:
            ref = Reference()
            probes, factor = setup_probes(args, ref)
            metrics, attempted, failures, info = timed_run(wl, ref, args.seconds, min_jobs)
            metrics["setup_wall_s"] = statistics.median(probes)
            metrics["setup_s"] = metrics["setup_wall_s"] * factor
            info["setup_probes_s"] = probes
            units = END_TO_END
        info["own_setup_s"] = own_setup
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = len(failures)
    fail_frac = failed / attempted
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"scale={args.scale}")
    print("environment: " + json.dumps(env, sort_keys=True))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("why: " + next(w["why"] for w in spec["workloads"] if w["name"] == args.workload))
    print("sizes: " + json.dumps(wl.sizes))
    print("run: " + json.dumps(info, sort_keys=True))
    print("loop: closed, 1 client, one job at a time")
    for msg in failures[:5]:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"  {'fail_frac':34s} {fail_frac:.6g} ratio  ({failed} of {attempted} jobs)")
    printed = units if args.trace else {**units, **WALL_CLOCK}
    for name, unit in printed.items():
        line = f"  {name:34s} {metrics[name]:.6g} {unit}"
        if name in WALL_CLOCK:
            line += "  (wall clock, not gated)"
        if args.trace:
            line += "".join(f"  -> {e2e} on {on}; flat on {flat}"
                            for e2e, on, flat in feeds_of(name))
        print(line)
    if args.trace:
        print(f"  fock: no metric. Only fock.Side (an enum) is on the workflow "
              f"paths; creation, transpose_unitary and FockVector are used only "
              f"by tests. Wrapped fock calls in this run: {info['fock_calls']}")
    elif info["samples_beyond_p90"] < 10:
        print(f"  warning: only {info['samples_beyond_p90']} samples beyond p90")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "scale": args.scale, "environment": env, "sizes": wl.sizes,
              "run": info, "fail_frac": fail_frac, "failures": failures,
              "result": result,
              "printed": {k: {"value": metrics[k], "unit": u} for k, u in printed.items()}}
    if args.trace:
        record["feeds"] = [{"metrics": list(n), "moves": e, "on": o, "flat_on": f}
                           for n, e, o, f in FEEDS]
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
