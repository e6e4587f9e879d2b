"""Compare the model_space CLI reports of two checkouts, field by field.

Usage, from the root of a checkout:

    python3 tools/report_diff.py PARENT_DIR [--seeds 0 3 7] [--scale full]

For each seed, each checkout runs the commands of perfbench's model_space
workload (ce-test, gleason-gap, realize and complete-column on the
workload's symbols) in a process of its own, with its own src/ and
perfbench/ on the path and one BLAS thread, and keeps every report.  The
reports are then compared pairwise.  For each JSON path, with list
indices written as [], the output gives the number of report pairs that
differ there and the largest absolute difference; a path whose values are
equal but differ in the sign of a zero gets a line of its own.  A report
whose shape differs (keys, lengths or types) is counted at the path where
it does, with the difference inf.  The last line is the count of report
pairs that differ at all; 0 means every report is the same.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def write_reports(out_dir: Path, work: Path, seed: int, tiny: bool) -> None:
    """Run one pass of the model_space jobs of the checkout on sys.path in
    the directory work, keeping report k as out_dir/k.json; a job that
    writes no report leaves no file.  The job labels go to
    out_dir/labels.json."""
    from perfbench import workloads

    wl = workloads.build("model_space", seed, tiny, work)
    labels = []
    for k, job in enumerate(wl.jobs):
        job.run()
        report = work / "report.json"
        if report.is_file():
            report.rename(out_dir / f"{k}.json")
        labels.append(job.label)
    (out_dir / "labels.json").write_text(json.dumps(labels))


def run_checkout(checkout: Path, out_dir: Path, seed: int, tiny: bool) -> None:
    """write_reports for the checkout in a process of its own.  Input and
    report paths appear in each report's config, so both checkouts work in
    the same directory, next to out_dir."""
    work = out_dir.parent / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    out_dir.mkdir()
    env = {**os.environ, "PYTHONPATH": f"{checkout / 'src'}{os.pathsep}{checkout}",
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    argv = [sys.executable, str(Path(__file__).resolve()), "--write", str(out_dir),
            "--work", str(work), "--seed", str(seed)] \
        + (["--scale", "tiny"] if tiny else [])
    subprocess.run(argv, env=env, cwd=checkout, check=True)


def _path(prefix: str, key) -> str:
    return f"{prefix}[]" if isinstance(key, int) else f"{prefix}.{key}" if prefix else key


def diff_tree(a, b, path: str, found: dict) -> None:
    """Record in found[path] = (largest difference, sign of zero only) the
    places where a and b differ."""
    def note(p, value, sign_only=False):
        old = found.get(p, (0.0, True))
        found[p] = (max(old[0], value), old[1] and sign_only)

    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            note(path, math.inf)
        for key in a.keys() & b.keys():
            diff_tree(a[key], b[key], _path(path, key), found)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            note(path, math.inf)
        for i, (x, y) in enumerate(zip(a, b)):
            diff_tree(x, y, _path(path, i), found)
    elif isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str) \
            or isinstance(b, str) or a is None or b is None:
        if a != b or type(a) is not type(b):
            note(path, math.inf)
    elif isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if a == b:
            if math.copysign(1.0, a) != math.copysign(1.0, b):
                note(path, 0.0, sign_only=True)
        elif math.isnan(a) and math.isnan(b):
            pass
        else:
            note(path, abs(a - b) if math.isfinite(a - b) else math.inf)
    elif a != b:
        note(path, math.inf)


def compare(parent: Path, seeds: list[int], tiny: bool) -> int:
    """Print the table for this checkout against parent; return the number
    of report pairs that differ."""
    values, signs = defaultdict(lambda: [0, 0.0]), defaultdict(int)
    total = differ = 0
    with tempfile.TemporaryDirectory(prefix="report_diff_") as tmp:
        for seed in seeds:
            sides = [Path(tmp) / f"{side}-{seed}" for side in ("parent", "this")]
            run_checkout(parent.resolve(), sides[0], seed, tiny)
            run_checkout(ROOT, sides[1], seed, tiny)
            labels = json.loads((sides[1] / "labels.json").read_text())
            if labels != json.loads((sides[0] / "labels.json").read_text()):
                raise SystemExit(f"seed {seed}: the checkouts run different jobs")
            for k, label in enumerate(labels):
                files = [side / f"{k}.json" for side in sides]
                total += 1
                if not any(f.is_file() for f in files):
                    continue
                if not all(f.is_file() for f in files):
                    found = {"<report>": (math.inf, False)}
                else:
                    found = {}
                    a, b = (json.loads(f.read_text()) for f in files)
                    diff_tree(a, b, "", found)
                differ += bool(found)
                for p, (value, sign_only) in found.items():
                    if sign_only:
                        signs[p] += 1
                    else:
                        values[p][0] += 1
                        values[p][1] = max(values[p][1], value)
                        print(f"seed {seed} {label}: {p} {value:.3e}")
    for p, (count, value) in sorted(values.items()):
        print(f"{p}: {count} of {total} reports differ, largest |difference| {value:.3e}")
    for p, count in sorted(signs.items()):
        print(f"{p}: sign of zero differs in {count} of {total} reports")
    print(f"{differ} of {total} reports differ")
    return differ


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", nargs="?", type=Path,
                    help="root of the checkout to compare against")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 3, 7])
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--write", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--seed", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.write is not None:
        write_reports(args.write, args.work, args.seed, args.scale == "tiny")
        return 0
    if args.parent is None:
        ap.error("give the parent checkout's root")
    compare(args.parent, args.seeds, args.scale == "tiny")
    return 0


if __name__ == "__main__":
    sys.exit(main())
