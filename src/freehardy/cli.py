"""Batch command line front end.

One analysis per invocation; results go to stdout or --out as JSON (or
tidy CSV for ladder/spectrum data).  Each subcommand takes the options
it reads and no others.  Reports embed a schema version, every option
the subcommand takes, and the truncation parameters behind every
verdict, so a report file is reproducible on its own.

Exit status: 0 success, 2 certified-negative verdict (not Schur, Gram
not certified, column-extreme obstruction), 1 error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import json
import sys

import numpy as np

from .clark import (clark_moments, cuntz_check, gns_build,
                    herglotz_from_moments, herglotz_moments,
                    interior_isometry_defect, moment_matrix)
from .colligation import (Colligation, canonical_colligation, column_schur_defect,
                          complete_column, transfer_eval, transfer_series)
from .gleason import CeObstructionError, NotSchurError, ce_test, extremality_gap
from .kernels import KernelKind, KernelSpec, gram_psd_check, nilpotent_stack
from .parser import ParseError, parse
from .series import (FreeSeries, MatrixPoint, cayley, evaluate, json_field,
                     mat_from_json, schur_norm_bound, schur_norm_estimate,
                     series_degree)
from .words import CapacityError

SCHEMA = "freehardy-report/1"


def _point_json(Z: MatrixPoint) -> dict:
    return {"n": Z.n, "mats": Z.mats}


def _point_from_json(data: dict, d: int) -> MatrixPoint:
    n = json_field(data, "n", int, low=1)
    mats = [mat_from_json(m, "mats") for m in json_field(data, "mats", list)]
    if any(m.shape != (n, n) for m in mats):
        raise ValueError(f"field 'mats' holds a matrix that is not {n} x {n}")
    return MatrixPoint(d, n, mats)


def _load_series(args) -> FreeSeries:
    if args.expr is not None:
        return parse(args.expr, args.d, args.deg)
    if args.input is not None:
        with open(args.input) as fh:
            return FreeSeries.from_json(json.load(fh))
    raise ValueError("provide --expr or --input")


def _random_points(d: int, count: int, seed: int) -> list[MatrixPoint]:
    """count points of level 2 scaled to row norm 0.4, from one draw in the
    order of a loop over points, letters, re then im."""
    g = np.random.default_rng(seed).standard_normal((count, d, 2, 2, 2))
    mats = g[:, :, 0] + 1j * g[:, :, 1]
    rn = np.linalg.norm(mats.swapaxes(1, 2).reshape(count, 2, 2 * d), 2, axis=(1, 2))
    mats *= np.divide(0.4, rn, out=np.ones(count), where=rn > 0)[:, None, None, None]
    return [MatrixPoint(d, 2, list(Z)) for Z in mats]


def _load_points(args, d: int) -> list[MatrixPoint]:
    if args.points is not None:
        with open(args.points) as fh:
            data = json.load(fh)
        if not isinstance(data, list):
            raise ValueError("a points file holds a list of points")
        return [_point_from_json(p, d) for p in data]
    return _random_points(d, args.num_points, args.seed)


# Reports are the bytes of json.dumps(x, sort_keys=True, indent=2) and a
# newline, with each complex matrix written as json.dumps writes its
# mat_to_json lists.  The stdlib encoder writes the tree chunk by chunk,
# and _matrix each matrix, the bulk of every report, from its array,
# naming non-finite entries as the encoder does; no function holds a
# whole report's text.
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _write_json(x, write) -> None:
    """Write the text of x and a newline through write.  The encoder's
    default stands the placeholder "" in for each matrix; the chunk that
    carries it is the next one, and _matrix writes the matrix instead,
    nested as deep as the indent after the last newline so far."""
    matrices = []

    def default(o):
        if type(o) is np.ndarray and o.ndim == 2 and o.dtype == np.complex128:
            matrices.append(o)
            return ""
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")

    last = ""  # the last chunk holding a newline
    for chunk in json.JSONEncoder(sort_keys=True, indent=2,
                                  default=default).iterencode(x):
        if matrices:
            _matrix(matrices.pop(), (len(last) - last.rfind("\n") - 1) // 2, write)
        else:
            write(chunk)
            if "\n" in chunk:
                last = chunk
    write("\n")


def _matrix(m: np.ndarray, level: int, write) -> None:
    """Write the mat_to_json lists of a 2-D complex array nested `level`
    deep, one row at a time.  Each row is cut from one all-zero row, with
    the pairs whose bits are not all zero formatted as it reaches them and
    spliced in."""
    rows, cols = m.shape
    i0, i1, i2, i3 = ("\n" + "  " * (level + k) for k in range(4))
    if not rows * cols:
        write("[" + i1 + ("," + i1).join(["[]"] * rows) + i0 + "]" if rows else "[]")
        return
    ri = np.ascontiguousarray(m).view(float).reshape(-1, 2)
    bits = ri.view(np.uint64)
    at = np.flatnonzero(bits[:, 0] | bits[:, 1])  # -0.0 is nonzero: it prints -0.0
    text = map(float.__repr__, ri[at].ravel())
    it = map(_NONFINITE.get, *itertools.tee(text))
    cells = map(("," + i3).join, zip(it, it))
    zero, sep = "0.0," + i3 + "0.0", i2 + "]," + i2 + "[" + i3
    head = "," + i1 + "[" + i2 + "[" + i3
    blank = head + sep.join([zero] * cols) + i2 + "]" + i1 + "]"
    starts = iter((len(head) + (len(zero) + len(sep)) * (at % cols)).tolist())
    for r, n in enumerate(np.bincount(at // cols, minlength=rows).tolist()):
        pieces, pos = (["["], 1) if r == 0 else ([], 0)  # the first row has no comma
        for a in itertools.islice(starts, n):
            pieces += (blank[pos:a], next(cells))
            pos = a + len(zero)
        pieces.append(blank[pos:])
        write("".join(pieces))
    write(i0 + "]")


def _emit(report: dict, args, rows: list[dict] | None = None) -> None:
    """Write the report to --out or stdout as it is made: JSON, or for
    --format csv the tidy rows, else flat key/value pairs of the scalar
    results.  A file takes the writes through a 256 KiB buffer, so a
    report goes out in large blocks rather than one call per chunk of the
    tree or matrix row."""
    with (open(args.out, "w", buffering=1 << 18) if args.out
          else contextlib.nullcontext(sys.stdout)) as fh:
        if args.format == "json":
            _write_json(report, fh.write)
        elif rows:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        else:
            writer = csv.writer(fh)
            writer.writerow(["key", "value"])
            for k, v in sorted(report["results"].items()):
                if isinstance(v, (int, float, str, bool)):
                    writer.writerow([k, v])


def _header(args) -> dict:
    """Schema tag, command and every option the command takes, shared by
    every report."""
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    return {"schema": SCHEMA, "command": args.command, "config": config}


def _report(args, results: dict, truncation: dict | None = None) -> dict:
    """The report; its truncation block defaults to the truncation options
    the command takes."""
    if truncation is None:
        truncation = {k: v for k, v in vars(args).items() if k in ("N", "deg")}
    return {**_header(args), "truncation": truncation, "results": results}


def cmd_eval(args) -> int:
    F = _load_series(args)
    points = _load_points(args, F.d)
    vals = [{"point": _point_json(Z), "value": evaluate(F, Z)}
            for Z in points]
    _emit(_report(args, {"values": vals, "num_points": len(points)}), args)
    return 0


def cmd_schur_check(args) -> int:
    F = _load_series(args)
    est = schur_norm_estimate(F, args.N)
    ok = est <= 1.0 + args.tol
    _emit(_report(args, {"norm_estimate": est, "upper": schur_norm_bound(F),
                         "is_schur": bool(ok), "tol": args.tol}), args)
    return 0 if ok else 2


def cmd_cayley(args) -> int:
    F = _load_series(args)
    H = cayley(F, args.direction)
    _emit(_report(args, {"series": H.to_json(),
                         "direction": args.direction}), args)
    return 0


def cmd_moments(args) -> int:
    B = _load_series(args)
    deg = args.moment_deg if args.moment_deg is not None else 2 * args.N
    mu = clark_moments(B, deg)
    M = moment_matrix(mu, deg // 2)
    eigs = np.linalg.eigvalsh(M)
    results = {"moments": mu.to_json(),
               "moment_matrix_min_eig": float(eigs[0]),
               "moment_matrix_norm": float(np.abs(eigs).max())}
    rows = [{"index": i, "eigenvalue": float(v)} for i, v in enumerate(eigs)]
    _emit(_report(args, results, {"N": deg // 2, "moment_deg": deg}), args, rows)
    return 0


def cmd_herglotz_verify(args) -> int:
    B = _load_series(args)
    H = cayley(B.truncate(max(B.deg, args.N)), "schur_to_herglotz")
    # a product's degree-N part reads its factors to degree N only, so the
    # moments of H to N are those of the Cayley transform of B to N
    mu = herglotz_moments(H.truncate(args.N))
    points = _load_points(args, B.d)
    values = [evaluate(H, Z) for Z in points]
    per_point = [float(np.linalg.norm(herglotz_from_moments(mu, Z) - HZ, 2))
                 for Z, HZ in zip(points, values)]
    closed = [_closed_form_residual(evaluate(B, Z), HZ)
              for Z, HZ in zip(points, values)]
    worst = max([0.0, *per_point])
    ok = worst <= args.tol
    _emit(_report(args, {
        "max_residual": worst, "residuals": per_point,
        "closed_form_residuals": closed,
        "max_closed_form_residual": max(
            (r for r in closed if r is not None), default=None),
        "within_tol": bool(ok), "tol": args.tol}), args)
    return 0 if ok else 2


def _closed_form_residual(BZ: np.ndarray, HZ: np.ndarray) -> float | None:
    """||(I + B(Z))(I - B(Z))^{-1} - H(Z)||_2, the truncated Cayley
    transform's value against the closed form at the point (the two
    factors commute); None where I - B(Z) is numerically singular."""
    I = np.eye(len(BZ))
    if np.linalg.cond(I - BZ) > 1e14:
        return None
    return float(np.linalg.norm(np.linalg.solve(I - BZ, I + BZ) - HZ, 2))


def _gns_from_args(args):
    B = _load_series(args)
    return gns_build(clark_moments(B, args.N), args.N, rank_tol=args.rank_tol)


def cmd_gns(args) -> int:
    model = _gns_from_args(args)
    results = {"rank": model.rank,
               "eigenvalues": [float(v) for v in model.eigenvalues],
               "interior_isometry_defect": interior_isometry_defect(model)}
    if args.full:
        results["moment_matrix"] = model.M
        results["pi"] = model.pi
    rows = [{"index": i, "eigenvalue": float(v)}
            for i, v in enumerate(model.eigenvalues)]
    _emit(_report(args, results), args, rows)
    return 0


def cmd_cuntz_check(args) -> int:
    model = _gns_from_args(args)
    res = cuntz_check(model)
    res["is_cuntz"] = bool(res["defect"] <= args.tol)
    _emit(_report(args, res), args)
    return 0


def cmd_ce_test(args) -> int:
    B = _load_series(args)
    res = ce_test(B, args.N, tol=args.tol, rank_tol=args.rank_tol,
                  seed=args.seed)
    lam = res["by_membership"]["lambda"]
    results = {"verdict": res["verdict"], "flags": res["flags"],
               "gleason": res["by_gleason"],
               "szego": res["by_szego"],
               "membership": {"lambda": None if lam == float("inf") else lam,
                              "certified_bound": bool(lam != float("inf")),
                              "extremal": res["by_membership"]["extremal"]},
               "cuntz": res["by_cuntz"]}
    _emit(_report(args, results), args, res["by_gleason"]["ladder"])
    return 0


def cmd_gleason_gap(args) -> int:
    B = _load_series(args)
    res = extremality_gap(B, args.N, tol=args.tol, rank_tol=args.rank_tol)
    results = {"gap": res["gap"], "ladder": res["ladder"],
               "extremal": res["extremal"],
               "trend_decreasing": res["trend_decreasing"]}
    _emit(_report(args, results), args, res["ladder"])
    return 0


def cmd_realize(args) -> int:
    B = _load_series(args)
    U = canonical_colligation(B, args.N, rank_tol=args.rank_tol, tol=args.tol)
    margin = args.N - series_degree(B)
    diff = transfer_series(U, margin).array - B.truncate(margin).array
    err = float(np.linalg.norm(diff, axis=(1, 2)).max())
    results = {"colligation": U.fields(), "roundtrip_error": err,
               "contraction_defect": U.meta["contraction_defect"],
               "coisometry_defect": U.meta["coisometry_defect"],
               "state_dim": U.state_dim}
    _emit(_report(args, results,
                  {"N": args.N, "interior_degree": U.meta["interior_degree"]}),
          args)
    return 0


def cmd_transfer_eval(args) -> int:
    if args.input is None:
        raise ValueError("transfer-eval needs --input with a colligation file")
    with open(args.input) as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "results" in data:  # a realize report
        data = json_field(data["results"], "colligation", dict)
    U = Colligation.from_json(data)
    points = _load_points(args, U.d)
    vals = [{"point": _point_json(Z),
             "value": transfer_eval(U, Z)} for Z in points]
    _emit(_report(args, {"values": vals}), args)
    return 0


def cmd_complete_column(args) -> int:
    A = _load_series(args)
    res = complete_column(A, args.N, tol=args.tol, rank_tol=args.rank_tol)
    defect = column_schur_defect(A, res["a"], min(args.N, 6))
    results = {"a": res["a"].to_json(), "a0": res["a0"],
               "isometry_defect": res["isometry_defect"],
               "membership_residual": res["membership_residual"],
               "column_gram_defect": defect,
               "colligation": res["U"].fields()}
    _emit(_report(args, results), args)
    return 0


def cmd_kernel_gram(args) -> int:
    kind = KernelKind(args.kind.replace("-", "_"))
    B = _load_series(args) if kind is not KernelKind.SZEGO else None
    spec = KernelSpec(kind, B, deg=args.N)
    pins = nilpotent_stack(args.d if B is None else B.d, args.num_points,
                           np.random.default_rng(args.seed))
    res = gram_psd_check(spec, pins, tol=args.tol)
    eigs = [float(v) for v in res["eigenvalues"]]
    results = {"min_eig": res["min_eig"], "certified": res["certified"],
               "num_pins": len(pins.v), "tol": args.tol, "eigenvalues": eigs}
    rows = [{"index": i, "eigenvalue": v} for i, v in enumerate(eigs)]
    _emit(_report(args, results), args, rows)
    return 0 if res["certified"] else 2


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parse_args fills a
    new namespace from the defaults on every call.  Each subcommand takes
    the shared options it reads, so one it would ignore is refused."""
    top = argparse.ArgumentParser(prog="freehardy",
                                  description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)
    shared = {"--expr": {"help": "inline expression in z1..zd"},
              "--input": {"help": "input file (series or colligation JSON)"},
              "--d": {"type": int, "default": 1, "help": "alphabet size"},
              "--deg": {"type": int, "default": 6, "help": "series degree"},
              "--N": {"type": int, "default": 6, "help": "Fock truncation"},
              "--tol": {"type": float, "default": 1e-8},
              "--rank-tol": {"dest": "rank_tol", "type": float, "default": 1e-10},
              "--seed": {"type": int, "default": 0}}

    def add(name, fn, help_text, takes, **extra):
        p = sub.add_parser(name, help=help_text)
        source = p.add_mutually_exclusive_group()
        for flag in takes.split():
            (source if flag in ("--expr", "--input") else p).add_argument(
                flag, **shared[flag])
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        for flag, kw in extra.items():
            p.add_argument(flag, **kw)
        p.set_defaults(func=fn)

    pts = {"--points": {"help": "JSON file with evaluation points"},
           "--num-points": {"dest": "num_points", "type": int, "default": 5}}
    series, model = "--expr --input --d --deg", "--N --tol --rank-tol"
    add("eval", cmd_eval, "evaluate a series at matrix points",
        f"{series} --seed", **pts)
    add("schur-check", cmd_schur_check, "contractivity estimate",
        f"{series} --N --tol")
    add("cayley", cmd_cayley, "Cayley transform of a series", series,
        **{"--direction": {"choices": ["schur_to_herglotz",
                                       "herglotz_to_schur"],
                           "default": "schur_to_herglotz"}})
    add("moments", cmd_moments, "Clark moment functional", f"{series} --N",
        **{"--moment-deg": {"dest": "moment_deg", "type": int, "default": None}})
    add("herglotz-verify", cmd_herglotz_verify,
        "reconstruction residual of the Herglotz formula",
        f"{series} --N --tol --seed", **pts)
    add("gns", cmd_gns, "GNS model of the Clark moments",
        f"{series} --N --rank-tol",
        **{"--full": {"action": "store_true",
                      "help": "embed moment matrix and row blocks"}})
    add("cuntz-check", cmd_cuntz_check, "Cuntz defect of the GNS row",
        f"{series} {model}")
    add("ce-test", cmd_ce_test, "column-extremeness battery",
        f"{series} {model} --seed")
    add("gleason-gap", cmd_gleason_gap, "extremality gap ladder",
        f"{series} {model}")
    add("realize", cmd_realize, "canonical functional-model colligation",
        f"{series} {model}")
    add("transfer-eval", cmd_transfer_eval, "evaluate a colligation transfer "
        "function", "--input --seed", **pts)
    add("complete-column", cmd_complete_column,
        "canonical completion of a non-extreme column", f"{series} {model}")
    kinds = sorted(k.value.replace("_", "-") for k in KernelKind)
    add("kernel-gram", cmd_kernel_gram, "kernel Gram positivity certificate",
        f"{series} --N --tol --seed",
        **{"--kind": {"choices": kinds, "default": "dbr-left"},
           "--num-points": {"dest": "num_points", "type": int, "default": 10}})
    return top


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error is an error: exit 1, not 2
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (CeObstructionError, NotSchurError) as exc:
        report = {**_header(args), "verdict": type(exc).__name__,
                  "detail": str(exc)}
        args.format = "json"  # a verdict report is JSON whatever --format says
        _emit(report, args)
        return 2
    except (ParseError, CapacityError, ValueError, OSError,
            np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
