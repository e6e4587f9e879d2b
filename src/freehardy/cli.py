"""Batch command line front end.

One analysis per invocation; results go to stdout or --out as JSON (or
tidy CSV for ladder/spectrum data).  Reports embed a schema version, the
full configuration, and the truncation parameters behind every verdict,
so a report file is reproducible on its own.

Exit status: 0 success, 2 certified-negative verdict (not Schur, Gram
not certified, column-extreme obstruction), 1 error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .clark import (clark_moments, cuntz_check, gns_build,
                    herglotz_from_moments, interior_isometry_defect,
                    moment_matrix)
from .colligation import (Colligation, canonical_colligation, column_schur_defect,
                          complete_column, transfer_eval, transfer_series)
from .gleason import (CeObstructionError, NotSchurError, ce_test,
                      extremality_gap, series_degree)
from .kernels import KernelKind, KernelSpec, gram_psd_check, nilpotent_pins
from .parser import ParseError, parse
from .series import (FreeSeries, MatrixPoint, cayley, evaluate, json_field,
                     mat_from_json, mat_to_json, schur_norm_estimate)
from .words import CapacityError

SCHEMA = "freehardy-report/1"


def _point_json(Z: MatrixPoint) -> dict:
    return {"n": Z.n, "mats": [mat_to_json(m) for m in Z.mats]}


def _point_from_json(data: dict, d: int) -> MatrixPoint:
    return MatrixPoint(d, json_field(data, "n", int),
                       [mat_from_json(m, "mats")
                        for m in json_field(data, "mats", list)])


def _load_series(args) -> FreeSeries:
    if args.expr is not None:
        return parse(args.expr, args.d, args.deg)
    if args.input is not None:
        with open(args.input) as fh:
            return FreeSeries.from_json(json.load(fh))
    raise ValueError("provide --expr or --input")


def _random_points(d: int, count: int, seed: int, n: int = 2,
                   radius: float = 0.4) -> list[MatrixPoint]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        mats = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                for _ in range(d)]
        Z = MatrixPoint(d, n, mats)
        rn = Z.row_norm()
        if rn > 0:
            Z = MatrixPoint(d, n, [m * (radius / rn) for m in Z.mats])
        out.append(Z)
    return out


def _load_points(args) -> list[MatrixPoint]:
    if args.points is not None:
        with open(args.points) as fh:
            data = json.load(fh)
        if not isinstance(data, list):
            raise ValueError("a points file holds a list of points")
        return [_point_from_json(p, args.d) for p in data]
    return _random_points(args.d, args.num_points, args.seed)


# Reports are the bytes of json.dumps(x, sort_keys=True, indent=2), whose
# indent forces the pure-Python encoder; _dumps formats each list in the
# mat_to_json layout, the bulk of every report, in one pass.
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _atom(x) -> str | None:
    """JSON text of a str, None, bool, int or float; None for other types."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None or x is True or x is False:
        return "null" if x is None else "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    text = float.__repr__(x) if isinstance(x, float) else None
    return _NONFINITE.get(text, text)


def _pair_matrix(rows: list, level: int) -> str | None:
    """Text of rows at `level` if equal-length rows of [re, im] floats."""
    cells = list(chain.from_iterable(rows)) if set(map(type, rows)) == {list} else []
    flat = list(chain.from_iterable(cells)) if set(map(type, cells)) == {list} else []
    if (not flat or set(map(len, rows)) != {len(rows[0])}
            or set(map(len, cells)) != {2} or set(map(type, flat)) != {float}):
        return None
    i0, i1, i2, i3 = ("\n" + "  " * (level + k) for k in range(4))
    text = list(map(float.__repr__, flat))
    it = map(_NONFINITE.get, text, text)
    pairs = map(("," + i3).join, zip(it, it))
    lines = map((i2 + "]," + i2 + "[" + i3).join, zip(*[pairs] * len(rows[0])))
    body = (i2 + "]" + i1 + "]," + i1 + "[" + i2 + "[" + i3).join(lines)
    return f"[{i1}[{i2}[{i3}{body}{i2}]{i1}]{i0}]"


def _dumps(x, level: int = 0, out: list | None = None) -> str:
    """The text of x nested `level` deep; a nested call appends to out."""
    top = out is None
    out = [] if top else out
    atom = _atom(x)
    if atom is None and not isinstance(x, (list, tuple, dict)):
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
    brackets = "{}" if isinstance(x, dict) else "[]"
    fast = _pair_matrix(x, level) if type(x) is list and x else None
    if atom or fast or not x:
        out.append(atom or fast or brackets)
    else:
        indent = "\n" + "  " * (level + 1)
        for i, item in enumerate(sorted(x) if brackets == "{}" else x):
            out.append(("," if i else brackets[0]) + indent)
            if brackets == "{}":  # other keys as JSON text, or TypeError
                key = item if isinstance(item, str) else _atom(item)
                out.append(encode_basestring_ascii(key) + ": ")
                item = x[item]
            _dumps(item, level + 1, out)
        out.append(indent[:-2] + brackets[1])
    return "".join(out) if top else ""


def _emit(report: dict, args, rows: list[dict] | None = None) -> None:
    """Write the report; CSV format needs tidy rows, else falls back to
    flat key/value pairs of the scalar results."""
    if args.format == "json":
        text = _dumps(report) + "\n"
    else:
        buf = io.StringIO()
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        else:
            writer = csv.writer(buf)
            writer.writerow(["key", "value"])
            for k, v in sorted(report["results"].items()):
                if isinstance(v, (int, float, str, bool)):
                    writer.writerow([k, v])
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _header(args) -> dict:
    """Schema tag, command and full configuration, shared by every report."""
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    return {"schema": SCHEMA, "command": args.command, "config": config}


def _report(args, results: dict, truncation: dict | None = None) -> dict:
    return {**_header(args),
            "truncation": truncation or {"N": args.N, "deg": args.deg},
            "results": results}


def cmd_eval(args) -> int:
    F = _load_series(args)
    points = _load_points(args)
    vals = [{"point": _point_json(Z), "value": mat_to_json(evaluate(F, Z))}
            for Z in points]
    _emit(_report(args, {"values": vals, "num_points": len(points)}), args)
    return 0


def cmd_schur_check(args) -> int:
    F = _load_series(args)
    est = schur_norm_estimate(F, args.N)
    ok = est <= 1.0 + args.tol
    _emit(_report(args, {"norm_estimate": est, "is_schur": bool(ok),
                         "tol": args.tol}), args)
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
    ext = FreeSeries(B.d, max(B.deg, args.N), B.p, B.q, B.coeffs)
    H = cayley(ext, "schur_to_herglotz")
    mu = clark_moments(B, args.N)
    points = _load_points(args)
    worst = 0.0
    per_point = []
    for Z in points:
        lhs = herglotz_from_moments(mu, Z)
        rhs = evaluate(H, Z)
        r = float(np.linalg.norm(lhs - rhs, 2))
        per_point.append(r)
        worst = max(worst, r)
    ok = worst <= args.tol
    _emit(_report(args, {"max_residual": worst, "residuals": per_point,
                         "within_tol": bool(ok), "tol": args.tol}), args)
    return 0 if ok else 2


def _gns_from_args(args):
    B = _load_series(args)
    mu = clark_moments(B, 2 * args.N)
    return gns_build(mu, args.N, rank_tol=args.rank_tol), mu


def cmd_gns(args) -> int:
    model, mu = _gns_from_args(args)
    results = {"rank": model.rank,
               "eigenvalues": [float(v) for v in model.eigenvalues],
               "interior_isometry_defect": interior_isometry_defect(model)}
    if args.full:
        results["moment_matrix"] = mat_to_json(moment_matrix(mu, args.N))
        results["pi"] = [mat_to_json(P) for P in model.pi]
    rows = [{"index": i, "eigenvalue": float(v)}
            for i, v in enumerate(model.eigenvalues)]
    _emit(_report(args, results), args, rows)
    return 0


def cmd_cuntz_check(args) -> int:
    model, _ = _gns_from_args(args)
    res = cuntz_check(model)
    res["is_cuntz"] = bool(res["defect"] <= args.tol)
    _emit(_report(args, res), args)
    return 0


def cmd_ce_test(args) -> int:
    B = _load_series(args)
    res = ce_test(B, args.N, tol=args.tol, rank_tol=args.rank_tol,
                  seed=args.seed)
    results = {"verdict": res["verdict"], "flags": res["flags"],
               "gleason": res["by_gleason"],
               "szego": res["by_szego"],
               "membership": {"lambda": (None if res["by_membership"]["lambda"]
                                         == float("inf")
                                         else res["by_membership"]["lambda"]),
                              "certified_bound": bool(
                                  res["by_membership"]["lambda"] != float("inf")),
                              "extremal": res["by_membership"]["extremal"]},
               "cuntz": res["by_cuntz"]}
    rows = [{"N": r["N"], "gap_norm": r["gap_norm"]}
            for r in res["by_gleason"]["ladder"]]
    _emit(_report(args, results), args, rows)
    return 0


def cmd_gleason_gap(args) -> int:
    B = _load_series(args)
    res = extremality_gap(B, args.N, tol=args.tol, rank_tol=args.rank_tol)
    results = {"gap": mat_to_json(res["gap"]), "ladder": res["ladder"],
               "extremal": res["extremal"],
               "trend_decreasing": res["trend_decreasing"]}
    rows = [{"N": r["N"], "gap_norm": r["gap_norm"]} for r in res["ladder"]]
    _emit(_report(args, results), args, rows)
    return 0


def cmd_realize(args) -> int:
    B = _load_series(args)
    U = canonical_colligation(B, args.N, rank_tol=args.rank_tol)
    margin = args.N - series_degree(B)
    S = transfer_series(U, margin)
    err = 0.0
    for w in set(S.coeffs) | set(k for k in B.coeffs if len(k) <= margin):
        err = max(err, float(np.linalg.norm(S.coeff(w) - B.coeff(w))))
    results = {"colligation": U.to_json(), "roundtrip_error": err,
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
        U = Colligation.from_json(json.load(fh))
    args.d = U.d
    points = _load_points(args)
    vals = [{"point": _point_json(Z),
             "value": mat_to_json(transfer_eval(U, Z))} for Z in points]
    _emit(_report(args, {"values": vals}), args)
    return 0


def cmd_complete_column(args) -> int:
    A = _load_series(args)
    res = complete_column(A, args.N, tol=args.tol, rank_tol=args.rank_tol)
    defect = column_schur_defect(A, res["a"], min(args.N, 6))
    results = {"a": res["a"].to_json(), "a0": mat_to_json(res["a0"]),
               "isometry_defect": res["isometry_defect"],
               "membership_residual": res["membership_residual"],
               "column_gram_defect": defect,
               "colligation": res["U"].to_json()}
    _emit(_report(args, results), args)
    return 0


_KINDS = {"szego": KernelKind.SZEGO, "dbr-left": KernelKind.DBR_LEFT,
          "dbr-right": KernelKind.DBR_RIGHT, "herglotz": KernelKind.HERGLOTZ}


def cmd_kernel_gram(args) -> int:
    kind = _KINDS[args.kind]
    B = _load_series(args) if kind is not KernelKind.SZEGO else None
    spec = KernelSpec(kind, B, deg=args.N)
    rng = np.random.default_rng(args.seed)
    pins = nilpotent_pins(args.d, args.num_points, rng)
    res = gram_psd_check(spec, pins, tol=args.tol)
    eigs = np.linalg.eigvalsh(res["gram"])
    results = {"min_eig": res["min_eig"], "certified": res["certified"],
               "num_pins": len(pins), "tol": args.tol,
               "eigenvalues": [float(v) for v in eigs]}
    rows = [{"index": i, "eigenvalue": float(v)} for i, v in enumerate(eigs)]
    _emit(_report(args, results), args, rows)
    return 0 if res["certified"] else 2


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="freehardy",
                                  description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, **extra):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--expr", help="inline expression in z1..zd")
        p.add_argument("--input", help="input file (series or colligation JSON)")
        p.add_argument("--d", type=int, default=1, help="alphabet size")
        p.add_argument("--deg", type=int, default=6, help="series degree")
        p.add_argument("--N", type=int, default=6, help="Fock truncation")
        p.add_argument("--tol", type=float, default=1e-8)
        p.add_argument("--rank-tol", dest="rank_tol", type=float, default=1e-10)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        for flag, kw in extra.items():
            p.add_argument(flag, **kw)
        p.set_defaults(func=fn)
        return p

    pts = {"--points": {"help": "JSON file with evaluation points"},
           "--num-points": {"dest": "num_points", "type": int, "default": 5}}
    add("eval", cmd_eval, "evaluate a series at matrix points", **pts)
    add("schur-check", cmd_schur_check, "contractivity estimate")
    add("cayley", cmd_cayley, "Cayley transform of a series",
        **{"--direction": {"choices": ["schur_to_herglotz",
                                       "herglotz_to_schur"],
                           "default": "schur_to_herglotz"}})
    add("moments", cmd_moments, "Clark moment functional",
        **{"--moment-deg": {"dest": "moment_deg", "type": int, "default": None}})
    add("herglotz-verify", cmd_herglotz_verify,
        "reconstruction residual of the Herglotz formula", **pts)
    add("gns", cmd_gns, "GNS model of the Clark moments",
        **{"--full": {"action": "store_true",
                      "help": "embed moment matrix and row blocks"}})
    add("cuntz-check", cmd_cuntz_check, "Cuntz defect of the GNS row")
    add("ce-test", cmd_ce_test, "column-extremeness battery")
    add("gleason-gap", cmd_gleason_gap, "extremality gap ladder")
    add("realize", cmd_realize, "canonical functional-model colligation")
    add("transfer-eval", cmd_transfer_eval, "evaluate a colligation transfer "
        "function", **pts)
    add("complete-column", cmd_complete_column,
        "canonical completion of a non-extreme column")
    add("kernel-gram", cmd_kernel_gram, "kernel Gram positivity certificate",
        **{"--kind": {"choices": sorted(_KINDS), "default": "dbr-left"},
           "--num-points": {"dest": "num_points", "type": int, "default": 10}})
    return top


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
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
