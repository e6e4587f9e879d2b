"""The benchmark's workloads: inputs made from a seed, jobs, and checks.

A workload is one pass of jobs.  Each job has a `run` part, which is the
program's work and is timed, and a `check` part, which is the benchmark's
own verification and is not.  `check` returns None when the output is
right and a message otherwise.  Input sizes do not depend on the seed;
the seed only draws coefficients, points and pins, so runs with different
seeds do the same amount of work.

Inputs reach the program only through its public interface: series are
built with `FreeSeries.from_json` (the documented file format), points and
pins with `MatrixPoint` and `Pinning`, and the `model_space` jobs call the
command line entry point in-process.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from freehardy import cli, clark, kernels, parser, series, words

# Acceptance-battery tolerances.
TOL_HERGLOTZ_BALL = 1e-6
TOL_HERGLOTZ_NILPOTENT = 1e-12
TOL_CAYLEY_ROUNDTRIP = 1e-10
TOL_REALIZE_ROUNDTRIP = 1e-6
TOL_ISOMETRY_DEFECT = 1e-6
TOL_COLUMN_GRAM = 1e-8
TOL_KNOWN_GAP = 1e-6


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Workload:
    sizes: dict
    jobs: list[Job]
    warm_cayley: list[tuple[int, int]]   # (d, deg) pairs
    warm_words: list[tuple[int, int]]    # (d, max N) pairs
    bytes_out: int = 0          # report bytes read back by the checks

    def warm(self) -> None:
        """Fill the library's per-(d, degree) tables through its public
        calls, so the first timed job does not pay for them."""
        for d, top in self.warm_words:
            for n in range(top + 1):
                words.enumerate_tuples(d, n)
                words.index_map(d, n)
        for d, deg in self.warm_cayley:
            x = series.FreeSeries.from_json(_series_json(d, deg, 1, 1, {(): [[0.5]]}))
            series.cayley(x, "schur_to_herglotz")


# ---------------------------------------------------------------------------
# input helpers

def _series_json(d: int, deg: int, p: int, q: int, coeffs: dict) -> dict:
    terms = []
    for w in sorted(coeffs, key=lambda t: (len(t), t)):
        m = np.asarray(coeffs[w], dtype=complex).reshape(p, q)
        terms.append({"word": list(w), "re": m.real.tolist(), "im": m.imag.tolist()})
    return {"d": d, "deg": deg, "p": p, "q": q, "terms": terms}


def _coeff_map(F) -> dict[tuple, np.ndarray]:
    data = F.to_json()
    return {tuple(t["word"]): np.array(t["re"]) + 1j * np.array(t["im"])
            for t in data["terms"]}


def _max_coeff_diff(F, G) -> float:
    a, b = _coeff_map(F), _coeff_map(G)
    worst = 0.0
    for w in set(a) | set(b):
        x = a.get(w, 0.0) - b.get(w, 0.0)
        worst = max(worst, float(np.max(np.abs(x))))
    return worst


def _random_schur(rng, d: int, deg: int, p: int, target: float = 0.9):
    """Complex Gaussian coefficients on every word of length <= deg, scaled
    so the truncated multiplier norm at N = deg + 2 equals target (the
    acceptance-battery recipe)."""
    coeffs = {w: rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
              for w in words.enumerate_tuples(d, deg)}
    F = series.FreeSeries.from_json(_series_json(d, deg, p, p, coeffs))
    return series.normalize_schur(F, deg + 2, target=target)


def _with_degree(F, deg: int):
    """The same coefficients carried to another degree."""
    data = F.to_json()
    data["deg"] = deg
    return series.FreeSeries.from_json(data)


def _point(d: int, mats) -> "series.MatrixPoint":
    return series.MatrixPoint(d, mats[0].shape[0], list(mats))


def _ball_point(rng, d: int, n: int, radius: float = 0.4):
    mats = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for _ in range(d)]
    rn = float(np.linalg.norm(np.hstack(mats), 2))
    return _point(d, [m * (radius / rn) for m in mats])


def _nilpotent_point(rng, d: int, n: int, scale: float = 0.8):
    mats = [np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)
            for _ in range(d)]
    rn = float(np.linalg.norm(np.hstack(mats), 2))
    return _point(d, [m * (scale / rn) for m in mats])


def _pins(rng, d: int, count: int, n: int = 3):
    out = []
    for _ in range(count):
        Z = _nilpotent_point(rng, d, n)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        out.append(kernels.Pinning(Z, y, v))
    return out


def _fixed_order(jobs: list[Job]) -> list[Job]:
    """One shuffled order, the same for every seed: a run that stops part
    way through a pass has timed a representative sample of it."""
    return [jobs[i] for i in np.random.default_rng(0).permutation(len(jobs))]


# ---------------------------------------------------------------------------
# clark_herglotz

def clark_herglotz(seed: int, tiny: bool, work_dir: Path) -> Workload:
    """Each job takes one scalar and one 2x2 symbol, so every job does the
    same amount of work and the pool is half scalar, half 2x2."""
    rng = np.random.default_rng([seed, 1])
    d, deg = 2, 4
    moment_deg = 6 if tiny else 10
    n_pairs = 1 if tiny else 8
    n_ball = 2
    jobs = []
    for _ in range(n_pairs):
        cases = []
        for p in (1, 2):
            B = _random_schur(rng, d, deg, p)
            points = [_ball_point(rng, d, 2) for _ in range(n_ball)]
            points.append(_nilpotent_point(rng, d, 3))
            cases.append((B, _with_degree(B, moment_deg), points))
        jobs.append(_clark_job(cases, moment_deg, n_ball))
    sizes = {"d": d, "symbol_degree": deg, "p": [1, 2], "symbols_per_job": 2,
             "moment_degree": moment_deg, "symbols": 2 * n_pairs,
             "ball_points_per_symbol": n_ball, "nilpotent_points_per_symbol": 1,
             "jobs_per_pass": len(jobs)}
    return Workload(sizes, jobs,
                    warm_cayley=[(d, deg), (d, moment_deg)],
                    warm_words=[(d, moment_deg)])


def _clark_job(cases, moment_deg: int, n_ball: int) -> Job:
    def run():
        out = []
        for B, B_ext, points in cases:
            mu = clark.clark_moments(B, moment_deg)
            H = series.cayley(B_ext, "schur_to_herglotz")
            pairs = [(clark.herglotz_from_moments(mu, Z), series.evaluate(H, Z))
                     for Z in points]
            back = series.cayley(series.cayley(B, "schur_to_herglotz"),
                                 "herglotz_to_schur")
            out.append((B, pairs, back))
        return out

    def check(res):
        for B, pairs, back in res:
            for k, (lhs, rhs) in enumerate(pairs):
                r = float(np.linalg.norm(lhs - rhs, 2))
                tol = TOL_HERGLOTZ_BALL if k < n_ball else TOL_HERGLOTZ_NILPOTENT
                if not r <= tol:
                    where = "ball" if k < n_ball else "nilpotent"
                    return f"p={B.p}: Herglotz residual {r:.3e} at {where} point > {tol:g}"
            err = _max_coeff_diff(B, back)
            if not err <= TOL_CAYLEY_ROUNDTRIP:
                return f"p={B.p}: Cayley round trip error {err:.3e} > {TOL_CAYLEY_ROUNDTRIP:g}"
        return None

    return Job("clark p=1 + p=2", run, check)


# ---------------------------------------------------------------------------
# kernel_gram

def kernel_gram(seed: int, tiny: bool, work_dir: Path) -> Workload:
    rng = np.random.default_rng([seed, 2])
    d, kdeg = 2, 8
    pin_counts = [3, 4] if tiny else list(range(10, 21))
    kinds = list(kernels.KernelKind)
    families = []
    for f, count in enumerate(pin_counts):
        p = 1 + f % 2
        B = _random_schur(rng, d, 2, p)
        pins = _pins(rng, d, count)
        fam = []
        for kind in kinds:
            spec = kernels.KernelSpec(kind, None if kind is kernels.KernelKind.SZEGO else B,
                                      deg=kdeg)
            fam.append(_gram_job(spec, pins, True, f"gram {kind.value} pins={count} p={p}"))
        fam.append(_membership_job(B, pins, kdeg, f"membership pins={count} p={p}"))
        families.append(fam)
    controls = []
    for _ in range(1 if tiny else 5):
        # B = c z1 at the point (x, 0) with c x >= 1.1, so 1 - |B|^2 < -0.2;
        # deg 40 keeps the truncated Szego sum there close to its limit
        c = float(rng.uniform(1.2, 2.0))
        x = float(rng.uniform(max(0.8, 1.1 / c), 0.95))
        spec = kernels.KernelSpec(kernels.KernelKind.DBR_LEFT,
                                  parser.parse(f"{c!r}*z1", d, 4), deg=40)
        pin = kernels.Pinning(_point(d, [np.array([[x]]), np.zeros((1, 1))]),
                              y=[1.0], v=[1.0])
        controls.append(_gram_job(spec, [pin], False, f"non-Schur control c={c:.3f}"))
    jobs = _fixed_order([j for fam in families for j in fam] + controls)
    sizes = {"d": d, "N": kdeg, "p": [1, 2], "symbol_degree": 2,
             "pins_per_family": pin_counts, "pin_level": 3,
             "kernel_kinds": [k.value for k in kinds], "controls": len(controls),
             "jobs_per_pass": len(jobs)}
    return Workload(sizes, jobs,
                    warm_cayley=[(d, 2)], warm_words=[(d, kdeg)])


def _gram_job(spec, pins, expect_certified: bool, label: str) -> Job:
    def run():
        return kernels.gram_psd_check(spec, pins)

    def check(res):
        if bool(res["certified"]) != expect_certified:
            want = "certified" if expect_certified else "rejected"
            return f"Gram min eig {res['min_eig']:.3e}: expected {want}"
        return None

    return Job(label, run, check)


def _membership_job(B, pins, kdeg: int, label: str) -> Job:
    spec = kernels.KernelSpec(kernels.KernelKind.DBR_LEFT, B, deg=kdeg)
    h = np.zeros((B.q, 1), dtype=complex)
    h[0, 0] = 1.0

    def run():
        f = series.multiply(B, series.constant_series(B.d, B.deg, h))
        return kernels.membership_norm(spec, f, pins)

    def check(res):
        lam = res["lambda"]
        # a strict contraction is not column-extreme, so B h lies in the
        # model space and some finite lambda certifies it
        if not (0.0 < lam < math.inf):
            return f"membership lambda {lam} is not a finite positive bound"
        return None

    return Job(label, run, check)


# ---------------------------------------------------------------------------
# model_space

@dataclass
class Symbol:
    """A CLI input with a closed-form extremality gap matrix.

    Each symbol is sum_w C_w z^w over words that are pairwise not suffixes
    of one another; for these the gap is I - sum_w C_w* C_w exactly, and
    the symbol is column-extreme when that vanishes.  `homogeneous` marks
    symbols whose words all have one length."""
    label: str
    d: int
    args: list[str]
    gap: np.ndarray
    ce: bool
    homogeneous: bool


def _scalar_symbol(rng, d: int, word_list, ce: bool, label: str) -> Symbol:
    c = rng.uniform(0.4, 1.0, len(word_list)) * rng.choice([-1.0, 1.0], len(word_list))
    c *= (1.0 if ce else rng.uniform(0.3, 0.95)) / np.linalg.norm(c)
    expr = ""
    for x, w in zip(c, word_list):
        mono = "*".join(f"z{k}" for k in w)
        expr += f"{'-' if x < 0 else '+'} {abs(float(x))!r}*{mono} "
    gap = np.array([[max(1.0 - float(np.sum(c ** 2)), 0.0)]])
    return Symbol(label, d, ["--expr", expr.strip(), "--deg", "2"], gap, ce,
                  len({len(w) for w in word_list}) == 1)


def _matrix_symbol(rng, work_dir: Path, ce: bool, label: str) -> Symbol:
    """2x2 coefficients: B = A1 z1 + A2 z2 with [A1; A2] = M, so the gap
    matrix is I - M* M and M an isometry makes B column-extreme."""
    G = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    if ce:
        M, _ = np.linalg.qr(G)
    else:
        M = G * (rng.uniform(0.3, 0.95) / np.linalg.norm(G, 2))
    path = work_dir / f"{label}.json"
    path.write_text(json.dumps(_series_json(2, 2, 2, 2, {(1,): M[:2], (2,): M[2:]})))
    gap = np.eye(2) - M.conj().T @ M
    return Symbol(label, 2, ["--input", str(path)], gap if not ce else np.zeros((2, 2)),
                  ce, True)


def model_space(seed: int, tiny: bool, work_dir: Path) -> Workload:
    rng = np.random.default_rng([seed, 3])
    if tiny:
        plan = [(1, [8]), (2, [4]), (3, [3])]
    else:
        plan = [(1, [30]), (2, [5, 6, 7, 8]), (3, [3, 4])]
    Ns = dict(plan)
    cases = [
        (_scalar_symbol(rng, 1, [(1,)], False, "c*z1"), Ns[1]),
        (_scalar_symbol(rng, 1, [(1,)], True, "z1"), Ns[1]),
        (_scalar_symbol(rng, 2, [(1, 2), (2, 1)], False, "a*z1z2+b*z2z1"), Ns[2]),
        (_scalar_symbol(rng, 2, [(1,), (2, 2)], False, "a*z1+b*z2z2"), Ns[2]),
        (_scalar_symbol(rng, 2, [(1,), (2,)], True, "unit row z1,z2"), Ns[2]),
        (_matrix_symbol(rng, work_dir, False, "2x2 contraction"), Ns[2][:3]),
        (_matrix_symbol(rng, work_dir, True, "2x2 isometry"), Ns[2][:3]),
        (_scalar_symbol(rng, 3, [(1,), (3, 2)], False, "a*z1+b*z3z2"), Ns[3]),
        (_scalar_symbol(rng, 3, [(1,), (2,), (3,)], True, "unit row z1,z2,z3"), Ns[3]),
    ]
    out = work_dir / "report.json"
    wl = Workload({}, [], warm_cayley=[], warm_words=[])
    groups = []
    for sym, Nlist in cases:
        for N in Nlist:
            base = sym.args + ["--d", str(sym.d), "--N", str(N), "--out", str(out)]
            groups.append([_cli_job(wl, cmd, sym, N, base, out)
                           for cmd in ("ce-test", "gleason-gap", "realize",
                                       "complete-column")])
    wl.jobs = _fixed_order([job for group in groups for job in group])
    wl.sizes = {"commands": ["ce-test", "gleason-gap", "realize", "complete-column"],
                "cases": [{"symbol": s.label, "d": s.d, "p": s.gap.shape[0],
                           "N": Nl, "column_extreme": s.ce} for s, Nl in cases],
                "jobs_per_pass": len(wl.jobs)}
    for d, Nlist in plan:
        wl.warm_words.append((d, max(Nlist)))
        wl.warm_cayley.extend((d, 2 * min(N, 5)) for N in Nlist)
    wl.warm_cayley = sorted(set(wl.warm_cayley))
    return wl


def _cli_job(wl: Workload, cmd: str, sym: Symbol, N: int, base: list[str],
             out: Path) -> Job:
    argv = [cmd] + base
    if cmd == "complete-column":
        # the library's own default; at the CLI default 1e-8 a column-extreme
        # 2x2 isometry can pass, since ||a0|| ~ sqrt(roundoff) ~ 1e-8
        argv += ["--tol", "1e-6"]

    def run():
        return cli.main(argv)

    def check(code):
        if not out.is_file():
            return f"exit {code}, no report written"
        text = out.read_text()
        out.unlink()
        wl.bytes_out += len(text.encode())
        return _check_report(cmd, sym, code, json.loads(text))

    return Job(f"{cmd} {sym.label} d={sym.d} N={N}", run, check)


def _gap_ok(gap_norm: float, sym: Symbol) -> str | None:
    want = float(np.linalg.eigvalsh(0.5 * (sym.gap + sym.gap.conj().T))[-1])
    if not abs(gap_norm - want) <= TOL_KNOWN_GAP:
        return f"gap {gap_norm:.10f}, known value {want:.10f}"
    return None


def _check_report(cmd: str, sym: Symbol, code: int, rep: dict) -> str | None:
    if cmd == "complete-column" and sym.ce:
        if code != 2 or rep.get("verdict") != "CeObstructionError":
            return f"exit {code}, verdict {rep.get('verdict')}: expected 2, CeObstructionError"
        return None
    if code != 0:
        return f"exit {code}, expected 0"
    res = rep["results"]
    if cmd == "ce-test":
        want = "CE" if sym.ce else "not-CE"
        if res["verdict"] != want:
            return f"verdict {res['verdict']}, expected {want}"
        return _gap_ok(res["gleason"]["ladder"][0]["gap_norm"], sym)
    if cmd == "gleason-gap":
        if res["extremal"] != sym.ce:
            return f"extremal {res['extremal']}, expected {sym.ce}"
        return _gap_ok(res["ladder"][0]["gap_norm"], sym)
    if cmd == "realize":
        if not res["roundtrip_error"] <= TOL_REALIZE_ROUNDTRIP:
            return f"realize round trip error {res['roundtrip_error']:.3e}"
        if res["state_dim"] < 1:
            return "realization has no state space"
        return None
    # complete-column on a non-extreme symbol.  For mixed-length symbols
    # the augmented block's isometry defect is a truncation artifact that
    # does not shrink with N (the README's "genuine truncation artifacts"),
    # so the acceptance tolerance applies to one-length symbols only.
    if sym.homogeneous and not res["isometry_defect"] <= TOL_ISOMETRY_DEFECT:
        return f"isometry defect {res['isometry_defect']:.3e}"
    if not res["column_gram_defect"] <= TOL_COLUMN_GRAM:
        return f"column Gram defect {res['column_gram_defect']:.3e}"
    a0 = np.array([[complex(re, im) for re, im in row] for row in res["a0"]])
    err = float(np.linalg.norm(a0 @ a0.conj().T - sym.gap, 2))
    if not err <= TOL_KNOWN_GAP:
        return f"a0 a0* differs from the known gap matrix by {err:.3e}"
    return None


BUILDERS = {"clark_herglotz": clark_herglotz, "kernel_gram": kernel_gram,
            "model_space": model_space}


def build(name: str, seed: int, tiny: bool, work_dir: Path) -> Workload:
    return BUILDERS[name](seed, tiny, work_dir)
