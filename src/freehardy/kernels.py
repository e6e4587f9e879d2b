"""NC kernel evaluation, Gram positivity certificates, and membership tests.

Supported kernels on the NC unit ball (P is an n x m matrix pairing the
levels of the two points):

* Szego           K(Z,W)[P]   = sum_a Z^a P (W^a)*
* DbrLeft  (A)    K^A         = K[P] (x) I  -  A(Z) (K[P] (x) I) A(W)*
* DbrRight (G)    K^G         = K[P] (x) I  -  K_amp[ Gt(Z) (P (x) I) Gt(W)* ]
* Herglotz (B)    K^H         = (H(Z)(K[P] (x) I) + (K[P] (x) I) H(W)*) / 2

where Gt is the transpose series of the right multiplier symbol G,
K_amp is the Szego sum over ampliated points Z_k (x) I, and H is the
Cayley transform of the Schur symbol B.  Positivity of the dBR kernels
over all pins certifies Schur class membership up to truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .series import (FreeSeries, MatrixPoint, cayley, dagger_series,
                     direct_sum, evaluate)


class KernelKind(Enum):
    SZEGO = "szego"
    DBR_LEFT = "dbr_left"
    DBR_RIGHT = "dbr_right"
    HERGLOTZ = "herglotz"


@dataclass
class KernelSpec:
    kind: KernelKind
    B: FreeSeries | None = None
    deg: int = 8

    def __post_init__(self):
        if self.kind is not KernelKind.SZEGO and self.B is None:
            raise ValueError(f"kernel kind {self.kind} needs a symbol series")

    def coeff_dim(self) -> int:
        """Dimension of the kernel's coefficient space."""
        if self.kind is KernelKind.SZEGO:
            return 1
        return self.B.p


@dataclass
class Pinning:
    Z: MatrixPoint
    y: np.ndarray
    v: np.ndarray
    h: np.ndarray | None = None

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=complex).reshape(-1)
        self.v = np.asarray(self.v, dtype=complex).reshape(-1)
        if len(self.y) != self.Z.n or len(self.v) != self.Z.n:
            raise ValueError("pin vectors must match the point level")
        if self.h is not None:
            self.h = np.asarray(self.h, dtype=complex).reshape(-1)


def szego_eval(Z: MatrixPoint, W: MatrixPoint, P: np.ndarray, deg: int) -> np.ndarray:
    """Truncated Szego sum, via the fixed point map S -> P + sum Z_k S W_k*.

    Exact when either point is jointly nilpotent of order <= deg.  The map
    is deterministic, so the loop stops at the first iterate that repeats
    its predecessor bit for bit: every later iterate would repeat it too.
    """
    P = np.asarray(P, dtype=complex)
    if P.shape != (Z.n, W.n):
        raise ValueError(f"P must be {Z.n} x {W.n}, got {P.shape}")
    if Z.d != W.d:
        raise ValueError("points live over different alphabets")
    S = P
    for _ in range(deg):
        prev, S = S, P + sum(Zk @ S @ Wk.conj().T
                             for Zk, Wk in zip(Z.mats, W.mats))
        if S.tobytes() == prev.tobytes():
            break
    return S


def _ampliate(Z: MatrixPoint, p: int) -> MatrixPoint:
    if p == 1:
        return Z
    return MatrixPoint(Z.d, Z.n * p,
                       [np.kron(m, np.eye(p)) for m in Z.mats])


def kernel_eval(spec: KernelSpec, Z: MatrixPoint, W: MatrixPoint,
                P: np.ndarray) -> np.ndarray:
    """Kernel value as an (n p) x (m p) matrix, p = coefficient dimension."""
    S = szego_eval(Z, W, P, spec.deg)
    if spec.kind is KernelKind.SZEGO:
        return S
    B = spec.B
    if spec.kind is KernelKind.DBR_LEFT:
        AZ = evaluate(B, Z)
        AW = evaluate(B, W)
        return np.kron(S, np.eye(B.p)) - AZ @ np.kron(S, np.eye(B.q)) @ AW.conj().T
    if spec.kind is KernelKind.DBR_RIGHT:
        Bd = dagger_series(B)
        GZ = evaluate(Bd, Z)
        GW = evaluate(Bd, W)
        inner = GZ @ np.kron(P, np.eye(B.q)) @ GW.conj().T
        amp = szego_eval(_ampliate(Z, B.p), _ampliate(W, B.p), inner, spec.deg)
        return np.kron(S, np.eye(B.p)) - amp
    if spec.kind is KernelKind.HERGLOTZ:
        H = cayley(B, "schur_to_herglotz")
        HZ = evaluate(H, Z)
        HW = evaluate(H, W)
        amp_p = np.kron(S, np.eye(B.p))
        return 0.5 * (HZ @ amp_p + amp_p @ HW.conj().T)
    raise ValueError(f"unknown kernel kind {spec.kind}")


def _amplified_ys(pins: list[Pinning], p: int) -> np.ndarray:
    """Matrix whose column i is pin i's y (x) h, placed in block i of the
    direct sum of the pins' spaces; h defaults to ones / sqrt(p)."""
    Y = np.zeros((sum(pin.Z.n for pin in pins) * p, len(pins)), dtype=complex)
    lo = 0
    for i, pin in enumerate(pins):
        h = pin.h if pin.h is not None and p > 1 else np.ones(p) / math.sqrt(p)
        if len(h) != p:
            raise ValueError(f"coefficient vector h must have length {p}")
        Y[lo:lo + pin.Z.n * p, i] = np.kron(pin.y, h)
        lo += pin.Z.n * p
    return Y


def kernel_gram(spec: KernelSpec, pins: list[Pinning]) -> np.ndarray:
    """Gram matrix G_ij = y_i* K(Z_i, Z_j)[v_i v_j*] y_j over the pins.

    Kernels respect direct sums, so K is evaluated once at
    Z = Z_1 (+) ... (+) Z_k with P = u u*, u = (v_1; ...; v_k); block
    (i, j) of that value is the kernel at the pair (Z_i, Z_j).
    """
    p = spec.coeff_dim()
    u = np.concatenate([pin.v for pin in pins])
    Z = direct_sum([pin.Z for pin in pins])
    K = kernel_eval(spec, Z, Z, np.outer(u, u.conj()))
    Y = _amplified_ys(pins, p)
    G = Y.conj().T @ K @ Y
    return 0.5 * (G + G.conj().T)


def gram_psd_check(spec: KernelSpec, pins: list[Pinning],
                   tol: float = 1e-8) -> dict:
    """Certify positive semidefiniteness of the pin Gram matrix.

    The tolerance is relative: certified means
    min_eig >= -tol * max(1, ||G||).
    """
    if not pins:
        raise ValueError("need at least one pin")
    G = kernel_gram(spec, pins)
    eigs = np.linalg.eigvalsh(G)
    scale = max(1.0, float(np.linalg.norm(G, 2)))
    return {"min_eig": float(eigs[0]),
            "certified": bool(eigs[0] >= -tol * scale),
            "gram": G}


def _rank_one_gram(f: FreeSeries, spec: KernelSpec, pins: list[Pinning]) -> np.ndarray:
    """Gram of the rank-one kernel f(Z)(P (x) I) f(W)* over the pins.

    Built from evaluate so membership tests inherit the evaluator's
    conventions.  Entry (i, j) is u_i* u_j where u = (v (x) I)* f(Z)* y_amp.
    """
    p = spec.coeff_dim()
    if f.p != p:
        raise ValueError(f"series output dimension {f.p} does not match "
                         f"kernel coefficient dimension {p}")
    Z = direct_sum([pin.Z for pin in pins])
    u = np.concatenate([pin.v for pin in pins])
    # f is evaluated once, at the direct sum; column k of f(Z)* Y lives
    # in block k, where u holds v_k
    W = evaluate(f, Z).conj().T @ _amplified_ys(pins, p)
    U = np.einsum("r,rqk->qk", u.conj(), W.reshape(Z.n, f.q, len(pins)))
    G = U.conj().T @ U
    return 0.5 * (G + G.conj().T)


MEMBERSHIP_CAP = 1e3


def membership_norm(spec: KernelSpec, f: FreeSeries, pins: list[Pinning],
                    tol: float = 1e-8) -> dict:
    """Smallest lambda with lambda^2 Gram_K - Gram_f psd (up to tol), by
    bisection: a lower bound for the RKHS norm of f witnessed by the pins.

    Returns math.inf when no lambda below the cap certifies; with
    refining pin families this is evidence (not proof) that f lies
    outside the space.
    """
    GK = kernel_gram(spec, pins)
    Gf = _rank_one_gram(f, spec, pins)
    scale = max(1.0, float(np.linalg.norm(GK, 2)), float(np.linalg.norm(Gf, 2)))

    def ok(lam: float) -> bool:
        M = lam * lam * GK - Gf
        return bool(np.linalg.eigvalsh(M)[0] >= -tol * scale)

    if ok(0.0):
        return {"lambda": 0.0}
    if not ok(MEMBERSHIP_CAP):
        return {"lambda": math.inf}
    lo, hi = 0.0, MEMBERSHIP_CAP
    while hi - lo > tol * max(1.0, lo):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return {"lambda": hi}


def coefficient_kernel(spec: KernelSpec, alpha, beta) -> np.ndarray:
    """The (alpha, beta) coefficient K_{a,b} of the kernel's double power
    series K(Z,W)[P] = sum K_{a,b} Z^a P (W*)^{b+}."""
    a, b = tuple(alpha), tuple(beta)
    if len(a) > spec.deg or len(b) > spec.deg:
        raise ValueError("word length exceeds kernel degree")
    if spec.kind is KernelKind.SZEGO:
        return np.array([[1.0 + 0j]]) if a == b else np.array([[0.0 + 0j]])
    B = spec.B
    if spec.kind is KernelKind.DBR_LEFT:
        out = np.eye(B.p, dtype=complex) if a == b else np.zeros((B.p, B.p), complex)
        # subtract over common-suffix factorizations a = g.m, b = dl.m
        for cut in range(min(len(a), len(b)) + 1):
            if cut and a[len(a) - cut:] != b[len(b) - cut:]:
                break
            g, dl = a[:len(a) - cut], b[:len(b) - cut]
            out = out - B.coeff(g) @ B.coeff(dl).conj().T
        return out
    if spec.kind is KernelKind.DBR_RIGHT:
        out = np.eye(B.p, dtype=complex) if a == b else np.zeros((B.p, B.p), complex)
        for cut in range(min(len(a), len(b)) + 1):
            if a[:cut] != b[:cut]:
                break
            g, dl = a[cut:], b[cut:]
            out = out - B.coeff(g[::-1]) @ B.coeff(dl[::-1]).conj().T
        return out
    if spec.kind is KernelKind.HERGLOTZ:
        H = cayley(B, "schur_to_herglotz")
        return herglotz_coefficient(H, a, b)
    raise ValueError(f"unknown kernel kind {spec.kind}")


def herglotz_coefficient(H: FreeSeries, a: tuple, b: tuple) -> np.ndarray:
    """Closed-form left Herglotz coefficient kernel from the Cayley
    transform coefficients:

        K_{a,b} = (1/2) H_{(b+ \\ a+)+}^*  if a+ is a strict prefix of b+
                  (1/2) H_{(a+ \\ b+)+}    if b+ is a strict prefix of a+
                  Re H_0                   if a = b
                  0                        otherwise
    """
    if a == b:
        H0 = H.coeff(())
        return 0.5 * (H0 + H0.conj().T)
    ad, bd = a[::-1], b[::-1]
    if bd[:len(ad)] == ad:
        quot = bd[len(ad):]
        return 0.5 * H.coeff(quot[::-1]).conj().T
    if ad[:len(bd)] == bd:
        quot = ad[len(bd):]
        return 0.5 * H.coeff(quot[::-1])
    return np.zeros((H.p, H.p), dtype=complex)


def nilpotent_pins(d: int, count: int, rng: np.random.Generator,
                   n: int = 3, scale: float = 0.8) -> list[Pinning]:
    """Random jointly nilpotent pins (strictly upper triangular tuples):
    truncated kernel sums are exact at these points, so positivity
    failures are genuine rather than truncation artifacts."""
    pins = []
    for _ in range(count):
        mats = [np.triu(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)), 1) for _ in range(d)]
        Z = MatrixPoint(d, n, mats)
        rn = Z.row_norm()
        if rn > 0:
            Z = MatrixPoint(d, n, [m * (scale / rn) for m in Z.mats])
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        pins.append(Pinning(Z, y, v))
    return pins
