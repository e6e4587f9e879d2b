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

Kernels are computed on stacks of blocks, never at a dense direct sum:
points (the pins of a Gram, one per side for kernel_eval) are stacked as
(d, k, n, n), padded with zeros to one level, which is exact since kernels
respect direct sums.  The pins of a Gram come as one PinStack, the arrays
that nilpotent_stack draws (ce_test and the kernel-gram command pass one),
or as a list of Pinning, whose levels may differ.  A Gram pairs P = u u*,
u the stacked pin vectors, so its Szego sums take P as factors L R*: level
g adds (Z^a L)(W^a R)* over the words a of length g in one matrix product,
its factors are one batched product of the letters with level g - 1,
columns that vanish on either side are dropped, and the sum stops at the
first empty level, which at jointly nilpotent pins comes after at most the
pin level.  A level whose next factors would be wider than min(k n, l m)
hands its outer product to the fixed point S -> P + sum_k Z_k S W_k*,
which sums the remaining levels and stops at the first iterate that
repeats its predecessor bit for bit; a dense P (szego_eval, and the Szego
sum of kernel_eval) enters that fixed point directly.  The inner sum of
DbrRight always goes by factors, a dense P as (P, I).  Each series is
evaluated once per block stack, so once in all for a Gram, and a Gram is
contracted with y (x) h before any (k n p)^2 kernel matrix is formed.

Each Gram is certified from one eigendecomposition G = Q diag(mu) Q*: a
membership step lambda^2 G - w w* >= -tau is the Schur complement test
D = lambda^2 mu + tau > 0 and sum |Q* w|^2 / D <= 1, k scalars per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .series import FreeSeries, MatrixPoint, cayley, dagger_series, evaluate


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


@dataclass
class PinStack:
    """Pins of one level n held as arrays, as nilpotent_stack draws them:
    the points Z as a (d, k, n, n) block stack, y and v as (k, n), and the
    coefficient directions h as (k, p), or None for _stack_pins' default.
    kernel_gram, gram_psd_check and membership_norm take one in place of a
    list of Pinning."""
    Z: np.ndarray
    y: np.ndarray
    v: np.ndarray
    h: np.ndarray | None = None


def _rows(Z: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Z X for a stack Z of k blocks: Z_i on row block i."""
    return (Z @ X.reshape(len(Z), Z.shape[2], -1)).reshape(-1, X.shape[1])


def _cols(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """X W* for a stack W of l blocks: W_j* on column block j."""
    out = np.empty((len(X), *W.shape[:2]), dtype=complex)
    np.matmul(X.reshape(len(X), len(W), -1).transpose(1, 0, 2),
              W.conj().swapaxes(1, 2), out=out.transpose(1, 0, 2))
    return out.reshape(len(X), -1)


def _fixed_point(Z: np.ndarray, W: np.ndarray, P: np.ndarray, deg: int) -> np.ndarray:
    """Truncated Szego sum sum_{|a| <= deg} Z^a P (W^a)* of block stacks,
    via the fixed point map S -> P + sum_k Z_k S W_k*.

    Exact when either point is jointly nilpotent of order <= deg.  The map
    is deterministic, so the loop stops at the first iterate that repeats
    its predecessor bit for bit: every later iterate would repeat it too.
    """
    S = P = np.ascontiguousarray(P)  # contiguous, so that .view reads its bits
    for _ in range(deg):
        prev, S = S, P + sum(_cols(_rows(Zk, S), Wk) for Zk, Wk in zip(Z, W))
        if np.array_equal(S.view(np.uint64), prev.view(np.uint64)):
            break
    return S


def _letters(Z: np.ndarray, F: np.ndarray) -> np.ndarray:
    """[Z_1 F, ..., Z_d F] for a stack Z (d, k, n, n) and F of shape (k n, c),
    from one batched product: columns (letter, column of F)."""
    d, k, n, _ = Z.shape
    return (Z @ F.reshape(k, n, -1)).transpose(1, 2, 0, 3).reshape(k * n, -1)


def _szego(Z: np.ndarray, W: np.ndarray, P, deg: int) -> np.ndarray:
    """Truncated Szego sum sum_{|a| <= deg} Z^a P (W^a)* of block stacks
    Z (d, k, n, n) and W (d, l, m, m), for P of shape (k n, l m) or given
    as factors (L, R) with P = L R*.

    A dense P goes to the fixed point.  Factors are summed level by level,
    as the module docstring says; columns that vanish on either side are
    dropped, since their descendants vanish too.  Past min(k n, l m)
    columns a factor holds more numbers than its outer product, so a
    level whose successor would be wider passes its outer product to the
    fixed point for the remaining levels.  With W is Z and R is L the two
    sides are one, and are computed once.
    """
    if not isinstance(P, tuple):
        return _fixed_point(Z, W, P, deg)
    L, R = P
    same, width = W is Z and R is L, min(len(L), len(R))
    S = np.zeros((len(L), len(R)), dtype=complex)
    for g in range(deg + 1):
        keep = np.any(L, axis=0) if same else np.any(L, axis=0) & np.any(R, axis=0)
        if not keep.any():
            break
        if not keep.all():
            L = L[:, keep]
            R = L if same else R[:, keep]
        if g < deg and len(Z) * L.shape[1] > width:
            return S + _fixed_point(Z, W, L @ R.conj().T, deg - g)
        S += L @ R.conj().T
        if g < deg:
            L = _letters(Z, L)
            R = L if same else _letters(W, R)
    return S


def _adjoint(F: FreeSeries, Z: np.ndarray, X: np.ndarray) -> np.ndarray:
    """F(Z_i)* X_i for each block, as (k, n, q, r), X of shape (k, n, p, r)."""
    k, n, p, r = X.shape
    Fx = evaluate(F, Z).conj().swapaxes(1, 2) @ X.reshape(k, n * p, r)
    return Fx.reshape(k, n, -1, r)


def _pair(a: np.ndarray, S: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The blocks a_i* (S_ij (x) I_t) b_j, as (k, l, r, s), for a of shape
    (k, n, t, r), b of shape (l, m, t, s) and S of shape (k n, l m)."""
    (k, n, t, r), (l, m, _, s) = a.shape, b.shape
    Sb = S.reshape(k * n, l, m).transpose(1, 0, 2) @ b.reshape(l, m, -1)
    return np.einsum("ixtr,jixts->ijrs", a.conj(), Sb.reshape(l, k, n, t, s))


def _amplified(G: np.ndarray, F: np.ndarray) -> np.ndarray:
    """[G_1 F, ..., G_q F] for G of shape (k, n p, n, q), G_c acting on row
    block i by G[i, :, :, c], and F of shape (k n, r): rows (i, x, t) taken
    as (t, i, x), columns (c, column of F)."""
    k, np_, n, q = G.shape
    V = G.transpose(0, 3, 1, 2) @ F.reshape(k, 1, n, -1)
    return V.reshape(k, q, n, np_ // n, -1).transpose(3, 0, 2, 1, 4).reshape(k * np_, -1)


def _kernel(spec: KernelSpec, Z: np.ndarray, W: np.ndarray, P,
            X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The blocks X_i* K(Z_i, W_j)[P_ij] Y_j, as (k, l, r, s), for stacks
    Z (d, k, n, n) and W (d, l, m, m), P of shape (k n, l m) with blocks
    P_ij or its factors (L, R) as _szego takes them, and X, Y of shapes
    (k, n, p, r) and (l, m, p, s).  A Gram (W is Z, Y is X) evaluates each
    series once."""
    S = _szego(Z, W, P, spec.deg)
    G, B, gram = _pair(X, S, Y), spec.B, W is Z and Y is X
    if spec.kind is KernelKind.SZEGO:
        return G
    if spec.kind is KernelKind.DBR_LEFT:
        a = _adjoint(B, Z, X)
        return G - _pair(a, S, a if gram else _adjoint(B, W, Y))
    if spec.kind is KernelKind.DBR_RIGHT:
        Bd, (k, n, p, r), (l, m, _, s) = dagger_series(B), X.shape, Y.shape
        Gz, Zt = evaluate(Bd, Z).reshape(k, n * p, n, B.q), np.tile(Z, (1, p, 1, 1))
        Gw, Wt = ((Gz, Zt) if W is Z else
                  (evaluate(Bd, W).reshape(l, m * p, m, B.q), np.tile(W, (1, p, 1, 1))))
        # with rows (i, x, t) taken as (t, i, x), and columns likewise, the
        # ampliated sum is the Szego sum at the blocks repeated p times; a
        # dense P enters as the factors (P, I)
        L, R = P if isinstance(P, tuple) else (P, np.eye(P.shape[1]))
        Lt = _amplified(Gz, L)
        Rt = Lt if W is Z and R is L else _amplified(Gw, R)
        T = _szego(Zt, Wt, (Lt, Rt), spec.deg)
        Xt, Yt = (V.transpose(2, 0, 1, 3)[:, :, :, None] for V in (X, Y))
        amp = _pair(Xt.reshape(p * k, n, 1, r), T, Yt.reshape(p * l, m, 1, s))
        return G - amp.reshape(p, k, p, l, r, s).sum((0, 2))
    if spec.kind is KernelKind.HERGLOTZ:
        H = cayley(B, "schur_to_herglotz")
        Hx = _adjoint(H, Z, X)
        return 0.5 * (_pair(Hx, S, Y) + _pair(X, S, Hx if gram else _adjoint(H, W, Y)))
    raise ValueError(f"unknown kernel kind {spec.kind}")


def _one_block(Z: MatrixPoint, W: MatrixPoint, P: np.ndarray):
    """Z and W as stacks of one block, and P, once checked to pair them."""
    P = np.asarray(P, dtype=complex)
    if P.shape != (Z.n, W.n):
        raise ValueError(f"P must be {Z.n} x {W.n}, got {P.shape}")
    if Z.d != W.d:
        raise ValueError("points live over different alphabets")
    return np.array(Z.mats)[:, None], np.array(W.mats)[:, None], P


def szego_eval(Z: MatrixPoint, W: MatrixPoint, P: np.ndarray, deg: int) -> np.ndarray:
    """Truncated Szego sum sum_{|a| <= deg} Z^a P (W^a)*, one block a side."""
    return _szego(*_one_block(Z, W, P), deg)


def kernel_eval(spec: KernelSpec, Z: MatrixPoint, W: MatrixPoint,
                P: np.ndarray) -> np.ndarray:
    """Kernel value as an (n p) x (m p) matrix, p = coefficient dimension:
    kernel_gram's routine at one block a side, read through identities."""
    p = spec.coeff_dim()
    X, Y = (np.eye(V.n * p).reshape(1, V.n, p, -1) for V in (Z, W))
    return _kernel(spec, *_one_block(Z, W, P), X, Y)[0, 0]


def _stack_pins(pins: list[Pinning] | PinStack, p: int):
    """The pins' points as one (d, k, n, n) block stack, v as (k, n) and
    y (x) h as (k, n, p, 1), padded with zeros to the largest level n; h
    is ones / sqrt(p) by default, and is ignored at p = 1.  A PinStack is
    read as it stands, once its arrays are checked to hold k pins of one
    level n each: Z as (d, k, n, n), y and v as (k, n), h as (k, p)."""
    if not len(pins.v if isinstance(pins, PinStack) else pins):
        raise ValueError("need at least one pin")
    one = np.ones(p) / math.sqrt(p)
    if isinstance(pins, PinStack):
        Z, y, v, h, k = pins.Z, pins.y, pins.v, pins.h, len(pins.v)
        n, got = Z.shape[-1], [np.shape(x) for x in (Z, y, v, h)]
        if got != [(len(Z), k, n, n), (k, n), (k, n), () if h is None else (k, p)]:
            raise ValueError(f"PinStack needs Z (d,k,n,n), y, v (k,n), h (k,p); got {got}")
        h = [one] * k if h is None or p == 1 else list(h)
    else:
        if len({pin.Z.d for pin in pins}) != 1:
            raise ValueError("pins live over different alphabets")
        k, n = len(pins), max(pin.Z.n for pin in pins)
        Z = np.zeros((pins[0].Z.d, k, n, n), dtype=complex)
        y, v = np.zeros((2, k, n), dtype=complex)
        for i, pin in enumerate(pins):
            Z[:, i, :pin.Z.n, :pin.Z.n] = pin.Z.mats
            y[i, :pin.Z.n], v[i, :pin.Z.n] = pin.y, pin.v
        h = [pin.h if pin.h is not None and p > 1 else one for pin in pins]
    if any(len(x) != p for x in h):
        raise ValueError(f"coefficient vector h must have length {p}")
    return Z, v, (y[:, :, None] * np.array(h)[:, None, :])[..., None]


def _gram(spec: KernelSpec, Z: np.ndarray, v: np.ndarray, yh: np.ndarray):
    """kernel_gram of the pins stacked by _stack_pins."""
    u = v.reshape(-1, 1)
    G = _kernel(spec, Z, Z, (u, u), yh, yh)[:, :, 0, 0]
    return 0.5 * (G + G.conj().T)


def kernel_gram(spec: KernelSpec, pins: list[Pinning] | PinStack) -> np.ndarray:
    """Gram matrix G_ij = (y_i (x) h_i)* K(Z_i, Z_j)[v_i v_j*] (y_j (x) h_j)
    over the pins, h as in _stack_pins, from their blocks at P = u u*, u
    the stacked v: DbrLeft, for instance, is (Y* S Y) o (H H*) - sum_r
    a_r* S a_r, with a_i = A(Z_i)* (y_i (x) h_i) as an n x q matrix."""
    return _gram(spec, *_stack_pins(pins, spec.coeff_dim()))


def gram_psd_check(spec: KernelSpec, pins: list[Pinning] | PinStack,
                   tol: float = 1e-8) -> dict:
    """Certify positive semidefiniteness of the pin Gram matrix from its
    spectrum, returned ascending as "eigenvalues".  The tolerance is
    relative: min_eig >= -tol * max(1, ||G||), ||G|| = max |eigenvalue|.
    """
    G = kernel_gram(spec, pins)
    eigs = np.linalg.eigvalsh(G)
    scale = max(1.0, -eigs[0], eigs[-1])
    return {"min_eig": float(eigs[0]),
            "certified": bool(eigs[0] >= -tol * scale),
            "gram": G, "eigenvalues": eigs}


def _rank_one_vectors(f: FreeSeries, Z: np.ndarray, v: np.ndarray,
                      yh: np.ndarray) -> np.ndarray:
    """Row i is u_i = (v_i (x) I)* f(Z_i)* (y_i (x) h_i), pins stacked by
    _stack_pins: the Gram u_i* u_j is that of the kernel f(Z)(P (x) I)
    f(W)*, and column c of u gives that of f's column c."""
    if f.p != yh.shape[2]:
        raise ValueError(f"series output dimension {f.p} does not match "
                         f"kernel coefficient dimension {yh.shape[2]}")
    return np.einsum("is,isc->ic", v.conj(), _adjoint(f, Z, yh)[..., 0])


MEMBERSHIP_CAP = 1e3
# levels of the bisection tree tested per call: 15 midpoints, each a
# (pins x columns) test, cost less than the calls that would test them
# one at a time
BISECTION_LEVELS = 4


def _midpoints(lo: float, hi: float, levels: int) -> list[float]:
    """The bisection midpoints of the next `levels` levels below [lo, hi]
    in heap order: node i splits its interval at the i-th value, and the
    lower half is node 2 i + 1, the upper half node 2 i + 2.  Each is
    0.5 * (lo + hi) of its interval, the operations a one-step bisection
    makes; a level's intervals lie between consecutive points of the
    sorted ends, in heap order from left to right."""
    ends, out = [lo, hi], []
    for _ in range(levels):
        mids = [0.5 * (a + b) for a, b in zip(ends, ends[1:])]
        merged = [0.0] * (2 * len(ends) - 1)
        merged[::2], merged[1::2] = ends, mids
        ends, out = merged, out + mids
    return out


def membership_norm(spec: KernelSpec, f: FreeSeries,
                    pins: list[Pinning] | PinStack, tol: float = 1e-8) -> dict:
    """Smallest lambda with lambda^2 Gram_K - Gram_c psd (up to tol) for
    every column c of a p x r series f, Gram_c the rank-one Gram of that
    column, by bisection: the largest of the columns' lower bounds for
    their RKHS norms witnessed by the pins, from one kernel Gram and one
    evaluation of f per pin.  At r = 1 it is the bound for f.

    With Gram_c = w_c w_c*, Gram_K = Q diag(mu) Q* factored once, a_c =
    |Q* w_c|^2 and tau_c = tol * max(1, max |mu|, ||w_c||^2), the test
    eigvalsh(lambda^2 Gram_K - Gram_c)[0] >= -tau_c is the Schur complement
    test D = lambda^2 mu + tau_c > 0 and sum a_c / D <= 1, for all columns.
    The bisection tests the midpoints of BISECTION_LEVELS levels of its
    tree in one call and walks down the tree with the results, so it ends
    on the lambda of a one-step bisection, bit for bit.

    tol is both the width at which the bisection stops and the psd slack
    tau_c, which scales with the largest Gram eigenvalue: lambda can sit
    below its value at tol = 0 by far more than tol (by 1.3e-6 at the
    default tol, at a Szego Gram of largest eigenvalue 121), and it moves
    up toward that value as tol shrinks.

    Returns math.inf when no lambda below the cap certifies; with
    refining pin families this is evidence (not proof) that a column lies
    outside the space.
    """
    pinstack = _stack_pins(pins, spec.coeff_dim())
    mu, Q = np.linalg.eigh(_gram(spec, *pinstack))
    # w_c is the conjugate of column c of u, so |Q* w_c| = |Q^T u_c|
    a = np.abs(Q.T @ _rank_one_vectors(f, *pinstack)) ** 2
    tau = tol * np.maximum(max(1.0, -mu[0], mu[-1]), a.sum(0))
    return {"lambda": _smallest_lambda(mu, a, tau, tol)}


def _smallest_lambda(mu: np.ndarray, a: np.ndarray, tau: np.ndarray,
                     tol: float) -> float:
    """membership_norm's bisection on [0, MEMBERSHIP_CAP] for the Gram
    spectrum mu, the weights a (pins x columns) and the column tolerances
    tau: 0.0 when lambda = 0 passes, math.inf when the cap fails.  It ends
    early, on hi, once the interval is two adjacent doubles, whose
    midpoint is one of them, so a tol below their spacing still ends."""

    def ok(lams: list[float]) -> np.ndarray:
        # D is (lambdas, pins, columns); the sum over pins rounds as it
        # does for one lambda's (pins, columns); a quotient by a D that is
        # not positive decides nothing
        lams = np.array(lams)
        D = (lams * lams)[:, None, None] * mu[:, None] + tau
        return (D > 0).all((1, 2)) & ((a / D).sum(1) <= 1).all(1)

    with np.errstate(divide="ignore", invalid="ignore"):
        at_zero, at_cap = ok([0.0, MEMBERSHIP_CAP])
        if at_zero:
            return 0.0
        if not at_cap:
            return math.inf
        lo, hi = 0.0, MEMBERSHIP_CAP
        while hi - lo > tol * max(1.0, lo):
            mids = _midpoints(lo, hi, BISECTION_LEVELS)
            passed, i = ok(mids), 0
            while i < len(mids) and hi - lo > tol * max(1.0, lo):
                if mids[i] in (lo, hi):  # adjacent doubles: nothing between
                    return hi
                if passed[i]:
                    hi, i = mids[i], 2 * i + 1
                else:
                    lo, i = mids[i], 2 * i + 2
    return hi


def nilpotent_stack(d: int, count: int, rng: np.random.Generator,
                    n: int = 3, scale: float = 0.8) -> PinStack:
    """Random jointly nilpotent pins (strictly upper triangular tuples) as
    one PinStack: truncated kernel sums are exact at these points, so
    positivity failures are genuine rather than truncation artifacts.
    One draw serves all pins, each reading re and im of its matrices, then
    of y and v."""
    g = rng.standard_normal((count, 2 * d * n * n + 4 * n))
    mats = g[:, :2 * d * n * n].reshape(count, d, 2, n, n)
    mats = np.triu(mats[:, :, 0] + 1j * mats[:, :, 1], 1)
    yv = g[:, 2 * d * n * n:].reshape(count, 2, 2, n)
    yv = yv[:, :, 0] + 1j * yv[:, :, 1]
    rn = np.linalg.norm(mats.swapaxes(1, 2).reshape(count, n, d * n), 2, axis=(1, 2))
    mats *= np.divide(scale, rn, out=np.ones(count), where=rn > 0)[:, None, None, None]
    return PinStack(np.ascontiguousarray(mats.swapaxes(0, 1)),
                    np.ascontiguousarray(yv[:, 0]), np.ascontiguousarray(yv[:, 1]))
