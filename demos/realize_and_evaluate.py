"""Realize a Schur series as a colligation transfer function and compare
evaluations at random matrix points.

Run:  python3 demos/realize_and_evaluate.py
"""

import numpy as np

from freehardy import (canonical_colligation, evaluate, parse,
                       transfer_eval, transfer_series)
from freehardy.series import MatrixPoint


def random_ball_point(rng, d, n, radius=0.4):
    mats = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for _ in range(d)]
    Z = MatrixPoint(d, n, mats)
    return MatrixPoint(d, n, [m * (radius / Z.row_norm()) for m in Z.mats])


def main():
    B = parse("0.8*z1*z2", 2, 2)
    U = canonical_colligation(B, 8)
    print(f"state dimension {U.state_dim}, "
          f"contraction defect {U.meta['contraction_defect']:.2e}")

    S = transfer_series(U, 5)
    err = S.max_coeff_diff(parse("0.8*z1*z2", 2, 5))
    print(f"coefficient roundtrip error (degree <= 5): {err:.2e}")

    rng = np.random.default_rng(3)
    ext = B.truncate(8)
    for n in (2, 3):
        Z = random_ball_point(rng, 2, n)
        direct = evaluate(ext, Z)
        via_state = transfer_eval(U, Z)
        print(f"n = {n}: |B(Z) - B_U(Z)| = "
              f"{np.linalg.norm(direct - via_state, 2):.2e}")


if __name__ == "__main__":
    main()
