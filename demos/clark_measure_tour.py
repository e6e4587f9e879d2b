"""From a Schur symbol to its Clark moment functional, GNS row, and back.

The demo takes b = z/2, prints the geometric moment sequence, verifies
the Herglotz reconstruction formula at a scalar point, and shows the
finite GNS row becoming a row isometry on interior coordinates.

Run:  python3 demos/clark_measure_tour.py
"""

import numpy as np

from freehardy import (clark_moments, cuntz_check, gns_build,
                       herglotz_from_moments, interior_isometry_defect,
                       parse)
from freehardy.series import MatrixPoint


def main():
    b = parse("0.5*z1", 1, 20)
    mu = clark_moments(b, 20)
    print("moments of b = z/2 (geometric):")
    for n in range(6):  # in one letter, the word 1^n is row n of the array
        print(f"  mu(L^{n}) = {mu.array[n, 0, 0].real:.6f}")

    z = MatrixPoint(1, 1, [np.array([[0.3]], dtype=complex)])
    val = herglotz_from_moments(mu, z)[0, 0]
    print(f"\nH(0.3) from moments  = {val.real:.10f}")
    print(f"H(0.3) closed form   = {1.15 / 0.85:.10f}")

    model = gns_build(mu, 6)
    print(f"\nGNS rank {model.rank}, "
          f"interior isometry defect {interior_isometry_defect(model):.2e}, "
          f"Cuntz defect {cuntz_check(model)['defect']:.4f}")
    print("(the Cuntz defect is large: b = z/2 is far from inner)")

    inner = clark_moments(parse("z1", 1, 12), 12)
    model = gns_build(inner, 6)
    print(f"b = z for contrast: rank {model.rank}, "
          f"Cuntz defect {cuntz_check(model)['defect']:.2e}")


if __name__ == "__main__":
    main()
