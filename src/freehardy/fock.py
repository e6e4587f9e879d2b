"""The side on which an operator acts on the truncated full Fock space.

F2(d, N) is the span of basis vectors e_alpha over words of length <= N,
identified with free polynomials of degree <= N.  Under that
identification the left creation operator L_k is left multiplication by
the letter Z_k, so every creation operator and every multiplier is
``series.multiplier_matrix(F, side, N)`` for a series F, with the
nilpotent truncation: words past grade N are dropped.
"""

from enum import Enum


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"
