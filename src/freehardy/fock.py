"""The side on which an operator acts on the truncated full Fock space.

F2(d, N) is the span of basis vectors e_alpha over words of length <= N,
identified with free polynomials of degree <= N.  Under that
identification the left creation operator L_k is left multiplication by
the letter Z_k.  A multiplier by a series F is the matrix
``series.multiplier_matrix(F, side, N)``, with the nilpotent truncation:
words past grade N are dropped.  A creation operator is applied without
a matrix, as the index pairs ``words.shift_indices(d, N, (k,), left)``
that move the position of b to that of k.b (left) or b.k (right).
"""

from enum import Enum


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"
