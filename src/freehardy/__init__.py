"""Desk-scale numerics for free (noncommutative) Hardy-space theory.

The package works with finitely truncated objects throughout: free power
series with matrix coefficients up to a fixed degree, the truncated full
Fock space with its creation tuple, kernel Gram matrices over matrix-point
pins, Clark moment functionals with their GNS row contractions, de
Branges-Rovnyak model spaces with Gleason solutions and extremality
tests, and contractive colligations with transfer-function realization.
"""

from .words import CapacityError, enumerate_tuples, index_map, word_count
from .fock import Side
from .series import (FreeSeries, MatrixPoint, cayley, constant_series,
                     dagger_series, evaluate, identity_series, invert_series,
                     letter_series, multiplier_matrix, multiply,
                     normalize_schur, schur_norm_bound, schur_norm_estimate,
                     series_degree, word_powers)
from .parser import ParseError, parse
from .kernels import (KernelKind, KernelSpec, Pinning, PinStack,
                      gram_psd_check, kernel_eval, kernel_gram,
                      membership_norm, nilpotent_stack, szego_eval)
from .clark import (GnsModel, InvalidMomentsError, MomentFunctional,
                    cauchy_transform_matrix, clark_moments, cuntz_check,
                    gns_build, gns_kernel_coords, herglotz_from_moments,
                    herglotz_moments, interior_isometry_defect, moment_matrix,
                    vb_adjoint_defect, vb_build)
from .gleason import (CeObstructionError, DbrModel, NotSchurError, a_empty_sq,
                      ce_test, clark_gleason_residual,
                      clark_intertwining_residual, dbr_model, exactgs_residual,
                      extremality_gap, gleason_maps, gleason_vector,
                      kernel_identity_residual, l_invariance_test,
                      shift_compressions, square_completion, szego_distance,
                      vacuum_kernel)
from .colligation import (Colligation, canonical_colligation,
                          column_schur_defect, complete_column, transfer_eval,
                          transfer_series)

__version__ = "0.1.0"
