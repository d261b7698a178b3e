"""descon: exact arithmetic for the joint distribution of the descent and
connectivity statistics of permutations.

The descent set of a word records where it strictly drops; the connectivity
set records where a prefix lies entirely below the rest. This package
computes the subset-indexed matrices counting permutations by both
statistics at once, their closed forms, signed inverses, the
inversion-weighted q-analogues, the multiset-word correspondence, and the
generating-function identity for connected permutations, all over exact
integer and polynomial rings, each closed form checked against brute-force
enumeration.
"""

from .matrices import (
    INTEGER,
    LAURENT,
    POLYNOMIAL,
    SubsetMatrix,
    a_matrix_closed,
    a_q_matrix_closed,
    b_matrix_direct,
    b_q_matrix_direct,
    diagonal_conjugation_matrix,
    gamma_matrix,
    gamma_q_matrix,
    inverse_closed,
    mobius_matrix,
    multiset_count_matrix,
    zeta_matrix,
)
from .permutations import (
    CAP_ENV_VAR,
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    MultisetWord,
    Permutation,
    connected_count,
    connectivity_mask,
    descent_mask,
    enumerate_permutations,
    enumeration_cap,
    inversion_count,
    joint_statistics,
    multiset_words,
    reduce_to_multiset,
)
from .rings import (
    InexactDivisionError,
    LaurentPolynomial,
    q_factorial,
    q_int,
    q_multinomial,
)
from .series import ConnectedCountTable, connected_counts_enumerated, connected_counts_series
from .subsets import (
    Composition,
    SubsetMask,
    cardinality_lex_order,
    count_descent_subset,
    eta,
    eta_q,
    min_inversions,
)
from .verify import CheckResult, available_checks, run_checks

__version__ = "0.1.0"
