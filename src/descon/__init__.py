"""descon: exact arithmetic for the joint distribution of the descent and
connectivity statistics of permutations.

The descent set of a word records where it strictly drops; the connectivity
set records where a prefix lies entirely below the rest. This package
computes the subset-indexed matrices counting permutations by both
statistics at once, their closed forms, signed inverses, the
inversion-weighted q-analogues, the multiset-word correspondence, and the
generating-function identity for connected permutations, all over exact
integer and polynomial rings. ``descon verify`` checks each fast route
exactly against an independent one: the tally of S_n by its statistics,
the defining matrices, and a walk over the n! permutations for the
multiset bijection. Every size is bounded by one fixed ceiling,
``permutations.HARD_CEILING`` (n <= 12); the bijection's walk, which holds
all n! inverses at once, stops at n = 10 and reports that bound.
"""

from .matrices import (
    SubsetMatrix,
    diagonal_conjugation_matrix,
    gamma_matrix,
    inverse_closed,
    mobius_matrix,
    multiset_count_matrix,
    zeta_matrix,
)
from .permutations import (
    EnumerationCapError,
    MultisetWord,
    Permutation,
    connectivity_mask,
    descent_mask,
    enumerate_permutations,
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
)
from .series import connected_counts_enumerated, connected_counts_series
from .subsets import (
    SubsetMask,
    cardinality_lex_order,
    count_descent_subset,
    eta,
    eta_q,
    min_inversions,
)
from .verify import CheckResult, run_checks

__version__ = "0.1.0"
