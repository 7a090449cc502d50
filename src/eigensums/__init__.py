"""Exact-arithmetic verification of congruences for multiple sums over
sequences invariant under the binomial transform."""

from .exactnum import (
    DenominatorDivisibleByP,
    Residue,
    mod_reduce,
    primes_between,
)
from .seqalg import (
    BUILTIN_NAMES,
    EigenKind,
    SequenceSpec,
    binomial_transform_prefix,
    classify_eigenspace,
)
from .harmonic import (
    HarmonicTable,
    harmonic_table,
    nested_sum_bruteforce,
    restricted_power_sum,
    weighted_sum_S,
)
from .bernoulli import (
    bernoulli_number,
    bernoulli_numbers,
    bernoulli_poly_eval,
    bernoulli_value_mod,
    check_bernoulli_identities,
)
from .centralfact import (
    RationalMatrix,
    central_factorial_t,
    coefficient_matrix,
    row_reduce,
)
from .congruence import (
    CongruenceReport,
    verify_S_parity,
    verify_corollary_1_2,
    verify_lemma_2_1,
    verify_lemma_3_1,
    verify_theorem_1_1,
    verify_theorem_3_2,
    verify_theorem_3_3,
)

__version__ = "0.1.0"
