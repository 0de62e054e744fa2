"""Exact base-k arithmetic: positional representations of nonnegative
rationals (finite and repeating), digital sums and roots, the orbit
structure of residues mod n under multiplication by units, and
exhaustive verifiers for two digital-root invariance laws.
"""

from types import ModuleType as _Module

from .arith import Factorization, Rational, divisors, factorize, gcd, pow_rational, totient
from .digroot import (
    DigitRootResult,
    digit_sum,
    digit_sum_of_digits,
    digital_root,
    tf_digit_sum,
    tf_digital_root,
)
from .errors import DomainError, ParseError, PreconditionError
from .modring import (
    OrbitPartition,
    ResidueClass,
    additive_order,
    gcd_class,
    orbit,
    orbit_of,
    orbit_partition,
    residue,
    unit_group_is_cyclic,
    units,
)
from .radix import (
    Kind,
    PositionalRepr,
    RadixClassification,
    classify,
    convert,
    format_repr,
    min_exponent,
    multiplicative_order,
    parse,
    period,
    to_finite,
    to_repeating,
    value_of,
)
from .theorems import (
    FuzzSummary,
    MagicDigitResult,
    Main1Report,
    Main1Term,
    Main2Report,
    fuzz_main1,
    fuzz_main2,
    solve_missing_digit,
    verify_cor1,
    verify_lemma_dr,
    verify_main1,
    verify_main2,
)

# Not the submodules, which the imports bind too: radixroot.arith stays an attribute.
__all__ = [name for name in dir() if name[0] != "_" and not isinstance(globals()[name], _Module)]
