"""quadtower: 2-class field towers of imaginary quadratic fields.

Exact-arithmetic toolkit for classifying discriminants d = -4pqq', computing
class groups of binary quadratic forms, instantiating Kuroda's class number
formula, and cross-checking everything against an executable model of the
finite 2-groups Gamma_{n,m,eps} that arise as tower Galois groups.
"""

from .arith import (
    PrimeDiscriminant,
    factor,
    is_fundamental,
    is_prime,
    kronecker,
    prime_discriminants,
)
from .errors import QuadTowerError
from .genus import chi_eval, lemma1_check, square_2torsion
from .kuroda import genus_field_h2, kuroda_h2, table1_predictions
from .pgroup import (
    GroupParams,
    PGroup,
    fingerprint,
    gamma,
    gamma4r,
    verify_presentation,
)
from .quadforms import (
    AbelianType,
    ClassGroup,
    QuadForm,
    class_group,
    compose,
    prime_form,
    reduce_form,
    two_part,
)
from .tower import classify, crosscheck, invariants, predict, scan

__version__ = "1.0.0"

__all__ = [
    "AbelianType",
    "ClassGroup",
    "GroupParams",
    "PGroup",
    "PrimeDiscriminant",
    "QuadForm",
    "QuadTowerError",
    "chi_eval",
    "class_group",
    "classify",
    "compose",
    "crosscheck",
    "factor",
    "fingerprint",
    "gamma",
    "gamma4r",
    "genus_field_h2",
    "invariants",
    "is_fundamental",
    "is_prime",
    "kronecker",
    "kuroda_h2",
    "lemma1_check",
    "predict",
    "prime_discriminants",
    "prime_form",
    "reduce_form",
    "scan",
    "square_2torsion",
    "table1_predictions",
    "two_part",
    "verify_presentation",
]
