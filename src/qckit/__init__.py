"""qckit: the algebra of quasi-cyclic codes over finite fields.

Finite-field arithmetic, polynomial factorization over F_q, linear and
cyclic codes, and the constituent (CRT) decomposition of quasi-cyclic
codes with duality, self-duality/isoduality tests, multiplier
equivalence and small constructions.  Every nontrivial result is
computed by two independent routes and cross-checked at runtime.
"""

from .errors import (
    BadParameters,
    CrossCheckFailed,
    CutoffExceeded,
    DualMismatch,
    FormatError,
    LengthMismatch,
    MultiplierNotCoprime,
    NoGamma,
    NotCofactors,
    NotCoprime,
    NotCyclicConstituents,
    NotDivisor,
    NotPrimeIndex,
    NotRootOfUnity,
    NotShiftInvariant,
    QCKitError,
    ShapeMismatch,
    TooLarge,
)
from .galois import (
    ConstituentField,
    FieldSpec,
    constituent_field,
    field_from_q,
    find_sqrt_minus_one,
    make_field,
)
from .polynomial import Poly, factor_cyclic_modulus, poly_gcd, reciprocal
from .linear_code import (
    LinearCode,
    MonomialMap,
    apply_monomial,
    code_from_rows,
    direct_sum,
    equivalence_search,
    euclidean_dual,
    hermitian_dual,
    weight_distribution,
)
from .cyclic import (
    CyclicCode,
    cofactor_dual_equivalence,
    construct_isodual_cyclic,
    cyclic_dual,
    cyclic_make,
    defining_set,
    multiplier_apply,
    multiplier_equivalent,
    reciprocal_code,
    scale_code,
)
from .quasi_cyclic import (
    QuasiCyclicCode,
    constituents_all_cyclic,
    construct_isodual_qc,
    construct_selfdual_qc,
    crt_decompose,
    crt_reconstruct,
    enumerate_multiplier_equivalents,
    is_isodual,
    is_selfdual,
    phi,
    phi_inv,
    qc_dual,
    qc_make,
    qc_multiplier_equivalent,
    selfdual_exists,
    slot_image_code,
)
from .serialize import code_from_json, code_to_json, dump_code, load_code

__version__ = "0.1.0"
