"""Exact computations for Lie algebras generated by extremal elements.

Universal sandwich algebras L_r and their associative companions R_r,
Chevalley algebras of all types with extremality / bilinear-form / radical
machinery, the three-generator classification, minimal extremal
generation certificates, and root-group identity checks -- all over the
rationals or GF(p) with p an odd prime, all in exact arithmetic.
"""

from .scalars import (
    QQ,
    GF,
    CharacteristicTwoUnsupported,
    Field,
    NotPrime,
)
from .nilquot import (
    AssocDims,
    GradedQuotient,
    assoc_dims_via_embedding,
    check_subalgebra_embedding,
    sandwich_algebra,
    spanning_set_check_4gen,
)
from .liealg import (
    AlgebraElement,
    BilinearForm,
    LieAlgebra,
    Subspace,
    center,
    derived_series,
    extremal_form,
    ideal_generated,
    is_extremal,
    killing_form,
    lower_central_series,
    phi_spectrum_check,
    quotient_algebra,
    sandwich_span_check,
    solvable_radical,
    structural_subspaces,
    subalgebra_generated,
)
from .rootdata import (
    CONVENTION_VERSION,
    ChevalleyConstants,
    InvalidRank,
    RootSystem,
    chevalley_constants,
    root_system,
)
from .chevalley import (
    Automorphism,
    ChevalleyAlgebra,
    chevalley_algebra,
    dimension_lower_bound,
    exp_automorphism,
    exp_map,
    extremal_spanning_set,
    long_root_extremality_check,
    mingen_certify,
    mingen_generators,
    minimal_generator_count,
    natural_representation,
    root_exp_apply,
    root_exponential,
    verify_generation,
)
from .smallgen import (
    NormalizationTrace,
    TriangleParams,
    build_M,
    exp_transform_params,
    normalize,
    scale_params,
    sl3_example,
    verify_3gen_structure,
)
from .rootgroups import (
    chain_nonexistence_probe,
    projective_line_check,
    strongcomm_check,
    verify_abstract_root_properties,
)

__version__ = "1.0.0"
