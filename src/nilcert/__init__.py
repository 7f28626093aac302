"""nilcert: exact-rational workbench for nilpotent Lie algebras.

Structure constants in, certificates out: central series, centers,
derivation algebras, stabilizer algebras, weight decompositions, and the
named check suite behind the ``nilcert`` command line tool.
"""

from .qlinalg import (
    Matrix,
    Polynomial,
    QuotientMap,
    Subspace,
    char_poly,
    det,
    is_nilpotent,
    is_unipotent,
    kernel_basis,
    qf,
    rank,
    rref,
)
from .liecore import (
    Element,
    LieAlgebra,
    abelian_lie_algebra,
    ad_matrix,
    bracket,
    bracket_subspace,
    center,
    check_jacobi,
    derived_subalgebra,
    heisenberg3,
    lie_algebra_from_json,
    lie_algebra_to_json,
    lower_central_series,
    make_lie_algebra,
    nilpotency_class,
)
from .wedgerep import (
    GeneratorSet,
    NotInvariantError,
    WedgeBasis,
    commutant,
    induced_algebra_action,
    induced_group_action,
    invariant_closure,
    quotient_action,
    wedge_vector,
    weight_decomposition,
)
from .models import (
    DEFAULT_P,
    ModelData,
    SL2Element,
    build_three_step,
    build_two_step,
    build_W,
    build_Wprime,
    binary_form_action,
    group_action_on_V,
    model_data,
    algebra_action_on_V,
    v_basis,
    sym2_embed,
)
from .autos import (
    DerivationSpace,
    IrrationalEigenvalueError,
    StabilizerAlgebra,
    derivation_algebra,
    derivation_defects,
    eigen_relation_kernel,
    exp_nilpotent,
    factor_on_abelianization,
    fixed_space,
    infinitesimal_line_stabilizer,
    is_automorphism,
    line_fixed_by,
    max_eigenspace_dim,
    sample_h_element,
    shear_space,
    stabilizer_algebra,
)

__version__ = "0.1.0"
