"""Exact-arithmetic workbench for Matsuo algebras, Fischer spaces and the
Jordan algebras attached to them."""

from .fields import PrimeField, Rationals, field_from_name
from .linalg import Matrix, Subspace, kernel, rref
from .fischer import (
    PartialTripleSystem,
    RootSystem,
    build_p2_dual,
    build_p3,
    gamma_of_group,
    gamma_of_rootsystem,
    is_fischer,
    pts_isomorphic,
    root_system_from_name,
    roots_of,
    subspace_closure,
)
from .groups import (
    CosetTable,
    GroupRealization,
    Presentation,
    build_3sq2,
    build_sym,
    build_wk_affine_a,
    coxeter_presentation,
    hall_quotient_presentation,
    is_3transposition,
    su32_quotient_presentation,
    todd_coxeter,
)
from .algebra import (
    AlgebraTable,
    FusionRules,
    algebra_from_json,
    algebra_to_json,
    check_axis,
    eigen_decomposition,
    is_absolute_zero_divisor,
    is_ideal,
    is_solvable,
    is_trivial_element,
    iso_check,
    jordan_check,
    miyamoto,
    phi_alpha,
    quotient,
    subspace_product,
    u_operator,
)
from .constructions import (
    embedding_check,
    eta_matrix,
    h3_algebra,
    jordan_from_roots,
    jr_dimension,
    line_idempotents,
    matsuo_algebra,
    p3_char3_chain,
    p3_peirce,
    p3_unit,
    proj_matrix,
    rank4_check,
    zero_sum_sym_algebra,
)
from .claims import claim_ids, run_claim

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
