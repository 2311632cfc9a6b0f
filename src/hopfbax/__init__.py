"""Exact Yang-Baxter solutions from graded Hopf algebras.

The package builds finite-dimensional Hopf algebras (Taft algebras and
their Drinfeld doubles, plus the spin-1/2 and spin-1 modules of the
q-deformed sl(2)), decomposes their canonical Yang-Baxter solutions along
a Z-grading, inserts spectral-parameter weights mu^degree, and verifies
the resulting parametric Yang-Baxter equations as exact polynomial
identities.  All arithmetic is exact: rationals, cyclotomic fields
Q(zeta_N), and Laurent polynomials in a formal square root of q.
"""

from .algebra import Algebra, AlgebraElement, TensorElement, embed, \
    tensor_multiply
from .baxterize import NotDiagonallyGraded, baxterize, baxterize_zn, \
    decompose_graded, evaluate_at_one, mu_components
from .double import CONVENTIONS, DEFAULT_CONVENTION, CanonicalR, \
    DoubleAlgebra, build_double, canonical_r, check_constant_ybe_algebraic, \
    check_parametric_ybe_algebraic, double_grading
from .hopf import Grading, HopfAlgebra, HopfReport, check_coproduct_grading, \
    check_grading, check_hopf_axioms, dual, dual_grading, pair
from .matrices import ParametricMatrix, embed_two_site, find_diagonal_gauge, \
    flip_operator
from .scalars import RATIONAL, SQRT_Q, Domain, ParamScalar, Scalar, \
    ScalarDomainError, cyclotomic, eval_q_powers, gauss_binomial, \
    parse_param_scalar, parse_scalar, q_bracket, q_bracket_factorial, \
    q_number, q_number_factorial
from .taft import Representation, build_taft, canonical_q, \
    rep_indecomposable, rep_irreducible, taft_r_matrix, x_degree_grading
from .uqsl2 import SqrtExt, WeightedRep, r_matrix_terms, spin_half, \
    spin_one, uqsl2_r_matrix
from .ybe import YbeReport, braid_check, check_constant_ybe, \
    check_parametric_ybe

__version__ = "0.1.0"

__all__ = [
    "Algebra", "AlgebraElement", "TensorElement", "embed", "tensor_multiply",
    "NotDiagonallyGraded", "baxterize", "baxterize_zn",
    "decompose_graded", "evaluate_at_one", "mu_components",
    "CONVENTIONS", "DEFAULT_CONVENTION", "CanonicalR", "DoubleAlgebra",
    "build_double", "canonical_r", "check_constant_ybe_algebraic",
    "check_parametric_ybe_algebraic", "double_grading",
    "Grading", "HopfAlgebra", "HopfReport", "check_coproduct_grading",
    "check_grading", "check_hopf_axioms", "dual", "dual_grading", "pair",
    "ParametricMatrix", "embed_two_site", "find_diagonal_gauge",
    "flip_operator",
    "RATIONAL", "SQRT_Q", "Domain", "ParamScalar", "Scalar",
    "ScalarDomainError", "cyclotomic", "eval_q_powers", "gauss_binomial",
    "parse_param_scalar", "parse_scalar", "q_bracket", "q_bracket_factorial",
    "q_number", "q_number_factorial",
    "Representation", "build_taft", "canonical_q",
    "rep_indecomposable", "rep_irreducible", "taft_r_matrix",
    "x_degree_grading",
    "SqrtExt", "WeightedRep", "r_matrix_terms", "spin_half", "spin_one",
    "uqsl2_r_matrix",
    "YbeReport", "braid_check", "check_constant_ybe", "check_parametric_ybe",
    "__version__",
]
