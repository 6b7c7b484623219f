"""Exact-arithmetic nonsymmetric Jack polynomials, a four-variable orthogonal
basis built through the half-Hadamard coordinates, and the spectrum of the
associated four-particle Calogero-Sutherland model."""

from .basis4 import (
    BasisLabel,
    LabelDecomposition,
    basis_norm,
    basis_poly,
    basis_poly4,
    decompose_label,
    invariant_F,
    y0_power_norm,
)
from .exact import ParamContext, Rat, format_rational, make_context, parse_rational, rational
from .hermite_cs import (
    HermiteRecord,
    conjugated_hamiltonian,
    cs_invariant_eigenfunction,
    cs_invariant_energy,
    energy_level,
    exp_half_laplacian,
    hermite_basis,
    laguerre,
    operator_identities_check,
)
from .jack import NsjpRecord, jack_norm, nsjp, nsjp_eval_ones, nsjp_norm, symmetric_jack
from .measure import McConfig, mc_inner_product, normalization_constant, selberg_product
from .ops import (
    cherednik_a,
    cherednik_b,
    dunkl_a,
    dunkl_b,
    dunkl_d0,
    dunkl_prime,
    laplacian,
    laplacian_b,
    laplacian_h,
    pairing_extended,
    pairing_kappa,
)
from .poly import SparsePoly, poly_from_json, poly_to_json, substitute_squares, to_x, to_y

__version__ = "0.1.0"
