"""weilkit: exact arithmetic for Weil numbers over finite fields, their
Honda-Tate invariants, minimal central orders and Dieudonne ring quotients,
including the fully explicit supersingular elliptic example engine."""

__version__ = "0.1.0"

from .intpoly import IntPolynomial, resultant, sturm_count
from .intmatrix import hermite_normal_form, smith_normal_form
from .padic import (
    IrregularPlacesError,
    NewtonPolygon,
    PlaceAboveP,
    WittRingModel,
    decompose_places,
    newton_polygon,
)
from .weil import (
    GlobalContext,
    NotWeilError,
    SymmetricPolynomial,
    WeilClass,
    WeilSet,
    enumerate_weil,
    slope_type,
    symmetric_polynomial,
    validate_weil,
    weil_set,
)
from .hondatate import (
    HondaTateRecord,
    commutative_classifier,
    gamma_witnesses,
    honda_tate_record,
    minimal_cogenerator_dimension_supersingular_elliptic,
    rank_of_hom_lattice,
    reciprocity_sum,
)
from .central_orders import (
    CentralOrder,
    build_order,
    connected_components,
    index_in,
    quotient_map,
)
from .dieudonne import (
    DieudonneAlgebra,
    build_dieudonne,
    ordinary_matrix_check,
    verify_center,
)
from .supersingular import (
    LatticeModP,
    OrderPresentation,
    dieudonne_matrix_order,
    endomorphism_order,
    enumerate_stable_lattices,
    fiber_product_lattice,
    glued_lattice,
    lattice_class_count,
    verify_psi_relations,
)

__all__ = [name for name in dir() if not name.startswith("_")]
