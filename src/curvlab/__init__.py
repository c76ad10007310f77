"""curvlab: exact computations with finite-dimensional curved algebras and
curved coalgebras - Maurer-Cartan elements and their moduli, interval
homotopies, convolution algebras, bar/cobar constructions, twisted modules,
square-zero obstruction theory, and curved semisimple structure theory.

All arithmetic is exact (arbitrary-precision rationals or prime fields);
every enumeration is budgeted and deterministic.
"""

from .fields import GF, QQ, FieldSpec, PrimeFieldRequired
from .gradedlin import (
    BudgetExceeded,
    Complex,
    GradedMap,
    GradedSpace,
    cohomology,
    shift,
    solve_linear,
)
from .algebra import (
    CurvedAlgebra,
    CurvedMorphism,
    MCElement,
    compose_morphisms,
    ground_algebra,
    identity_morphism,
    mc_enumerate,
    mc_polynomial_system,
    square_zero_algebra,
    tensor_algebras,
    twist_algebra,
    twisted_apply,
    twisted_map,
    uncurve_morita,
)
from .coalgebra import (
    CurvedCoalgebra,
    coradical,
    cosquare_zero_tower,
    curved_coradical,
    dualize_algebra,
    dualize_coalgebra,
    tensor_coalgebras,
)
from .interval import IntervalAlgebra, interval_diagonal, make_interval, noncommutative_forms
from .convolution import ConvolutionAlgebra, convolution_algebra, hom_tensor_iso
from .barcobar import (
    TruncatedCobar,
    TruncatedDualBar,
    adjunction_count_check,
    bar_dual,
    cobar,
    mc_hom_enumerate,
    morphisms_via_mc,
)
from .mc import (
    GaugeQuadruple,
    NHomotopy,
    find_gauge_quadruple,
    h0_hom,
    hom_complex,
    map_homotopy_check,
    moduli_set,
    n_homotopy_search,
    three_homotopy_unpack,
)
from .twisted import TwistedModule, induce, make_twisted, module_hom_complex
from .obstruction import (
    SquareZeroExtension,
    lift_along_gauge,
    obstruction_class,
    try_lift,
)
from .semisimple import (
    CurvedDecomposition,
    css_decompose,
    css_quotient,
    css_section,
    graded_radical,
    internal_curved_radical,
    nilpotent_tower,
)
from .modelcheck import (
    FreeDgCategory,
    alg_mc,
    is_fibration_mcdg,
    lifting_solver,
    omega_cat,
    rectify_cofibration,
)

__version__ = "0.1.0"
