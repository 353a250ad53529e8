"""blowuplab: exact-arithmetic liftability of linear Poisson structures
through the real projective blowup at the origin of the dual space.

Given a Lie algebra by rational structure constants, the package decides
whether the graph of the associated linear Poisson bivector extends over the
exceptional divisor, and certifies the verdict through three independent
routes: the structural classification of constant-height algebras, the
divisor-adic vanishing order of the pulled-back pure spinor, and the rank of
the lifted distribution tied to coadjoint orbit geometry.
"""

from .classify import (
    ClassificationVerdict,
    HeightSpectrum,
    classify_constant_height,
    is_diagonal_affine,
    sample_height_spectrum,
)
from .errors import (
    BlowupLabError,
    DisagreementError,
    DomainError,
    InternalError,
    JacobiError,
    ParseError,
    StructureError,
    UsageError,
    WitnessSearchError,
)
from .exterior import GradedForm, GradedVector
from .blowup_geometry import (
    OrbitRankReport,
    orbit_rank_crosscheck,
)
from .liealg import (
    Covector,
    ElementType,
    HeightReport,
    LieAlgebra,
    ce_differential,
    change_basis,
    covector_form,
    derived_algebra,
    height,
    height_report,
    jacobi_check,
    killing_form,
)
from .model_io import (
    CatalogEntry,
    abelian,
    catalog_algebra,
    catalog_entries,
    diagonal_affine,
    emit_report,
    heis3,
    parse_algebra,
    parse_document,
    scaled_so3_bundle,
    serialize_algebra,
    sl2,
    so3,
)
from .poisson_spinor import (
    ChartForm,
    LiftVerdict,
    LineOrderReport,
    OrderCertificate,
    blowup_pullback,
    check_line_orders,
    hamiltonian_field,
    lift_verdict,
    linear_poisson,
    spinor,
    vanishing_order,
)
from .rings import (
    PolyRing,
    Polynomial,
    RATIONALS,
    Rationals,
    format_rational,
    parse_polynomial,
    parse_rational,
)
from .sampling import DEFAULT_SEED

__version__ = "0.1.0"
