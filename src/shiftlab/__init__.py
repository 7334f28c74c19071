"""shiftlab: exact-arithmetic toolkit for weighted shift operators.

Moments, Berger measures, polynomial embeddings into 2-variable shifts, and
exact positive-semidefiniteness certification of the associated moment
matrices. Every computation is carried out in rational arithmetic.
"""

from .errors import (
    CommutativityViolation,
    DenominatorLimitExceeded,
    DescriptorError,
    DuplicateNode,
    NegativeValue,
    NonpositiveDensity,
    NotMonotone,
    ShiftLabError,
    SingularSystem,
    TailExhausted,
    UnsupportedBase,
    WindowTooSmall,
    ZeroMass,
    ZeroMoment,
)
from .exactcore import (
    PsdVerdict,
    RationalPolynomial,
    SymMatrix,
    as_rational,
    format_rational,
    poly_nonneg_on,
    psd_test,
    psd_test_minors,
    vandermonde_solve,
)
from .measures import (
    ArclengthSegment01,
    AtomicMeasure1D,
    AtomicMeasure2D,
    BetaFamily,
    Lebesgue01,
    PrefixTable,
    Pushforward2D,
    marginal,
    pushforward_atomic,
    pushforward_moments,
    row_measure,
)
from .shift1d import (
    HyponormalityVerdict,
    RecursionResult,
    Shift1D,
    agler,
    bergman,
    curto_park_measures,
    detect_recursion,
    flat_shift,
    from_measure,
    k_hyponormal,
    power_decompose,
    unweighted,
)
from .shift2d import (
    Moment2Table,
    Shift2D,
    SixPointVerdict,
    col,
    corner_restrict,
    helton_howe,
    k_hyponormal_2v,
    moments,
    power_components,
    restrict,
    row,
    sie_bergman,
    six_point,
    spherical_check,
)
from .embed import (
    EmbeddingSpec,
    StallReport,
    classical_embed,
    classical_moments,
    poly_embed,
    recover_densities,
    spherical_embed_iterative,
    spherical_embed_measure,
)

__version__ = "0.1.0"
