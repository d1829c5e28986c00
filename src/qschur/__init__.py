"""qschur: exact verification toolkit for bounded Schur-type partition identities.

A small, exact (integer Laurent polynomial) computation library for
three-color partition combinatorics: Gaussian binomial / multinomial /
trinomial coefficient families, colored partitions with gap conditions,
the column-subtraction bijection between vector partitions and gap
partitions, and machine verification of the bounded key identities and
their theorem-level counting consequences, including the three-color
(Goellnitz) bounded identity.
"""

from .qseries import LaurentPoly, MarkerSeries, NotDivisible, Truncation, ONE, ZERO, qpow
from .coefficients import (
    poch_qpow,
    qbinom,
    qmultinomial3,
    qtrinomial,
    triangular,
)
from .partitions import (
    ColoredPartition,
    ColoredSymbol,
    DurfeeDecomposition,
    NoValidStatistic,
    count_V,
    durfee_decompose,
    goellnitz_counts,
    is_type1,
    nu_statistics,
    schur_counts,
)
from .bijection import (
    BijectionTrace,
    BoundViolation,
    InvalidInput,
    forward,
    forward_bounded,
    inverse,
)
from .identities import (
    IDENTITIES,
    InternalMismatch,
    Verdict,
    Witness,
    build_GL,
    build_PL,
    build_RL,
    sweep,
    trinomial_rhs,
    verify,
)
from .theorems import (
    CountReport,
    check_goellnitz,
    check_schur,
    check_theorem1,
    check_theorem2,
    check_theorem3,
)

__version__ = "0.1.0"
