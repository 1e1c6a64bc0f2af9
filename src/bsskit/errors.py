"""Exception types raised across the toolkit.

Every failure mode that callers are expected to catch gets its own class so
that batch drivers can map them to status codes without string matching.
"""


class BssError(Exception):
    """Base class for all toolkit errors."""


class InvalidSpec(BssError):
    """A source, mixing or scenario description is malformed."""


class DimensionMismatch(BssError):
    """Operand shapes are incompatible."""


class LagTooLarge(BssError):
    """Requested covariance lag leaves no sample pairs."""


class DegenerateChannel(BssError):
    """A channel has (numerically) zero variance."""


class DegenerateInput(BssError):
    """Input carries no energy; whitening is undefined."""


class DegenerateSpectra(BssError):
    """Eigenvalue spectrum has no usable gap; sources indistinguishable at this lag."""


class DegenerateSpectrum(BssError):
    """Dominant eigenvalue is not isolated; rank-one extraction is ambiguous."""


class SingularG(BssError):
    """Demixing matrix is (numerically) singular."""


class Diverged(BssError):
    """Iteration left the admissible region."""


class ZeroUpdate(BssError):
    """An update vector vanished before normalization."""


class NotConverged(BssError):
    """Iteration limit reached before the stopping rule fired."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class SingularLS(BssError):
    """A least-squares subproblem is singular."""


class ZeroContraction(BssError):
    """Tensor contraction produced a zero vector."""


class RankDeficient(BssError):
    """Data matrix rank is too low to excite the estimator."""
