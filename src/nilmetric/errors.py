"""Exception hierarchy for nilmetric.

Every error raised by the library derives from NilmetricError so callers
can catch library failures without masking programming errors.
"""


class NilmetricError(Exception):
    """Base class for all nilmetric errors."""


class DimensionMismatch(NilmetricError):
    """Operands live in spaces of different dimensions."""


class InvalidBracket(NilmetricError):
    """Structure constants violate the Jacobi identity beyond tolerance."""


class NotNilpotent(NilmetricError):
    """Lower central series stabilizes at positive dimension."""


class SingularMap(NilmetricError):
    """A linear map required to be invertible is singular at working precision."""


class WrongTag(NilmetricError):
    """Structure tag not admissible for this operation."""


class DimensionParity(NilmetricError):
    """Structure class incompatible with the ambient dimension."""


class InvalidStructure(NilmetricError):
    """Structure payload fails its defining algebraic identities."""


class IncompatibleMetric(NilmetricError):
    """Metric is not compatible with the structure."""


class NotClosed(NilmetricError):
    """Symplectic form is not closed with respect to the bracket."""


class SplitMismatch(NilmetricError):
    """Structure does not preserve the requested two-step splitting."""


class ZeroTensor(NilmetricError):
    """Operation undefined for the zero tensor."""


class StepCollapse(NilmetricError):
    """Integrator step size underflowed while enforcing constraints."""


class NotCertifiedError(NilmetricError):
    """Operation requires an input that passes minimality certification."""


class NotPositiveDefinite(NilmetricError):
    """Matrix expected to be symmetric positive definite is not."""


class FamilyConstraint(NilmetricError):
    """Parameters violate the defining constraint of a catalog family."""


class ParseError(NilmetricError):
    """Problem file is malformed; message carries field context."""
