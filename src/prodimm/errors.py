"""Exception taxonomy shared by all modules.

Every error that carries a grid location exposes it as ``.node`` (a tuple of
node indices) so callers can report the offending sample; ``DegeneracyError``
exposes it as ``.index``, which for a single frame is the offending row.
"""


class ProdimmError(Exception):
    """Base class for all package errors."""


class DimensionError(ProdimmError, ValueError):
    """Operands have incompatible dimensions."""


class ConstraintError(ProdimmError, ValueError):
    """A geometric constraint (on-product, tangency, ...) is violated."""


class DegeneracyError(ProdimmError, ValueError):
    """Null or linearly dependent input where an independent set is required."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class MetricError(ProdimmError, ValueError):
    """Metric field is not symmetric positive definite."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class InsufficientDataError(ProdimmError, ValueError):
    """Too few samples for the requested stencil."""


class GridMismatchError(ProdimmError, ValueError):
    """Fields expected on a common grid live on different grids."""


class StructureError(ProdimmError, ValueError):
    """Product-structure data is inconsistent (spectrum, rank, block split)."""


class ExclusionError(StructureError):
    """The excluded plus/minus identity structure was supplied."""


class ReconstructionError(ProdimmError, RuntimeError):
    """Rebuild left the target product beyond tolerance."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class SchemaError(ProdimmError, ValueError):
    """Dataset or report file does not match the expected schema."""
