"""Exception taxonomy shared by all modules.

Every package error is built as ``ProdimmError(message, node=None)`` and
exposes ``.node``: the offending grid node as a tuple of node indices, the
offending row for the single-frame fronts of ``lorentz``, or None if it has none.
"""


class ProdimmError(Exception):
    """Base class for all package errors."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class DimensionError(ProdimmError, ValueError):
    """Operands have incompatible dimensions."""


class ConstraintError(ProdimmError, ValueError):
    """A geometric constraint (on-product, tangency, ...) is violated."""


class DegeneracyError(ProdimmError, ValueError):
    """Null or linearly dependent input where an independent set is required."""


class MetricError(ProdimmError, ValueError):
    """Metric field is not symmetric positive definite."""


class GridMismatchError(ProdimmError, ValueError):
    """Fields expected on a common grid live on different grids."""


class StructureError(ProdimmError, ValueError):
    """Product-structure data is inconsistent (spectrum, rank, block split)."""


class ExclusionError(StructureError):
    """The excluded plus/minus identity structure was supplied."""


class ReconstructionError(ProdimmError, RuntimeError):
    """A rebuilt point no record can judge: not finite, on the lower sheet, or unrepairable."""


class SchemaError(ProdimmError, ValueError):
    """Input that cannot be used: a dataset or report off its schema, or a bad argument value."""
