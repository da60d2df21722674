"""Shared exception types. Typed errors double as machine-readable CLI outcomes."""


class YoccozError(Exception):
    """Base class for all computation errors."""


class Case1DegenerateError(YoccozError):
    """theta_v's orbit meets the alpha-cycle combinatorics (the f^n(0)=alpha case).

    Carries ``step``: least j >= 0 with 2^j * theta_v in the cycle. Callers
    must route to the trivial tiling.
    """

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or f"theta_v hits the alpha-cycle after {step} doublings")


class InvalidThetaError(YoccozError):
    """theta_v is not strictly inside the critical-value sector of the cycle."""


class NeedsDeeperLaminationError(YoccozError):
    def __init__(self, probed_depth: int, message: str = ""):
        self.probed_depth = probed_depth
        super().__init__(message or f"insufficient lamination depth (probed to {probed_depth})")


class OnBoundaryError(YoccozError):
    """The query angle is a polygon vertex at the requested level."""


class OrbitHitsAlphaError(YoccozError):
    """Forward orbit of the query angle meets a polygon vertex before level n."""


class NotFoundWithinBudgetError(YoccozError):
    def __init__(self, budget, message: str = ""):
        self.budget = budget
        super().__init__(message or f"search exhausted budget {budget}")


class NotRiseAndDropError(YoccozError):
    pass


class OutsideDomainError(YoccozError):
    pass


class InvalidRegionError(YoccozError):
    pass


class TraceFailedError(YoccozError):
    def __init__(self, potential: float, message: str = ""):
        self.potential = potential
        super().__init__(message or f"ray trace diverged near potential {potential:g}")


class NotConnectedError(YoccozError):
    """The critical orbit escapes: c is outside the Mandelbrot set."""


class NotFiniteEnergyError(YoccozError):
    pass


class ModelViolationError(YoccozError):
    """A structural check of a constructed map failed (implementation bug, not math)."""
