"""Exception types shared across the package."""


class MorsekitError(Exception):
    """Base class for all package-specific failures."""


class NoBoundStatesError(MorsekitError):
    """The well is too shallow to hold a single bound state (nu <= 1)."""


class OrderingAmbiguityError(MorsekitError):
    """Two distinct level keys evaluate to exactly the same energy.

    Raised when the exact-arithmetic tie-break cannot separate two levels,
    which means the declared arithmetic type of p is inconsistent with the
    requested total order.  ``keys`` holds the two tied LevelKeys;
    ``p_text`` and ``mode`` are the declared principal parameter.
    """

    def __init__(self, message: str, *, keys=None, p_text: str | None = None, mode: str | None = None):
        super().__init__(message)
        self.keys = keys
        self.p_text = p_text
        self.mode = mode


class QuadratureAccuracyError(MorsekitError):
    """A quadrature result changed too much under refinement to be trusted.

    ``quantity`` names the value that moved, ``delta`` is how far it moved
    and ``tol`` is the absolute limit it exceeded.  ``rule`` is the rule
    that was refined: for moments the QuadratureConfig whose doubled rule
    disagreed; for the Gauss-Laguerre overlap table the pair
    (nodes, alpha) of the rule checked against the same alpha with 8 more
    nodes.
    """

    def __init__(self, message: str, *, quantity: str | None = None, delta: float | None = None,
                 tol: float | None = None, rule=None):
        super().__init__(message)
        self.quantity = quantity
        self.delta = delta
        self.tol = tol
        self.rule = rule
