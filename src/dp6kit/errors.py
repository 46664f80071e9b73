"""Exception types shared across the package."""


class Dp6kitError(Exception):
    """Base class for all domain errors raised by dp6kit."""


class DivisionByZero(Dp6kitError, ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class FieldMismatch(Dp6kitError):
    """Operands belong to different fields."""


class CompositionMismatch(Dp6kitError):
    """Lattice maps in a sequence do not compose (shape or group disagreement)."""


class ReciprocityViolation(Dp6kitError):
    """Local invariants do not sum to zero in Q/Z."""


class RealPlaceOrder(Dp6kitError):
    """Odd-order Brauer class with a nonzero real invariant."""


class OrderViolation(Dp6kitError):
    """Brauer class order incompatible with the requested operation."""


class DegenerateSubalgebra(Dp6kitError):
    """Cubic subalgebra is not etale (degenerate restricted trace form)."""


class NotSplitOverBase(Dp6kitError):
    """Cubic subalgebra does not split over the base field."""


class EnumerationBudgetExceeded(Dp6kitError):
    """Point enumeration would exceed the fixed point-count budget."""


class WrongLineCount(Dp6kitError):
    """Line search did not produce exactly six lines (model bug)."""


class NotAnAutomorphism(Dp6kitError):
    """Induced permutation of the lines is not a hexagon automorphism (model bug)."""


class InconsistentObservation(Dp6kitError):
    """Observed surface data violates one of the splitting implications."""


class IndexMismatch(Dp6kitError):
    """Proof replay requires an algebra class of index 6."""


class InvariantViolation(Dp6kitError):
    """A computed result breaks an identity that holds by theory (a bug)."""


class MalformedCase(Dp6kitError):
    """Surface case payload violates its declared shape."""
