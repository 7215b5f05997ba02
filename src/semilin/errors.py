"""Exception types shared across the library."""


class SemilinError(Exception):
    """Base class for contract failures raised by library operations."""


class PreconditionError(SemilinError):
    """An operation was called outside its stated precondition."""


class NoIsolatingShift(SemilinError):
    """The endpoint-difference search found no shift isolating a single
    component."""


class IterationCapExceeded(SemilinError):
    """A derivation loop stopped short of its goal: interval contraction
    hit its cap and the fallback difference search failed, or ray peeling
    made no progress or did not end in a single ray."""


class ReplayError(SemilinError):
    """A trace could not be replayed: dangling reference or an operation
    applied to a value of the wrong dimension."""


class UnboundedFiber(SemilinError):
    """A family operation that needs bounded fibers met an unbounded one."""


class PairingMismatch(SemilinError):
    """The endpoint-matching formula disagreed with the true component
    list (possible only when two open components share an endpoint)."""


class RationalTooLarge(SemilinError):
    """A rational in a result has too many digits to be written as text."""
