"""Exception types shared across the package."""


class TilerError(Exception):
    """Base class for all errors raised by this package."""


class NotClosed(TilerError):
    """A boundary word does not return to its starting vertex."""


class SelfIntersecting(TilerError):
    """A boundary word revisits a vertex (including pinch points)."""


class EmptyInterior(TilerError):
    """A boundary word closes up but encloses no area."""


class CapExceeded(TilerError):
    """An area-scaled reference computation was asked to exceed its cell cap."""


class OutsideRegion(TilerError):
    """A query addressed a cell or vertex that is not part of the region."""


class NotTileable(TilerError):
    """An operation that requires a tileable region was given an untileable one."""


class InternalInconsistency(TilerError):
    """An internal invariant failed; indicates a bug, not bad input."""
