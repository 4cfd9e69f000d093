"""Exception types shared across the package."""


class BerrypickError(Exception):
    """Base class for all package errors."""


class FrameMismatchError(BerrypickError, ValueError):
    """A cloud or transform was supplied in the wrong coordinate frame."""


class EmptyInputError(BerrypickError, ValueError):
    """An operation that needs at least one element received none."""


class StateError(BerrypickError, RuntimeError):
    """An operation was invoked from an invalid state."""


class ConfigError(BerrypickError, ValueError):
    """A scenario configuration failed validation."""


class MotionRejectedError(BerrypickError, ValueError):
    """A commanded robot target lies outside the reachable workspace."""


class CloudFormatError(BerrypickError, ValueError):
    """A cloud text file is malformed; the message names path:line."""
