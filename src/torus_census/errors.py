"""Shared error types.

The command-line front end maps these onto exit codes: malformed input is a
parse failure (exit 1), while violated mathematical preconditions, regime
violations, and uncertified searches are precondition failures (exit 2).
"""


class TorusCensusError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(TorusCensusError, ValueError):
    """A JSON document, rational literal, or CLI input cannot be parsed."""


class PreconditionError(TorusCensusError, ValueError):
    """An operation's mathematical precondition is violated."""


class EnumerationError(PreconditionError):
    """A lattice search region cannot be certified finite.

    The message starts with "bound not certified"; enumeration refuses to run
    rather than silently truncating.
    """


class CapacityError(PreconditionError):
    """A blow-up capacity does not fit at the chosen corner or component."""


class UnsupportedBlowdownError(PreconditionError):
    """A requested blow-down has no closed-form or descended answer.

    The class stops descending under Cremona reflections before it reaches
    a bare exceptional class, or it is not one of the closed-form shapes on
    a positive-genus ruled base, or its closed-form blow-down would leave a
    section of area zero or below where the cone needs a positive one.
    """
