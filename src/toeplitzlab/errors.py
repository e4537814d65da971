"""Exception types shared across the package.

Names follow the externally documented error vocabulary; keep them stable.
"""


class InvalidIndex(ValueError):
    """A tower index is below 2, or an index table is malformed."""


class ParityError(ValueError):
    """Centered domains need every cumulative modulus odd."""


class DepthExceeded(ValueError):
    """A level argument exceeds what the tower/skeleton materializes."""


class NotInDomain(ValueError):
    """An element was required to lie in some D_n and does not."""


class DoubledOne(ArithmeticError):
    """A translate gamma + J(l) carries two planted 1s."""

    def __init__(self, gamma, ones):
        super().__init__(
            f"the J-translate by {gamma} carries {ones} planted 1s")
        self.gamma, self.ones = gamma, ones


class CountMismatch(ArithmeticError):
    """A window count of (a_{n,0}, a_{n,1}) disagrees with the step log's."""

    def __init__(self, level, log, count):
        super().__init__(
            f"a_counts mismatch at level {level}: log {log} vs count {count}")
        self.level, self.log, self.count = level, log, count


class BudgetExceeded(RuntimeError):
    """An enumeration or window materialization would exceed its cap."""


class EmptySlot(RuntimeError):
    """A construction step found no candidate symbol position (invalid tower)."""


class InconclusiveTail(RuntimeError):
    """The tower declares no tail behavior, so a limit cannot be certified."""


class UnknownCheck(KeyError):
    """verify was asked for a check name that is not registered."""

    def __str__(self):
        # KeyError.__str__ is repr(key); surface the message verbatim
        return Exception.__str__(self)
