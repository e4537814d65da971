"""Enumeration and window caps.

Every exhaustive walk over a fundamental domain goes through check_enum, and
every materialized symbol window through check_window.  Exceeding a cap raises
BudgetExceeded instead of silently degrading to floats or samples.  A skeleton
holds one Budget for everything computed from it; a function that sees only
a tower takes one, by default Budget(), but a tower op takes none: a section
is one index's worth of elements or lies in a domain its caller charged.
"""

from dataclasses import dataclass

from .errors import BudgetExceeded


@dataclass(frozen=True)
class Budget:
    enum: int = 1 << 22
    window: int = 1 << 28

    def check_enum(self, size, what):
        if size > self.enum:
            raise BudgetExceeded(
                f"{what} needs {size} elements, budget is {self.enum}")

    def allows_window(self, size):
        return size <= self.window

    def check_window(self, size, what):
        if not self.allows_window(size):
            raise BudgetExceeded(
                f"{what} needs {size} cells, budget is {self.window}")
