"""Exception types shared across the package."""


class GraphParseError(ValueError):
    """Malformed graph text. Carries the 1-based line number of the offense."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class BudgetError(RuntimeError):
    """An enumeration was asked to exceed its size budget.

    Raised loudly instead of silently grinding for hours.  Each bound is a
    module constant beside the check it feeds (for example
    `oracles.SUBSET_GUARD` or `forest.ENUMERATION_GUARD`).
    """
