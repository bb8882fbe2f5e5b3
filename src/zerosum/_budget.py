"""The search budget, kept apart from the engine so that a command records
the default budget without loading ``search``."""

from ._record import record
from .groups import _exact_ints


@record(frozen=True)
class SearchBudget:
    """Limits for one search call.

    ``max_nodes`` bounds the states each scan may enter, summed over its
    tasks, and ``max_seconds`` bounds the wall clock of the whole call.
    """

    max_nodes: int = 100_000_000
    max_seconds: float = 300.0

    def __post_init__(self):
        _exact_ints((self.max_nodes,), "max_nodes", ValueError)
        if isinstance(self.max_seconds, bool) or not isinstance(self.max_seconds,
                                                                (int, float)):
            raise ValueError(f"max_seconds {self.max_seconds!r} is not a number")
        # written as "not 0 < s < inf" so that NaN, which compares false, is
        # rejected, and so is infinity, which JSON cannot record
        if self.max_nodes < 1 or not 0 < self.max_seconds < float("inf"):
            raise ValueError("budget fields must be positive finite numbers")


DEFAULT_BUDGET = SearchBudget()
