"""Exception types and the one integer-argument check, shared across the package."""

from operator import index


class ConsistencyError(RuntimeError):
    """Two independent computations of the same quantity disagreed.

    Raised by internal cross-checks; indicates a bug, never bad input.
    """


def _integer(value, name: str, least=None) -> int:
    """value as an int (True is 1); ValueError naming it if not, or if below `least`."""
    try:
        value = index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        bound = "non-negative" if least == 0 else f"at least {least}"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return value
