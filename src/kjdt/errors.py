"""Exception types and the argument checks that several modules share."""


class KjdtError(Exception):
    """Base class for all library errors."""


class PosetError(KjdtError):
    """Invalid poset family parameters or malformed shape data."""


class WindowExceeded(KjdtError):
    """A computation on an ambient poset escaped its truncation window."""


class BudgetExceeded(KjdtError):
    """A bounded search ran out of its node or size budget."""


class NonMinusculePoset(KjdtError):
    """Ring operations were requested on a poset that is not minuscule."""


def check_budget(budget) -> None:
    """A search budget is ``None`` (no bound) or a positive int, not a bool; anything else raises."""
    if budget is not None and not (type(budget) is int and budget > 0):
        raise KjdtError(f"a budget must be a positive integer or None, not {budget!r}")


def check_count(name: str, value) -> None:
    """A count such as a size bound or a window side is a non-negative int, not a bool."""
    if not (type(value) is int and value >= 0):
        raise KjdtError(f"{name} must be a non-negative integer, not {value!r}")


def _partition(lam) -> tuple[int, ...]:
    """lam without trailing zeros; a non-partition raises ``PosetError``."""
    lam = tuple(lam)
    if not all(type(x) is int and x >= 0 for x in lam):
        raise PosetError(f"{lam} is not a partition: entries must be nonnegative ints")
    if any(a < b for a, b in zip(lam, lam[1:])):
        raise PosetError(f"{lam} is not a partition: entries must not increase")
    return tuple(x for x in lam if x)  # every zero trails now
