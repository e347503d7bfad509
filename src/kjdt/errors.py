"""Shared exception types."""


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
    """A search budget is ``None`` (no bound) or a positive int; anything else raises."""
    if budget is not None and not (isinstance(budget, int) and budget > 0):
        raise KjdtError(f"a budget must be a positive integer or None, not {budget!r}")
