"""Exception types, the argument checks and the record bases that several modules share."""


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


class _Record:
    """A small record whose fields are its ``__slots__``.

    Two records are equal when they are of one class and their fields are
    equal; the repr names each field but those in ``_hidden``.  A record
    that can change is unhashable.
    """

    __slots__ = ()
    _hidden: tuple[str, ...] = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        shown = (
            f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name not in self._hidden
        )
        return f"{self.__class__.__name__}({', '.join(shown)})"


class _FrozenRecord(_Record):
    """A record whose fields are set once, in ``__slots__`` order, by ``__init__``; it hashes."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        return self.__class__, self._fields()
