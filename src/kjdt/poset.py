"""Cominuscule grid posets, straight shapes, and skew shapes.

Boxes are pairs ``(r, c)`` of 1-based grid coordinates ordered
componentwise: ``(r1, c1) <= (r2, c2)`` iff ``r1 <= r2`` and ``c1 <= c2``.
A poset is a finite set of boxes with the induced order.  Straight shapes
(lower order ideals) are encoded as bitmasks over a fixed row-major
ordering of the boxes, so shape arithmetic stays cheap inside exhaustive
tableau searches that hash millions of shapes.

Each family is one row of ``_FAMILIES``.  Bounded families carry the
order-reversing involution ``wx`` used for Poincare duality, which the row
names: a 180 degree rotation or a reflection in the south-west to
north-east diagonal.

The two ambient families (the full grid and the shifted half grid) are
truncated to an explicit window; operations that could escape the window
raise :class:`~kjdt.errors.WindowExceeded` instead of silently clipping.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from functools import partial
from itertools import chain, groupby, islice
from typing import NamedTuple

from .errors import PosetError, _FrozenRecord, _partition

Box = tuple[int, int]


class PosetFamily(_FrozenRecord):
    """Tagged family descriptor: ``kind``, a key of ``_FAMILIES``, plus integer parameters."""

    __slots__ = ("kind", "params")

    def __init__(self, kind: str, params: tuple[int, ...] = ()):
        super().__init__(kind, params)

    def spec(self) -> str:
        if self.params:
            return f"{self.kind}:{','.join(str(p) for p in self.params)}"
        return self.kind


# Most boxes a poset may have.  Every poset the tests, the fixtures and
# ``is_urt``'s padded windows build has at most 144; a larger family is
# refused before more than this many of its boxes are listed.
MAX_BOXES = 4096


class _Family(NamedTuple):
    """One row of the family table; the functions take the family's parameters."""

    least: tuple[int, ...]  # least value of each parameter; its length is the arity
    boxes: Callable[..., Iterable[Box]]  # the boxes, listed lazily
    wx: Callable[..., str | None]  # "rotate", "reflect", or None for an ambient window
    minuscule: bool
    reading: str | None  # a tableau's word: "row", "doubled" (of its doubling) or None


def _rectangle(rows: int, cols: int) -> Iterable[Box]:
    return ((r, c) for r in range(1, rows + 1) for c in range(1, cols + 1))


def _staircase(n: int) -> Iterable[Box]:
    """The shifted staircase with n rows."""
    return ((r, c) for r in range(1, n + 1) for c in range(r, n + 1))


def _quadric_even(n: int) -> Iterable[Box]:
    """2n boxes: two rows when n is even, a row and a column when n is odd."""
    first = ((1, c) for c in range(1, n + 1))
    if n % 2 == 0:
        return chain(first, ((2, c) for c in range(n - 1, 2 * n - 1)))
    return chain(first, [(2, n - 1), (2, n)], ((r, n) for r in range(3, n + 1)))


def _spans(rows: dict[int, tuple[int, int]]) -> Iterable[Box]:
    """The boxes of ``{row: (first col, last col)}``."""
    return ((r, c) for r, (a, b) in rows.items() for c in range(a, b + 1))


# The exceptional posets of E6 (16 boxes) and E7 (27 boxes), exactly embedded.
_E6_ROWS = {1: (1, 4), 2: (3, 6), 3: (3, 6), 4: (5, 8)}
_E7_ROWS = {
    1: (1, 5), 2: (4, 8), 3: (4, 8), 4: (6, 8),
    5: (7, 9), 6: (7, 9), 7: (9, 9), 8: (9, 9), 9: (9, 9),
}

_FAMILIES = {
    "a": _Family((1, 1), _rectangle, lambda m, k: "rotate", True, "row"),
    "og": _Family((2,), lambda n: _staircase(n - 1), lambda n: "reflect", True, "doubled"),
    "lg": _Family((1,), _staircase, lambda n: "reflect", False, None),
    "qodd": _Family((1,), lambda n: _rectangle(1, 2 * n - 1), lambda n: "rotate", False, None),
    "qeven": _Family((2,), _quadric_even, lambda n: "reflect" if n % 2 else "rotate", True, None),
    "e6": _Family((), lambda: _spans(_E6_ROWS), lambda: "rotate", True, None),
    "e7": _Family((), lambda: _spans(_E7_ROWS), lambda: "reflect", True, None),
    "grid": _Family((1, 1), _rectangle, lambda rows, cols: None, False, "row"),
    "shifted": _Family((1,), _staircase, lambda cols: None, False, "doubled"),
}


def _family_row(family: PosetFamily) -> _Family:
    """The table row of a family; raises ``PosetError`` unless the parameters are a tuple
    of ints (no bool), one per parameter of the row, each at least its least value."""
    kind, params = family.kind, family.params
    row = _FAMILIES.get(kind) if type(kind) is str else None
    if row is None:
        raise PosetError(f"unknown poset family {kind!r}")
    if type(params) is not tuple:
        raise PosetError(f"{kind} poset parameters are a tuple, not {params!r}")
    if len(params) != len(row.least):
        raise PosetError(f"{kind} poset takes {len(row.least)} parameter(s), got {len(params)}")
    if not all(type(p) is int and p >= least for p, least in zip(params, row.least)):
        raise PosetError(f"{kind} poset parameters are ints >= {row.least}, got {params!r}")
    return row


class MinusculePoset:
    """A finite set of grid boxes with the componentwise order.

    Boxes are stored in row-major order; sets of boxes (shapes, tableau
    supports) are bitmasks over that ordering.  All derived structure
    (covers, heights, the ``wx`` involution) is computed once at
    construction, and instances are immutable and safe to share.  Geometry
    that depends only on a mask (neighbor unions, skew presentations and
    their slide starts, greedy layers, the shapes above an ideal, class
    supports) is memoised per poset on first use, each memo holding at
    most ``MEMO_CAP`` entries.
    The family's row of ``_FAMILIES`` gives ``is_minuscule``,
    ``is_ambient`` (no ``wx`` rule), ``wx`` and ``reading``.
    """

    def __init__(self, family: PosetFamily):
        self.family = family
        row = _family_row(family)
        boxes = sorted(islice(row.boxes(*family.params), MAX_BOXES + 1))
        if len(boxes) > MAX_BOXES:
            raise PosetError(f"poset {family.spec()} has more than {MAX_BOXES} boxes")
        self.boxes: tuple[Box, ...] = tuple(boxes)
        self.n = len(boxes)
        self.index: dict[Box, int] = {b: i for i, b in enumerate(boxes)}
        self.is_minuscule = row.minuscule
        self.reading = row.reading
        wx_rule = row.wx(*family.params)
        self.is_ambient = wx_rule is None

        # The covers of a box are its grid neighbours (r - 1, c) and (r, c - 1)
        # in the poset.  Row-major order is a linear extension, so the inclusive
        # down/up sets (below[i] = {j : box_j <= box_i}) take one pass each way.
        index = self.index
        down = [[index[b] for b in ((r - 1, c), (r, c - 1)) if b in index] for r, c in boxes]
        up: list[list[int]] = [[] for _ in boxes]
        below, above, heights = [0] * self.n, [0] * self.n, [0] * self.n
        for j, covered in enumerate(down):
            below[j] = 1 << j
            for i in covered:
                up[i].append(j)
                below[j] |= below[i]
            heights[j] = 1 + max((heights[i] for i in covered), default=0)
        for i in reversed(range(self.n)):
            above[i] = 1 << i
            for j in up[i]:
                above[i] |= above[j]
        self.below: tuple[int, ...] = tuple(below)
        self.above: tuple[int, ...] = tuple(above)
        self.up: tuple[tuple[int, ...], ...] = tuple(tuple(v) for v in up)
        self.down: tuple[tuple[int, ...], ...] = tuple(tuple(v) for v in down)
        self.covers: tuple[int, ...] = tuple(sum(1 << i for i in v) for v in down)
        self.nbr_mask: tuple[int, ...] = tuple(
            sum(1 << j for j in up[i] + down[i]) for i in range(self.n)
        )
        self.heights: tuple[int, ...] = tuple(heights)
        self._minimal_mask = sum(1 << j for j, covered in enumerate(down) if not covered)

        self.wx: tuple[int, ...] | None = None
        if wx_rule is not None:
            max_r = max(r for r, _ in boxes)
            max_c = max(c for _, c in boxes)
            if wx_rule == "rotate":
                image = [(max_r + 1 - r, max_c + 1 - c) for r, c in boxes]
            else:
                side = max(max_r, max_c)
                image = [(side + 1 - c, side + 1 - r) for r, c in boxes]
            self.wx = tuple(self.index[b] for b in image)

        self.full_mask = (1 << self.n) - 1
        rows = groupby(range(self.n), key=lambda i: boxes[i][0])  # boxes are sorted
        self.row_boxes: dict[int, tuple[int, ...]] = {r: tuple(g) for r, g in rows}
        self.row_numbers: tuple[int, ...] = tuple(self.row_boxes)
        self._expand_cache = _Memo(partial(_union, self.nbr_mask))
        self._skew_memo = _Memo(self._skew_entry)
        self._layer_memo = _Memo(self._layers)
        self._above_memo = _Memo(lambda lam: tuple(self.ideals_between(lam, self.full_mask)))
        self._minimal_memo = _Memo(self._minimal_levels)
        self.class_supports_memo: dict[tuple[int, int | None], Mapping[int, int]] = {}

    # -- basic queries ---------------------------------------------------

    def __repr__(self):
        return f"MinusculePoset({self.family.spec()!r}, {self.n} boxes)"

    def __eq__(self, other):
        return isinstance(other, MinusculePoset) and self.family == other.family

    def __hash__(self):
        return hash(self.family)

    def leq(self, i: int, j: int) -> bool:
        return bool(self.below[j] & (1 << i))

    def comparable(self, i: int, j: int) -> bool:
        return bool((self.below[j] | self.above[j]) & (1 << i))

    def down_closure(self, mask: int) -> int:
        """Lower order ideal generated by the boxes of ``mask``."""
        return _union(self.below, mask)

    def up_closure(self, mask: int) -> int:
        """Upper order ideal generated by the boxes of ``mask``."""
        return _union(self.above, mask)

    def expand_neighbors(self, mask: int) -> int:
        """Union of Hasse neighbors of all boxes in ``mask`` (cached)."""
        return self._expand_cache[mask]

    def is_ideal(self, mask: int) -> bool:
        return self.down_closure(mask) == mask

    def maximal_boxes(self, mask: int) -> list[int]:
        """Boxes of ``mask`` with no cover inside ``mask``: those no box of ``mask`` covers."""
        return list(bits(mask & ~_union(self.covers, mask)))

    def skew_geometry(
        self, support: int
    ) -> tuple[int, int, tuple[int, ...], tuple[int, ...]]:
        """``(outer, inner, forward starts, reverse starts)`` of a support (memoised).

        ``outer`` is the ideal the support generates and ``inner`` its
        boxes outside the support.  The forward starts are the nonempty
        subsets of the maximal boxes of ``inner``, the reverse starts the
        nonempty subsets of the minimal absent boxes of ``outer``: every
        slide a breadth-first closure applies to a state with this support.
        """
        return self._skew_memo[support]

    def _skew_entry(self, support: int) -> tuple[int, int, tuple[int, ...], tuple[int, ...]]:
        outer = self.down_closure(support)
        inner = outer & ~support
        return (
            outer,
            inner,
            tuple(_nonempty_subsets(self.maximal_boxes(inner))),
            tuple(_nonempty_subsets(self.minimal_absent_boxes(outer))),
        )

    def greedy_layers(self, inner: int) -> tuple[int, ...]:
        """Maximal-box layers peeled off the ideal ``inner``, outermost first (memoised).

        Greedy rectification slides from each layer in turn.
        """
        return self._layer_memo[inner]

    def _layers(self, inner: int) -> tuple[int, ...]:
        layers = []
        rest = inner
        while rest:
            top = rest & ~_union(self.covers, rest)
            layers.append(top)
            rest &= ~top
        return tuple(layers)

    def _minimal_levels(self, ideal: int) -> tuple[int, ...]:
        """Level masks of the minimal tableau of the ideal: box i holds ``heights[i]``.

        Every box below a box of an ideal is in it, so the longest chain
        inside it that ends at box i is its height, and every height up
        to the top occurs.
        """
        heights = self.heights
        levels = [0] * max((heights[i] for i in bits(ideal)), default=0)
        for i in bits(ideal):
            levels[heights[i] - 1] |= 1 << i
        return tuple(levels)

    def ideals_between(self, lo: int, hi: int) -> list[int]:
        """Every order ideal ``m`` with ``lo <= m <= hi`` (as box sets).

        Breadth-first from the ideal generated by ``lo``, adding one
        minimal absent box of ``hi`` at a time, so smaller ideals come
        first; empty when that ideal does not fit inside ``hi``.
        """
        start = self.down_closure(lo)
        if start & ~hi:
            return []
        below = self.below
        found = [start]
        seen = {start}
        for mask in found:  # grows while iterating: a queue
            for i in bits(hi & ~mask):
                grown = mask | (1 << i)
                if not below[i] & ~grown and grown not in seen:
                    seen.add(grown)
                    found.append(grown)
        return found

    def minimal_absent_boxes(self, mask: int) -> list[int]:
        """Minimal boxes of the complement of the ideal ``mask``.

        Such a box is a minimal box of the poset or covers a box of
        ``mask``, so only those candidates are tested.
        """
        below = self.below
        candidates = (self._expand_cache[mask] | self._minimal_mask) & ~mask
        return [i for i in bits(candidates) if below[i] & ~mask == 1 << i]

    # -- shapes ----------------------------------------------------------

    def shape(self, rows: "list[int] | tuple[int, ...] | str") -> "Shape":
        """Shape from its partition view (row lengths, or a text literal)."""
        if isinstance(rows, str):
            rows = [parse_entry(t, "shape") for t in rows.split(",") if t.strip()]
        rows = _partition(rows)
        if len(rows) > len(self.row_numbers):
            raise PosetError(f"shape {rows} has more rows than the poset")
        mask = 0
        for k, length in enumerate(rows):
            row = self.row_boxes[self.row_numbers[k]]
            if length > len(row):
                raise PosetError(f"row {k + 1} of shape {rows} exceeds the poset row")
            for i in row[:length]:
                mask |= 1 << i
        if not self.is_ideal(mask):
            raise PosetError(f"shape {rows} is not a lower order ideal here")
        return Shape(self, mask)

    def empty_shape(self) -> "Shape":
        return Shape(self, 0)

    def row_lengths(self, mask: int) -> tuple[int, ...]:
        lens = []
        for r in self.row_numbers:
            lens.append(sum(1 for i in self.row_boxes[r] if mask & (1 << i)))
        while lens and lens[-1] == 0:
            lens.pop()
        return tuple(lens)

    def to_json(self) -> dict:
        return {
            "family": self.family.kind,
            "params": list(self.family.params),
            "rows": [
                [list(self.boxes[i]) for i in self.row_boxes[r]]
                for r in self.row_numbers
            ],
        }


class Shape:
    """A lower order ideal of a poset, i.e. the index of a Schubert class."""

    __slots__ = ("poset", "mask", "size")

    def __init__(self, poset: MinusculePoset, mask: int):
        self.poset = poset
        self.mask = mask
        self.size = mask.bit_count()

    @property
    def row_lengths(self) -> tuple[int, ...]:
        return self.poset.row_lengths(self.mask)

    def boxes(self) -> list[Box]:
        return [self.poset.boxes[i] for i in bits(self.mask)]

    def __eq__(self, other):
        return (
            isinstance(other, Shape)
            and self.poset is other.poset
            and self.mask == other.mask
        )

    def __hash__(self):
        return hash((id(self.poset), self.mask))

    def __le__(self, other: "Shape") -> bool:
        return (self.mask | other.mask) == other.mask

    def __repr__(self):
        return f"Shape({self.literal()!r})"

    def literal(self) -> str:
        return ",".join(str(x) for x in self.row_lengths)

    def dual(self) -> "Shape":
        """Poincare dual shape: the complement of the ``wx`` image."""
        wx = self.poset.wx
        if wx is None:
            raise PosetError("dual shapes need a bounded poset")
        image = 0
        for i in bits(self.mask):
            image |= 1 << wx[i]
        return Shape(self.poset, self.poset.full_mask & ~image)


class SkewShape(_FrozenRecord):
    """A nested pair of straight shapes; the support is outer minus inner."""

    __slots__ = ("outer", "inner")

    def __init__(self, outer: Shape, inner: Shape):
        if outer.poset is not inner.poset:
            raise PosetError("skew shape needs both shapes on one poset")
        if inner.mask & ~outer.mask:
            raise PosetError("inner shape is not contained in outer shape")
        super().__init__(outer, inner)

    @property
    def mask(self) -> int:
        return self.outer.mask & ~self.inner.mask

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def __repr__(self):
        return f"SkewShape({self.outer.literal()!r}/{self.inner.literal()!r})"


def parse_entry(token: str, what: str) -> int:
    """One integer entry of a text literal; ``PosetError`` names a bad one."""
    try:
        return int(token)
    except ValueError:
        raise PosetError(f"bad {what} entry {token.strip()!r}") from None


# Entries kept in each per-poset memo; a full memo is emptied and refilled.
MEMO_CAP = 1 << 14


def remember(memo: dict, key, value):
    """Store ``value`` under ``key`` in a memo bounded by ``MEMO_CAP``."""
    if len(memo) >= MEMO_CAP:
        memo.clear()
    memo[key] = value
    return value


class _Memo(dict):
    """``memo[key]``: ``fill(key)``, computed on the first read of ``key``.

    A miss fills the memo through ``remember``, so it stays bounded by
    ``MEMO_CAP`` and every read is a subscript (the slide engine's makes
    no call at all).
    """

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        return remember(self, key, self.fill(key))


def _nonempty_subsets(items: list[int]):
    """Masks of the nonempty subsets of the boxes ``items``."""
    n = len(items)
    for pick in range(1, 1 << n):
        mask = 0
        p = pick
        while p:
            b = p & -p
            mask |= 1 << items[b.bit_length() - 1]
            p ^= b
        yield mask


def _union(table, mask: int) -> int:
    """Union of ``table[i]`` over the boxes ``i`` of ``mask``."""
    out = 0
    while mask:
        b = mask & -mask
        out |= table[b.bit_length() - 1]
        mask ^= b
    return out


def bits(mask: int):
    """Iterate set bit positions of ``mask`` in increasing order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


# -- family constructors -------------------------------------------------

def type_a(m: int, k: int) -> MinusculePoset:
    return build_poset(PosetFamily("a", (m, k)))


def max_orthogonal(n: int) -> MinusculePoset:
    return build_poset(PosetFamily("og", (n,)))


def lagrangian(n: int) -> MinusculePoset:
    return build_poset(PosetFamily("lg", (n,)))


def quadric_odd(n: int) -> MinusculePoset:
    return build_poset(PosetFamily("qodd", (n,)))


def quadric_even(n: int) -> MinusculePoset:
    return build_poset(PosetFamily("qeven", (n,)))


def cayley_plane() -> MinusculePoset:
    return build_poset(PosetFamily("e6"))


def freudenthal() -> MinusculePoset:
    return build_poset(PosetFamily("e7"))


def ambient_grid(rows: int, cols: int) -> MinusculePoset:
    return build_poset(PosetFamily("grid", (rows, cols)))


def ambient_shifted(cols: int) -> MinusculePoset:
    return build_poset(PosetFamily("shifted", (cols,)))


# Unbounded on purpose: shapes, tableaux and ring elements compare posets
# with ``is``, so emptying it would split one poset into two; it grows only
# with the number of distinct families and windows built.
_POSET_CACHE: dict[PosetFamily, MinusculePoset] = {}


def build_poset(family: PosetFamily) -> MinusculePoset:
    """Build (and cache) the poset of a family descriptor, checked before the cache
    is read: ``True == 1``, so ``a:True,2`` would otherwise get the poset of ``a:1,2``."""
    _family_row(family)
    try:
        return _POSET_CACHE[family]
    except KeyError:
        poset = MinusculePoset(family)
        _POSET_CACHE[family] = poset
        return poset


def parse_poset(spec: str) -> MinusculePoset:
    """Parse the CLI mini-language, e.g. ``a:2,2``, ``og:5``, ``e6``."""
    spec = spec.strip().lower()
    if ":" in spec:
        kind, _, rest = spec.partition(":")
        try:
            params = tuple(int(t) for t in rest.split(","))
        except ValueError as exc:
            raise PosetError(f"bad poset parameters in {spec!r}") from exc
    else:
        kind, params = spec, ()
    return build_poset(PosetFamily(kind, params))


# -- shape enumeration and strips ----------------------------------------

def enumerate_shapes(poset: MinusculePoset) -> list[Shape]:
    """All straight shapes, each once, ordered by size then row lengths."""
    _check_type(MinusculePoset, poset=poset)
    if poset.is_ambient:
        raise PosetError("shape enumeration is only meaningful on bounded posets")
    shapes = [Shape(poset, m) for m in poset.ideals_between(0, poset.full_mask)]
    shapes.sort(key=lambda s: (s.size, s.row_lengths))
    return shapes


def _check_type(kind: type | tuple[type, ...], **arguments) -> None:
    """Refuse an argument that is not a ``kind`` with a ``PosetError`` that names it.

    The arguments come by name; ``kind`` is a type or, as for
    ``isinstance``, a tuple of types.
    """
    for name, value in arguments.items():
        if not isinstance(value, kind):
            kinds = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
            raise PosetError(f"{name} must be a {kinds}, not {value!r}")


def rook_strips_over(shape: Shape) -> list[Shape]:
    """Shapes ``nu >= shape`` whose added boxes are pairwise incomparable.

    Such boxes are minimal absent boxes of ``shape`` (a box that becomes
    minimal only once another is added sits above it), and any set of
    those extends ``shape`` to an ideal: the strips are ``shape`` and
    ``shape | s`` for each reverse slide start ``s`` of ``shape``.
    """
    _check_type(Shape, shape=shape)
    poset = shape.poset
    starts = poset.skew_geometry(shape.mask)[3]
    shapes = [Shape(poset, shape.mask | s) for s in (0, *starts)]
    shapes.sort(key=lambda s: (s.size, s.row_lengths))
    return shapes
