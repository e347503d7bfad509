"""Increasing tableaux and the K-theoretic jeu de taquin toolkit.

A tableau is an integer filling of a finite set of poset boxes that is
strictly increasing along the order.  The support set determines a
canonical skew presentation: the outer shape is the lower order ideal it
generates and the inner shape is the rest of that ideal.  Tableaux are
immutable and stored as "levels": for each value, the bitmask of boxes
carrying it.  Equality, hashing, slides and closures all use levels.

A swap between a value and the moving holes is four mask operations,
which keeps exhaustive class enumeration tractable in pure Python.
Values may repeat across incomparable boxes; slides duplicate entries
exactly when several holes border the same value, and the set of values
present is preserved by every slide.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BudgetExceeded, PosetError, WindowExceeded
from .poset import (
    Box,
    MinusculePoset,
    Shape,
    SkewShape,
    ambient_grid,
    ambient_shifted,
    bits,
    parse_entry,
)


class _Dot:
    __slots__ = ()

    def __repr__(self):
        return "•"


DOT = _Dot()

Levels = tuple[tuple[int, int], ...]  # ((value, boxmask), ...) sorted by value

DEFAULT_BUDGET = 200000  # node budget of bounded searches when none is given


class Tableau:
    """Strictly increasing filling of a skew box set, keyed by its levels."""

    __slots__ = ("poset", "mask", "_levels", "_values", "_hash")

    def __init__(self, poset: MinusculePoset, mask: int, values: tuple[int, ...]):
        values = tuple(values)
        d: dict[int, int] = {}
        for i, v in zip(bits(mask), values):
            d[v] = d.get(v, 0) | (1 << i)
        self.poset = poset
        self.mask = mask
        self._levels: Levels = tuple(sorted(d.items()))
        self._values: tuple[int, ...] | None = values
        self._hash: int | None = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_dict(cls, poset: MinusculePoset, filling: dict[Box, int]) -> "Tableau":
        mask = 0
        for box in filling:
            if box not in poset.index:
                raise WindowExceeded(f"box {box} is outside the poset")
            mask |= 1 << poset.index[box]
        values = tuple(filling[poset.boxes[i]] for i in bits(mask))
        tab = cls(poset, mask, values)
        tab.validate()
        return tab

    @classmethod
    def from_levels(cls, poset: MinusculePoset, levels: Levels) -> "Tableau":
        """Wrap a levels key (sorted by value, no empty mask) without copying it."""
        tab = cls.__new__(cls)
        tab.poset = poset
        tab.mask = levels_support(levels)
        tab._levels = levels
        tab._values = None
        tab._hash = None
        return tab

    def validate(self) -> None:
        poset, mask = self.poset, self.mask
        inner = self.inner_mask()
        if not poset.is_ideal(inner):
            raise PosetError("support is not a skew shape (not order convex)")
        val = self.value_at
        for i in bits(mask):
            for j in poset.down[i]:
                if mask & (1 << j) and val(j) >= val(i):
                    raise PosetError(
                        f"not increasing at {self.poset.boxes[i]}: "
                        f"{val(j)} !< {val(i)}"
                    )

    # -- structure -------------------------------------------------------

    def outer_mask(self) -> int:
        return self.poset.down_closure(self.mask)

    def inner_mask(self) -> int:
        return self.outer_mask() & ~self.mask

    @property
    def shape(self) -> SkewShape:
        return SkewShape(
            Shape(self.poset, self.outer_mask()), Shape(self.poset, self.inner_mask())
        )

    @property
    def is_straight(self) -> bool:
        return self.inner_mask() == 0

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    @property
    def values(self) -> tuple[int, ...]:
        """One value per box of ``mask``, in the order of ``bits(mask)``."""
        if self._values is None:
            val_at = {}
            for v, m in self._levels:
                for i in bits(m):
                    val_at[i] = v
            self._values = tuple(val_at[i] for i in bits(self.mask))
        return self._values

    def value_at(self, i: int) -> int:
        offset = (self.mask & ((1 << i) - 1)).bit_count()
        return self.values[offset]

    def as_dict(self) -> dict[Box, int]:
        return {
            self.poset.boxes[i]: v for i, v in zip(bits(self.mask), self.values)
        }

    def levels(self) -> Levels:
        return self._levels

    def value_set(self) -> set[int]:
        return {v for v, _ in self._levels}

    def row_word(self) -> tuple[int, ...]:
        """Rows read left to right, starting with the bottom row."""
        return _row_word(self.as_dict())

    def straight_rows(self) -> tuple[tuple[int, ...], ...]:
        """Value rows of a straight tableau, poset-independent."""
        if not self.is_straight:
            raise PosetError("straight_rows needs a straight tableau")
        return tuple(value_rows(self.as_dict()).values())

    def restrict(self, lo: int, hi: int) -> "Tableau":
        """Sub-tableau of boxes whose values lie in [lo, hi]."""
        filling = {b: v for b, v in self.as_dict().items() if lo <= v <= hi}
        return Tableau.from_dict(self.poset, filling)

    def pack(self) -> "Tableau":
        """Order-isomorphic copy with values renumbered to 1..d."""
        packed = tuple((k, m) for k, (_, m) in enumerate(self._levels, start=1))
        return Tableau.from_levels(self.poset, packed)

    # -- identity --------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Tableau)
            and self.poset is other.poset
            and self._levels == other._levels
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((id(self.poset), self._levels))
        return self._hash

    def __repr__(self):
        return f"Tableau({self.literal()!r})"

    # -- text forms --------------------------------------------------------

    def literal(self) -> str:
        """Rows separated by '/', '.' marking inner boxes."""
        poset = self.poset
        outer = self.outer_mask()
        inner = self.inner_mask()
        parts = []
        for r in poset.row_numbers:
            row = poset.row_boxes[r]
            toks = []
            for i in row:
                if inner & (1 << i):
                    toks.append(".")
                elif self.mask & (1 << i):
                    toks.append(str(self.value_at(i)))
            if not toks and not any(outer & (1 << i) for i in row):
                break
            parts.append(",".join(toks))
        while parts and not parts[-1]:
            parts.pop()
        return "/".join(parts)

    def render(self) -> str:
        """Column-aligned ASCII grid with '.' for inner boxes."""
        cells = {self.poset.boxes[i]: str(v) for i, v in zip(bits(self.mask), self.values)}
        for i in bits(self.inner_mask()):
            cells[self.poset.boxes[i]] = "."
        if not cells:
            return "(empty)"
        width = max(len(s) for s in cells.values())
        rows = sorted({r for r, _ in cells})
        cols = range(min(c for _, c in cells), max(c for _, c in cells) + 1)
        lines = []
        for r in rows:
            line = " ".join(
                cells.get((r, c), "").rjust(width) for c in cols
            ).rstrip()
            lines.append(line)
        return "\n".join(lines)


def value_rows(filling: dict[Box, object]) -> dict[int, tuple]:
    """Values of a ``{box: value}`` filling by row number, top row first.

    Each row lists its values left to right; empty rows are absent.
    """
    rows: dict[int, list] = {}
    for (r, _), v in sorted(filling.items()):
        rows.setdefault(r, []).append(v)
    return {r: tuple(vs) for r, vs in rows.items()}


def _row_word(filling: dict[Box, int]) -> tuple[int, ...]:
    return tuple(v for row in reversed(value_rows(filling).values()) for v in row)


def parse_tableau(poset: MinusculePoset, literal: str) -> Tableau:
    """Parse the row literal form, e.g. ``".,.,.,1/.,2,4,6/3,4,5"``."""
    filling: dict[Box, int] = {}
    rows = literal.split("/") if literal.strip() else []
    if len(rows) > len(poset.row_numbers):
        raise WindowExceeded("literal has more rows than the poset")
    for k, row in enumerate(rows):
        boxes = poset.row_boxes[poset.row_numbers[k]]
        toks = [t.strip() for t in row.split(",")] if row.strip() else []
        if len(toks) > len(boxes):
            raise WindowExceeded(f"row {k + 1} of literal exceeds the poset row")
        for i, tok in zip(boxes, toks):
            if tok != ".":
                filling[poset.boxes[i]] = parse_entry(tok, "tableau")
    return Tableau.from_dict(poset, filling)


def tableau_to_json(tab: Tableau) -> dict:
    fam = tab.poset.family
    return {
        "poset": {"family": fam.kind, "params": list(fam.params)},
        "inner": list(tab.poset.row_lengths(tab.inner_mask())),
        "outer": list(tab.poset.row_lengths(tab.outer_mask())),
        "rows": [list(row) for row in value_rows(tab.as_dict()).values()],
    }


def tableau_from_json(data: dict, poset: MinusculePoset | None = None) -> Tableau:
    from .poset import PosetFamily, build_poset

    if poset is None:
        p = data["poset"]
        poset = build_poset(PosetFamily(p["family"], tuple(p["params"])))
    filling: dict[Box, int] = {}
    inner = list(data.get("inner", []))
    for k, row_vals in enumerate(data["rows"]):
        boxes = poset.row_boxes[poset.row_numbers[k]]
        skip = inner[k] if k < len(inner) else 0
        for i, v in zip(boxes[skip:], row_vals):
            filling[poset.boxes[i]] = v
    return Tableau.from_dict(poset, filling)


# -- the slide engine ------------------------------------------------------

def _slide_levels(
    poset: MinusculePoset, levels: Levels, dots: int, forward: bool
) -> tuple[Levels, int]:
    """Run the swap composite of one jeu de taquin slide.

    Forward slides sweep values in increasing order, reverse slides in
    decreasing order.  Returns the new levels and the final hole mask.
    Each swap is an involution, so the slide the other way from the
    returned holes gives back ``(levels, dots)``; and the union of the
    level masks with the holes never changes, so the new levels fill
    ``(levels_support(levels) | dots) & ~holes``.
    """
    expand = poset.expand_neighbors
    near = expand(dots)  # boxes next to a hole; looked up again only after a move
    out = []
    seq = levels if forward else reversed(levels)
    for pair in seq:
        m = pair[1]
        moved = m & near
        if moved:
            # Adjacency is symmetric: a hole next to m is next to a box of moved.
            recv = dots & expand(moved)
            pair = (pair[0], (m & ~moved) | recv)
            dots = (dots & ~recv) | moved
            near = expand(dots)
        out.append(pair)
    if not forward:
        out.reverse()
    return tuple(out), dots


def swap(poset: MinusculePoset, filling: dict, s, s2) -> dict:
    """One application of the basic swap between values ``s`` and ``s2``.

    Total on fillings: takes and returns a plain ``{box: value}`` dict
    (values may include ``DOT``), since a single swap need not produce an
    increasing tableau.  Boxes holding ``s`` with an ``s2``-neighbor
    become ``s2`` and vice versa, simultaneously; neighbors are Hasse
    cover pairs of the poset.
    """
    if hasattr(filling, "as_dict"):
        filling = filling.as_dict()
    marks = dict(filling)
    s_boxes = {b for b, v in filling.items() if v is s or v == s}
    s2_boxes = {b for b, v in filling.items() if v is s2 or v == s2}

    def neighbors(box):
        i = poset.index[box]
        return [poset.boxes[j] for j in poset.up[i] + poset.down[i]]

    for b in s_boxes:
        if any(n in s2_boxes for n in neighbors(b)):
            marks[b] = s2
    for b in s2_boxes:
        if any(n in s_boxes for n in neighbors(b)):
            marks[b] = s
    return marks


def _boxes_to_mask(poset: MinusculePoset, boxes) -> int:
    if isinstance(boxes, int):
        return boxes
    mask = 0
    for b in boxes:
        if b not in poset.index:
            raise WindowExceeded(f"box {b} is outside the poset")
        mask |= 1 << poset.index[b]
    return mask


def _is_antichain(poset: MinusculePoset, mask: int) -> bool:
    for i in bits(mask):
        if (poset.below[i] | poset.above[i]) & mask & ~(1 << i):
            return False
    return True


def _check_slide_start(poset, support: int, c_mask: int, forward: bool):
    """Starting holes must be legal under some presentation of the shape.

    A start set is an antichain disjoint from the support, sitting weakly
    below the values for forward slides (maximal boxes of some valid
    inner shape) and strictly outside the lower closure for reverse
    slides.  The hook condition ensures the padded inner or outer shape
    is still an order ideal.
    """
    if not c_mask:
        raise PosetError("slides need a nonempty starting set")
    if c_mask & support:
        raise PosetError("slide start overlaps the tableau")
    if not _is_antichain(poset, c_mask):
        raise PosetError("slide start must be an antichain")
    dc = poset.down_closure(support)
    up = poset.up_closure(support)
    inner = dc & ~support
    inner_max = sum(1 << i for i in poset.maximal_boxes(inner))
    for i in bits(c_mask):
        bit = 1 << i
        strict_down = poset.below[i] & ~bit
        if forward:
            if dc & bit:
                if not inner_max & bit:
                    raise PosetError(
                        "forward start must be maximal in the inner shape"
                    )
                continue
            if up & bit:
                raise PosetError("forward start cannot sit above the values")
        else:
            if dc & bit:
                raise PosetError("reverse start cannot sit below the values")
        if strict_down & up & ~dc:
            raise PosetError("slide start does not extend to a skew presentation")


def forward_slide(tab: Tableau, start) -> Tableau:
    """Forward slide from ``start``, maximal boxes of a valid inner shape."""
    poset = tab.poset
    c_mask = _boxes_to_mask(poset, start)
    _check_slide_start(poset, tab.mask, c_mask, forward=True)
    levels, _ = _slide_levels(poset, tab.levels(), c_mask, forward=True)
    return Tableau.from_levels(poset, levels)


def reverse_slide(tab: Tableau, start) -> Tableau:
    """Reverse slide from ``start``, minimal boxes outside a valid outer shape."""
    poset = tab.poset
    c_mask = _boxes_to_mask(poset, start)
    _check_slide_start(poset, tab.mask, c_mask, forward=False)
    levels, _ = _slide_levels(poset, tab.levels(), c_mask, forward=False)
    return Tableau.from_levels(poset, levels)


def levels_support(levels: Levels) -> int:
    """The boxes a levels key fills: the union of its masks."""
    mask = 0
    for _, m in levels:
        mask |= m
    return mask


def rect_greedy(tab: Tableau, inner: int | None = None) -> Tableau:
    """Greedy rectification: slide from all maximal inner boxes at once.

    ``inner`` overrides the starting presentation of the inner shape (it
    must contain the canonical inner shape); by default the canonical
    presentation is used.
    """
    poset = tab.poset
    levels = tab.levels()
    pres = poset.skew_geometry(tab.mask)[1] if inner is None else inner
    if pres & tab.mask:
        raise PosetError("presentation inner shape overlaps the filling")
    for c_mask in poset.greedy_layers(pres):
        levels, _ = _slide_levels(poset, levels, c_mask, forward=True)
    result = Tableau.from_levels(poset, levels)
    if not result.is_straight:
        raise PosetError("greedy rectification started from an invalid inner shape")
    return result


def rectify_all(tab: Tableau, budget: int | None = None) -> set[Tableau]:
    """All straight-shape tableaux reachable by forward slides."""
    poset = tab.poset
    start = tab.levels()
    seen = {start}
    frontier = [(start, tab.mask)]
    results: set[Tableau] = set()
    while frontier:
        new = []
        for levels, support in frontier:
            forward_starts = poset.skew_geometry(support)[2]
            if not forward_starts:
                results.add(Tableau.from_levels(poset, levels))
                continue
            for c_mask in forward_starts:
                nxt, holes = _slide_levels(poset, levels, c_mask, forward=True)
                if nxt not in seen:
                    seen.add(nxt)
                    new.append((nxt, (support | c_mask) & ~holes))
                    if budget is not None and len(seen) > budget:
                        raise BudgetExceeded(
                            f"rectify_all exceeded {budget} intermediate tableaux"
                        )
        frontier = new
    return results


@dataclass
class JdtClass:
    """Closure of a tableau under forward and reverse slides."""

    seed: Tableau
    ambient: MinusculePoset
    member_keys: set[Levels] = field(repr=False)
    straight: list[Tableau]
    exhausted: bool
    touched_boundary: bool

    @property
    def size(self) -> int:
        return len(self.member_keys)

    def members(self):
        for levels in self.member_keys:
            yield Tableau.from_levels(self.ambient, levels)

    def __contains__(self, tab: Tableau) -> bool:
        return tab.levels() in self.member_keys


def jdt_class(
    tab: Tableau,
    budget: int | None = None,
    stop_second_straight: bool = False,
) -> JdtClass:
    """Breadth-first closure of ``tab`` under slides inside its poset.

    Each frontier state carries its support and the start that slides it
    back to the state that found it (the holes of that slide, taken in
    the other direction).  That slide would only give back a state
    already seen, so it is skipped.
    """
    poset = tab.poset
    geometry = poset.skew_geometry
    boundary = poset.boundary_mask()
    start = tab.levels()
    seen = {start}
    # (levels, support, start back, whether it slides forward); the seed's 0 skips nothing
    frontier = [(start, tab.mask, 0, True)]
    straight: list[Tableau] = []
    exhausted = True
    touched = False
    while frontier:
        new = []
        for levels, support, back, back_forward in frontier:
            outer, inner, forward_starts, reverse_starts = geometry(support)
            if boundary & outer:
                touched = True
            if inner == 0:
                straight.append(Tableau.from_levels(poset, levels))
                if stop_second_straight and len(straight) > 1:
                    return JdtClass(tab, poset, seen, straight, False, touched)
            for starts, fwd in ((forward_starts, True), (reverse_starts, False)):
                skip = back if fwd == back_forward else 0
                for c_mask in starts:
                    if c_mask == skip:
                        continue
                    nxt, holes = _slide_levels(poset, levels, c_mask, forward=fwd)
                    if nxt not in seen:
                        seen.add(nxt)
                        new.append((nxt, (support | c_mask) & ~holes, holes, not fwd))
            if budget is not None and len(seen) > budget:
                return JdtClass(tab, poset, seen, straight, False, touched)
        frontier = new
    return JdtClass(tab, poset, seen, straight, exhausted, touched)


@dataclass(frozen=True)
class URTVerdict:
    """Outcome of a unique-rectification-target check."""

    status: str  # "certified" | "refuted" | "inconclusive"
    witness: Tableau | None = None
    class_size: int = 0

    def __bool__(self):
        return self.status == "certified"


def increasing_fillings(
    poset: MinusculePoset, lam: int, nu: int, d: int, surjective: bool = True
):
    """Levels keys of the increasing fillings of nu/lam by the values 1..d.

    A filling is a chain of ideals lam = I_0 <= ... <= I_d = nu; the boxes
    of value k are a reverse slide start of I_(k-1) inside nu.  With
    ``surjective`` every value fills at least one box; otherwise a value
    may fill none (an empty step).  A branch is cut when a longer chain of
    boxes, or (surjective only) fewer boxes, than values remain.  The
    order of the fillings is unspecified.
    """
    rest = nu & ~lam
    if surjective and rest.bit_count() < d:
        return
    chain: dict[int, int] = {}  # longest chain in nu starting at a box
    for i in reversed(list(bits(rest))):
        chain[i] = 1 + max((chain[j] for j in poset.up[i] if nu >> j & 1), default=0)
    # deep[r]: boxes that cannot be filled when r values are left.
    deep = [sum(1 << i for i, c in chain.items() if c > r) for r in range(d + 1)]
    if rest & deep[d]:
        return
    geometry = poset.skew_geometry
    key: list[tuple[int, int]] = []

    def rec(ideal: int, left: int):
        if not left:
            yield tuple(key)
            return
        value = d - left + 1
        left -= 1
        if not surjective and not nu & ~ideal & deep[left]:
            yield from rec(ideal, left)
        for step in geometry(ideal)[3]:
            grown = ideal | step
            rest = nu & ~grown
            if step & ~nu or rest & deep[left] or surjective and rest.bit_count() < left:
                continue
            key.append((value, step))
            yield from rec(grown, left)
            key.pop()

    yield from rec(lam, d)


def straight_tableaux_with_values(poset: MinusculePoset, letters, max_rows, max_cols):
    """All straight tableaux in a window using exactly the given value set.

    Each shape's tableaux come in the order of their ``values`` tuples, so
    the URT certificate names the same first refuting witness whatever
    order the enumerator uses.
    """
    letters = sorted(set(letters))
    d = len(letters)
    window = sum(
        1 << i
        for i, (r, c) in enumerate(poset.boxes)
        if r <= max_rows and c <= max_cols
    )
    for mask in poset.ideals_between(0, window)[1:]:
        tabs = [
            Tableau.from_levels(poset, tuple((letters[k - 1], m) for k, m in key))
            for key in increasing_fillings(poset, 0, mask, d)
        ]
        yield from sorted(tabs, key=lambda t: t.values)


def _urt_by_words(tab: Tableau, shifted: bool, budget: int) -> URTVerdict:
    """Certify or refute an ambient URT through word equivalence.

    Any straight tableau sharing the jeu de taquin class of ``tab`` has a
    K-Knuth (weakly, in the shifted case) equivalent row word, hence the
    same letter set, Hecke permutation and monotone subsequence bounds.
    That candidate set is finite; each candidate is compared by bounded
    search, so the verdict stays three-valued.
    """
    from .words import hecke_of_tableau, kknuth_equiv, lds, lis

    rows = doubling(tab).straight_rows() if shifted and tab.size else tab.straight_rows()
    letters = sorted(tab.value_set())
    word = tab.row_word()
    target = hecke_of_tableau(tab)
    nrows, ncols = len(rows), max((len(r) for r in rows), default=0)
    if shifted:
        window = ambient_shifted(max(ncols, 1))
    else:
        window = ambient_grid(max(nrows, 1), max(ncols, 1))
    inv = (lis(word), lds(word)) if not shifted else None
    inconclusive = False
    for cand in straight_tableaux_with_values(window, letters, nrows, ncols):
        if cand.as_dict() == tab.as_dict():
            continue
        if hecke_of_tableau(cand) != target:
            continue
        cword = cand.row_word()
        if not shifted and (lis(cword), lds(cword)) != inv:
            continue
        verdict = kknuth_equiv(cword, word, budget=budget, weak=shifted)
        if verdict.status == "equivalent":
            return URTVerdict("refuted", witness=Tableau.from_dict(tab.poset, cand.as_dict()))
        if verdict.status == "inconclusive":
            inconclusive = True
    if inconclusive:
        return URTVerdict("inconclusive")
    return URTVerdict("certified")


def is_urt(tab: Tableau, pad: int = 2, budget: int | None = None) -> URTVerdict:
    """Decide whether a straight tableau is a unique rectification target.

    On a bounded poset the jeu de taquin class is enumerated exactly.  On
    the ambient grid or shifted posets, a window of ``pad`` extra rows
    and columns is searched first for a refuting second straight member;
    if none appears, the word-equivalence certificate decides between
    ``certified`` and ``inconclusive`` (never trusting the window alone,
    since classes roam past any fixed boundary).
    """
    if not tab.is_straight:
        raise PosetError("URT checks are defined for straight tableaux")
    poset = tab.poset
    if not poset.is_ambient:
        cls = jdt_class(tab, budget=budget, stop_second_straight=True)
        others = [t for t in cls.straight if t != tab]
        if others:
            return URTVerdict("refuted", witness=others[0], class_size=cls.size)
        if not cls.exhausted:
            return URTVerdict("inconclusive", class_size=cls.size)
        return URTVerdict("certified", class_size=cls.size)

    shifted = poset.family.kind == "shifted"
    rows = tab.straight_rows()
    nrows = len(rows)
    ncols = max((len(r) for r in rows), default=0)
    if shifted:
        window = ambient_shifted(ncols + pad)
    else:
        window = ambient_grid(nrows + pad, ncols + pad)
    embedded = Tableau.from_dict(window, tab.as_dict())
    cls = jdt_class(embedded, budget=budget or DEFAULT_BUDGET, stop_second_straight=True)
    others = [t for t in cls.straight if t.as_dict() != embedded.as_dict()]
    if others:
        witness = Tableau.from_dict(poset, others[0].as_dict())
        return URTVerdict("refuted", witness=witness, class_size=cls.size)
    return _urt_by_words(tab, shifted, budget=budget or DEFAULT_BUDGET)


def packed_straight_tableaux(poset: MinusculePoset, shape: Shape):
    """Levels keys of the increasing tableaux of a straight shape with values 1..d."""
    chain = max((poset.heights[i] for i in bits(shape.mask)), default=0)
    for d in range(chain, shape.size + 1):
        yield from increasing_fillings(poset, 0, shape.mask, d)


def urt_census(poset: MinusculePoset, max_size: int | None = None, budget: int | None = None):
    """Classify every straight packed tableau of a bounded poset as URT or not.

    Classes are enumerated once each: all straight members of a class
    share one verdict (certified when the class has a single straight
    member).  Returns a report with the certified tableaux, in no
    specified order, and the refuted ones sorted by size, then literal.
    """
    from .poset import enumerate_shapes

    if poset.is_ambient:
        raise PosetError("the census needs a bounded poset")
    visited: set[Levels] = set()
    certified: list[Tableau] = []
    refuted: list[Tableau] = []
    exhausted = True
    for shape in enumerate_shapes(poset):
        if shape.size == 0 or (max_size is not None and shape.size > max_size):
            continue
        for key in packed_straight_tableaux(poset, shape):
            if key in visited:
                continue
            cls = jdt_class(Tableau.from_levels(poset, key), budget=budget)
            visited.update(cls.member_keys)
            if not cls.exhausted:
                exhausted = False
                continue
            keep = [
                t
                for t in cls.straight
                if max_size is None or t.size <= max_size
            ]
            packed = [t for t in keep if t.pack() == t]
            if len(cls.straight) == 1:
                certified.extend(packed)
            else:
                refuted.extend(packed)
    refuted.sort(key=lambda t: (t.size, t.literal()))
    return {
        "poset": poset.family.spec(),
        "max_size": max_size,
        "certified": certified,
        "refuted": refuted,
        "exhausted": exhausted,
        "all_certified": exhausted and not refuted,
    }


# -- distinguished tableaux ------------------------------------------------

def _skew_mask(shape) -> tuple[MinusculePoset, int]:
    if isinstance(shape, SkewShape):
        return shape.outer.poset, shape.mask
    if isinstance(shape, Shape):
        return shape.poset, shape.mask
    raise PosetError(f"expected a shape, got {shape!r}")


def minimal_tableau(shape) -> Tableau:
    """Fill each box with the longest chain length inside the shape ending there."""
    poset, mask = _skew_mask(shape)
    val = {}
    for i in bits(mask):  # row-major is a linear extension
        val[i] = 1 + max(
            (val[j] for j in poset.down[i] if mask & (1 << j)), default=0
        )
    values = tuple(val[i] for i in bits(mask))
    return Tableau(poset, mask, values)


def maximal_tableau(shape) -> Tableau:
    """Fill each box with minus the longest chain length starting there."""
    poset, mask = _skew_mask(shape)
    chain = {}
    for i in reversed(list(bits(mask))):
        chain[i] = 1 + max(
            (chain[j] for j in poset.up[i] if mask & (1 << j)), default=0
        )
    values = tuple(-chain[i] for i in bits(mask))
    return Tableau(poset, mask, values)


def superstandard(shape: Shape, orientation: str = "row") -> Tableau:
    """Row-wise or column-wise consecutive filling of a straight shape."""
    poset, mask = _skew_mask(shape)
    if poset.down_closure(mask) != mask:
        raise PosetError("superstandard tableaux need a straight shape")
    boxes = [poset.boxes[i] for i in bits(mask)]
    if orientation.startswith("row"):
        order = sorted(boxes)
    elif orientation.startswith("col"):
        order = sorted(boxes, key=lambda rc: (rc[1], rc[0]))
    else:
        raise PosetError(f"unknown orientation {orientation!r}")
    filling = {b: k + 1 for k, b in enumerate(order)}
    return Tableau.from_dict(poset, filling)


def wx_act(tab: Tableau) -> Tableau:
    """The involution T(a) -> -T(wx.a) on tableaux of a bounded poset."""
    wx = tab.poset.wx
    if wx is None:
        raise PosetError("wx action needs a bounded poset")
    filling = {}
    for i, v in zip(bits(tab.mask), tab.values):
        filling[tab.poset.boxes[wx[i]]] = -v
    return Tableau.from_dict(tab.poset, filling)


# -- type B doubling and type A products ------------------------------------

def doubling(tab: Tableau, target: MinusculePoset | None = None) -> Tableau:
    """Union of a shifted tableau with its reflection across the diagonal."""
    kind = tab.poset.family.kind
    if kind not in {"shifted", "og"}:
        raise PosetError("doubling expects a tableau on a shifted poset")
    d = tab.as_dict()
    size = max(max(r, c) for r, c in d) if d else 1
    if target is None:
        target = ambient_grid(size, size)
    filling = {}
    for (r, c), v in d.items():
        filling[(r, c)] = v
        filling[(c, r)] = v
    return Tableau.from_dict(target, filling)


def conjugate(tab: Tableau) -> Tableau:
    """Mirror a grid tableau in the north-west to south-east diagonal."""
    if tab.poset.family.kind not in {"grid", "a"}:
        raise PosetError("conjugate expects a grid tableau")
    d = tab.as_dict()
    rows = max((r for r, _ in d), default=1)
    cols = max((c for _, c in d), default=1)
    target = ambient_grid(cols, rows)
    return Tableau.from_dict(target, {(c, r): v for (r, c), v in d.items()})


def attach_product(s_tab: Tableau, t_tab: Tableau) -> Tableau:
    """S * T: north-east corner of S attached to the south-west corner of T."""
    if not (s_tab.is_straight and t_tab.is_straight):
        raise PosetError("the tableau product is defined for straight tableaux")
    s_rows = s_tab.straight_rows()
    t_rows = t_tab.straight_rows()
    r_t = len(t_rows)
    c_s = max((len(r) for r in s_rows), default=0)
    rows = r_t + len(s_rows)
    cols = c_s + max((len(r) for r in t_rows), default=0)
    window = ambient_grid(max(rows, 1), max(cols, 1))
    filling = {}
    for r, row in enumerate(t_rows, start=1):
        for c, v in enumerate(row, start=c_s + 1):
            filling[(r, c)] = v
    for r, row in enumerate(s_rows, start=r_t + 1):
        for c, v in enumerate(row, start=1):
            filling[(r, c)] = v
    return Tableau.from_dict(window, filling)


def tableau_product(s_tab: Tableau, t_tab: Tableau) -> Tableau:
    """S . T = greedy rectification of S * T."""
    return rect_greedy(attach_product(s_tab, t_tab))


# -- dotted tableaux and resolutions ----------------------------------------

class DottedTableau:
    """Strictly increasing filling with holes all sitting at one level.

    Replacing every dot by k + 1/2 for the witness integer k must give a
    strictly increasing tableau on a hook-closed support.
    """

    def __init__(self, poset: MinusculePoset, filling: dict[Box, object]):
        self.poset = poset
        self.filling = dict(filling)
        self.witness = self._witness()

    def _witness(self) -> int:
        for b, v in self.filling.items():
            if v is DOT:
                continue
            i = self.poset.index[b]
            for j in self.poset.up[i]:
                w = self.filling.get(self.poset.boxes[j])
                if w is not None and w is not DOT and w <= v:
                    raise PosetError(f"integer entries not increasing at {b}")
        dots = [b for b, v in self.filling.items() if v is DOT]
        lo, hi = None, None
        for b in dots:
            i = self.poset.index[b]
            for j in self.poset.down[i] + self.poset.up[i]:
                nb = self.poset.boxes[j]
                v = self.filling.get(nb)
                if v is None or v is DOT:
                    if v is DOT and nb in dots:
                        raise PosetError("comparable dots cannot share a level")
                    continue
                if self.poset.leq(j, i):
                    lo = v if lo is None else max(lo, v)
                else:
                    hi = v if hi is None else min(hi, v)
        for b1 in dots:
            for b2 in dots:
                if b1 != b2 and self.poset.comparable(
                    self.poset.index[b1], self.poset.index[b2]
                ):
                    raise PosetError("comparable dots cannot share a level")
        if lo is not None and hi is not None and lo >= hi:
            raise PosetError("no witness level fits between the dot neighbors")
        return lo if lo is not None else (hi - 1 if hi is not None else 0)

    def as_dict(self):
        return dict(self.filling)

    def dots(self) -> list[Box]:
        return sorted(b for b, v in self.filling.items() if v is DOT)

    def __eq__(self, other):
        return isinstance(other, DottedTableau) and self.filling == other.filling

    def __hash__(self):
        return hash(frozenset(
            (b, "dot" if v is DOT else v) for b, v in self.filling.items()
        ))


class WeakTableau:
    """Weakly increasing filling of a hook-closed grid support."""

    __slots__ = ("filling",)

    def __init__(self, filling: dict[Box, int]):
        self.filling = dict(filling)

    def boxes(self):
        return sorted(self.filling)

    def value(self, box):
        return self.filling[box]

    def row_word(self) -> tuple[int, ...]:
        return _row_word(self.filling)

    def is_weakly_increasing(self) -> bool:
        f = self.filling
        for (r, c), v in f.items():
            if (r, c + 1) in f and f[(r, c + 1)] < v:
                return False
            if (r + 1, c) in f and f[(r + 1, c)] < v:
                return False
        return True

    def __eq__(self, other):
        return isinstance(other, WeakTableau) and self.filling == other.filling

    def __hash__(self):
        return hash(frozenset(self.filling.items()))

    def __repr__(self):
        return f"WeakTableau({self.filling!r})"


def is_hook_closed(boxes) -> bool:
    """North-east hook closure test for a set of grid boxes."""
    s = set(boxes)
    for (r1, c1) in s:
        for (r2, c2) in s:
            if r1 <= r2 and c1 <= c2:
                if not all((r1, c) in s for c in range(c1, c2 + 1)):
                    return False
                if not all((r, c2) in s for r in range(r1, r2 + 1)):
                    return False
    return True


def resolutions(dotted: DottedTableau) -> set[WeakTableau]:
    """All resolutions of a dotted tableau.

    Each dot becomes the maximum of the boxes above and to its left, or
    the minimum of the boxes below and to its right; a dot missing both
    above-left neighbors, or both below-right neighbors, may instead be
    removed together with its box.
    """
    base = {b: v for b, v in dotted.filling.items() if v is not DOT}
    options = []
    for box in dotted.dots():
        r, c = box
        upleft = [base[n] for n in ((r - 1, c), (r, c - 1)) if n in base]
        downright = [base[n] for n in ((r + 1, c), (r, c + 1)) if n in base]
        choices = []
        if upleft:
            choices.append(max(upleft))
        if downright:
            choices.append(min(downright))
        if not upleft or not downright:
            choices.append(None)  # remove the box
        options.append((box, choices))

    results: set[WeakTableau] = set()

    def build(k, acc):
        if k == len(options):
            tab = WeakTableau(acc)
            if tab.is_weakly_increasing() and is_hook_closed(acc):
                results.add(tab)
            return
        box, choices = options[k]
        for choice in choices:
            if choice is None:
                build(k + 1, acc)
            else:
                acc2 = dict(acc)
                acc2[box] = choice
                build(k + 1, acc2)

    build(0, dict(base))
    return results


# -- K-infusion --------------------------------------------------------------

def infusion(s_tab: Tableau, t_tab: Tableau) -> tuple[Tableau, Tableau]:
    """Slide S through T: the pair (jdt_S(T), hat-jdt_T(S)).

    Requires nested shapes: S on mu/lambda and T on nu/mu.  The map is an
    involution on such pairs.
    """
    poset = s_tab.poset
    if poset is not t_tab.poset:
        raise PosetError("infusion needs tableaux on one poset")
    if s_tab.mask & t_tab.mask:
        raise PosetError("infusion needs disjoint supports")
    nu = poset.down_closure(s_tab.mask | t_tab.mask)
    mu = nu & ~t_tab.mask
    lam = mu & ~s_tab.mask
    if not (poset.is_ideal(mu) and poset.is_ideal(lam)):
        raise PosetError("infusion needs nested shapes: S between lam and mu, T above")
    expand = poset.expand_neighbors
    s_levels = dict(s_tab.levels())
    t_levels = dict(t_tab.levels())
    for a in sorted(s_levels, reverse=True):
        for b in sorted(t_levels):
            am, bm = s_levels[a], t_levels[b]
            moved_a = am & expand(bm)
            if moved_a:
                moved_b = bm & expand(am)
                s_levels[a] = (am & ~moved_a) | moved_b
                t_levels[b] = (bm & ~moved_b) | moved_a
    t_out = Tableau.from_levels(poset, tuple(sorted(t_levels.items())))
    s_out = Tableau.from_levels(poset, tuple(sorted(s_levels.items())))
    return t_out, s_out
