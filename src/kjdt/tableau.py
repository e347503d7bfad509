"""Increasing tableaux and the K-theoretic jeu de taquin toolkit.

A tableau is an integer filling of a finite set of poset boxes that is
strictly increasing along the order.  The support set determines a
canonical skew presentation: the outer shape is the lower order ideal it
generates and the inner shape is the rest of that ideal.  Tableaux are
immutable and stored as two tuples: ``level_values``, the values
present in increasing order, and ``masks``, the bitmask of boxes
carrying each of them.  Equality and hashing use both.

A slide never changes values, so the slide engine, the closures and the
filling walk pass mask tuples alone and carry the values once: a closure
stores each state as its tuple of masks, and the walk's level k holds the
value k + 1.  A swap between a value and the moving holes is four mask
operations on neighbour unions read from the poset's memo, which keeps
exhaustive class enumeration tractable in pure Python.
Values may repeat across incomparable boxes; slides duplicate entries
exactly when several holes border the same value, and the set of values
present is preserved by every slide.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import reduce
from itertools import product
from operator import or_

from .errors import BudgetExceeded, KjdtError, PosetError, WindowExceeded, check_budget, check_count
from .poset import (
    Box,
    MinusculePoset,
    Shape,
    SkewShape,
    ambient_grid,
    ambient_shifted,
    bits,
    enumerate_shapes,
    parse_entry,
    _Memo,
    _check_type,
    _union,
)
from .words import Permutation, hecke_of_word, kknuth_equiv


class _Dot:
    __slots__ = ()

    def __repr__(self):
        return "•"


DOT = _Dot()

DEFAULT_BUDGET = 200000  # node budget of bounded searches when none is given


class Tableau:
    """Strictly increasing filling of a skew box set, keyed by its level values and masks."""

    __slots__ = ("poset", "mask", "level_values", "masks")

    def __init__(self, poset: MinusculePoset, mask: int, values: tuple[int, ...]):
        if len(values) != mask.bit_count():
            raise PosetError(f"{len(values)} values for {mask.bit_count()} boxes")
        d: dict[int, int] = {}
        for i, v in zip(bits(mask), values):
            d[v] = d.get(v, 0) | (1 << i)
        self.poset = poset
        self.mask = mask
        self.level_values: tuple[int, ...] = tuple(sorted(d))
        self.masks: tuple[int, ...] = tuple(d[v] for v in self.level_values)

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_dict(cls, poset: MinusculePoset, filling: dict[Box, int]) -> "Tableau":
        mask = _boxes_to_mask(poset, filling)
        values = tuple(filling[poset.boxes[i]] for i in bits(mask))
        tab = cls(poset, mask, values)
        tab.validate()
        return tab

    @classmethod
    def from_masks(cls, poset: MinusculePoset, level_values: tuple, masks: tuple) -> "Tableau":
        """Wrap the values present (increasing) and one nonempty box mask per value, uncopied."""
        tab = cls.__new__(cls)
        tab.poset = poset
        tab.mask = reduce(or_, masks, 0)
        tab.level_values = level_values
        tab.masks = masks
        return tab

    @classmethod
    def from_levels(cls, poset: MinusculePoset, levels: tuple[tuple[int, int], ...]) -> "Tableau":
        """Build from a levels key: ``(value, mask)`` pairs sorted by value, no empty mask."""
        return cls.from_masks(poset, tuple(v for v, _ in levels), tuple(m for _, m in levels))

    def validate(self) -> None:
        poset = self.poset
        if not poset.is_ideal(self.inner_mask()):
            raise PosetError("support is not a skew shape (not order convex)")
        filling = self.as_dict()
        for box, v in filling.items():
            for j in poset.down[poset.index[box]]:
                w = filling.get(poset.boxes[j])
                if w is not None and w >= v:
                    raise PosetError(f"not increasing at {box}: {w} !< {v}")

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
        return tuple(self.as_dict().values())

    def as_dict(self) -> dict[Box, int]:
        """``{box: value}``, boxes in the order of ``bits(mask)``, read from the levels."""
        boxes = self.poset.boxes
        cells = sorted((i, v) for v, m in zip(self.level_values, self.masks) for i in bits(m))
        return {boxes[i]: v for i, v in cells}

    def value_set(self) -> set[int]:
        return set(self.level_values)

    def row_word(self) -> tuple[int, ...]:
        """Rows read left to right, starting with the bottom row."""
        return _row_word(self.as_dict())

    def straight_rows(self) -> tuple[tuple[int, ...], ...]:
        """Value rows of a straight tableau, poset-independent."""
        if not self.is_straight:
            raise PosetError("straight_rows needs a straight tableau")
        return tuple(value_rows(self.as_dict()).values())

    # -- identity --------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Tableau)
            and self.poset is other.poset
            and self.masks == other.masks
            and self.level_values == other.level_values
        )

    def __hash__(self):
        return hash((id(self.poset), self.level_values, self.masks))

    def __repr__(self):
        return f"Tableau({self.literal()!r})"

    # -- text forms --------------------------------------------------------

    def literal(self) -> str:
        """Rows separated by '/', '.' marking inner boxes."""
        poset, outer, cells = self.poset, self.outer_mask(), self.as_dict()
        parts = []
        for r in poset.row_numbers:
            toks = [
                str(cells.get(poset.boxes[i], ".")) for i in poset.row_boxes[r] if outer >> i & 1
            ]
            if not toks:
                break
            parts.append(",".join(toks))
        return "/".join(parts)

    def render(self) -> str:
        """Column-aligned ASCII grid with '.' for inner boxes."""
        cells = {box: str(v) for box, v in self.as_dict().items()}
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
    """Parse the row literal form, e.g. ``".,.,.,1/.,2,4,6/3,4,5"``.

    Row k goes left-aligned on poset row k; ``.`` marks an inner box.
    """
    rows = []
    for row in literal.split("/") if literal.strip() else []:
        toks = [t.strip() for t in row.split(",")] if row.strip() else []
        rows.append([None if t == "." else parse_entry(t, "tableau") for t in toks])
    if len(rows) > len(poset.row_numbers):
        raise WindowExceeded("tableau has more rows than the poset")
    filling: dict[Box, int] = {}
    for k, row in enumerate(rows):
        boxes = poset.row_boxes[poset.row_numbers[k]]
        if len(row) > len(boxes):
            raise WindowExceeded(f"row {k + 1} of tableau exceeds the poset row")
        for i, v in zip(boxes, row):
            if v is not None:
                filling[poset.boxes[i]] = v
    return Tableau.from_dict(poset, filling)


def tableau_to_json(tab: Tableau) -> dict:
    fam = tab.poset.family
    return {
        "poset": {"family": fam.kind, "params": list(fam.params)},
        "inner": list(tab.poset.row_lengths(tab.inner_mask())),
        "outer": list(tab.poset.row_lengths(tab.outer_mask())),
        "rows": [list(row) for row in value_rows(tab.as_dict()).values()],
    }


# -- the slide engine ------------------------------------------------------

def _slide_levels(
    poset: MinusculePoset, masks: tuple[int, ...], dots: int, forward: bool
) -> tuple[tuple[int, ...], int]:
    """Run the swap composite of one jeu de taquin slide on level masks.

    ``masks`` holds one box mask per value, in increasing order of value;
    a slide never changes the values, so it neither reads nor returns
    them.  Forward slides sweep values in increasing order, reverse slides
    in decreasing order.  Returns the new masks and the final hole mask.
    Each swap is an involution, so the slide the other way from the
    returned holes gives back ``(masks, dots)``; and the union of the masks
    with the holes never changes, so the new masks fill
    ``(support | dots) & ~holes``.
    """
    expand = poset._expand_cache  # neighbour unions, read without a call
    near = expand[dots]  # boxes next to a hole; looked up again only after a move
    out = []
    for m in masks if forward else reversed(masks):
        moved = m & near
        if moved:
            # Adjacency is symmetric: a hole next to m is next to a box of moved.
            recv = dots & expand[moved]
            m = (m & ~moved) | recv
            dots = (dots & ~recv) | moved
            near = expand[dots]
        out.append(m)
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
    inner_max = inner & ~_union(poset.covers, inner)
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
    return _checked_slide(tab, start, forward=True)


def reverse_slide(tab: Tableau, start) -> Tableau:
    """Reverse slide from ``start``, minimal boxes outside a valid outer shape."""
    return _checked_slide(tab, start, forward=False)


def _checked_slide(tab: Tableau, start, forward: bool) -> Tableau:
    poset = tab.poset
    c_mask = _boxes_to_mask(poset, start)
    _check_slide_start(poset, tab.mask, c_mask, forward)
    masks, _ = _slide_levels(poset, tab.masks, c_mask, forward)
    return Tableau.from_masks(poset, tab.level_values, masks)


def rect_greedy(tab: Tableau, inner: int | None = None) -> Tableau:
    """Greedy rectification: slide from all maximal inner boxes at once.

    ``inner`` overrides the starting presentation of the inner shape (it
    must contain the canonical inner shape); by default the canonical
    presentation is used.
    """
    _check_type(Tableau, tab=tab)
    poset = tab.poset
    masks = tab.masks
    pres = poset.skew_geometry(tab.mask)[1] if inner is None else inner
    if pres & tab.mask:
        raise PosetError("presentation inner shape overlaps the filling")
    for c_mask in poset.greedy_layers(pres):
        masks, _ = _slide_levels(poset, masks, c_mask, forward=True)
    result = Tableau.from_masks(poset, tab.level_values, masks)
    if not result.is_straight:
        raise PosetError("greedy rectification started from an invalid inner shape")
    return result


def rectify_all(tab: Tableau, budget: int | None = None) -> set[Tableau]:
    """All straight-shape tableaux reachable by forward slides: the closure with ``within=0``."""
    _check_type(Tableau, tab=tab)
    cls = _closure(tab, budget, within=0)
    if not cls.exhausted:
        raise BudgetExceeded(f"rectify_all exceeded {budget} intermediate tableaux")
    return set(cls.straight)


@dataclass
class JdtClass:
    """Closure of a tableau under forward and reverse slides.

    ``states`` holds the level masks of each member; every member carries
    the seed's values.
    """

    seed: Tableau
    states: set[tuple[int, ...]] = field(repr=False)
    straight: list[Tableau]
    exhausted: bool

    @property
    def member_keys(self) -> set[tuple[int, ...]]:
        """``states``, under the name the benchmark tracer reads."""
        return self.states

    @property
    def size(self) -> int:
        return len(self.states)

    def members(self):
        poset, values = self.seed.poset, self.seed.level_values
        for masks in self.states:
            yield Tableau.from_masks(poset, values, masks)

    def __contains__(self, tab: Tableau) -> bool:
        return tab.level_values == self.seed.level_values and tab.masks in self.states


def jdt_class(
    tab: Tableau,
    budget: int | None = None,
    stop_second_straight: bool = False,
    *,
    seed_is_urt: bool = False,
    within: int | None = None,
    max_inner: int | None = None,
) -> JdtClass:
    """Breadth-first closure of ``tab`` under slides inside its poset.

    ``within``, a box mask, takes a reverse slide only when its start lies
    inside it (see ``_closure``); ``None`` sets no bound.

    ``seed_is_urt`` builds, for a straight ``tab``, only the tableaux whose
    greedy rectification is ``tab`` (see ``_greedy_tree``).  That is the
    whole class exactly when ``tab`` is a unique rectification target, so
    the result is trusted only then; ``straight`` is ``[tab]``.
    ``max_inner``, a count, keeps of those only the tableaux whose inner
    shape has at most that many boxes; ``None`` keeps them all.  It bounds
    the greedy tree alone, as ``within`` bounds the closure alone.
    """
    _check_type(Tableau, tab=tab)
    if seed_is_urt:
        if within is not None:
            raise KjdtError("the greedy tree takes no within bound")
        return _greedy_tree(tab, budget, max_inner)
    if max_inner is not None:
        raise KjdtError("max_inner bounds only the greedy tree (seed_is_urt=True)")
    return _closure(tab, budget, stop_second_straight, within)


def _closure(tab: Tableau, budget, stop_second_straight=False, within=None) -> JdtClass:
    """The loop of ``jdt_class`` and, with ``within=0``, of ``rectify_all``.

    A state is the tuple of a member's level masks; slides keep the seed's
    values, so a ``Tableau`` is built only for a straight member.
    A slide is undone by the slide the other way from its holes.  So each
    state not yet expanded keeps, in ``backs``, those back starts of every
    slide that reached it: ``(forward starts, reverse starts)``.  Sliding
    from one of them would only give back a state already seen, so all of
    them are skipped when the state is expanded, and its entry is dropped.
    Forward slides alone need none: their way back is a reverse start.  A
    budget cuts the run after the expansion that takes ``seen`` past it.

    A reverse slide is taken only when its start lies inside the box mask
    ``within`` (``None``: no bound; ``0``: forward slides only).  From a
    straight seed T and a mask ν, this still reaches every S whose outer
    shape lies inside ν and which has T among its rectifications
    (Thomas and Yong, *A jeu de taquin theory for increasing tableaux*,
    2009): undo a forward path from S to T, and each reverse start on the
    way back is the final holes of a forward slide, which lie inside the
    outer shape of the state it slid, so inside ν.  Conversely, a state
    reached by reverse slides alone rectifies back to T along the forward
    slides that undo them, and every state reached lies in T's class.  A
    forward slide's holes lie inside its state's outer shape, so the back
    start that ``backs`` skips passes the bound too.
    """
    check_budget(budget)
    poset = tab.poset
    if within is not None:
        if type(within) is not int or within < 0:
            raise KjdtError(f"within must be a non-negative int mask or None, not {within!r}")
        if within & ~poset.full_mask:
            raise PosetError(f"within has boxes outside the poset: {within:#x}")
        outside = ~within
    both_ways = within != 0
    geometry = poset._skew_memo  # memo read without a call
    values, start = tab.level_values, tab.masks
    seen = {start}
    backs: dict[tuple[int, ...], tuple[list[int], list[int]]] = {}
    frontier = [(start, tab.mask)]
    straight: list[Tableau] = []
    while frontier:
        new = []
        for masks, support in frontier:
            _, inner, forward_starts, reverse_starts = geometry[support]
            if inner == 0:
                straight.append(
                    tab if masks is start
                    else Tableau.from_masks(poset, values, masks)
                )
                if stop_second_straight and len(straight) > 1:
                    return JdtClass(tab, seen, straight, False)
            if within is not None:
                reverse_starts = [c for c in reverse_starts if not c & outside]
            forward_backs, reverse_backs = backs.pop(masks, ((), ()))
            # A slide result is hashed once for the seen test: ``add`` grows
            # ``seen`` exactly when the state is new.
            for c_mask in forward_starts:
                if c_mask in forward_backs:
                    continue
                nxt, holes = _slide_levels(poset, masks, c_mask, True)
                size = len(seen)
                seen.add(nxt)
                if len(seen) != size:
                    new.append((nxt, (support | c_mask) & ~holes))
                    if both_ways:
                        backs[nxt] = ([], [holes])
                else:
                    waiting = backs.get(nxt)
                    if waiting is not None:
                        waiting[1].append(holes)  # a reverse start undoes a forward slide
            for c_mask in reverse_starts:
                if c_mask in reverse_backs:
                    continue
                nxt, holes = _slide_levels(poset, masks, c_mask, False)
                size = len(seen)
                seen.add(nxt)
                if len(seen) != size:
                    new.append((nxt, (support | c_mask) & ~holes))
                    backs[nxt] = ([holes], [])
                else:
                    waiting = backs.get(nxt)
                    if waiting is not None:
                        waiting[0].append(holes)  # a forward start undoes a reverse slide
            if budget is not None and len(seen) > budget:
                return JdtClass(tab, seen, straight, False)
        frontier = new
    return JdtClass(tab, seen, straight, True)


def _greedy_tree(tab: Tableau, budget: int | None, max_inner: int | None) -> JdtClass:
    """The tableaux whose greedy rectification is the straight ``tab``, by reverse search.

    The parent of such a tableau is its first greedy slide, the forward
    slide from the whole top layer of its inner shape.  Every box of that
    layer fills: a box of the support covers it and keeps its value until
    that value's turn.  So the parent's inner shape is the rest of the
    layers, its greedy rectification is the same, and the final holes are
    a reverse start of the parent.  A slide is undone by the slide the other
    way from its holes, so the children of a state are its reverse slides
    whose final holes are the whole top layer of the new inner shape.
    Each tableau is built once, from its parent, and no visited set is
    consulted (Avis and Fukuda, *Reverse search for enumeration*, 1996).
    A budget cuts the walk as it cuts the closure: after the expansion
    that takes the member count past it.

    A child's inner shape is its parent's plus the final holes, so the
    members whose inner shape has at most ``max_inner`` boxes form a
    subtree.  Each state carries ``room``, the boxes its inner shape may
    still gain: a child is kept only if its holes fit in it, and a state
    with no room is not expanded.
    """
    if not tab.is_straight:
        raise PosetError("the greedy tree needs a straight seed")
    check_budget(budget)
    if max_inner is not None:
        check_count("max_inner", max_inner)
    poset = tab.poset
    geometry, layers = poset._skew_memo, poset._layer_memo  # memos read without a call
    start = tab.masks
    members = {start}
    frontier = [(start, tab.mask, poset.n if max_inner is None else max_inner)]
    while frontier:
        new = []
        for masks, support, room in frontier:
            if not room:
                continue
            for c_mask in geometry[support][3]:
                nxt, holes = _slide_levels(poset, masks, c_mask, False)
                grown = (support | c_mask) & ~holes
                top = layers[geometry[grown][1]]
                if top and top[0] == holes and holes.bit_count() <= room:
                    members.add(nxt)
                    new.append((nxt, grown, room - holes.bit_count()))
            if budget is not None and len(members) > budget:
                return JdtClass(tab, members, [tab], False)
        frontier = new
    return JdtClass(tab, members, [tab], True)


@dataclass(frozen=True)
class URTVerdict:
    """Outcome of a unique-rectification-target check."""

    status: str  # "certified" | "refuted" | "inconclusive"
    witness: Tableau | None = None
    class_size: int = 0

    def __bool__(self):
        return self.status == "certified"


def _judge(cls: JdtClass) -> tuple[str, list[Tableau]]:
    """The one URT rule, read on the straight members a class closure met.

    They come in one order: first the straight states the closure
    expanded, in the order it met them; then, only when the budget or a
    stop cut the closure, its other straight states, by size, then
    literal.  Two straight members refute the class; one certifies it
    only when the closure ran to its end; anything else is inconclusive.
    Returns the status and the straight members in that order.
    """
    straight = cls.straight
    if not cls.exhausted:
        poset, values = cls.seed.poset, cls.seed.level_values
        expanded = {t.masks for t in straight}
        met = [
            Tableau.from_masks(poset, values, m)
            for m in cls.states if m not in expanded and poset.is_ideal(reduce(or_, m))
        ]
        straight = straight + sorted(met, key=lambda t: (t.size, t.literal()))
    if len(straight) > 1:
        return "refuted", straight
    return ("certified" if cls.exhausted else "inconclusive"), straight


def increasing_fillings(
    poset: MinusculePoset,
    lam: int,
    nu: int | None,
    d: int,
    *,
    keep=None,
):
    """The increasing fillings of nu/lam by the values 1..d, as mask tuples.

    A filling is a chain of ideals lam = I_0 < ... < I_d = nu; the boxes
    of value k are a reverse slide start of I_(k-1) inside nu, so every
    value fills at least one box; level k of a yielded tuple holds the
    value k + 1.  ``nu=None`` leaves the end open: the chain may stop at
    any ideal of the poset.  A branch is cut when fewer boxes than values
    remain, or (fixed end) a longer chain of boxes than values.  The
    fillings come depth first, each level's starts in the order
    ``skew_geometry`` lists them; the census closes its classes in this
    order.

    ``keep`` sees the masks placed so far after each level is added; a
    false answer cuts the branch.
    """
    end = poset.full_mask if nu is None else nu
    rest = end & ~lam
    if rest.bit_count() < d:
        return
    # deep[r]: boxes that cannot be filled when r values are left, those that
    # start a chain of more than r boxes in nu: greedy layers r, r + 1, ... of nu.
    deep = [0] * (d + 1)
    if nu is not None:
        layers = poset.greedy_layers(nu)
        tail = 0
        for r in reversed(range(len(layers))):
            tail |= layers[r]
            if r <= d:
                deep[r] = tail
        if rest & deep[d]:
            return
    if not d:
        yield ()
        return
    # A depth-first walk on an explicit stack: stack[k] iterates the starts
    # of the ideal after the k levels of ``key``, and ``left`` values remain
    # after the level being chosen.
    geometry = poset._skew_memo  # memo read without a call
    key: list[int] = []
    ideal, left = lam, d - 1
    stack = [iter(geometry[lam][3])]
    while stack:
        for step in stack[-1]:
            grown = ideal | step
            rest = end & ~grown
            if step & ~end or rest & deep[left] or rest.bit_count() < left:
                continue
            key.append(step)
            if keep is not None and not keep(key):
                key.pop()
            elif not left:
                yield tuple(key)
                key.pop()
            else:
                ideal, left = grown, left - 1
                stack.append(iter(geometry[grown][3]))
                break
        else:
            stack.pop()
            if key:
                ideal ^= key.pop()
                left += 1


def rectifies_to(poset: MinusculePoset, lam: int, target: tuple[int, ...]):
    """The ``keep`` of the fillings above ``lam`` that greedily rectify to ``target``.

    With ``increasing_fillings(poset, lam, nu, len(target), keep=...)`` it
    passes exactly the fillings that ``rect_greedy(tab, inner=lam)`` maps
    to the straight tableau of masks ``target``, both filled by 1..d.  A
    forward slide sweeps values in increasing order, so rectified level k
    depends only on levels 1..k.  The keep therefore carries, for each
    placed level, the holes of every greedy slide with the boxes next to
    them; it slides only the newest level through them and cuts the branch
    at the first rectified level that differs from ``target``'s level at
    the same place.
    """
    expand = poset._expand_cache
    # carried[k]: (holes, boxes next to them) of each greedy slide after the
    # levels 1..k of the current branch; slots past its last level are stale.
    carried = [[(c, expand[c]) for c in poset.greedy_layers(lam)]] * (len(target) + 1)

    def keep(key) -> bool:
        k = len(key)
        m = key[-1]
        slid = []
        # The swaps _slide_levels makes on this level, one greedy slide at a time.
        for dots, near in carried[k - 1]:
            moved = m & near
            if moved:
                recv = dots & expand[moved]
                m = (m & ~moved) | recv
                dots = (dots & ~recv) | moved
                near = expand[dots]
            slid.append((dots, near))
        if target[k - 1] != m:
            return False
        carried[k] = slid
        return True

    return keep


def filling_row_words(poset: MinusculePoset, lam: int, d: int, keep):
    """``(outer mask, row word)`` of the open-ended fillings above ``lam`` that ``keep`` passes.

    The fillings are those of ``increasing_fillings(poset, lam, None, d)``
    whose row word, cut to the values 1..k, satisfies ``keep`` for every
    level k.  Each box's place in the word is looked up once per window,
    in the order of ``Tableau.row_word``.
    """
    order = _row_word({poset.boxes[i]: i for i in bits(poset.full_mask & ~lam)})
    pos = {i: k for k, i in enumerate(order)}
    word: tuple[int, ...] = ()

    def read(key) -> bool:
        nonlocal word
        placed = sorted((pos[i], v) for v, m in enumerate(key, 1) for i in bits(m))
        word = tuple(v for _, v in placed)
        return keep(word)

    for key in increasing_fillings(poset, lam, None, d, keep=read):
        yield reduce(or_, key, lam), word


def straight_tableaux_with_values(poset: MinusculePoset, letters):
    """All straight tableaux of a poset using exactly the given value set.

    Each shape's tableaux come in the order of their ``values`` tuples, so
    the URT certificate names the same first refuting witness whatever
    order the enumerator uses.
    """
    letters = tuple(sorted(set(letters)))
    for mask in poset.ideals_between(0, poset.full_mask)[1:]:
        tabs = [
            Tableau.from_masks(poset, letters, key)
            for key in increasing_fillings(poset, 0, mask, len(letters))
        ]
        yield from sorted(tabs, key=lambda t: t.values)


def _urt_window(tab: Tableau, shifted: bool, pad: int) -> MinusculePoset:
    """The least ambient window holding the straight rows of ``tab`` plus ``pad``, at least 1x1."""
    rows = tab.straight_rows()
    ncols = max(max((len(r) for r in rows), default=0) + pad, 1)
    if shifted:
        return ambient_shifted(ncols)
    return ambient_grid(max(len(rows) + pad, 1), ncols)


def _urt_by_words(tab: Tableau, shifted: bool, budget: int) -> URTVerdict:
    """Certify or refute an ambient URT through word equivalence.

    Any straight tableau sharing the jeu de taquin class of ``tab`` has a
    K-Knuth (weakly, in the shifted case) equivalent row word, hence the
    same letter set.  That candidate set is finite; ``kknuth_equiv``
    compares each candidate's row word by its invariants, then by bounded
    search, so the verdict stays three-valued.  A straight tableau's row
    word determines it, so the candidate whose word is that of ``tab`` is
    ``tab`` itself.
    """
    word = tab.row_word()
    inconclusive = False
    for cand in straight_tableaux_with_values(_urt_window(tab, shifted, pad=0), tab.level_values):
        cword = cand.row_word()
        if cword == word:
            continue
        status = kknuth_equiv(cword, word, budget=budget, weak=shifted).status
        if status == "equivalent":
            return URTVerdict("refuted", witness=Tableau.from_dict(tab.poset, cand.as_dict()))
        inconclusive = inconclusive or status == "inconclusive"
    return URTVerdict("inconclusive" if inconclusive else "certified")


def is_urt(tab: Tableau, pad: int = 2, budget: int | None = None) -> URTVerdict:
    """Decide whether a straight tableau is a unique rectification target.

    One closure from ``tab`` stops at its second straight member and is
    judged by the one URT rule (``_judge``): the straight states it
    expanded come first, in the order it met them, and when the budget or
    that stop cut it, its other straight states follow, by size, then
    literal.  Two of them refute ``tab``, and the second is the witness;
    one certifies it only when the closure ran to its end; anything else
    is inconclusive.  On a bounded poset the closure is the whole class
    and that judgement is the verdict.  On the ambient grid or shifted
    posets it runs in a window of ``pad`` extra rows and columns (at
    least one box); a window that does not refute ``tab`` is never
    trusted to certify it, since classes roam past any fixed boundary,
    and the word-equivalence certificate decides between ``certified``
    and ``inconclusive``.

    On an ambient poset the one ``budget`` bounds the window closure in
    states and then each candidate's word search in explored words, so it
    does not bound the total work (an open fault, documented, not mended).
    A ``pad`` that is not a non-negative int, a bool excluded, raises
    ``KjdtError``.
    """
    check_count("pad", pad)
    if not tab.is_straight:
        raise PosetError("URT checks are defined for straight tableaux")
    poset, seed = tab.poset, tab
    if poset.is_ambient:
        shifted = poset.reading == "doubled"
        budget = DEFAULT_BUDGET if budget is None else budget
        seed = Tableau.from_dict(_urt_window(tab, shifted, pad), tab.as_dict())
    cls = jdt_class(seed, budget=budget, stop_second_straight=True)
    status, straight = _judge(cls)
    if status == "refuted":
        witness = straight[1]
        if poset.is_ambient:
            witness = Tableau.from_dict(poset, witness.as_dict())
        return URTVerdict(status, witness=witness, class_size=cls.size)
    if not poset.is_ambient:
        return URTVerdict(status, class_size=cls.size)
    return replace(_urt_by_words(tab, shifted, budget=budget), class_size=cls.size)


def packed_straight_tableaux(poset: MinusculePoset, shape: Shape):
    """Mask tuples (level k holds k + 1) of the increasing tableaux of a straight shape."""
    chain = max((poset.heights[i] for i in bits(shape.mask)), default=0)
    for d in range(chain, shape.size + 1):
        yield from increasing_fillings(poset, 0, shape.mask, d)


def _census_refuted(refuted: list[Tableau]) -> list[Tableau]:
    """The refuted tableaux of a census report: each once, by size, then literal.

    A class the budget cuts may be closed again from a seed its first
    closure did not meet, and refuted again with some of the same members.
    """
    return sorted(set(refuted), key=lambda t: (t.size, t.literal()))


def _census_classes(poset: MinusculePoset, max_size: int | None, budget: int | None):
    """Yield ``(status, straight members of at most max_size boxes)`` per class the census closes.

    ``status`` and the straight members are ``_judge``'s: every straight
    member when the closure ran to its end, and when the budget cut it,
    its straight states, expanded or not, each a member of the class.
    Only straight seeds are looked up, by their masks, since seeds are
    packed and slides keep values.  A certified class's one straight member
    is its seed, met once, so ``visited`` keeps only the straight states
    of the other classes.  Seeds with d values share one ``(1..d)``.
    """
    _check_type(MinusculePoset, poset=poset)
    if poset.is_ambient:
        raise PosetError("the census needs a bounded poset")
    if max_size is not None:
        check_count("max_size", max_size)
    check_budget(budget)
    runs = _Memo(lambda d: tuple(range(1, d + 1)))
    visited: set[tuple[int, ...]] = set()
    for shape in enumerate_shapes(poset):
        if shape.size == 0 or (max_size is not None and shape.size > max_size):
            continue
        for masks in packed_straight_tableaux(poset, shape):
            if masks in visited:
                continue
            values = runs[len(masks)]
            cls = jdt_class(Tableau.from_masks(poset, values, masks), budget=budget)
            status, straight = _judge(cls)
            if status != "certified":
                visited.update(t.masks for t in straight)
            yield status, [t for t in straight if max_size is None or t.size <= max_size]


def urt_census(poset: MinusculePoset, max_size: int | None = None, budget: int | None = None):
    """Classify every straight packed tableau of a bounded poset as URT or not.

    Classes are enumerated once each (``_census_classes``), but a class
    the budget cuts may be closed again from a seed its closure missed;
    all straight members of a class share one verdict.  Returns a report with the
    certified tableaux, in no specified order, and the refuted ones sorted
    by size, then literal; ``exhausted`` is false exactly when some class
    is left inconclusive.  Only shapes of at most ``max_size`` boxes are
    seeded; a ``max_size`` that is not ``None`` or a non-negative int, a
    bool excluded, raises ``KjdtError``.
    """
    certified, refuted, exhausted = [], [], True
    for status, members in _census_classes(poset, max_size, budget):
        if status == "certified":
            certified.extend(members)
        elif status == "refuted":
            refuted.extend(members)
        else:
            exhausted = False
    return {
        "poset": poset.family.spec(),
        "max_size": max_size,
        "certified": certified,
        "refuted": _census_refuted(refuted),
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
    _check_type(Tableau, tab=tab)
    wx = tab.poset.wx
    if wx is None:
        raise PosetError("wx action needs a bounded poset")
    poset = tab.poset
    filling = {poset.boxes[wx[poset.index[box]]]: -v for box, v in tab.as_dict().items()}
    return Tableau.from_dict(poset, filling)


# -- type B doubling and type A products ------------------------------------

def doubling(tab: Tableau, target: MinusculePoset | None = None) -> Tableau:
    """Union of a shifted tableau with its reflection across the diagonal."""
    _check_type(Tableau, tab=tab)
    if tab.poset.reading != "doubled":
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


def hecke_of_tableau(tab) -> Permutation:
    """Hecke permutation of a grid tableau (doubling a shifted one first)."""
    _check_type(Tableau, tab=tab)
    reading = tab.poset.reading
    if reading == "doubled":
        tab = doubling(tab)
    elif reading != "row":
        raise PosetError("Hecke permutations are defined for grid tableaux")
    return hecke_of_word(tab.row_word())


def conjugate(tab: Tableau) -> Tableau:
    """Mirror a grid tableau in the north-west to south-east diagonal."""
    _check_type(Tableau, tab=tab)
    if tab.poset.reading != "row":
        raise PosetError("conjugate expects a grid tableau")
    d = tab.as_dict()
    rows = max((r for r, _ in d), default=1)
    cols = max((c for _, c in d), default=1)
    target = ambient_grid(cols, rows)
    return Tableau.from_dict(target, {(c, r): v for (r, c), v in d.items()})


def attach_product(s_tab: Tableau, t_tab: Tableau) -> Tableau:
    """S * T: north-east corner of S attached to the south-west corner of T."""
    _check_type(Tableau, s_tab=s_tab, t_tab=t_tab)
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
        _boxes_to_mask(self.poset, self.filling)  # every box must be in the poset
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
                v = self.filling.get(self.poset.boxes[j])
                if v is None or v is DOT:
                    continue
                if self.poset.leq(j, i):
                    lo = v if lo is None else max(lo, v)
                else:
                    hi = v if hi is None else min(hi, v)
        if not _is_antichain(self.poset, _boxes_to_mask(self.poset, dots)):
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

    def as_dict(self):
        return dict(self.filling)

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


def reading_words(tab, limit: int | None = None):
    """All reading words of a (weakly) increasing hook-closed tableau.

    A reading word lists every box before all boxes north-east of it;
    a box equal to its upper neighbor comes before everything strictly
    north of it, and a box equal to its right neighbor comes before
    everything strictly east of it.  The support is checked at call time;
    the returned generator yields distinct words lazily.
    """
    _check_type((Tableau, WeakTableau), tab=tab)
    if limit is not None:
        check_count("limit", limit)
    filling = tab.as_dict()
    boxes = sorted(filling)
    if not is_hook_closed(boxes):
        raise PosetError("reading words need a hook-closed support")
    n = len(boxes)
    idx = {b: k for k, b in enumerate(boxes)}
    after: list[set[int]] = [set() for _ in range(n)]  # after[a]: boxes after a
    for b, k in idx.items():
        r, c = b
        for b2, k2 in idx.items():
            if b2 == b:
                continue
            r2, c2 = b2
            if r2 <= r and c2 >= c:
                after[k].add(k2)
        if (r - 1, c) in filling and filling[(r - 1, c)] == filling[b]:
            after[k].update(k2 for b2, k2 in idx.items() if b2[0] < r)
        if (r, c + 1) in filling and filling[(r, c + 1)] == filling[b]:
            after[k].update(k2 for b2, k2 in idx.items() if b2[1] > c)
    indeg = [0] * n
    for k in range(n):
        for k2 in after[k]:
            indeg[k2] += 1
    seen: set[tuple[int, ...]] = set()
    emitted = 0

    def walk(avail: list[int], degs: list[int], prefix: list[int]):
        nonlocal emitted
        if limit is not None and emitted >= limit:
            return
        if not avail:
            word = tuple(prefix)
            if word not in seen:
                seen.add(word)
                emitted += 1
                yield word
            return
        for k in list(avail):
            nxt = [x for x in avail if x != k]
            degs2 = list(degs)
            for k2 in after[k]:
                degs2[k2] -= 1
                if degs2[k2] == 0:
                    nxt.append(k2)
            prefix.append(filling[boxes[k]])
            yield from walk(nxt, degs2, prefix)
            prefix.pop()

    start = [k for k in range(n) if indeg[k] == 0]
    return walk(start, indeg, [])


def resolutions(dotted: DottedTableau) -> set[WeakTableau]:
    """All resolutions of a dotted tableau.

    Each dot becomes the maximum of the boxes above and to its left, or
    the minimum of the boxes below and to its right; a dot missing both
    above-left neighbors, or both below-right neighbors, may instead be
    removed together with its box.
    """
    base = {b: v for b, v in dotted.filling.items() if v is not DOT}
    boxes = dotted.dots()
    options = []
    for r, c in boxes:
        upleft = [base[n] for n in ((r - 1, c), (r, c - 1)) if n in base]
        downright = [base[n] for n in ((r + 1, c), (r, c + 1)) if n in base]
        choices = []
        if upleft:
            choices.append(max(upleft))
        if downright:
            choices.append(min(downright))
        if not upleft or not downright:
            choices.append(None)  # remove the box
        options.append(choices)

    results: set[WeakTableau] = set()
    for picks in product(*options):
        acc = dict(base)
        acc.update((box, v) for box, v in zip(boxes, picks) if v is not None)
        tab = WeakTableau(acc)
        if tab.is_weakly_increasing() and is_hook_closed(acc):
            results.add(tab)
    return results


# -- K-infusion --------------------------------------------------------------

def infusion(s_tab: Tableau, t_tab: Tableau) -> tuple[Tableau, Tableau]:
    """Slide S through T: the pair (jdt_S(T), hat-jdt_T(S)).

    Requires nested shapes: S on mu/lambda and T on nu/mu.  The map is an
    involution on such pairs.
    """
    _check_type(Tableau, s_tab=s_tab, t_tab=t_tab)
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
    # Each S value, largest first, slides T forward from its boxes; the
    # final holes are where that value lands.
    t_masks, s_masks = t_tab.masks, []
    for m in reversed(s_tab.masks):
        t_masks, holes = _slide_levels(poset, t_masks, m, forward=True)
        s_masks.append(holes)
    t_out = Tableau.from_masks(poset, t_tab.level_values, t_masks)
    return t_out, Tableau.from_masks(poset, s_tab.level_values, tuple(reversed(s_masks)))
