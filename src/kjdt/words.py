"""Word combinatorics: K-Knuth rewriting and the Hecke monoid.

The K-Knuth relation is generated by deleting or inserting a repeated
letter, the braid move aba ~ bab, and two order-constrained commutations
of adjacent letters inside a window of three.  Equivalence of two words
is searched bidirectionally through these moves; since rewriting may
need to pass through longer words and no length bound is known, the
search is budgeted and the verdict is three-valued: ``equivalent`` with
an explicit path, ``refuted`` when a computable invariant (Hecke
permutation, longest strictly increasing or decreasing subsequence)
differs, or ``inconclusive``.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from itertools import product as iter_product

from .errors import KjdtError, _Record, _partition, check_budget, check_count

Word = tuple[int, ...]


def lis(word) -> int:
    """Length of the longest strictly increasing subsequence."""
    tails: list[int] = []
    for x in word:
        k = bisect_left(tails, x)
        if k == len(tails):
            tails.append(x)
        else:
            tails[k] = x
    return len(tails)


def lds(word) -> int:
    """Length of the longest strictly decreasing subsequence."""
    return lis([-x for x in word])


def doubled_word(word) -> Word:
    """The palindromic composition: reverse(u) followed by u."""
    return tuple(reversed(word)) + tuple(word)


# -- permutations -----------------------------------------------------------

class Permutation:
    """Finite-support bijection of the integers, stored as its moved points.

    ``moved`` maps each moved point to its image; every other integer is
    fixed.  Input whose images are not exactly its moved points, each
    once, raises ``KjdtError``.
    """

    __slots__ = ("moved",)

    def __init__(self, moved: dict[int, int]):
        self.moved = {x: y for x, y in moved.items() if x != y}
        if sorted(self.moved.values()) != sorted(self.moved):
            raise KjdtError(f"not a permutation: {self.moved}")

    @classmethod
    def identity(cls) -> "Permutation":
        return cls({})

    @classmethod
    def transposition(cls, i: int) -> "Permutation":
        """The simple transposition s_i swapping i and i+1."""
        return cls({i: i + 1, i + 1: i})

    @classmethod
    def from_one_line(cls, images, start: int = 1) -> "Permutation":
        return cls(dict(enumerate(images, start)))

    def __call__(self, x: int) -> int:
        return self.moved.get(x, x)

    def support(self) -> tuple[int, int]:
        """Smallest interval [lo, hi] outside of which the map is the identity."""
        if not self.moved:
            return (1, 0)
        return (min(self.moved), max(self.moved))

    def is_identity(self) -> bool:
        return not self.moved

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (self * other)(x) = self(other(x))."""
        if not isinstance(other, Permutation):
            return NotImplemented
        points = self.moved.keys() | other.moved.keys()
        return Permutation({x: self(other(x)) for x in points})

    def inverse(self) -> "Permutation":
        return Permutation({y: x for x, y in self.moved.items()})

    def length(self) -> int:
        """Coxeter length: the number of inversions.

        Only moved points take part.  Two fixed points are never inverted,
        and a moved point i and a fixed point j are inverted exactly when j
        lies strictly between i and w(i), so the cost follows the number
        of moved points.
        """
        moved = sorted(self.moved.items())
        points = [x for x, _ in moved]
        images: list[int] = []
        count = 0
        for k, (x, y) in enumerate(moved):
            count += k - bisect_right(images, y)  # earlier moved points above
            insort(images, y)
            lo, hi = min(x, y), max(x, y)
            between = bisect_left(points, hi) - bisect_right(points, lo)
            count += hi - lo - 1 - between  # fixed points strictly between
        return count

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.moved == other.moved

    def __hash__(self):
        return hash(frozenset(self.moved.items()))

    def __repr__(self):
        return f"Permutation{self.cycles()}"

    def cycles(self) -> str:
        """Cycle notation: each cycle from its least point, cycles in the
        order of those points, ``()`` for the identity."""
        out, left = [], dict(self.moved)
        for x in sorted(self.moved):
            cycle = []
            while x in left:
                cycle.append(x)
                x = left.pop(x)
            if cycle:
                out.append(f"({','.join(map(str, cycle))})")
        return "".join(out) or "()"


def reduced_word(w: Permutation) -> Word:
    """One reduced word for ``w`` (peeled off right descents)."""
    word: list[int] = []
    while not w.is_identity():
        lo, hi = w.support()
        for i in range(lo, hi):
            if w(i) > w(i + 1):
                word.append(i)
                w = w * Permutation.transposition(i)
                break
    return tuple(reversed(word))


def hecke_product(u: Permutation, v: Permutation) -> Permutation:
    """Associative monoid product on permutations."""
    return hecke_of_word(reduced_word(u) + reduced_word(v))


def _letters(word) -> Word:
    """``word`` as a tuple; a letter that is not an int, a bool included, raises ``KjdtError``."""
    word = tuple(word)
    if any(type(x) is not int for x in word):
        raise KjdtError(f"letters must be ints, not {word!r}")
    return word


def hecke_of_word(word) -> Permutation:
    """The Hecke permutation of a word of simple-reflection indices.

    Letters act on the right: the letter ``a`` swaps the images of a and
    a+1 unless that would shorten the permutation.  The images of the
    points touched so far are swapped in one map, so the cost follows the
    length of the word, not its letters.  A letter that is not an int, a
    bool included, raises ``KjdtError``.
    """
    im: dict[int, int] = {}
    for a in _letters(word):
        x, y = im.get(a, a), im.get(a + 1, a + 1)
        if x < y:
            im[a], im[a + 1] = y, x
    return Permutation(im)


def bruhat_leq(u: Permutation, w: Permutation) -> bool:
    """Bruhat order u <= w: #{a <= i : u(a) >= j} <= #{a <= i : w(a) >= j}
    for all i, j (Björner–Brenti, *Combinatorics of Coxeter Groups*,
    Thm 2.1.5).  Points fixed by both maps add the same to both counts,
    so only i and j among the moved points are checked, whatever the span.
    """
    points = sorted(u.moved.keys() | w.moved.keys())
    rank = {x: k for k, x in enumerate(points)}
    excess = [0] * len(points)  # u count minus w count of images >= points[j]
    for x in points:
        a, b = rank[u(x)], rank[w(x)]
        step = 1 if a > b else -1
        for j in range(min(a, b) + 1, max(a, b) + 1):
            excess[j] += step
            if excess[j] > 0:
                return False
    return True


def grassmannian_permutation(partition) -> Permutation:
    """The increasing-elsewhere permutation with w(i) = i + lambda_{l+1-i}.

    A ``partition`` that is not a weakly decreasing tuple of non-negative
    ints raises ``PosetError`` (``errors._partition``, the one check).
    """
    lam = _partition(partition)
    ell = len(lam)
    if ell == 0:
        return Permutation.identity()
    head = [i + lam[ell - i] for i in range(1, ell + 1)]
    taken = set(head)
    rest = [x for x in range(1, ell + lam[0] + 1) if x not in taken]
    return Permutation.from_one_line(head + rest)


# -- K-Knuth rewriting --------------------------------------------------------

def _pack(words) -> tuple[tuple, int, list[int]]:
    """Pack ``words`` into ints for a search: their letters are ranked as codes
    1..k in b = k.bit_length() bits each, w[0] is the low digit and 0 marks
    the end.  Returns the letters by code (0 unused), b and the packed words;
    no move adds a letter, so one ranking serves the whole search."""
    letters = (None, *sorted({x for w in words for x in w}))
    b = (len(letters) - 1).bit_length() or 1
    code = {x: k for k, x in enumerate(letters)}
    return letters, b, [sum(code[x] << i * b for i, x in enumerate(w)) for w in words]


def _unpack(w: int, b: int, letters) -> Word:
    digit = (1 << b) - 1
    return tuple([letters[w >> s & digit] for s in range(0, w.bit_length(), b)])


class _Windows(dict):
    """One search's move table, filled on a miss: the digit before position
    i (0 before the word) and the window of three at i map to ``(run,
    delta)``.  ``run`` is 0 unless a run of equal letters starts at i, 2 if
    that run repeats, else 1; ``w ^ delta << i*b`` is the window's braid or
    swap, and ``delta`` is 0 when it has none."""

    __slots__ = ("b",)

    def __init__(self, b: int):
        self.b = b

    def __missing__(self, key: int):
        b = self.b
        digit = (1 << b) - 1
        p, a, x, c = key & digit, key >> b & digit, key >> 2 * b & digit, key >> 3 * b
        if a == c != x:
            delta = (a ^ x) * (1 | 1 << b | 1 << 2 * b)  # braid
        elif x < a < c or 0 < c < a < x:  # c is 0 past the end of the word
            delta = (x ^ c) << b | (x ^ c) << 2 * b  # swap last two
        elif a < c < x or x < c < a:
            delta = (a ^ x) | (a ^ x) << b  # swap first two
        else:
            delta = 0
        self[key] = entry = (0 if p == a else 1 + (a == x), delta)
        return entry


def _packed_moves(w: int, table: _Windows, weak: bool, grow: bool) -> list[int]:
    """The packed words one basic K-Knuth move from ``w``, in the order that
    ``kknuth_equiv`` documents; two windows may give the same word."""
    b = table.b
    quad = (1 << 4 * b) - 1
    wide = w << b
    out, inserts, windows = [], [], []
    for s in range(0, w.bit_length(), b):
        run, delta = table[wide >> s & quad]
        if run:
            if run == 2:  # drop a repeat
                out.append(w & (1 << s) - 1 | w >> s + b << s)
            if grow:  # insert a repeat
                inserts.append(w & (1 << s + b) - 1 | w >> s << s + b)
        if delta:
            windows.append(w ^ delta << s)
    if weak:  # swap the first two letters
        d = (w ^ w >> b) & (1 << b) - 1
        if d and w >> b:
            windows.append(w ^ (d | d << b))
    return out + inserts + windows


def _moves(w: Word, weak: bool, grow: bool) -> list[Word]:
    """The words one basic K-Knuth move from ``w``, in the order that
    ``kknuth_equiv`` documents; two windows may give the same word."""
    letters, b, (x,) = _pack([w])
    return [_unpack(y, b, letters) for y in _packed_moves(x, _Windows(b), weak, grow)]


def _check_weak(weak) -> None:
    """``weak`` picks the relation, so it must be a bool: a truthy string is no answer."""
    if type(weak) is not bool:
        raise KjdtError(f"weak must be a bool, not {weak!r}")


def kknuth_basic_moves(word, weak: bool = False, max_len: int | None = None):
    """All words one basic K-Knuth move away (both move directions).  A
    letter that is not an int, a bool included, a ``weak`` that is not a
    bool and a ``max_len`` that is neither ``None`` nor a non-negative int
    raise ``KjdtError``."""
    _check_weak(weak)
    if max_len is not None:
        check_count("max_len", max_len)
    w = _letters(word)
    return set(_moves(w, weak, max_len is None or len(w) < max_len))


def _invariants(word, weak: bool):
    if weak:
        word = doubled_word(word)
    return (hecke_of_word(word), lis(word), lds(word))


class EquivalenceVerdict(_Record):
    """Outcome of a bounded equivalence search."""

    __slots__ = ("status", "path", "invariant", "explored")

    def __init__(
        self,
        status: str,  # "equivalent" | "refuted" | "inconclusive"
        path: list[Word] | None = None,
        invariant: str | None = None,
        explored: int = 0,
    ):
        self.status = status
        self.path = path
        self.invariant = invariant
        self.explored = explored

    def __bool__(self):
        return self.status == "equivalent"


def kknuth_equiv(
    u,
    v,
    slack: int = 3,
    budget: int | None = 20000,
    weak: bool = False,
) -> EquivalenceVerdict:
    """Bidirectional bounded search for K-Knuth equivalence of two words.

    Intermediate words may exceed both input lengths by at most ``slack``
    letters, and at most ``budget`` words are explored in total: ``None``
    sets no bound, and a budget that is neither ``None`` nor a positive
    int raises ``KjdtError``, and so do a ``slack`` that is not a
    non-negative int, a ``weak`` that is not a bool and a letter that is
    not an int, a bool included.
    An undecided search returns ``inconclusive``.  Each word's neighbours
    are visited in one fixed order: drops, then inserts (one per run of
    equal letters), then the moves of each window of three from the left,
    then the weak prefix swap; ``explored`` and the path follow that order.
    """
    check_budget(budget)
    check_count("slack", slack)
    _check_weak(weak)
    u, v = _letters(u), _letters(v)
    if u == v:
        return EquivalenceVerdict("equivalent", path=[u])
    inv_u, inv_v = _invariants(u, weak), _invariants(v, weak)
    if inv_u != inv_v:
        names = ("hecke", "lis", "lds")
        which = next(n for n, a, b in zip(names, inv_u, inv_v) if a != b)
        if weak:
            which = f"{which} of reverse(w)+w"
        return EquivalenceVerdict("refuted", invariant=which)
    letters, b, ends = _pack([u, v])
    grows_below = 1 << (max(len(u), len(v)) + slack - 1) * b  # the length bound
    table = _Windows(b)
    sides = ({ends[0]: None}, {ends[1]: None})  # packed word -> parent, per side
    frontiers = ([ends[0]], [ends[1]])
    explored = 2

    def path_through(meet: int, fwd: dict, bwd: dict) -> list[Word]:
        left = []
        node = meet
        while node is not None:
            left.append(node)
            node = fwd[node]
        left.reverse()
        node = bwd[meet]
        while node is not None:
            left.append(node)
            node = bwd[node]
        if left and left[0] != ends[0]:
            left.reverse()
        return [_unpack(w, b, letters) for w in left]

    while frontiers[0] or frontiers[1]:
        side = 0 if 0 < len(frontiers[0]) <= len(frontiers[1]) or not frontiers[1] else 1
        mine, theirs = sides[side], sides[1 - side]
        new = []
        for word in frontiers[side]:
            for nxt in _packed_moves(word, table, weak, word < grows_below):
                if nxt in mine:
                    continue
                mine[nxt] = word
                explored += 1
                if nxt in theirs:
                    fwd, bwd = (sides[0], sides[1]) if side == 0 else (sides[1], sides[0])
                    return EquivalenceVerdict(
                        "equivalent",
                        path=path_through(nxt, fwd, bwd),
                        explored=explored,
                    )
                new.append(nxt)
                if budget is not None and explored >= budget:
                    return EquivalenceVerdict("inconclusive", explored=explored)
        frontiers = (new, frontiers[1]) if side == 0 else (frontiers[0], new)
    return EquivalenceVerdict("inconclusive", explored=explored)


def conjecture_search(
    max_len: int,
    max_letter: int,
    slack: int = 3,
    budget: int = 4000,
) -> dict:
    """Sweep word pairs comparing the weak relation against doubled words.

    For each pair (u, v) the weak equivalence verdict on (u, v) is
    compared with the plain verdict on (reverse(u)+u, reverse(v)+v).  A
    pair where one search proves equivalence while the other refutes it
    is a counterexample candidate; undecided pairs are tallied.
    """
    for name, count in (("max_len", max_len), ("max_letter", max_letter), ("slack", slack)):
        check_count(name, count)
    check_budget(budget)
    words: list[Word] = []
    for n in range(1, max_len + 1):
        words.extend(iter_product(range(1, max_letter + 1), repeat=n))
    groups: dict[tuple, list[Word]] = {}
    for w in words:
        groups.setdefault(_invariants(w, weak=True), []).append(w)
    report = {
        "pairs": 0,
        "searched": 0,
        "agree_equivalent": 0,
        "agree_refuted": 0,
        "inconclusive": 0,
        "counterexample_candidates": [],
    }
    total = len(words) * (len(words) - 1) // 2
    searched_pairs = sum(len(g) * (len(g) - 1) // 2 for g in groups.values())
    report["pairs"] = total
    report["agree_refuted"] = total - searched_pairs
    for group in groups.values():
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                u, v = group[i], group[j]
                report["searched"] += 1
                weak_v = kknuth_equiv(u, v, slack=slack, budget=budget, weak=True)
                dbl_v = kknuth_equiv(
                    doubled_word(u), doubled_word(v), slack=slack, budget=budget
                )
                pair = (weak_v.status, dbl_v.status)
                if "refuted" in pair and "equivalent" in pair:
                    report["counterexample_candidates"].append((u, v, pair))
                elif pair == ("equivalent", "equivalent"):
                    report["agree_equivalent"] += 1
                elif pair == ("refuted", "refuted"):
                    report["agree_refuted"] += 1
                else:
                    report["inconclusive"] += 1
    return report
