"""The combinatorial K-theory ring on straight shapes of a poset.

The paper's rule multiplies the basis elements by counting tableaux:
the coefficient of G_nu in G_lambda * G_mu is the number of increasing
tableaux of shape nu/lambda that rectify to the minimal tableau M_mu.
M_mu is a unique rectification target on every minuscule poset, so
these are the members of the jeu de taquin class of M_mu whose support
is exactly nu minus lambda.  The class is built once per factor and
cached, which makes full multiplication tables over the exceptional
posets cheap.

Products are taken on minuscule posets only.  The two bounded families
that are not minuscule each have the box poset of a minuscule twin:
lg:n that of og:(n+1), qodd:n that of a:1,2n-1.  Their counts would be
the twin's numbers under a label whose K-theory they are not, so both
are refused.

The K-theory ring of a minuscule variety is commutative, so either
factor's class gives the product.  It is read from the class of the
larger factor mu, cut at |mu| inner boxes: a member counted for lambda
has its inner shape inside lambda, so at most |lambda| <= |mu| boxes.
Every product with mu as the larger factor reads the same cut of mu's
class, and the members with larger inner shapes are never built.

An independent route computes a single structure constant by direct
enumeration: count the increasing surjective fillings of the skew shape
whose greedy rectification is M_mu.  Rectified level k depends only on
levels 1..k of a filling, so the enumeration slides each level as it is
added and drops a partial filling at the first level that differs from
M_mu.  It never swaps the factors, so the test suite's comparison of the
two routes checks commutativity as well.

The Pieri and Grothendieck counts need no jeu de taquin: they count the
fillings whose row word has a given Hecke permutation w, on one
open-ended level walk over the values 1..d.  The word of values <= k is
a subword, and the Hecke product of a subword is Bruhat-below that of
the word, so a filling is cut at the first level whose permutation is
not below w.  The same fact fixes the letters: s_a <= w exactly when a
is in the support of w, so a counted word uses exactly those letters and
value k stands for the k-th of them.

Basis elements carry the Grothendieck-class sign dictionary: the
Schubert structure sheaf basis O differs from G by the sign (-1)^size,
so structure constants appear in K-theory with signs alternating by
codimension.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Mapping
from functools import reduce
from itertools import islice
from operator import or_
from types import MappingProxyType

from .errors import KjdtError, NonMinusculePoset, PosetError, WindowExceeded, _partition, check_count
from .poset import (
    MinusculePoset,
    Shape,
    ambient_grid,
    ambient_shifted,
    bits,
    remember,
    rook_strips_over,
    _check_type,
)
from .tableau import (
    Tableau,
    filling_row_words,
    increasing_fillings,
    is_urt,
    jdt_class,
    minimal_tableau,
    rectifies_to,
)
from .words import Permutation, bruhat_leq, hecke_of_word, reduced_word


# -- elements ----------------------------------------------------------------

def _merge(coeffs: dict[int, int]) -> dict[int, int]:
    return {m: c for m, c in coeffs.items() if c}


class GammaElement:
    """Finitely supported integer combination of straight shapes."""

    basis_symbol = "G"

    def __init__(self, poset: MinusculePoset, coeffs: dict[int, int]):
        self.poset = poset
        self.coeffs = _merge(coeffs)

    @classmethod
    def basis(cls, shape: Shape) -> "GammaElement":
        return cls(shape.poset, {shape.mask: 1})

    @classmethod
    def one(cls, poset: MinusculePoset) -> "GammaElement":
        return cls(poset, {0: 1})

    def terms(self) -> list[tuple[Shape, int]]:
        out = [(Shape(self.poset, m), c) for m, c in self.coeffs.items()]
        out.sort(key=lambda t: (t[0].size, t[0].row_lengths))
        return out

    def coefficient(self, shape: Shape) -> int:
        return self.coeffs.get(shape.mask, 0)

    def _check_same(self, other):
        if self.poset is not other.poset:
            raise PosetError("elements live on different posets")

    def __add__(self, other):
        self._check_same(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) + c
        return type(self)(self.poset, out)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, k):
        if type(k) is not int:  # a bool included
            raise KjdtError(f"a scalar must be an int, not {k!r}")
        return type(self)(self.poset, {m: k * c for m, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, GammaElement):
            return multiply(self, other)
        return self.__rmul__(other)

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.poset is other.poset
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.poset), tuple(sorted(self.coeffs.items()))))

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for shape, c in self.terms():
            body = f"{self.basis_symbol}[{shape.literal()}]"
            if c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    __repr__ = render

    def to_json(self) -> dict:
        fam = self.poset.family
        return {
            "poset": {"family": fam.kind, "params": list(fam.params)},
            "basis": self.basis_symbol,
            "terms": [
                {"shape": s.literal(), "coeff": c} for s, c in self.terms()
            ],
        }


class SignedKElement(GammaElement):
    """Same carrier in the structure-sheaf basis with alternating signs."""

    basis_symbol = "O"


def _flip_signs(coeffs: dict[int, int]) -> dict[int, int]:
    """Multiply the coefficient of each shape by (-1)^size."""
    return {m: (-1) ** m.bit_count() * c for m, c in coeffs.items()}


def to_schubert_basis(g: GammaElement) -> SignedKElement:
    """G_lambda maps to (-1)^size O_lambda."""
    _check_type(GammaElement, g=g)
    return SignedKElement(g.poset, _flip_signs(g.coeffs))


def from_schubert_basis(o: SignedKElement) -> GammaElement:
    return GammaElement(o.poset, _flip_signs(o.coeffs))


# -- products ----------------------------------------------------------------

def _ring_poset(**shapes: Shape) -> MinusculePoset:
    """The one poset of ``shapes``, refused unless its products are K-theory constants.

    The shapes come by argument name, and one that is not a ``Shape`` is
    refused with a ``PosetError`` that names it.
    """
    _check_type(Shape, **shapes)
    poset = shapes["lam"].poset
    if any(s.poset is not poset for s in shapes.values()):
        raise PosetError("shapes live on different posets")
    if poset.is_ambient:
        raise NonMinusculePoset(
            "ring products need a bounded poset; use the Pieri and "
            "Grothendieck operations on ambient windows"
        )
    if not poset.is_minuscule:
        raise NonMinusculePoset(
            f"poset {poset.family.spec()} is not minuscule; it is unverified that "
            "its products are the K-theory structure constants of the geometry"
        )
    return poset


def class_supports(
    poset: MinusculePoset, mu: Shape, *, max_inner: int | None = None
) -> Mapping[int, int]:
    """Support multiset of the jeu de taquin class of M_mu (memoised, read-only).

    M_mu is a unique rectification target, so the class is built as the
    tree of the tableaux whose greedy rectification is M_mu.  ``max_inner``
    keeps only the members whose inner shape has at most that many boxes
    (``None``: the whole class); each bound is memoised on its own.
    """
    key = (mu.mask, max_inner)
    try:
        return poset.class_supports_memo[key]
    except KeyError:
        levels = poset._minimal_memo[mu.mask]
        seed = Tableau.from_masks(poset, tuple(range(1, len(levels) + 1)), levels)
        counts: dict[int, int] = {}
        for masks in jdt_class(seed, seed_is_urt=True, max_inner=max_inner).states:
            s = reduce(or_, masks, 0)
            counts[s] = counts.get(s, 0) + 1
        return remember(poset.class_supports_memo, key, MappingProxyType(counts))


def _attach(
    poset: MinusculePoset, lam: int, supports: Mapping[int, int], least: int
) -> dict[int, int]:
    """Counts of the shapes ``nu`` above the ideal ``lam``: that of the support ``nu & ~lam``.

    For ideals ``lam <= nu``, only the support ``s = nu & ~lam`` gives
    ``nu = lam | s``.  The down-closure of ``s`` lies in ``nu``, so its
    inner shape lies in ``lam`` and needs no test: the lookup over the
    memoised shapes above ``lam`` is exact.  Only shapes of at least
    ``least`` boxes are looked up; the caller passes ``|lam|`` plus a size
    no support is smaller than.  The shapes above ``lam`` come from a
    breadth-first search that adds one box at a time, so in nondecreasing
    size, and the first of ``least`` boxes is found by bisection.
    """
    above = poset._above_memo[lam]
    start = bisect_left(above, least, key=int.bit_count)
    return {nu: supports[nu & ~lam] for nu in islice(above, start, None) if nu & ~lam in supports}


def basis_product(lam: Shape, mu: Shape) -> dict[int, int]:
    """Coefficients of G_lam * G_mu as a map from outer-shape masks.

    The coefficient of G_nu counts the tableaux of shape nu/lam that
    rectify to M_mu.  The ring is commutative, so the factors are first
    ordered with |lam| <= |mu|; such a tableau's inner shape lies inside
    lam, so mu's class is read only up to |mu| inner boxes.  A product has
    no term G_nu with |nu| < |lam| + |mu|.  So no member of that cut class
    has fewer than |mu| boxes (its inner shape, as lam, would give such a
    term), and smaller shapes are not looked up.
    """
    poset = _ring_poset(lam=lam, mu=mu)
    if lam.size > mu.size:
        lam, mu = mu, lam
    supports = class_supports(poset, mu, max_inner=mu.size)
    return _attach(poset, lam.mask, supports, lam.size + mu.size)


def multiply(a: GammaElement, b: GammaElement) -> GammaElement:
    _check_type(GammaElement, a=a, b=b)
    if type(a) is not type(b):
        raise PosetError("cannot multiply elements written in different bases")
    a._check_same(b)
    if isinstance(a, SignedKElement):
        ga = from_schubert_basis(a)
        gb = from_schubert_basis(b)
        return to_schubert_basis(multiply(ga, gb))
    poset = a.poset
    out: dict[int, int] = {}
    for ma, ca in a.coeffs.items():
        for mb, cb in b.coeffs.items():
            for nu, c in basis_product(Shape(poset, ma), Shape(poset, mb)).items():
                out[nu] = out.get(nu, 0) + ca * cb * c
    return GammaElement(poset, out)


def structure_constant(lam: Shape, mu: Shape, nu: Shape) -> int:
    """One structure constant by direct enumeration plus greedy rectification.

    Counts increasing fillings of nu minus lam whose value set equals the
    value set of M_mu and whose greedy rectification (sliding from the
    presentation inner shape lam) is M_mu.  The count walks
    ``increasing_fillings`` with the keep ``rectifies_to(poset, lam, M_mu)``,
    which cuts a partial filling at the first level whose rectification
    differs from M_mu.
    """
    poset = _ring_poset(lam=lam, mu=mu, nu=nu)
    if lam.mask & ~nu.mask:
        return 0
    return _greedy_count(poset, lam, mu, nu)


def _greedy_count(poset, lam: Shape, mu: Shape, nu: Shape) -> int:
    target = poset._minimal_memo[mu.mask]  # M_mu's level masks
    keep = rectifies_to(poset, lam.mask, target)
    fillings = increasing_fillings(poset, lam.mask, nu.mask, len(target), keep=keep)
    return sum(1 for _ in fillings)


# -- duality and pairing ------------------------------------------------------

def dual_class(lam: Shape) -> SignedKElement:
    """Alternating sum of O_nu over rook-strip extensions of the dual shape."""
    _check_type(Shape, lam=lam)
    poset = lam.poset
    base = lam.dual()
    coeffs = {}
    for nu in rook_strips_over(base):
        coeffs[nu.mask] = (-1) ** (nu.size - base.size)
    return SignedKElement(poset, coeffs)


def euler_pairing(lam: Shape, mu: Shape) -> int:
    """Sheaf Euler characteristic of O_lam * O_mu (each O_nu pairs to 1)."""
    total = 0
    for nu, c in basis_product(lam, mu).items():
        total += (-1) ** (nu.bit_count() - lam.size - mu.size) * c
    return total


# -- Pieri rules ----------------------------------------------------------------

def _check_row_length(p: int):
    if type(p) is not int or p < 1:
        raise PosetError(f"the Pieri row length must be positive and an int, not {p!r}")


def _pieri_a_window(lam, p: int, rows: int | None, cols: int | None) -> Shape:
    """The shape lam in the grid window of G_lam * G_p; the window defaults to the least.

    A window too small to hold every term raises ``WindowExceeded``, a
    lam that is not a partition ``PosetError``, and a side that is not
    ``None`` or a non-negative int ``KjdtError``.
    """
    lam = _partition(lam)
    _check_row_length(p)
    need_rows = len(lam) + 1
    need_cols = (lam[0] if lam else 0) + p
    rows = need_rows if rows is None else rows
    cols = need_cols if cols is None else cols
    check_count("rows", rows)
    check_count("cols", cols)
    if rows < need_rows or cols < need_cols:
        raise WindowExceeded(
            f"window {rows}x{cols} cannot hold all terms; "
            f"need at least {need_rows}x{need_cols}"
        )
    return ambient_grid(rows, cols).shape(list(lam))


def pieri_A(lam, p: int, rows: int | None = None, cols: int | None = None) -> GammaElement:
    """Single-row product in the grid ring by the closed binomial formula."""
    lam_shape = _pieri_a_window(lam, p, rows, cols)
    poset, lam_mask = lam_shape.poset, lam_shape.mask
    cols = poset.family.params[1]
    # The horizontal strips over lam are the ideals between lam and lam plus
    # the box under the end of each column (row 1 for an empty column).
    below = (lam_mask | lam_mask << cols | (1 << cols) - 1) & poset.full_mask
    coeffs = {}
    for nu in poset.ideals_between(lam_mask, below):
        strip = nu & ~lam_mask
        k = strip.bit_count()
        if k < p:  # p >= 1, so a counted strip has a row
            continue
        r = len({poset.boxes[i][0] for i in bits(strip)})
        c = math.comb(r - 1, k - p)
        if c:
            coeffs[nu] = c
    return GammaElement(poset, coeffs)


def pieri_A_by_counting(lam, p: int, rows: int, cols: int) -> GammaElement:
    """Independent Pieri check: count tableaux with the one-row Hecke class."""
    lam_shape = _pieri_a_window(lam, p, rows, cols)
    poset = lam_shape.poset
    target = hecke_of_word(tuple(range(1, p + 1)))
    return GammaElement(poset, _count_hecke_fillings(poset, lam_shape.mask, target))


def _count_hecke_fillings(
    poset: MinusculePoset, lam_mask: int, target: Permutation
) -> dict[int, int]:
    """Hecke counts {nu mask: count} over the shapes nu above lam.

    The count of nu is the number of increasing fillings of nu/lam whose
    row word has Hecke permutation ``target``; shapes with no such filling
    are left out.  Such a word uses exactly the letters of ``target``'s
    support.  The Hecke product of a subword is Bruhat-below that of the
    word, and s_a <= x exactly when a is in the support of x, so each
    letter is in the support; and a product of letters moves only the
    points those letters touch, so each support letter occurs.  The
    fillings are therefore those of the values 1..len(letters), value k
    read as the k-th support letter, on one open-ended level walk.  The
    walk cuts a filling at the first level whose word (values <= k, a
    subword) has a Hecke permutation not Bruhat-below ``target``, and
    counts equality at the end.
    """
    letters = sorted(set(reduced_word(target)))
    below = {target: True}  # Hecke permutation -> bruhat_leq(it, target)
    h = Permutation.identity()  # of the last word keep saw, the yielded filling's

    def keep(word) -> bool:
        nonlocal h
        h = hecke_of_word([letters[v - 1] for v in word])
        ok = below.get(h)
        if ok is None:
            ok = below[h] = bruhat_leq(h, target)
        return ok

    counts: dict[int, int] = {}
    for nu, _ in filling_row_words(poset, lam_mask, len(letters), keep):
        if h == target:
            counts[nu] = counts.get(nu, 0) + 1
    return counts


def is_pieri_word_b(word) -> bool:
    """Each letter is weakly below or weakly above all of its predecessors."""
    for i, a in enumerate(word):
        lo = min(word[:i], default=a)
        hi = max(word[:i], default=a)
        if not (a <= lo or a >= hi):
            return False
    return True


def _pieri_b_window(lam, p: int, cols: int | None) -> Shape:
    """The shape lam in the shifted window of G_lam * G_p, as ``_pieri_a_window``."""
    lam = _partition(lam)
    _check_row_length(p)
    need = (lam[0] if lam else 0) + p
    cols = need if cols is None else cols
    check_count("cols", cols)
    if cols < need:
        raise WindowExceeded(f"shifted window {cols} too small; need {need}")
    return ambient_shifted(cols).shape(list(lam))


def pieri_B(lam, p: int, cols: int | None = None) -> GammaElement:
    """Single-row product in the shifted ring by Pieri-word counting."""
    lam_shape = _pieri_b_window(lam, p, cols)
    poset, lam_mask = lam_shape.poset, lam_shape.mask
    coeffs: dict[int, int] = {}
    for nu, _ in filling_row_words(poset, lam_mask, p, is_pieri_word_b):
        coeffs[nu] = coeffs.get(nu, 0) + 1
    return GammaElement(poset, coeffs)


def pieri_B_by_class(lam, p: int, cols: int) -> GammaElement:
    """Independent shifted Pieri check via the class of the one-row tableau."""
    lam_shape = _pieri_b_window(lam, p, cols)
    poset, lam_mask = lam_shape.poset, lam_shape.mask
    supports = class_supports(poset, poset.shape([p]))
    # a member of the class carries the p values of the one-row tableau
    return GammaElement(poset, _attach(poset, lam_mask, supports, lam_shape.size + p))


# -- stable Grothendieck classes -------------------------------------------------

def stable_grothendieck_coeffs(w: Permutation) -> GammaElement:
    """Expansion of the class of a permutation over shape basis elements.

    The coefficient of a shape counts increasing tableaux of that shape
    whose Hecke permutation is the inverse of ``w``.
    """
    return grothendieck_times_shape(w, ())


def grothendieck_times_shape(w: Permutation, lam) -> GammaElement:
    """Coefficients of the product of a permutation class with G_lam.

    The window adds d rows and d columns to lam, d = hi - lo the span of
    ``w``'s support [lo, hi] (0 for the identity), used letters or not:
    s1*s3 gives d = 3.  The window is at least 1x1.
    """
    if not isinstance(w, Permutation):
        raise PosetError(f"{w!r} is not a Permutation")
    lam = _partition(lam)
    lo, hi = w.support()
    d = max(hi - lo, 0)  # letters lo..hi-1
    poset = ambient_grid(max(len(lam) + d, 1), max((lam[0] if lam else 0) + d, 1))
    lam_mask = poset.shape(list(lam)).mask
    return GammaElement(poset, _count_hecke_fillings(poset, lam_mask, w.inverse()))


# -- fat hooks --------------------------------------------------------------------

def _fat_hook_params(lam) -> tuple[int, int, int, int]:
    lam = _partition(lam)
    if not lam:
        raise PosetError("a fat hook needs at least one row")
    distinct = sorted(set(lam), reverse=True)
    if len(distinct) == 1:
        a, b = lam[0], len(lam)
        return a, b, 0, 0
    if len(distinct) == 2:
        a, c = distinct
        b = sum(1 for x in lam if x == a)
        d = sum(1 for x in lam if x == c)
        return a, b, c, d
    raise PosetError(f"{lam} is not a fat hook")


def fat_hook_urt(lam, u_tab: Tableau, pad: int = 2) -> dict:
    """Corner-attachment construction of unique rectification targets.

    For a fat hook shape, attaching a unique rectification target with
    large entries into the inner corner of the minimal tableau yields a
    unique rectification target; the claim is cross-validated by running
    the direct class check on the combined tableau in a window.
    """
    check_count("pad", pad)
    a, b, c, d = _fat_hook_params(lam)
    _check_type(Tableau, u_tab=u_tab)
    u_rows = u_tab.straight_rows() if u_tab.size else ()
    if len(u_rows) > d or any(len(r) > a - c for r in u_rows):
        raise PosetError("the attached tableau does not fit in the corner")
    poset = ambient_grid(b + d + pad, a + pad)
    m_lam = minimal_tableau(poset.shape(list(lam)))
    if u_tab.size and u_tab.level_values[0] <= m_lam.level_values[-1]:
        raise PosetError("attached entries must exceed the minimal tableau")
    filling = m_lam.as_dict()
    for r, row in enumerate(u_rows, start=b + 1):
        for k, v in enumerate(row, start=c + 1):
            filling[(r, k)] = v
    combined = Tableau.from_dict(poset, filling)
    u_verdict = is_urt(u_tab, pad=pad) if u_tab.size else None
    direct = is_urt(combined, pad=pad)
    asserted = u_verdict.status == "certified" if u_verdict else True
    return {
        "combined": combined,
        "u_verdict": u_verdict.status if u_verdict else "empty",
        "direct_verdict": direct.status,
        "asserted_urt": asserted,
        "consistent": (not asserted) or direct.status != "refuted",
    }
