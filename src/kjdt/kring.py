"""The combinatorial K-theory ring on straight shapes of a poset.

The basis elements G_lambda multiply by counting increasing tableaux
that rectify to the minimal tableau M_lambda.  Because M_lambda is a
unique rectification target on every minuscule poset, the coefficient
of G_nu in G_lambda * G_mu can be read off from the jeu de taquin class
of M_lambda: it is the number of class members whose support is exactly
nu minus mu.  That class is computed once per factor and cached, which
makes full multiplication tables over the exceptional posets cheap.

An independent route computes a single structure constant by direct
enumeration: fill the skew shape with all increasing surjective value
assignments and keep those whose greedy rectification is M_mu.  The two
routes are compared in the test suite.

Basis elements carry the Grothendieck-class sign dictionary: the
Schubert structure sheaf basis O differs from G by the sign (-1)^size,
so structure constants appear in K-theory with signs alternating by
codimension.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from types import MappingProxyType

from .errors import NonMinusculePoset, PosetError, WindowExceeded
from .poset import (
    MinusculePoset,
    Shape,
    ambient_grid,
    ambient_shifted,
    bits,
    remember,
    rook_strips_over,
)
from .tableau import (
    Tableau,
    increasing_fillings,
    is_urt,
    jdt_class,
    levels_support,
    minimal_tableau,
    rect_greedy,
)
from .words import Permutation, bruhat_leq, hecke_of_word


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
    def zero(cls, poset: MinusculePoset) -> "GammaElement":
        return cls(poset, {})

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
        if isinstance(k, int):
            return type(self)(self.poset, {m: k * c for m, c in self.coeffs.items()})
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, int):
            return other * self
        self._check_same(other)
        return multiply(self, other)

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


def to_schubert_basis(g: GammaElement) -> SignedKElement:
    """G_lambda maps to (-1)^size O_lambda."""
    return SignedKElement(
        g.poset,
        {m: (-1) ** m.bit_count() * c for m, c in g.coeffs.items()},
    )


def from_schubert_basis(o: SignedKElement) -> GammaElement:
    return GammaElement(
        o.poset,
        {m: (-1) ** m.bit_count() * c for m, c in o.coeffs.items()},
    )


# -- products ----------------------------------------------------------------

def _require_ring_poset(poset: MinusculePoset, assume_urp: bool):
    if poset.is_ambient:
        raise NonMinusculePoset(
            "ring products need a bounded poset; use the Pieri and "
            "Grothendieck operations on ambient windows"
        )
    if not poset.is_minuscule and not assume_urp:
        raise NonMinusculePoset(
            f"poset {poset.family.spec()} is not minuscule; the ring is only "
            "proven well defined on unique rectification posets "
            "(pass assume_urp to experiment, output is then unverified)"
        )


def class_supports(poset: MinusculePoset, mu: Shape) -> Mapping[int, int]:
    """Support multiset of the jeu de taquin class of M_mu (memoised, read-only)."""
    try:
        return poset.class_supports_memo[mu.mask]
    except KeyError:
        counts: dict[int, int] = {}
        for levels in jdt_class(minimal_tableau(mu)).member_keys:
            s = levels_support(levels)
            counts[s] = counts.get(s, 0) + 1
        return remember(poset.class_supports_memo, mu.mask, MappingProxyType(counts))


def _attach(poset: MinusculePoset, lam: int, supports: Mapping[int, int]) -> dict[int, int]:
    """Counts of ``lam | s`` over supports ``s`` that extend ``lam`` to a shape.

    A support is convex, so for the ideal ``lam`` and a support disjoint
    from it, ``lam | s`` is an ideal exactly when the inner shape of ``s``
    lies inside ``lam``.
    """
    geometry = poset.skew_geometry
    out: dict[int, int] = {}
    for support, count in supports.items():
        if support & lam or geometry(support)[1] & ~lam:
            continue
        nu = lam | support
        out[nu] = out.get(nu, 0) + count
    return out


def basis_product(
    lam: Shape, mu: Shape, assume_urp: bool = False
) -> dict[int, int]:
    """Coefficients of G_lam * G_mu as a map from outer-shape masks."""
    poset = lam.poset
    _require_ring_poset(poset, assume_urp)
    return _attach(poset, lam.mask, class_supports(poset, mu))


def multiply(a: GammaElement, b: GammaElement, assume_urp: bool = False) -> GammaElement:
    if type(a) is not type(b):
        raise PosetError("cannot multiply elements written in different bases")
    if isinstance(a, SignedKElement):
        ga = from_schubert_basis(a)
        gb = from_schubert_basis(b)
        return to_schubert_basis(multiply(ga, gb, assume_urp))
    poset = a.poset
    out: dict[int, int] = {}
    for ma, ca in a.coeffs.items():
        for mb, cb in b.coeffs.items():
            for nu, c in basis_product(
                Shape(poset, ma), Shape(poset, mb), assume_urp
            ).items():
                out[nu] = out.get(nu, 0) + ca * cb * c
    return GammaElement(poset, out)


def structure_constant(
    lam: Shape,
    mu: Shape,
    nu: Shape,
    assume_urp: bool = False,
    check_symmetric: bool = False,
) -> int:
    """One structure constant by direct enumeration plus greedy rectification.

    Counts increasing fillings of nu minus lam whose value set equals the
    value set of M_mu and whose greedy rectification (sliding from the
    presentation inner shape lam) is M_mu.
    """
    poset = lam.poset
    _require_ring_poset(poset, assume_urp)
    if mu.poset is not poset or nu.poset is not poset:
        raise PosetError("shapes live on different posets")
    if lam.mask & ~nu.mask:
        return 0
    count = _greedy_count(poset, lam, mu, nu)
    if check_symmetric:
        other = _greedy_count(poset, mu, lam, nu)
        if other != count:
            raise AssertionError(
                f"commutativity failure: c({lam.literal()},{mu.literal()})"
                f" = {count} but c({mu.literal()},{lam.literal()}) = {other}"
            )
    return count


def _greedy_count(poset, lam: Shape, mu: Shape, nu: Shape) -> int:
    skew = nu.mask & ~lam.mask
    if mu.size == 0:
        return 1 if skew == 0 else 0
    if skew == 0:
        return 0
    target = minimal_tableau(mu)
    count = 0
    for key in increasing_fillings(poset, lam.mask, nu.mask, max(target.values)):
        if rect_greedy(Tableau.from_levels(poset, key), inner=lam.mask) == target:
            count += 1
    return count


# -- duality, pairing, symmetry ------------------------------------------------

def dual_class(lam: Shape) -> SignedKElement:
    """Alternating sum of O_nu over rook-strip extensions of the dual shape."""
    poset = lam.poset
    base = lam.dual()
    coeffs = {}
    for nu in rook_strips_over(base):
        coeffs[nu.mask] = (-1) ** (nu.size - base.size)
    return SignedKElement(poset, coeffs)


def euler_pairing(lam: Shape, mu: Shape, assume_urp: bool = False) -> int:
    """Sheaf Euler characteristic of O_lam * O_mu (each O_nu pairs to 1)."""
    total = 0
    for nu, c in basis_product(lam, mu, assume_urp).items():
        total += (-1) ** (nu.bit_count() - lam.size - mu.size) * c
    return total


def check_symmetry(lam: Shape, mu: Shape, nu: Shape) -> dict:
    """Dual-class identity and the structure-constant symmetry on one triple."""
    poset = lam.poset
    one = SignedKElement(poset, {0: 1})
    o1 = SignedKElement(poset, {poset.shape("1").mask: 1})
    lhs = dual_class(lam)
    rhs = multiply(one - o1, SignedKElement(poset, {lam.dual().mask: 1}))
    dual_ok = lhs == rhs
    c1 = basis_product(lam, mu).get(nu.mask, 0)
    c2 = basis_product(lam, nu.dual()).get(mu.dual().mask, 0)
    return {
        "dual_class_identity": dual_ok,
        "c": c1,
        "c_dual": c2,
        "pass": dual_ok and c1 == c2,
    }


# -- Pieri rules ----------------------------------------------------------------

def _horizontal_strips(lam: tuple[int, ...], max_rows: int, max_cols: int):
    """Partitions nu >= lam with at most one new box per column.

    The strip condition is the interlacing nu[i] <= lam[i-1] for i >= 1.
    """
    lam = tuple(lam)

    def rec(row: int, acc: list[int]):
        if row == max_rows:
            yield tuple(x for x in acc if x)
            return
        base = lam[row] if row < len(lam) else 0
        if row == 0:
            cap = max_cols
        else:
            cap = min(acc[row - 1], lam[row - 1] if row - 1 < len(lam) else 0)
        for length in range(base, cap + 1):
            acc.append(length)
            yield from rec(row + 1, acc)
            acc.pop()

    yield from rec(0, [])


def _check_row_length(p: int):
    if p < 1:
        raise PosetError("the Pieri row length must be positive")


def pieri_A(lam, p: int, rows: int | None = None, cols: int | None = None) -> GammaElement:
    """Single-row product in the grid ring by the closed binomial formula."""
    lam = tuple(x for x in lam if x)
    _check_row_length(p)
    need_rows = len(lam) + 1
    need_cols = (lam[0] if lam else 0) + p
    rows = need_rows if rows is None else rows
    cols = need_cols if cols is None else cols
    if rows < need_rows or cols < need_cols:
        raise WindowExceeded(
            f"window {rows}x{cols} cannot hold all terms; "
            f"need at least {need_rows}x{need_cols}"
        )
    poset = ambient_grid(rows, cols)
    coeffs = {}
    for nu in _horizontal_strips(lam, rows, cols):
        k = sum(nu) - sum(lam)
        r = sum(
            1
            for i in range(len(nu))
            if nu[i] > (lam[i] if i < len(lam) else 0)
        )
        if k < p or r == 0:
            continue
        c = math.comb(r - 1, k - p)
        if c:
            coeffs[poset.shape(list(nu)).mask] = c
    return GammaElement(poset, coeffs)


def pieri_A_by_counting(lam, p: int, rows: int, cols: int) -> GammaElement:
    """Independent Pieri check: count tableaux with the one-row Hecke class."""
    lam = tuple(x for x in lam if x)
    _check_row_length(p)
    poset = ambient_grid(rows, cols)
    lam_shape = poset.shape(list(lam))
    target = hecke_of_word(tuple(range(1, p + 1)))
    return GammaElement(poset, _count_hecke_fillings(poset, lam_shape.mask, 1, p, target))


def _count_hecke_fillings(
    poset: MinusculePoset, lam_mask: int, lo: int, hi: int, target: Permutation
) -> dict[int, int]:
    """Hecke counts {nu mask: count} over the straight shapes nu above lam.

    The count of nu (strictly containing lam) is the number of increasing
    fillings of nu/lam with values in [lo, hi] whose row word has Hecke
    permutation ``target``; shapes with no such filling are left out.
    Shapes grow breadth-first from lam by minimal absent boxes, and a shape
    is grown only if one of its fillings has a Hecke permutation Bruhat-below
    ``target``.  This loses nothing: a filling of a larger shape restricts
    to a filling of each smaller one whose row word is a subword, and the
    Hecke product of a subword is Bruhat-below that of the word.
    """
    below = {target: True}  # Hecke permutation -> bruhat_leq(it, target)
    counts: dict[int, int] = {}
    seen = {lam_mask}
    frontier = [lam_mask]
    while frontier:
        grown = []
        for mask in frontier:
            skew = mask & ~lam_mask
            if skew:
                # Row-word position of each box: bottom row first.
                boxes = poset.boxes
                order = sorted(bits(skew), key=lambda i: (-boxes[i][0], boxes[i][1]))
                pos = {i: k for k, i in enumerate(order)}
                word = [0] * len(order)
                n = 0
                witness = False
                for key in increasing_fillings(
                    poset, lam_mask, mask, hi - lo + 1, surjective=False
                ):
                    for v, m in key:
                        for i in bits(m):
                            word[pos[i]] = v + lo - 1
                    h = hecke_of_word(tuple(word))
                    if h == target:
                        n += 1
                        witness = True
                    elif not witness:
                        ok = below.get(h)
                        if ok is None:
                            ok = below[h] = bruhat_leq(h, target)
                        witness = ok
                if n:
                    counts[mask] = n
                if not witness:
                    continue
            for i in poset.minimal_absent_boxes(mask):
                nxt = mask | (1 << i)
                if nxt not in seen:
                    seen.add(nxt)
                    grown.append(nxt)
        frontier = grown
    return counts


def is_pieri_word_b(word) -> bool:
    """Each letter is weakly below or weakly above all of its predecessors."""
    for i, a in enumerate(word):
        lo = min(word[:i], default=a)
        hi = max(word[:i], default=a)
        if not (a <= lo or a >= hi):
            return False
    return True


def pieri_B(lam, p: int, cols: int | None = None) -> GammaElement:
    """Single-row product in the shifted ring by Pieri-word counting."""
    lam = tuple(x for x in lam if x)
    _check_row_length(p)
    need = (lam[0] if lam else 0) + p
    cols = need if cols is None else cols
    if cols < need:
        raise WindowExceeded(f"shifted window {cols} too small; need {need}")
    poset = ambient_shifted(cols)
    lam_mask = poset.shape(list(lam)).mask
    coeffs = {}
    for nu in poset.ideals_between(lam_mask, poset.full_mask)[1:]:
        n = 0
        for key in increasing_fillings(poset, lam_mask, nu, p):
            if is_pieri_word_b(Tableau.from_levels(poset, key).row_word()):
                n += 1
        if n:
            coeffs[nu] = n
    return GammaElement(poset, coeffs)


def pieri_B_by_class(lam, p: int, cols: int) -> GammaElement:
    """Independent shifted Pieri check via the class of the one-row tableau."""
    lam = tuple(x for x in lam if x)
    _check_row_length(p)
    poset = ambient_shifted(cols)
    lam_mask = poset.shape(list(lam)).mask
    coeffs = _attach(poset, lam_mask, class_supports(poset, poset.shape([p])))
    coeffs.pop(lam_mask, None)
    return GammaElement(poset, coeffs)


# -- stable Grothendieck classes -------------------------------------------------

def _letter_range(w: Permutation) -> tuple[int, int]:
    lo, hi = w.support()
    return lo, hi - 1


def stable_grothendieck_coeffs(w: Permutation) -> GammaElement:
    """Expansion of the class of a permutation over shape basis elements.

    The coefficient of a shape counts increasing tableaux of that shape
    whose Hecke permutation is the inverse of ``w``.
    """
    if w.is_identity():
        poset = ambient_grid(1, 1)
        return GammaElement(poset, {0: 1})
    lo, hi = _letter_range(w)
    d = hi - lo + 1
    poset = ambient_grid(d, d)
    return GammaElement(poset, _count_hecke_fillings(poset, 0, lo, hi, w.inverse()))


def grothendieck_times_shape(w: Permutation, lam) -> GammaElement:
    """Coefficients of the product of a permutation class with G_lam."""
    lam = tuple(x for x in lam if x)
    if w.is_identity():
        poset = ambient_grid(max(len(lam), 1), max(lam[0] if lam else 1, 1))
        return GammaElement(poset, {poset.shape(list(lam)).mask: 1})
    lo, hi = _letter_range(w)
    d = hi - lo + 1
    rows = len(lam) + d
    cols = (lam[0] if lam else 0) + d
    poset = ambient_grid(rows, cols)
    lam_mask = poset.shape(list(lam)).mask
    return GammaElement(poset, _count_hecke_fillings(poset, lam_mask, lo, hi, w.inverse()))


# -- fat hooks --------------------------------------------------------------------

def _fat_hook_params(lam) -> tuple[int, int, int, int]:
    lam = tuple(x for x in lam if x)
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
    a, b, c, d = _fat_hook_params(lam)
    u_rows = u_tab.straight_rows() if u_tab.size else ()
    if len(u_rows) > d or any(len(r) > a - c for r in u_rows):
        raise PosetError("the attached tableau does not fit in the corner")
    poset = ambient_grid(b + d + pad, a + pad)
    m_lam = minimal_tableau(poset.shape(list(lam)))
    m_max = max(m_lam.values)
    if u_tab.size and min(u_tab.values) <= m_max:
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
