"""Reference fixtures: tabulated values from the published literature.

Each entry is a named check returning (ok, detail).  The command-line
``verify`` command and the acceptance suite both run these, so the
expected numbers live in exactly one place.
"""
from __future__ import annotations

import time
from functools import reduce
from operator import or_

from .kring import (
    SignedKElement,
    basis_product,
    is_pieri_word_b,
    multiply,
    structure_constant,
)
from .poset import (
    Shape,
    SkewShape,
    ambient_grid,
    ambient_shifted,
    cayley_plane,
    enumerate_shapes,
    freudenthal,
    max_orthogonal,
    quadric_even,
    type_a,
)
from .rootsys import run_suite
from .tableau import (
    Tableau,
    WeakTableau,
    doubling,
    forward_slide,
    infusion,
    is_urt,
    jdt_class,
    maximal_tableau,
    minimal_tableau,
    parse_tableau,
    reading_words,
    rectify_all,
    superstandard,
    tableau_product,
    value_rows,
)
from .words import hecke_of_word


def _shapes(poset, *lits):
    return tuple(poset.shape(lit) for lit in lits)


def _product_table(poset, pairs, expected):
    """Compare O-basis products and count contributing tableaux."""
    total = 0
    for (lam_lit, mu_lit), exp_terms in zip(pairs, expected):
        lam, mu = _shapes(poset, lam_lit, mu_lit)
        coeffs = basis_product(lam, mu)
        total += sum(coeffs.values())
        got = dict(sorted(
            (poset.row_lengths(m), (-1) ** (m.bit_count() - lam.size - mu.size) * c)
            for m, c in coeffs.items()
        ))
        want = {tuple(k): v for k, v in exp_terms.items()}
        if got != want:
            return False, f"product O[{lam_lit}]*O[{mu_lit}]: got {got}", total
    return True, "products match", total


def check_cayley_product():
    e6 = cayley_plane()
    lam = e6.shape("2")
    coeffs = basis_product(lam, lam)
    got = dict(sorted((e6.row_lengths(m), c) for m, c in coeffs.items()))
    ok = got == {(4,): 1, (3, 1): 1, (4, 1): 1}
    return ok, f"G[2]*G[2] = {got}"


def check_e6_products():
    e6 = cayley_plane()
    ok, detail, total = _product_table(
        e6,
        [("4", "4"), ("4,4", "4"), ("4,4", "4,4")],
        [
            {(4, 4): 1, (4, 3, 1): 1, (4, 2, 2): 1, (4, 4, 1): -1, (4, 3, 2): -1},
            {(4, 4, 4): 1},
            {(4, 4, 4, 4): 1},
        ],
    )
    ok = ok and total == 7
    return ok, f"{detail}; contributing tableaux: {total} (want 7)"


def check_e7_products():
    e7 = freudenthal()
    ok, detail, total = _product_table(
        e7,
        [("5", "5"), ("5,4", "5"), ("5,4", "5,4")],
        [
            {(5, 4, 1): 2, (5, 3, 2): 2, (5, 4, 2): -3, (5, 3, 3): -1, (5, 4, 3): 1},
            {(5, 5, 4): 2, (5, 5, 3, 1): 2, (5, 4, 4, 1): 1, (5, 5, 4, 1): -4},
            {(5, 5, 5, 2, 1): 2, (5, 5, 4, 2, 1, 1): 2, (5, 5, 5, 2, 1, 1): -3},
        ],
    )
    ok = ok and total == 25
    return ok, f"{detail}; contributing tableaux: {total} (want 25)"


def check_e8_fails():
    e7 = freudenthal()
    lam, mu, nu = _shapes(e7, "5,1", "5,3,3", "5,5,5,2,1,1")
    c = structure_constant(lam, mu, nu)
    results = [c == 11]
    detail = [f"c = {c} (want 11)"]
    skew = nu.mask & ~lam.mask
    for orient in ("row", "col"):
        target = superstandard(mu, orient)
        cls = jdt_class(target, within=nu.mask)
        cands = [masks for masks in cls.states if reduce(or_, masks, 0) == skew]
        has = unique = 0
        for masks in cands:
            tab = Tableau.from_masks(e7, target.level_values, masks)
            rects = rectify_all(tab)
            if target in rects:
                has += 1
                if len(rects) == 1:
                    unique += 1
        results.append(has == 12 and unique == 10)
        detail.append(f"{orient}: {has} with the target (want 12), {unique} unique (want 10)")
    return all(results), "; ".join(detail)


def check_non_urt_a():
    g36 = type_a(3, 3)
    tab = parse_tableau(g36, ".,.,./.,.,2/1,3,4")
    rects = sorted(t.straight_rows() for t in rectify_all(tab))
    ok = rects == [((1, 2, 4), (3,)), ((1, 2, 4), (3, 4))]
    return ok, f"rectifications: {rects}"


def check_non_urt_e7():
    e7 = freudenthal()
    lam = e7.shape("5,3,3")
    checks = []
    for orient, filling in [
        ("row", {(2, 5): 1, (2, 6): 2, (2, 7): 3, (2, 8): 5,
                 (3, 4): 1, (3, 5): 2, (3, 6): 4, (3, 7): 6, (3, 8): 8,
                 (4, 6): 7, (4, 7): 9, (5, 7): 10, (6, 7): 11}),
        ("col", {(2, 5): 1, (2, 6): 2, (2, 7): 4, (2, 8): 5,
                 (3, 4): 1, (3, 5): 3, (3, 6): 4, (3, 7): 6, (3, 8): 8,
                 (4, 6): 7, (4, 7): 9, (5, 7): 10, (6, 7): 11}),
    ]:
        target = superstandard(lam, orient)
        tab = Tableau.from_dict(e7, filling)
        only = rectify_all(forward_slide(tab, [(1, 5)])) == {target}
        absent = target not in rectify_all(forward_slide(tab, [(2, 4)]))
        checks.append(only and absent)
    return all(checks), f"slide-dependent rectification: {checks}"


def check_non_urt_b():
    og = max_orthogonal(6)
    tab = Tableau.from_dict(
        og,
        {(1, 5): 2, (2, 3): 1, (2, 4): 2, (2, 5): 4, (3, 3): 3, (3, 4): 5, (4, 4): 6},
    )
    target = superstandard(og.shape("4,2"), "col")
    a = target in rectify_all(forward_slide(tab, [(1, 4)]))
    b = target not in rectify_all(forward_slide(tab, [(2, 2)]))
    v = is_urt(target)
    ok = a and b and v.status == "refuted"
    return ok, f"reached via [1,4]: {a}; avoided via [2,2]: {b}; verdict: {v.status}"


def check_slide_display():
    e6 = cayley_plane()
    tab = parse_tableau(e6, ".,.,.,1/.,2,4,5/3,4,5")
    out = forward_slide(tab, [(2, 3)])
    want = parse_tableau(e6, ".,.,.,1/2,4,5/3,5")
    ok = out == want and out.shape.outer.row_lengths == (4, 3, 2)
    return ok, f"slide result {out.literal()}"


def check_infusion_display():
    e6 = cayley_plane()
    s_tab = parse_tableau(e6, ".,.,.,2/1,3,4/3")
    t_tab = Tableau.from_dict(
        e6,
        {(2, 6): 1, (3, 4): 1, (3, 5): 2, (3, 6): 3, (4, 5): 3, (4, 6): 4, (4, 7): 5},
    )
    t_out, s_out = infusion(s_tab, t_tab)
    want_t = parse_tableau(e6, ".,.,.,1/1,2,3,4/3,4,5")
    want_s = Tableau.from_dict(e6, {(3, 6): 2, (4, 5): 1, (4, 6): 3, (4, 7): 4})
    ok = t_out == want_t and s_out == want_s
    ok = ok and infusion(t_out, s_out) == (s_tab, t_tab)
    return ok, "infusion pair and involution"


def check_reading_words():
    filling = {
        (1, 9): 2, (2, 8): 1, (2, 9): 2, (3, 6): 2, (3, 7): 2, (4, 7): 3,
        (5, 3): 1, (5, 4): 2, (5, 5): 4,
        (6, 1): 1, (6, 2): 2, (6, 3): 3, (6, 4): 3,
        (7, 2): 2, (7, 3): 3, (7, 4): 4, (8, 4): 5,
    }
    words = sorted(reading_words(WeakTableau(filling)))
    expected = sorted(
        [
            (2, 3, 1, 2, 3, 1, 5, 4, 3, 2, 4, 2, 3, 2, 1, 2, 2),
            (2, 3, 1, 2, 3, 5, 1, 4, 3, 2, 4, 2, 3, 2, 1, 2, 2),
            (2, 3, 1, 2, 3, 5, 4, 1, 3, 2, 4, 2, 3, 2, 1, 2, 2),
            (2, 3, 1, 2, 3, 5, 4, 3, 1, 2, 4, 2, 3, 2, 1, 2, 2),
        ]
    )
    heckes = {hecke_of_word(w) for w in words}
    ok = words == expected and len(heckes) == 1
    return ok, f"{len(words)} reading words, {len(heckes)} Hecke class"


def _grid_straight(rows):
    g = ambient_grid(max(len(rows), 1) + 4, max((len(r) for r in rows), default=1) + 4)
    filling = {}
    for r, row in enumerate(rows, start=1):
        for c, v in enumerate(row, start=1):
            filling[(r, c)] = v
    return Tableau.from_dict(g, filling)


def check_tableau_products():
    p = tableau_product(_grid_straight([(1, 2), (4,)]), _grid_straight([(1, 3), (3,)]))
    ok = p.straight_rows() == ((1, 2, 3), (2,), (4,))
    one, mid, two = _grid_straight([(1,)]), _grid_straight([(1, 4), (3,)]), _grid_straight([(2,)])
    left = tableau_product(tableau_product(one, mid), two)
    right = tableau_product(one, tableau_product(mid, two))
    ok = ok and left.straight_rows() == ((1, 2, 4), (3,))
    ok = ok and right.straight_rows() == ((1, 2, 4), (3, 4))
    return ok, f"left {left.straight_rows()}, right {right.straight_rows()}"


def check_doubling_display():
    sh = ambient_shifted(8)
    tab = Tableau.from_dict(
        sh,
        {(1, 6): 2, (2, 4): 1, (2, 5): 3, (2, 6): 4,
         (3, 3): 2, (3, 4): 4, (3, 5): 6, (3, 6): 7, (4, 4): 5, (4, 5): 7},
    )
    want = {(1, 6): 2, (2, 4): 1, (2, 5): 3, (2, 6): 4,
            (3, 3): 2, (3, 4): 4, (3, 5): 6, (3, 6): 7,
            (4, 2): 1, (4, 3): 4, (4, 4): 5, (4, 5): 7,
            (5, 2): 3, (5, 3): 6, (5, 4): 7, (6, 1): 2, (6, 2): 4, (6, 3): 7}
    got = doubling(tab).as_dict()
    return got == want, "doubled support and values"


def check_pieri_b_tableau():
    sh = ambient_shifted(9)
    tab = Tableau.from_dict(
        sh,
        {(1, 8): 1, (1, 9): 6, (2, 8): 5, (3, 6): 2, (3, 7): 5,
         (4, 4): 2, (4, 5): 3, (4, 6): 4},
    )
    word = tab.row_word()
    ok = is_pieri_word_b(word) and tab.value_set() == set(range(1, 7))
    return ok, f"row word {word} accepted with range [1,6]"


def check_minimal_displays():
    og = max_orthogonal(6)
    m = minimal_tableau(og.shape("5,3,2"))
    ok = m.straight_rows() == ((1, 2, 3, 4, 5), (3, 4, 5), (5, 6))
    grid = ambient_grid(6, 10)
    theta = SkewShape(grid.shape("9,7,6,6,4"), grid.shape("5,3,2"))
    got_min = value_rows(minimal_tableau(theta).as_dict())
    got_max = value_rows(maximal_tableau(theta).as_dict())
    ok = ok and got_min[4] == (1, 2, 3, 4, 5, 6) and got_min[1] == (1, 2, 3, 4)
    ok = ok and got_max[4] == (-6, -5, -4, -3, -2, -1) and got_max[2] == (-5, -4, -3, -1)
    return ok, "minimal and maximal skew fillings match"


def check_superstandard_displays():
    og = max_orthogonal(6)
    s = superstandard(og.shape("5,3,2"), "row")
    sh = superstandard(og.shape("5,3,2"), "col")
    ok = s.straight_rows() == ((1, 2, 3, 4, 5), (6, 7, 8), (9, 10))
    ok = ok and sh.straight_rows() == ((1, 2, 4, 7, 10), (3, 5, 8), (6, 9))
    return ok, "row-wise and column-wise superstandard fillings"


def check_dual_shape():
    e6 = cayley_plane()
    d = e6.shape("4,2,1").dual()
    return d.row_lengths == (4, 3, 2), f"dual of (4,2,1) is {d.row_lengths}"


def check_mininc_urt_e6():
    e6 = cayley_plane()
    bad = []
    for lam in enumerate_shapes(e6):
        if is_urt(minimal_tableau(lam)).status != "certified":
            bad.append(lam.literal())
    return not bad, f"27 shapes, straight-member failures: {bad}"


def check_rootsys_e6():
    rep = run_suite("E6", 6, 6)
    return rep["pass"], "27/27 shapes pass inversion, duality, Bruhat, orthogonality"


def check_rootsys_e7():
    rep = run_suite("E7", 7, 7)
    return rep["pass"], "56/56 shapes pass inversion, duality, Bruhat, orthogonality"


def check_quadric_pattern():
    ok = True
    details = []
    for n in range(2, 6):
        poset = quadric_even(n)
        shapes_by_size: dict[int, list[Shape]] = {}
        for s in enumerate_shapes(poset):
            shapes_by_size.setdefault(s.size, []).append(s)
        if any(len(shapes_by_size[k]) != (2 if k == n else 1) for k in range(2 * n + 1)):
            return False, f"n={n}: unexpected shape census"
        one = shapes_by_size[1][0]
        o1 = SignedKElement(poset, {one.mask: 1})
        mid_a, mid_b = shapes_by_size[n]
        for p in range(2 * n + 1):
            for xp in shapes_by_size[p]:
                prod = multiply(o1, SignedKElement(poset, {xp.mask: 1}))
                if p == 2 * n:
                    good = prod.coeffs == {}
                elif p == n - 1:
                    want = {
                        mid_a.mask: 1,
                        mid_b.mask: 1,
                        shapes_by_size[n + 1][0].mask: -1,
                    }
                    good = prod.coeffs == want
                else:
                    good = prod.coeffs == {shapes_by_size[p + 1][0].mask: 1}
                if not good:
                    ok = False
                    details.append(f"n={n} p={p} ({xp.literal()}): {prod.render()}")
        for mid in (mid_a, mid_b):
            sq = multiply(
                SignedKElement(poset, {mid.mask: 1}),
                SignedKElement(poset, {mid.mask: 1}),
            )
            if n % 2 == 0:
                good = sq.coeffs == {poset.full_mask: 1}
            else:
                good = sq.coeffs == {}
            if not good:
                ok = False
                details.append(f"n={n} square of {mid.literal()}: {sq.render()}")
    return ok, "; ".join(details) if details else "divisor action and middle squares match for n=2..5"


FIXTURES = {
    "cayley": check_cayley_product,
    "e6-products": check_e6_products,
    "e7-products": check_e7_products,
    "e8-fails": check_e8_fails,
    "non-urt-a": check_non_urt_a,
    "non-urt-e7": check_non_urt_e7,
    "non-urt-b": check_non_urt_b,
    "slide-display": check_slide_display,
    "infusion-display": check_infusion_display,
    "reading-words": check_reading_words,
    "tableau-products": check_tableau_products,
    "doubling": check_doubling_display,
    "pieri-b-tableau": check_pieri_b_tableau,
    "minimal-displays": check_minimal_displays,
    "superstandard-displays": check_superstandard_displays,
    "dual-shape": check_dual_shape,
    "mininc-urt-e6": check_mininc_urt_e6,
    "rootsys-e6": check_rootsys_e6,
    "rootsys-e7": check_rootsys_e7,
    "quadric-pattern": check_quadric_pattern,
}


def run_fixture(name: str) -> tuple[str, bool, str, float]:
    """Run one fixture: (name, ok, detail, seconds it took)."""
    start = time.perf_counter()
    ok, detail = FIXTURES[name]()
    return name, ok, detail, time.perf_counter() - start
