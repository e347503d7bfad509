"""Acceptance criteria, one test per numbered requirement.

Each test prints a single PASS/FAIL line (visible under ``pytest -s``)
and asserts the stated tolerance exactly.  Budgets are generous: the
whole module runs in well under the per-criterion time limits on a
laptop-class machine.
"""
import random
import time
from functools import reduce
from operator import or_

import pytest

import kjdt.tableau as tableau_module
from kjdt.kring import (
    GammaElement,
    SignedKElement,
    basis_product,
    euler_pairing,
    multiply,
    pieri_A,
    pieri_A_by_counting,
    structure_constant,
)
from kjdt.poset import (
    SkewShape,
    ambient_grid,
    ambient_shifted,
    bits,
    cayley_plane,
    enumerate_shapes,
    freudenthal,
    max_orthogonal,
    parse_poset,
    quadric_even,
    type_a,
)
from kjdt.rootsys import run_suite
from kjdt.tableau import (
    Tableau,
    doubling,
    forward_slide,
    hecke_of_tableau,
    infusion,
    jdt_class,
    minimal_tableau,
    parse_tableau,
    rectify_all,
    reverse_slide,
    superstandard,
    tableau_product,
    urt_census,
)
from kjdt.words import (
    conjecture_search,
    hecke_product,
    lds,
    lis,
)

from conftest import random_skew_tableau


def report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def terms(el):
    return {s.row_lengths: c for s, c in el.terms()}


def test_criterion_01_cayley_row_two_square():
    t0 = time.time()
    e6 = cayley_plane()
    g2 = GammaElement.basis(e6.shape("2"))
    got = terms(g2 * g2)
    ok = got == {(4,): 1, (3, 1): 1, (4, 1): 1}
    elapsed = time.time() - t0
    report(1, ok and elapsed < 1.0, f"G[2]^2 = {got} in {elapsed:.2f}s (< 1s)")


def test_criterion_02_e6_table():
    t0 = time.time()
    e6 = cayley_plane()
    expected = [
        ("4", "4", {(4, 4): 1, (4, 3, 1): 1, (4, 2, 2): 1, (4, 4, 1): -1, (4, 3, 2): -1}),
        ("4,4", "4", {(4, 4, 4): 1}),
        ("4,4", "4,4", {(4, 4, 4, 4): 1}),
    ]
    total = 0
    ok = True
    for lam_lit, mu_lit, want in expected:
        lam, mu = e6.shape(lam_lit), e6.shape(mu_lit)
        coeffs = basis_product(lam, mu)
        total += sum(coeffs.values())
        got = {
            e6.row_lengths(m): (-1) ** (m.bit_count() - lam.size - mu.size) * c
            for m, c in coeffs.items()
        }
        ok = ok and got == want
    elapsed = time.time() - t0
    ok = ok and total == 7 and elapsed < 10
    report(2, ok, f"three products exact, {total} tableaux (want 7), {elapsed:.2f}s (< 10s)")


def test_criterion_03_e7_table():
    t0 = time.time()
    e7 = freudenthal()
    expected = [
        ("5", "5", {(5, 4, 1): 2, (5, 3, 2): 2, (5, 4, 2): -3, (5, 3, 3): -1, (5, 4, 3): 1},
         (1, 1, 2, 2, 3)),
        ("5,4", "5", {(5, 5, 4): 2, (5, 5, 3, 1): 2, (5, 4, 4, 1): 1, (5, 5, 4, 1): -4},
         (1, 2, 2, 4)),
        ("5,4", "5,4", {(5, 5, 5, 2, 1): 2, (5, 5, 4, 2, 1, 1): 2, (5, 5, 5, 2, 1, 1): -3},
         (2, 2, 3)),
    ]
    total = 0
    ok = True
    for lam_lit, mu_lit, want, multiset in expected:
        lam, mu = e7.shape(lam_lit), e7.shape(mu_lit)
        coeffs = basis_product(lam, mu)
        total += sum(coeffs.values())
        got = {
            e7.row_lengths(m): (-1) ** (m.bit_count() - lam.size - mu.size) * c
            for m, c in coeffs.items()
        }
        ok = ok and got == want
        ok = ok and tuple(sorted(coeffs.values())) == multiset
    elapsed = time.time() - t0
    ok = ok and total == 25 and elapsed < 300
    report(3, ok, f"three products exact, {total} tableaux (want 25), {elapsed:.1f}s (< 5min)")


def test_criterion_04_freudenthal_superstandard_failure_counts():
    t0 = time.time()
    e7 = freudenthal()
    lam, mu, nu = e7.shape("5,1"), e7.shape("5,3,3"), e7.shape("5,5,5,2,1,1")
    c = structure_constant(lam, mu, nu)
    ok = c == 11
    detail = [f"c = {c} (want 11)"]
    skew = nu.mask & ~lam.mask
    for orient in ("row", "col"):
        target = superstandard(mu, orient)
        cls = jdt_class(target)
        has = unique = 0
        for masks in cls.states:
            mask = 0
            for m in masks:
                mask |= m
            if mask != skew:
                continue
            tab = Tableau.from_masks(e7, target.level_values, masks)
            rects = rectify_all(tab)
            if target in rects:
                has += 1
                if len(rects) == 1:
                    unique += 1
        ok = ok and has == 12 and unique == 10
        detail.append(f"{orient}: 12/10 -> {has}/{unique}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 600
    report(4, ok, "; ".join(detail) + f", {elapsed:.1f}s (< 10min)")


def test_criterion_05_two_rectifications():
    t0 = time.time()
    g36 = type_a(3, 3)
    tab = parse_tableau(g36, ".,.,./.,.,2/1,3,4")
    rects = sorted(t.straight_rows() for t in rectify_all(tab))
    ok = rects == [((1, 2, 4), (3,)), ((1, 2, 4), (3, 4))]
    elapsed = time.time() - t0
    ok = ok and elapsed < 1.0
    report(5, ok, f"rectifications {rects}, {elapsed:.2f}s (< 1s)")


def test_criterion_06_slide_dependent_rectification():
    t0 = time.time()
    e7 = freudenthal()
    lam = e7.shape("5,3,3")
    fill_row = {(2, 5): 1, (2, 6): 2, (2, 7): 3, (2, 8): 5,
                (3, 4): 1, (3, 5): 2, (3, 6): 4, (3, 7): 6, (3, 8): 8,
                (4, 6): 7, (4, 7): 9, (5, 7): 10, (6, 7): 11}
    fill_col = {(2, 5): 1, (2, 6): 2, (2, 7): 4, (2, 8): 5,
                (3, 4): 1, (3, 5): 3, (3, 6): 4, (3, 7): 6, (3, 8): 8,
                (4, 6): 7, (4, 7): 9, (5, 7): 10, (6, 7): 11}
    ok = True
    for orient, filling in [("row", fill_row), ("col", fill_col)]:
        target = superstandard(lam, orient)
        tab = Tableau.from_dict(e7, filling)
        ok = ok and rectify_all(forward_slide(tab, [(1, 5)])) == {target}
        ok = ok and target not in rectify_all(forward_slide(tab, [(2, 4)]))
    og = max_orthogonal(6)
    tab_b = Tableau.from_dict(
        og, {(1, 5): 2, (2, 3): 1, (2, 4): 2, (2, 5): 4, (3, 3): 3, (3, 4): 5, (4, 4): 6}
    )
    target_b = superstandard(og.shape("4,2"), "col")
    ok = ok and target_b in rectify_all(forward_slide(tab_b, [(1, 4)]))
    ok = ok and target_b not in rectify_all(forward_slide(tab_b, [(2, 2)]))
    elapsed = time.time() - t0
    ok = ok and elapsed < 120
    report(6, ok, f"membership pattern reproduced, {elapsed:.1f}s (< 2min)")


def test_criterion_07_urt_censuses():
    t0 = time.time()
    ok = True
    counts = {}
    for spec in ["a:2,2", "og:2", "og:3", "og:4", "og:5",
                 "qeven:2", "qeven:3", "qeven:4"]:
        rep = urt_census(parse_poset(spec))
        ok = ok and rep["all_certified"]
        counts[spec] = len(rep["certified"])
    rep = urt_census(cayley_plane(), max_size=8)
    ok = ok and rep["all_certified"]
    counts["e6<=8"] = len(rep["certified"])
    elapsed = time.time() - t0
    report(7, ok, f"census all certified: {counts}, {elapsed:.1f}s")


@pytest.mark.parametrize("spec, p", [("shifted:5", 2), ("og:6", 3), ("e6", 2)])
def test_criterion_08_greedy_tree_slides_once_per_reverse_start_of_each_member(
    monkeypatch, spec, p
):
    # The reverse search keeps each member under one parent, so it expands each
    # member once.  A child rule that keeps a member under two parents gives the
    # same members but expands them again and again: 4,664 slides for 307 on
    # shifted:5, and criterion 08 below then takes about 48 s instead of 1.
    slides = []
    slide = tableau_module._slide_levels

    def counted(poset, masks, dots, forward):
        slides.append(dots)
        return slide(poset, masks, dots, forward)

    monkeypatch.setattr(tableau_module, "_slide_levels", counted)
    poset = parse_poset(spec)
    tree = jdt_class(minimal_tableau(poset.shape([p])), seed_is_urt=True)
    assert tree.exhausted
    assert len(slides) == sum(len(poset.skew_geometry(reduce(or_, m))[3]) for m in tree.states)


@pytest.mark.parametrize("spec, rows", [("og:6", "3"), ("e6", "4,1"), ("e7", "5,3")])
def test_criterion_08_capped_tree_slides_once_per_reverse_start_below_the_bound(
    monkeypatch, spec, rows
):
    # The cut tree of basis_product expands exactly the members with room
    # left under the bound, each once; a member at the bound is kept but
    # never slid from.
    slides = []
    slide = tableau_module._slide_levels

    def counted(poset, masks, dots, forward):
        slides.append(dots)
        return slide(poset, masks, dots, forward)

    monkeypatch.setattr(tableau_module, "_slide_levels", counted)
    poset = parse_poset(spec)
    mu = poset.shape(rows)
    tree = jdt_class(minimal_tableau(mu), seed_is_urt=True, max_inner=mu.size)
    assert tree.exhausted
    geometries = [poset.skew_geometry(reduce(or_, m)) for m in tree.states]
    assert len(slides) == sum(len(g[3]) for g in geometries if g[1].bit_count() < mu.size)
    assert any(g[1].bit_count() == mu.size for g in geometries)  # the bound cuts this tree


def test_criterion_08_minimal_class_uniqueness():
    t0 = time.time()
    ok = True
    totals = {}
    for poset, name in [(cayley_plane(), "e6:27"), (freudenthal(), "e7:56")]:
        shapes = enumerate_shapes(poset)
        for lam in shapes:
            cls = jdt_class(minimal_tableau(lam))
            if len(cls.straight) != 1:
                ok = False
            # the ring builds the class as the tree of the greedy rectifications to M_lam
            tree = jdt_class(minimal_tableau(lam), seed_is_urt=True)
            if tree.states != cls.states:
                ok = False
        totals[name] = len(shapes)
    elapsed = time.time() - t0
    ok = ok and elapsed < 1800
    report(8, ok, f"every minimal-tableau class has one straight member and is the "
                  f"greedy tree {totals}, {elapsed:.1f}s (< 30min)")


def test_criterion_09_minimal_skew_rectification():
    t0 = time.time()
    ok = True
    pairs = 0
    for poset in [cayley_plane(), max_orthogonal(5)]:
        shapes = enumerate_shapes(poset)
        for nu in shapes:
            for lam in shapes:
                if lam.mask & ~nu.mask or lam.mask == nu.mask:
                    continue
                pairs += 1
                rects = rectify_all(minimal_tableau(SkewShape(nu, lam)))
                if len(rects) != 1:
                    ok = False
                    continue
                only = next(iter(rects))
                ok = ok and only == minimal_tableau(only.shape.outer)
    elapsed = time.time() - t0
    report(9, ok, f"{pairs} skew shapes rectify uniquely to minimal tableaux, {elapsed:.1f}s")


def test_criterion_10_root_system_suite():
    t0 = time.time()
    ok = True
    ran = []
    for rank in range(1, 6):
        for node in range(1, rank + 1):
            rep = run_suite("A", rank, node)
            ok = ok and rep["pass"]
            ran.append(f"A{rank}.{node}")
    for rank, nodes in [(4, (1, 3, 4)), (5, (1, 4, 5))]:
        for node in nodes:
            rep = run_suite("D", rank, node)
            ok = ok and rep["pass"]
            ran.append(f"D{rank}.{node}")
    for kind, rank, node in [("E6", 6, 6), ("E7", 7, 7)]:
        rep = run_suite(kind, rank, node)
        ok = ok and rep["pass"]
        ran.append(f"{kind}.{node}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 300
    report(10, ok, f"{len(ran)} marked nodes pass exhaustively, {elapsed:.1f}s (< 5min)")


def test_criterion_11_quadric_pattern():
    t0 = time.time()
    ok = True
    details = []
    for n in range(2, 6):
        poset = quadric_even(n)
        by_size = {}
        for s in enumerate_shapes(poset):
            by_size.setdefault(s.size, []).append(s)
        ok = ok and all(
            len(by_size[k]) == (2 if k == n else 1) for k in range(2 * n + 1)
        )
        one = SignedKElement(poset, {by_size[1][0].mask: 1})
        mid_a, mid_b = by_size[n]
        for p in range(2 * n + 1):
            for xp in by_size[p]:
                prod = multiply(one, SignedKElement(poset, {xp.mask: 1}))
                if p == 2 * n:
                    good = prod.coeffs == {}
                elif p == n - 1:
                    good = prod.coeffs == {
                        mid_a.mask: 1, mid_b.mask: 1, by_size[n + 1][0].mask: -1
                    }
                else:
                    good = prod.coeffs == {by_size[p + 1][0].mask: 1}
                ok = ok and good
        for mid in (mid_a, mid_b):
            sq = multiply(SignedKElement(poset, {mid.mask: 1}),
                          SignedKElement(poset, {mid.mask: 1}))
            want = {poset.full_mask: 1} if n % 2 == 0 else {}
            ok = ok and sq.coeffs == want
        details.append(f"n={n} ok")
    elapsed = time.time() - t0
    ok = ok and elapsed < 60
    report(11, ok, f"{'; '.join(details)}, {elapsed:.1f}s (< 1min)")


# -- criterion 12: the property suites -----------------------------------------


def _random_nested_pair(rng, poset):
    """Random (S, T) with T attached above the outer shape of S."""
    s_tab = random_skew_tableau(rng, poset)
    mu = poset.down_closure(s_tab.mask)
    grown = mu
    for _ in range(rng.randint(0, poset.n - grown.bit_count())):
        addable = poset.minimal_absent_boxes(grown)
        if not addable:
            break
        grown |= 1 << rng.choice(addable)
    skew = grown & ~mu
    if skew == 0:
        return s_tab, Tableau(poset, 0, ())
    vals = {}
    for i in bits(skew):
        lo = 1 + max((vals[j] for j in poset.down[i] if skew & (1 << j)), default=0)
        vals[i] = lo + rng.randint(0, 2)
    return s_tab, Tableau(poset, skew, tuple(vals[i] for i in bits(skew)))


def test_criterion_12a_infusion_involution():
    rng = random.Random(12)
    posets = [cayley_plane(), max_orthogonal(5), type_a(3, 4)]
    t0 = time.time()
    done = 0
    while done < 10000:
        s_tab, t_tab = _random_nested_pair(rng, rng.choice(posets))
        pair = infusion(s_tab, t_tab)
        assert infusion(*pair) == (s_tab, t_tab)
        done += 1
    report("12a", True, f"infusion involution on {done} random nested pairs, "
                        f"{time.time()-t0:.1f}s")


def test_criterion_12b_slide_inverse_and_values():
    rng = random.Random(13)
    posets = [cayley_plane(), max_orthogonal(5), type_a(3, 4), freudenthal()]
    t0 = time.time()
    done = 0
    while done < 10000:
        poset = rng.choice(posets)
        tab = random_skew_tableau(rng, poset)
        inner = tab.inner_mask()
        maximal = poset.maximal_boxes(inner)
        if not maximal:
            continue
        pick = [poset.boxes[i] for i in rng.sample(maximal, rng.randint(1, len(maximal)))]
        out = forward_slide(tab, pick)
        assert out.value_set() == tab.value_set()
        chat = tab.mask & ~out.mask
        if chat:
            assert reverse_slide(out, chat) == tab
        done += 1
    report("12b", True, f"slide inverse law and value preservation on {done} slides, "
                        f"{time.time()-t0:.1f}s")


def test_criterion_12c_class_invariants():
    rng = random.Random(14)
    grid = ambient_grid(4, 5)
    t0 = time.time()
    checks = 0
    while checks < 10000:
        tab = random_skew_tableau(rng, grid, max_size=7)
        if tab.size == 0:
            continue
        word = tab.row_word()
        key = (hecke_of_tableau(tab), lis(word), lds(word))
        cls = jdt_class(tab, budget=3000)
        for member in cls.members():
            w = member.row_word()
            assert (hecke_of_tableau(member), lis(w), lds(w)) == key
            checks += 1
    report("12c", True, f"Hecke and lis/lds invariance over {checks} class members, "
                        f"{time.time()-t0:.1f}s")


def test_criterion_12d_doubling_commutation():
    rng = random.Random(15)
    sh = ambient_shifted(5)
    t0 = time.time()
    done = 0
    while done < 10000:
        tab = random_skew_tableau(rng, sh, max_size=9)
        inner = tab.inner_mask()
        maximal = sh.maximal_boxes(inner)
        if not maximal or tab.size == 0:
            continue
        pick = [sh.boxes[i] for i in rng.sample(maximal, rng.randint(1, len(maximal)))]
        size = max(max(r, c) for r, c in tab.as_dict()) + 1
        target = ambient_grid(size, size)
        lhs = doubling(forward_slide(tab, pick), target)
        rhs = forward_slide(doubling(tab, target), set(pick) | {(c, r) for r, c in pick})
        assert lhs == rhs
        done += 1
    report("12d", True, f"doubling commutes with {done} slides, {time.time()-t0:.1f}s")


def test_criterion_12e_euler_pairing_full_cayley():
    t0 = time.time()
    e6 = cayley_plane()
    shapes = enumerate_shapes(e6)
    for lam in shapes:
        dual = lam.dual()
        for mu in shapes:
            expected = 1 if mu.mask | dual.mask == dual.mask else 0
            assert euler_pairing(mu, lam) == expected
    report("12e", True, f"Euler pairing indicator on all {len(shapes)}^2 pairs, "
                        f"{time.time()-t0:.1f}s")


def test_criterion_12f_symmetry_full_a23():
    t0 = time.time()
    a23 = type_a(2, 3)
    shapes = enumerate_shapes(a23)
    for lam in shapes:
        for mu in shapes:
            coeffs = basis_product(lam, mu)
            for nu in shapes:
                c1 = coeffs.get(nu.mask, 0)
                c2 = basis_product(lam, nu.dual()).get(mu.dual().mask, 0)
                assert c1 == c2, (lam.literal(), mu.literal(), nu.literal())
    report("12f", True, f"symmetry over all {len(shapes)}^3 triples, {time.time()-t0:.1f}s")


def test_criterion_12g_pieri_closed_form():
    t0 = time.time()
    lams = []

    def partitions_in_box(rows, cols):
        def rec(row, cap, acc):
            if row == rows:
                yield tuple(x for x in acc if x)
                return
            for length in range(0, cap + 1):
                acc.append(length)
                yield from rec(row + 1, length, acc)
                acc.pop()

        seen = set()
        for lam in rec(0, cols, []):
            if lam not in seen:
                seen.add(lam)
                yield lam

    count = 0
    for lam in partitions_in_box(3, 4):
        for p in range(1, 5):
            closed = terms(pieri_A(lam, p, rows=4, cols=8))
            counted = terms(pieri_A_by_counting(lam, p, rows=4, cols=8))
            assert closed == counted, (lam, p)
            count += 1
    report("12g", True, f"Pieri closed form matches counting on {count} cases, "
                        f"{time.time()-t0:.1f}s")


def test_criterion_12h_minimal_product_homomorphism():
    rng = random.Random(16)
    g = ambient_grid(10, 10)
    t0 = time.time()
    for _ in range(300):
        def rand_partition():
            rows = rng.randint(1, 3)
            return tuple(sorted((rng.randint(1, 3) for _ in range(rows)), reverse=True))

        lam, mu, nu = rand_partition(), rand_partition(), rand_partition()
        m_l, m_m, m_n = (minimal_tableau(g.shape(list(p))) for p in (lam, mu, nu))
        prod = tableau_product(m_l, m_m)
        assert prod == minimal_tableau(prod.shape.outer)
        assert hecke_of_tableau(prod) == hecke_product(
            hecke_of_tableau(m_l), hecke_of_tableau(m_m)
        )
        left = tableau_product(tableau_product(m_l, m_m), m_n)
        right = tableau_product(m_l, tableau_product(m_m, m_n))
        assert left.straight_rows() == right.straight_rows()
    report("12h", True, f"shape monoid homomorphism on 300 random triples, "
                        f"{time.time()-t0:.1f}s")


def test_criterion_13_conjecture_sweep():
    t0 = time.time()
    rep = conjecture_search(max_len=4, max_letter=3, budget=4000)
    ok = rep["counterexample_candidates"] == []
    elapsed = time.time() - t0
    report(13, ok, f"{rep['pairs']} pairs, {rep['searched']} searched, "
                   f"{rep['inconclusive']} inconclusive (logged), "
                   f"0 counterexample candidates, {elapsed:.1f}s")
