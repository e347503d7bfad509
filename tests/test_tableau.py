import math
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kjdt.tableau as tableau_module
from kjdt.errors import BudgetExceeded, PosetError, WindowExceeded
from kjdt.poset import (
    SkewShape,
    parse_poset,
    ambient_grid,
    ambient_shifted,
    bits,
    cayley_plane,
    enumerate_shapes,
    freudenthal,
    max_orthogonal,
    type_a,
)
from kjdt.tableau import (
    DOT,
    DottedTableau,
    Tableau,
    WeakTableau,
    _slide_levels,
    conjugate,
    doubling,
    forward_slide,
    increasing_fillings,
    infusion,
    is_urt,
    jdt_class,
    levels_support,
    maximal_tableau,
    minimal_tableau,
    parse_tableau,
    rect_greedy,
    rectify_all,
    resolutions,
    reverse_slide,
    superstandard,
    swap,
    tableau_from_json,
    tableau_product,
    tableau_to_json,
    urt_census,
    value_rows,
    wx_act,
)

from conftest import random_skew_tableau


def grid_straight(rows, pad=4):
    g = ambient_grid(len(rows) + pad, max((len(r) for r in rows), default=1) + pad)
    filling = {}
    for r, row in enumerate(rows, start=1):
        for c, v in enumerate(row, start=1):
            filling[(r, c)] = v
    return Tableau.from_dict(g, filling)


# -- construction and literals ------------------------------------------------


def test_validation_rejects_non_increasing():
    a = type_a(2, 2)
    with pytest.raises(PosetError):
        Tableau.from_dict(a, {(1, 1): 2, (1, 2): 1})


def test_validation_rejects_non_convex():
    g = ambient_grid(2, 3)
    with pytest.raises(PosetError):
        Tableau.from_dict(g, {(1, 1): 1, (1, 3): 2})


def test_literal_round_trip():
    e6 = cayley_plane()
    lit = ".,.,.,1/.,2,4,5/3,4,5"
    tab = parse_tableau(e6, lit)
    assert tab.literal() == lit
    assert tableau_from_json(tableau_to_json(tab)) == tab
    assert parse_tableau(e6, "") .size == 0


def test_parse_rejects_rows_beyond_poset():
    a = type_a(2, 2)
    with pytest.raises(WindowExceeded):
        parse_tableau(a, "1,2/1,2/3")


# -- swaps and slides -----------------------------------------------------------


def test_swap_no_op_without_values():
    e6 = cayley_plane()
    tab = parse_tableau(e6, "1,2")
    assert swap(e6, tab.as_dict(), 7, 9) == tab.as_dict()


def test_swap_exchanges_cover_pair():
    a = type_a(2, 2)
    filling = {(1, 1): 1, (1, 2): 2}
    out = swap(a, filling, 1, 2)
    assert out == {(1, 1): 2, (1, 2): 1}


def test_swap_middle_step_of_slide_display():
    # third arrow of the slide trace on the 16-box poset
    e6 = cayley_plane()
    before = {(1, 4): 1, (2, 3): 2, (2, 4): 4, (2, 5): DOT, (2, 6): 5,
              (3, 3): 3, (3, 4): DOT, (3, 5): 5}
    after = swap(e6, before, 5, DOT)
    assert after == {(1, 4): 1, (2, 3): 2, (2, 4): 4, (2, 5): 5, (2, 6): DOT,
                     (3, 3): 3, (3, 4): 5, (3, 5): DOT}


def test_forward_slide_display():
    e6 = cayley_plane()
    tab = parse_tableau(e6, ".,.,.,1/.,2,4,5/3,4,5")
    out = forward_slide(tab, [(2, 3)])
    assert out == parse_tableau(e6, ".,.,.,1/2,4,5/3,5")
    assert out.shape.outer.row_lengths == (4, 3, 2)
    assert out.shape.inner.row_lengths == (3,)


def test_slide_start_validation():
    e6 = cayley_plane()
    tab = parse_tableau(e6, ".,.,.,1/.,2,4,5/3,4,5")
    with pytest.raises(PosetError):
        forward_slide(tab, [])
    with pytest.raises(PosetError):
        forward_slide(tab, [(1, 1)])  # not maximal in the inner shape
    with pytest.raises(PosetError):
        reverse_slide(tab, [])
    with pytest.raises(WindowExceeded):
        reverse_slide(tab, [(12, 12)])


def test_slide_inverse_law_fixture():
    e6 = cayley_plane()
    tab = parse_tableau(e6, ".,.,.,1/.,2,4,5/3,4,5")
    out = forward_slide(tab, [(2, 3)])
    chat = [e6.boxes[i] for i in bits(tab.mask & ~out.mask)]
    assert reverse_slide(out, chat) == tab


def test_slide_inverse_law_randomized(rng):
    posets = [cayley_plane(), max_orthogonal(5), type_a(3, 4)]
    done = 0
    while done < 300:
        poset = rng.choice(posets)
        tab = random_skew_tableau(rng, poset)
        inner = tab.inner_mask()
        maximal = poset.maximal_boxes(inner)
        if not maximal:
            continue
        pick = rng.sample(maximal, rng.randint(1, len(maximal)))
        out = forward_slide(tab, [poset.boxes[i] for i in pick])
        chat = tab.mask & ~out.mask
        if chat:
            back = reverse_slide(out, chat)
            assert back == tab
        assert out.value_set() == tab.value_set()
        done += 1


def test_reverse_slide_anti_rectification_step():
    # sliding the minimal tableau of a row back to the dual corner
    e6 = cayley_plane()
    m = minimal_tableau(e6.shape("2"))
    # anti-rectify by the involution trick: rectify the rotated tableau
    anti = wx_act(rect_greedy(wx_act(m)))
    expected = minimal_tableau(SkewShape(e6.full_shape(), e6.shape("2").dual()))
    assert anti == expected


# One poset of every family, bounded and ambient.
SLIDE_FAMILIES = [
    "a:3,4", "og:5", "lg:4", "qodd:3", "qeven:4", "qeven:5",
    "e6", "e7", "grid:4,5", "shifted:5",
]


def _slide_by_swaps(poset, tab, start, forward):
    """A slide as the composite of dict swaps of the holes with each value."""
    filling = tab.as_dict()
    for i in start:
        filling[poset.boxes[i]] = DOT
    for v in sorted(tab.value_set(), reverse=not forward):
        filling = swap(poset, filling, DOT, v)
    holes = sum(1 << poset.index[b] for b, v in filling.items() if v is DOT)
    return {b: v for b, v in filling.items() if v is not DOT}, holes


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(SLIDE_FAMILIES), st.integers(0, 2**32 - 1), st.booleans(), st.data())
def test_slide_levels_matches_swap_composition(spec, seed, forward, data):
    poset = parse_poset(spec)
    tab = random_skew_tableau(random.Random(seed), poset)
    outer = poset.down_closure(tab.mask)
    if forward:
        candidates = poset.maximal_boxes(outer & ~tab.mask)
    else:
        candidates = poset.minimal_absent_boxes(outer)
    if not candidates:  # straight (forward) or full (reverse): no slide
        return
    start = data.draw(st.lists(st.sampled_from(candidates), min_size=1, unique=True))
    c_mask = sum(1 << i for i in start)
    levels, holes = _slide_levels(poset, tab.levels(), c_mask, forward)
    assert (Tableau.from_levels(poset, levels).as_dict(), holes) == _slide_by_swaps(
        poset, tab, start, forward
    )


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SLIDE_FAMILIES), st.integers(0, 2**32 - 1))
def test_slide_is_undone_from_its_holes_and_keeps_its_support(spec, seed):
    # jdt_class skips the slide back from a state's final holes and carries
    # supports from slide to slide; these are the two facts it relies on.
    # The final holes need not be a canonical start, so that is not asserted.
    poset = parse_poset(spec)
    tab = random_skew_tableau(random.Random(seed), poset)
    _, _, forward_starts, reverse_starts = poset.skew_geometry(tab.mask)
    for starts, forward in ((forward_starts, True), (reverse_starts, False)):
        for start in starts:
            levels, holes = _slide_levels(poset, tab.levels(), start, forward)
            back = _slide_levels(poset, levels, holes, not forward)
            assert back == (tab.levels(), start)
            assert (tab.mask | start) & ~holes == levels_support(levels)


# -- rectification ----------------------------------------------------------------


def test_rectify_all_two_outcomes():
    g36 = type_a(3, 3)
    tab = parse_tableau(g36, ".,.,./.,.,2/1,3,4")
    rects = sorted(t.straight_rows() for t in rectify_all(tab))
    assert rects == [((1, 2, 4), (3,)), ((1, 2, 4), (3, 4))]


def test_rectify_straight_is_identity():
    a = type_a(2, 2)
    tab = parse_tableau(a, "1,2/2")
    assert rectify_all(tab) == {tab}
    assert rect_greedy(tab) == tab


def test_greedy_is_a_rectification(rng):
    for _ in range(100):
        tab = random_skew_tableau(rng, max_orthogonal(5))
        assert rect_greedy(tab) in rectify_all(tab)


def test_greedy_on_minimal_skew_is_minimal():
    e6 = cayley_plane()
    for outer_lit, inner_lit in [("4,2", "2"), ("4,4,1", "3,1"), ("4,3", "1")]:
        theta = SkewShape(e6.shape(outer_lit), e6.shape(inner_lit))
        out = rect_greedy(minimal_tableau(theta))
        assert out == minimal_tableau(out.shape.outer)


# -- classes and unique rectification targets ----------------------------------


def test_single_box_class():
    a = type_a(1, 1)
    tab = Tableau.from_dict(a, {(1, 1): 1})
    cls = jdt_class(tab)
    assert cls.size == 1 and cls.straight == [tab]


def test_cayley_class_of_row_two():
    e6 = cayley_plane()
    cls = jdt_class(minimal_tableau(e6.shape("2")))
    attached = sorted(
        t.shape.outer.row_lengths
        for t in cls.members()
        if t.inner_mask() == e6.shape("2").mask
    )
    assert attached == [(3, 1), (4,), (4, 1)]
    assert len(cls.straight) == 1


def _jdt_class_reference(tab, budget=None, stop_second_straight=False):
    """``jdt_class`` as a plain loop: every start of every state is slid.

    Returns ``(member_keys, straight, exhausted, touched_boundary)``.
    """
    poset = tab.poset
    boundary = poset.boundary_mask()
    start = tab.levels()
    seen = {start}
    frontier = [start]
    straight = []
    touched = False
    while frontier:
        new = []
        for levels in frontier:
            outer, inner, forward_starts, reverse_starts = poset.skew_geometry(
                levels_support(levels)
            )
            if boundary & outer:
                touched = True
            if inner == 0:
                straight.append(Tableau.from_levels(poset, levels))
                if stop_second_straight and len(straight) > 1:
                    return seen, straight, False, touched
            for starts, fwd in ((forward_starts, True), (reverse_starts, False)):
                for c_mask in starts:
                    nxt, _ = tableau_module._slide_levels(poset, levels, c_mask, fwd)
                    if nxt not in seen:
                        seen.add(nxt)
                        new.append(nxt)
            if budget is not None and len(seen) > budget:
                return seen, straight, False, touched
        frontier = new
    return seen, straight, True, touched


def _rectify_all_reference(tab, budget=None):
    """``rectify_all`` as a plain loop, recomputing each state's support."""
    poset = tab.poset
    seen = {tab.levels()}
    frontier = [tab.levels()]
    results = set()
    while frontier:
        new = []
        for levels in frontier:
            forward_starts = poset.skew_geometry(levels_support(levels))[2]
            if not forward_starts:
                results.add(Tableau.from_levels(poset, levels))
                continue
            for c_mask in forward_starts:
                nxt, _ = _slide_levels(poset, levels, c_mask, True)
                if nxt not in seen:
                    seen.add(nxt)
                    new.append(nxt)
                    if budget is not None and len(seen) > budget:
                        raise BudgetExceeded(f"exceeded {budget}")
        frontier = new
    return results


def _closure_seeds():
    for spec in ["e6", "og:5"]:
        poset = parse_poset(spec)
        for shape in enumerate_shapes(poset):
            yield minimal_tableau(shape)
    for spec in ["grid:3,3", "shifted:4"]:
        poset = parse_poset(spec)
        for seed in range(40):
            yield random_skew_tableau(random.Random(seed), poset)


def _as_reference(cls):
    return cls.member_keys, cls.straight, cls.exhausted, cls.touched_boundary


def test_closures_match_the_reference_loops():
    for tab in _closure_seeds():
        assert _as_reference(jdt_class(tab)) == _jdt_class_reference(tab)
        assert rectify_all(tab) == _rectify_all_reference(tab)
        if tab.poset.is_ambient:
            for budget in (1, 3, 10):
                assert _as_reference(jdt_class(tab, budget=budget)) == (
                    _jdt_class_reference(tab, budget=budget)
                )
            assert _as_reference(jdt_class(tab, stop_second_straight=True)) == (
                _jdt_class_reference(tab, stop_second_straight=True)
            )
            for budget in range(1, 40):
                try:
                    expected = _rectify_all_reference(tab, budget=budget)
                except BudgetExceeded:
                    with pytest.raises(BudgetExceeded):
                        rectify_all(tab, budget=budget)
                else:
                    assert rectify_all(tab, budget=budget) == expected


def test_closure_skips_the_slide_back_to_each_parent(monkeypatch):
    # One slide per state reached: the one back to the state that found it.
    calls = []
    slide = tableau_module._slide_levels

    def counted(*args, **kwargs):
        calls.append(args)
        return slide(*args, **kwargs)

    monkeypatch.setattr(tableau_module, "_slide_levels", counted)
    e6 = cayley_plane()
    for shape in enumerate_shapes(e6):
        tab = minimal_tableau(shape)
        _jdt_class_reference(tab)
        reference = len(calls)
        calls.clear()
        cls = jdt_class(tab)
        assert len(calls) == reference - (cls.size - 1)
        calls.clear()


def test_restriction_compatibility(rng):
    # members restricted to a value interval stay in the restricted class
    poset = type_a(2, 3)
    for _ in range(20):
        tab = random_skew_tableau(rng, poset, max_size=5)
        if tab.size == 0:
            continue
        lo = min(tab.values)
        cls = jdt_class(tab)
        base = tab.restrict(lo, lo + 1)
        if base.size == 0:
            continue
        restricted_cls = jdt_class(base)
        for member in cls.members():
            cut = member.restrict(lo, lo + 1)
            assert cut.levels() in restricted_cls.member_keys


def test_is_urt_requires_straight():
    e6 = cayley_plane()
    skew = parse_tableau(e6, ".,.,.,1")
    with pytest.raises(PosetError):
        is_urt(skew)


def test_minimal_tableaux_certified_on_cayley():
    e6 = cayley_plane()
    for lit in ["2", "4,2", "4,4,2"]:
        assert is_urt(minimal_tableau(e6.shape(lit))).status == "certified"


def test_superstandard_refuted_on_freudenthal():
    e7 = freudenthal()
    v = is_urt(superstandard(e7.shape("5,3,3"), "row"))
    assert v.status == "refuted"
    assert v.witness is not None


def test_column_superstandard_refuted_on_og6():
    og = max_orthogonal(6)
    assert is_urt(superstandard(og.shape("4,2"), "col")).status == "refuted"


def test_ambient_urt_certificates():
    g = ambient_grid(4, 4)
    assert is_urt(Tableau.from_dict(g, {(1, 1): 4})).status == "certified"
    assert is_urt(minimal_tableau(g.shape("3,2"))).status == "certified"
    near = grid_straight([(1, 2, 3), (2,), (4,)])
    v = is_urt(near)
    assert v.status == "refuted"
    assert v.witness.straight_rows() == ((1, 2, 3), (2, 4), (4,))
    sh = ambient_shifted(6)
    assert is_urt(superstandard(sh.shape("4,2"), "row")).status == "certified"
    assert is_urt(superstandard(sh.shape("4,2"), "col")).status == "refuted"


def test_ambient_urt_witness_is_first_candidate_by_values():
    # the word certificate names the first refuting candidate of a shape in
    # the order of its values tuple, whatever order the enumerator uses
    v = is_urt(parse_tableau(ambient_grid(3, 3), "1,3,5/2/4"), budget=3000)
    assert v.status == "refuted"
    assert v.witness.literal() == "1,3,5/2,4/4"


def test_urt_census_small_grid():
    report = urt_census(type_a(2, 2))
    assert report["all_certified"]
    assert len(report["certified"]) == 9 and not report["refuted"]


def test_urt_census_full_cayley():
    report = urt_census(cayley_plane())
    assert report["all_certified"]
    assert len(report["certified"]) == 3026


def test_urt_census_og6_finds_failures():
    og = max_orthogonal(6)
    report = urt_census(og)
    assert not report["all_certified"]
    target = superstandard(og.shape("4,2"), "col")
    assert any(t == target for t in report["refuted"])
    # The report order does not follow the order classes were seeded in.
    refuted = report["refuted"]
    assert len(refuted) == 244
    assert refuted == sorted(refuted, key=lambda t: (t.size, t.literal()))


# -- distinguished tableaux ------------------------------------------------------


def test_minimal_tableau_fixtures():
    og = max_orthogonal(6)
    assert minimal_tableau(og.shape("5,3,2")).straight_rows() == (
        (1, 2, 3, 4, 5),
        (3, 4, 5),
        (5, 6),
    )
    a = type_a(1, 1)
    assert minimal_tableau(a.shape("1")).values == (1,)


def test_skew_minimal_and_maximal_fixtures():
    grid = ambient_grid(6, 10)
    theta = SkewShape(grid.shape("9,7,6,6,4"), grid.shape("5,3,2"))
    mt = minimal_tableau(theta)
    xt = maximal_tableau(theta)
    by_row = lambda t, r: tuple(
        v for _, v in sorted((c, v) for (rr, c), v in t.as_dict().items() if rr == r)
    )
    assert by_row(mt, 4) == (1, 2, 3, 4, 5, 6)
    assert by_row(mt, 5) == (2, 3, 4, 5)
    assert by_row(xt, 4) == (-6, -5, -4, -3, -2, -1)
    assert by_row(xt, 1) == (-4, -3, -2, -1)
    assert by_row(xt, 2) == (-5, -4, -3, -1)
    assert maximal_tableau(grid.shape("1")).values == (-1,)


def test_maximal_matches_involution_formula_on_cayley():
    e6 = cayley_plane()
    shapes = enumerate_shapes(e6)
    pairs = 0
    for nu in shapes:
        for lam in shapes:
            if lam.mask & ~nu.mask or lam.mask == nu.mask:
                continue
            theta = SkewShape(nu, lam)
            dual_theta = SkewShape(lam.dual(), nu.dual())
            assert maximal_tableau(theta) == wx_act(minimal_tableau(dual_theta))
            pairs += 1
    assert pairs == 324


def test_maximal_tableau_urt_on_cayley():
    e6 = cayley_plane()
    for lit in ["2", "3,1", "4,4"]:
        assert is_urt(maximal_tableau(e6.shape(lit))).status == "certified"


def test_superstandard_fixtures():
    og = max_orthogonal(6)
    assert superstandard(og.shape("5,3,2"), "row").straight_rows() == (
        (1, 2, 3, 4, 5),
        (6, 7, 8),
        (9, 10),
    )
    assert superstandard(og.shape("5,3,2"), "col").straight_rows() == (
        (1, 2, 4, 7, 10),
        (3, 5, 8),
        (6, 9),
    )
    one = og.shape("1")
    assert superstandard(one, "row") == superstandard(one, "col")


def test_wx_act():
    a = type_a(2, 2)
    tab = Tableau.from_dict(a, {(1, 1): 5})
    assert wx_act(tab).as_dict() == {(2, 2): -5}
    assert wx_act(wx_act(tab)) == tab
    e6 = cayley_plane()
    m = minimal_tableau(e6.shape("3,1"))
    anti = wx_act(rect_greedy(wx_act(m)))
    assert anti == minimal_tableau(SkewShape(e6.full_shape(), e6.shape("3,1").dual()))


# -- doubling, products, conjugation ------------------------------------------


def test_doubling_fixture():
    sh = ambient_shifted(8)
    tab = Tableau.from_dict(
        sh,
        {(1, 6): 2, (2, 4): 1, (2, 5): 3, (2, 6): 4, (3, 3): 2, (3, 4): 4,
         (3, 5): 6, (3, 6): 7, (4, 4): 5, (4, 5): 7},
    )
    doubled = doubling(tab)
    assert doubled.as_dict()[(6, 1)] == 2
    assert doubled.as_dict()[(4, 2)] == 1
    mirror = {(c, r): v for (r, c), v in doubled.as_dict().items()}
    assert mirror == doubled.as_dict()


def test_doubling_single_diagonal_box():
    sh = ambient_shifted(3)
    tab = Tableau.from_dict(sh, {(1, 1): 7})
    assert doubling(tab).as_dict() == {(1, 1): 7}


def test_doubling_commutes_with_slides(rng):
    sh = ambient_shifted(5)
    done = 0
    while done < 150:
        tab = random_skew_tableau(rng, sh, max_size=9)
        inner = tab.inner_mask()
        maximal = sh.maximal_boxes(inner)
        if not maximal or tab.size == 0:
            continue
        pick = [sh.boxes[i] for i in rng.sample(maximal, rng.randint(1, len(maximal)))]
        size = max(max(r, c) for r, c in tab.as_dict()) + 1
        target = ambient_grid(size, size)
        lhs = doubling(forward_slide(tab, pick), target)
        doubled_c = set(pick) | {(c, r) for r, c in pick}
        rhs = forward_slide(doubling(tab, target), doubled_c)
        assert lhs == rhs
        done += 1


def test_tableau_product_fixtures():
    p = tableau_product(grid_straight([(1, 2), (4,)]), grid_straight([(1, 3), (3,)]))
    assert p.straight_rows() == ((1, 2, 3), (2,), (4,))
    one, mid, two = (
        grid_straight([(1,)]),
        grid_straight([(1, 4), (3,)]),
        grid_straight([(2,)]),
    )
    assert tableau_product(tableau_product(one, mid), two).straight_rows() == (
        (1, 2, 4),
        (3,),
    )
    assert tableau_product(one, tableau_product(mid, two)).straight_rows() == (
        (1, 2, 4),
        (3, 4),
    )


def test_row_times_column_hook_rule():
    for a in range(1, 5):
        for b in range(1, 5):
            row = grid_straight([tuple(range(1, a + 1))])
            col = grid_straight([(v,) for v in range(1, b + 1)])
            prod = tableau_product(row, col)
            c = a if a >= b else a + 1
            d = b if b >= a else b + 1
            hook = [c] + [1] * (d - 1)
            expected = minimal_tableau(prod.poset.shape(hook))
            assert prod.straight_rows() == expected.straight_rows(), (a, b)


def test_conjugate():
    row = grid_straight([(1, 2, 3)])
    assert conjugate(row).straight_rows() == ((1,), (2,), (3,))
    sym = grid_straight([(1, 2), (2, 3)])
    assert conjugate(sym).straight_rows() == sym.straight_rows()


def test_conjugate_antihomomorphism(rng):
    for _ in range(60):
        shape_a = [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
        shape_b = [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
        shape_a.sort(reverse=True)
        shape_b.sort(reverse=True)
        g = ambient_grid(8, 8)
        s = minimal_tableau(g.shape(shape_a))
        t = minimal_tableau(g.shape(shape_b))
        lhs = tableau_product(conjugate(s), conjugate(t))
        rhs = conjugate(tableau_product(t, s))
        assert lhs.straight_rows() == rhs.straight_rows()


# -- infusion ---------------------------------------------------------------------


def test_infusion_display_pair():
    e6 = cayley_plane()
    s_tab = parse_tableau(e6, ".,.,.,2/1,3,4/3")
    t_tab = Tableau.from_dict(
        e6, {(2, 6): 1, (3, 4): 1, (3, 5): 2, (3, 6): 3, (4, 5): 3, (4, 6): 4, (4, 7): 5}
    )
    t_out, s_out = infusion(s_tab, t_tab)
    assert t_out == parse_tableau(e6, ".,.,.,1/1,2,3,4/3,4,5")
    assert s_out == Tableau.from_dict(e6, {(3, 6): 2, (4, 5): 1, (4, 6): 3, (4, 7): 4})
    assert infusion(t_out, s_out) == (s_tab, t_tab)


def test_infusion_empty_cases():
    e6 = cayley_plane()
    s_tab = parse_tableau(e6, "1,2")
    empty = Tableau.from_dict(e6, {})
    t_out, s_out = infusion(s_tab, empty)
    assert t_out.size == 0 and s_out == s_tab
    t_out2, s_out2 = infusion(empty, s_tab)
    assert t_out2 == s_tab and s_out2.size == 0


def test_infusion_involution_randomized(rng):
    posets = [cayley_plane(), max_orthogonal(5), type_a(3, 3)]
    done = 0
    while done < 200:
        poset = rng.choice(posets)
        t_tab = random_skew_tableau(rng, poset)
        inner = t_tab.inner_mask()
        if inner == 0:
            continue
        # random tableau filling of a sub-ideal of the inner shape
        s_full = random_skew_tableau(rng, poset)
        filling = {
            poset.boxes[i]: v
            for i, v in zip(bits(s_full.mask), s_full.values)
            if inner & (1 << poset.index[poset.boxes[i]])
        }
        try:
            s_tab = Tableau.from_dict(poset, filling)
            pair = infusion(s_tab, t_tab)
        except PosetError:
            continue
        assert infusion(*pair) == (s_tab, t_tab)
        done += 1


# -- dotted tableaux -----------------------------------------------------------


def test_resolution_display():
    g = ambient_grid(8, 10)
    filling = {
        (1, 5): 1, (1, 6): 3, (1, 7): DOT, (1, 8): 8,
        (2, 3): 2, (2, 4): 3, (2, 5): 4, (2, 6): 6, (2, 7): 9,
        (3, 2): 1, (3, 3): 3, (3, 4): 5, (3, 5): 7, (3, 6): DOT,
        (4, 2): 2, (4, 3): DOT, (4, 4): 8, (4, 5): 9,
        (5, 1): 2, (5, 2): DOT, (5, 3): 8, (5, 4): 9,
    }
    dotted = DottedTableau(g, filling)
    printed = dict(filling)
    printed[(1, 7)] = 8
    del printed[(3, 6)]
    printed[(4, 3)] = 8
    printed[(5, 2)] = 2
    assert WeakTableau(printed) in resolutions(dotted)


def test_resolution_dot_free():
    g = ambient_grid(3, 3)
    dotted = DottedTableau(g, {(1, 1): 1, (1, 2): 3})
    assert resolutions(dotted) == {WeakTableau({(1, 1): 1, (1, 2): 3})}


def test_dotted_validation():
    g = ambient_grid(3, 3)
    with pytest.raises(PosetError):
        DottedTableau(g, {(1, 1): 5, (1, 2): 3})  # integers must increase
    with pytest.raises(PosetError):
        DottedTableau(g, {(1, 1): DOT, (1, 2): DOT})  # comparable dots
    with pytest.raises(PosetError):
        DottedTableau(g, {(1, 1): 2, (1, 2): DOT, (1, 3): 2})  # no level fits


def test_resolutions_are_kknuth_equivalent(rng):
    from kjdt.words import kknuth_equiv, reading_words

    g = ambient_grid(4, 4)
    done = 0
    while done < 25:
        tab = random_skew_tableau(rng, g, max_size=6)
        if tab.size < 2:
            continue
        filling = tab.as_dict()
        boxes = sorted(filling)
        dot_box = rng.choice(boxes)
        candidate = dict(filling)
        candidate[dot_box] = DOT
        try:
            dotted = DottedTableau(g, candidate)
        except PosetError:
            continue
        res = list(resolutions(dotted))
        words = []
        for r in res:
            try:
                words.append(next(iter(reading_words(r))))
            except (ValueError, StopIteration):
                words = []
                break
        for i in range(1, len(words)):
            verdict = kknuth_equiv(words[0], words[i], budget=30000)
            assert verdict.status != "refuted"
        done += 1


def test_pack():
    a = type_a(2, 2)
    tab = Tableau.from_dict(a, {(1, 1): 3, (1, 2): 7, (2, 1): 7})
    assert tab.pack().values == (1, 2, 2)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SLIDE_FAMILIES), st.integers(0, 2**32 - 1))
def test_tableau_identity_does_not_depend_on_constructor(spec, seed):
    poset = parse_poset(spec)
    tab = random_skew_tableau(random.Random(seed), poset)
    copies = [
        Tableau.from_levels(poset, tab.levels()),
        Tableau(poset, tab.mask, tab.values),
        Tableau.from_dict(poset, tab.as_dict()),
    ]
    for other in copies:
        assert other == tab and hash(other) == hash(tab)
        assert other.values == tab.values and other.literal() == tab.literal()
    # pack() renumbers levels; compare with renumbering the value tuple.
    ranks = {v: k for k, v in enumerate(sorted(set(tab.values)), start=1)}
    assert tab.pack() == Tableau(poset, tab.mask, tuple(ranks[v] for v in tab.values))


def test_budget_paths():
    from kjdt.errors import BudgetExceeded

    e7 = freudenthal()
    target = superstandard(e7.shape("5,3,3"), "row")
    cls = jdt_class(target, budget=50)
    assert not cls.exhausted and cls.size >= 50
    tab = Tableau.from_dict(e7, {(2, 5): 1, (2, 6): 2, (3, 4): 1, (3, 5): 3})
    with pytest.raises(BudgetExceeded):
        rectify_all(tab, budget=1)


def test_single_box_poset_involution_identity():
    a = type_a(1, 1)
    assert a.wx == (0,)
    assert minimal_tableau(a.shape("1")).values == (1,)


# -- filling enumeration and row reading -------------------------------------


def _fillings_by_filter(poset, mask, vmin, vmax, surjective):
    """Value tuples in [vmin, vmax], kept when they increase along every cover."""
    order = list(bits(mask))
    pos = {i: k for k, i in enumerate(order)}
    covers = [(pos[i], pos[j]) for i in order for j in poset.up[i] if j in pos]
    return [
        vals
        for vals in product(range(vmin, vmax + 1), repeat=len(order))
        if all(vals[a] < vals[b] for a, b in covers)
        and (not surjective or set(vals) == set(range(vmin, vmax + 1)))
    ]


@pytest.mark.parametrize(
    "spec, outer, inner, vmin, vmax",
    [
        ("grid:3,3", "3,2,1", "1", 1, 4),
        ("grid:3,3", "2,2", "", 0, 3),
        ("a:2,3", "3,3", "2", 1, 4),
        ("og:4", "3,1", "1", 1, 3),
        ("shifted:4", "3,2", "", 2, 5),
        ("e6", "4,2", "3", 1, 3),
        ("e6", "1", "1", 1, 2),  # empty skew shape
        ("e6", "2", "", 3, 2),  # empty value range
        ("e7", "5,3,2", "4,1", 1, 5),
        ("og:6", "5,3,1", "2", 1, 3),  # d capped: 7 boxes
    ],
)
@pytest.mark.parametrize("surjective", [False, True])
def test_increasing_fillings_match_tuple_filter(spec, outer, inner, vmin, vmax, surjective):
    # every d up to one past the width of [vmin, vmax], values vmin..vmin+d-1
    poset = parse_poset(spec)
    lam, nu = poset.shape(inner).mask, poset.shape(outer).mask
    skew = nu & ~lam
    for d in range(vmax - vmin + 2):
        got = list(increasing_fillings(poset, lam, nu, d, surjective=surjective))
        assert len(got) == len(set(got))
        assert all(levels_support(key) == skew for key in got)
        got_values = {
            tuple(v + vmin - 1 for v in Tableau.from_levels(poset, key).values)
            for key in got
        }
        want = _fillings_by_filter(poset, skew, vmin, vmin + d - 1, surjective)
        assert got_values == set(want), d


@pytest.mark.parametrize(
    "spec, outer, inner",
    [
        ("grid:3,3", "3,2,1", "1"),
        ("grid:3,3", "2,2", ""),
        ("a:2,3", "3,3", "2"),
        ("og:4", "3,1", "1"),
        ("shifted:4", "3,2", ""),
        ("e6", "4,2", "3"),
        ("e6", "1", "1"),  # empty skew shape
    ],
)
def test_level_fillings_match_increasing_fillings(spec, outer, inner):
    # the walk's levels keys are exactly the levels of the surjective value
    # tuples, for every d up to one past the box count
    poset = parse_poset(spec)
    lam, nu = poset.shape(inner).mask, poset.shape(outer).mask
    skew = nu & ~lam
    for d in range(skew.bit_count() + 2):  # d = |nu/lam| + 1 has no filling
        got = list(increasing_fillings(poset, lam, nu, d))
        assert len(got) == len(set(got))
        assert set(got) == {
            Tableau(poset, skew, f).levels()
            for f in _fillings_by_filter(poset, skew, 1, d, surjective=True)
        }, d


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SLIDE_FAMILIES), st.integers(0, 2**32 - 1), st.integers(0, 4))
def test_non_surjective_fillings_count_by_value_sets(spec, seed, d):
    # a filling by 1..d uses some k of the values; packing them gives a
    # surjective filling by 1..k, and each k-subset of 1..d unpacks it
    poset = parse_poset(spec)
    tab = random_skew_tableau(random.Random(seed), poset, max_size=6)
    nu = tab.outer_mask()
    lam = nu & ~tab.mask
    total = sum(1 for _ in increasing_fillings(poset, lam, nu, d, surjective=False))
    assert total == sum(
        math.comb(d, k) * sum(1 for _ in increasing_fillings(poset, lam, nu, k))
        for k in range(d + 1)
    )


def _rows_by_sorting(filling):
    """Row grouping as the reader did it before it was shared."""
    rows = {}
    for (r, c), v in filling.items():
        rows.setdefault(r, []).append((c, v))
    return {r: tuple(v for _, v in sorted(rows[r])) for r in sorted(rows)}


def _fixture_tableaux():
    e6, og, e7 = cayley_plane(), max_orthogonal(6), freudenthal()
    grid = ambient_grid(6, 10)
    theta = SkewShape(grid.shape("9,7,6,6,4"), grid.shape("5,3,2"))
    return [
        parse_tableau(type_a(3, 3), ".,.,./.,.,2/1,3,4"),
        parse_tableau(e6, ".,.,.,1/.,2,4,5/3,4,5"),
        parse_tableau(e6, ".,.,.,2/1,3,4/3"),
        Tableau.from_dict(og, {(1, 5): 2, (2, 3): 1, (2, 4): 2, (2, 5): 4,
                               (3, 3): 3, (3, 4): 5, (4, 4): 6}),
        minimal_tableau(og.shape("5,3,2")),
        superstandard(og.shape("5,3,2"), "col"),
        superstandard(e7.shape("5,3,3"), "row"),
        minimal_tableau(theta),
        maximal_tableau(theta),
        minimal_tableau(e6.empty_shape()),
    ]


def test_row_reader_matches_sorting_each_row():
    for tab in _fixture_tableaux():
        rows = _rows_by_sorting(tab.as_dict())
        assert value_rows(tab.as_dict()) == rows
        assert list(value_rows(tab.as_dict())) == list(rows)  # top row first
        word = tuple(v for r in reversed(list(rows)) for v in rows[r])
        assert tab.row_word() == word
        # a weak tableau's dict need not list its boxes in row-major order
        assert WeakTableau(dict(reversed(tab.as_dict().items()))).row_word() == word
        assert tableau_to_json(tab)["rows"] == [list(row) for row in rows.values()]
        if tab.is_straight:
            assert tab.straight_rows() == tuple(rows.values())
    m = minimal_tableau(max_orthogonal(6).shape("5,3,2"))
    assert m.straight_rows() == ((1, 2, 3, 4, 5), (3, 4, 5), (5, 6))
    assert m.row_word() == (5, 6, 3, 4, 5, 1, 2, 3, 4, 5)
