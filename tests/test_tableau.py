import hashlib
import math
import random
import tracemalloc
from functools import reduce
from itertools import product
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kjdt.tableau as tableau_module
from kjdt.errors import BudgetExceeded, KjdtError, PosetError, WindowExceeded
from kjdt.poset import (
    Shape,
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
    conjugate,
    doubling,
    filling_row_words,
    forward_slide,
    hecke_of_tableau,
    increasing_fillings,
    infusion,
    is_urt,
    jdt_class,
    maximal_tableau,
    minimal_tableau,
    packed_straight_tableaux,
    parse_tableau,
    reading_words,
    rect_greedy,
    rectify_all,
    resolutions,
    reverse_slide,
    superstandard,
    swap,
    tableau_product,
    tableau_to_json,
    urt_census,
    value_rows,
    wx_act,
)

from kjdt.words import doubled_word, hecke_of_word

from conftest import SLIDE_FAMILIES, fillings_skipping_values, random_skew_tableau, walk_tableau


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


@pytest.mark.parametrize("mask,values", [(0b11, (1,)), (0b1, (1, 2))])
def test_constructor_refuses_one_value_per_box_mismatch(mask, values):
    # a box with no value, or a value with no box, would be dropped silently
    with pytest.raises(PosetError, match="values for"):
        Tableau(ambient_grid(2, 2), mask, values)


def test_literal_round_trip():
    e6 = cayley_plane()
    lit = ".,.,.,1/.,2,4,5/3,4,5"
    tab = parse_tableau(e6, lit)
    assert tab.literal() == lit
    assert parse_tableau(e6, "") .size == 0


def test_json_round_trip_with_empty_support_rows():
    # ``rows`` lists the value rows of the support only: a row of inner boxes has no entry
    assert tableau_to_json(parse_tableau(type_a(3, 3), ".,./.,2/3")) == {
        "poset": {"family": "a", "params": [3, 3]},
        "inner": [2, 1],
        "outer": [2, 2, 1],
        "rows": [[2], [3]],
    }
    assert tableau_to_json(parse_tableau(cayley_plane(), ".,.,.,./.,.,.,1/2,3")) == {
        "poset": {"family": "e6", "params": []},
        "inner": [4, 3],
        "outer": [4, 4, 2],
        "rows": [[1], [2, 3]],
    }


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
    expected = minimal_tableau(SkewShape(Shape(e6, e6.full_mask), e6.shape("2").dual()))
    assert anti == expected


def _support(masks):
    """The boxes a tuple of level masks fills: their union."""
    return reduce(or_, masks, 0)


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
    masks, holes = tableau_module._slide_levels(poset, tab.masks, c_mask, forward)
    assert (Tableau.from_masks(poset, tab.level_values, masks).as_dict(), holes) == _slide_by_swaps(
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
            masks, holes = tableau_module._slide_levels(poset, tab.masks, start, forward)
            back = tableau_module._slide_levels(poset, masks, holes, not forward)
            assert back == (tab.masks, start)
            assert (tab.mask | start) & ~holes == _support(masks)


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

    Returns ``(states, straight, exhausted)``.
    """
    poset, values = tab.poset, tab.level_values
    seen = {tab.masks}
    frontier = [tab.masks]
    straight = []
    while frontier:
        new = []
        for masks in frontier:
            _, inner, forward_starts, reverse_starts = poset.skew_geometry(_support(masks))
            if inner == 0:
                straight.append(Tableau.from_masks(poset, values, masks))
                if stop_second_straight and len(straight) > 1:
                    return seen, straight, False
            for starts, fwd in ((forward_starts, True), (reverse_starts, False)):
                for c_mask in starts:
                    nxt, _ = tableau_module._slide_levels(poset, masks, c_mask, fwd)
                    if nxt not in seen:
                        seen.add(nxt)
                        new.append(nxt)
            if budget is not None and len(seen) > budget:
                return seen, straight, False
        frontier = new
    return seen, straight, True


def _rectify_all_reference(tab, budget=None):
    """``rectify_all`` as a plain loop, recomputing each state's support."""
    poset, values = tab.poset, tab.level_values
    seen = {tab.masks}
    frontier = [tab.masks]
    results = set()
    while frontier:
        new = []
        for masks in frontier:
            forward_starts = poset.skew_geometry(_support(masks))[2]
            if not forward_starts:
                results.add(Tableau.from_masks(poset, values, masks))
                continue
            for c_mask in forward_starts:
                nxt, _ = tableau_module._slide_levels(poset, masks, c_mask, True)
                if nxt not in seen:
                    seen.add(nxt)
                    new.append(nxt)
                    if budget is not None and len(seen) > budget:
                        raise BudgetExceeded(f"exceeded {budget}")
        frontier = new
    return results


def _skew_seeds():
    """Forty random skew tableaux on each of grid:3,3 and shifted:4."""
    for spec in ["grid:3,3", "shifted:4"]:
        poset = parse_poset(spec)
        for seed in range(40):
            yield random_skew_tableau(random.Random(seed), poset)


def _closure_seeds():
    for spec in ["e6", "og:5"]:
        poset = parse_poset(spec)
        for shape in enumerate_shapes(poset):
            yield minimal_tableau(shape)
    yield from _skew_seeds()


def _as_reference(cls):
    return cls.states, cls.straight, cls.exhausted


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


def _record_slides(monkeypatch) -> list:
    """Record every ``_slide_levels`` call as ``(masks, dots, forward, result)``."""
    calls = []
    slide = tableau_module._slide_levels

    def recorded(poset, masks, dots, forward):
        out = slide(poset, masks, dots, forward)
        calls.append((masks, dots, forward, out))
        return out

    monkeypatch.setattr(tableau_module, "_slide_levels", recorded)
    return calls


def _assert_no_slide_undoes_an_earlier_one(calls):
    undone = set()
    for masks, dots, forward, (nxt, holes) in calls:
        assert (masks, dots, forward) not in undone
        undone.add((nxt, holes, not forward))


def test_closure_never_slides_back_along_a_slide_it_made(monkeypatch):
    # A slide is undone by the slide the other way from its holes, so that
    # slide only finds a state already seen.  jdt_class skips every such
    # slide back, not only the one to the state that found each state.
    calls = _record_slides(monkeypatch)
    e6 = cayley_plane()
    shapes = enumerate_shapes(e6)
    assert len(shapes) == 27
    made = parent_only = 0
    for shape in shapes:
        tab = minimal_tableau(shape)
        _jdt_class_reference(tab)
        every_start = len(calls)
        calls.clear()
        cls = jdt_class(tab)
        _assert_no_slide_undoes_an_earlier_one(calls)
        # skipping only the slide back to each parent made this many slides
        assert len(calls) <= every_start - (cls.size - 1)
        made += len(calls)
        parent_only += every_start - (cls.size - 1)
        calls.clear()
    assert made < parent_only


def test_closure_of_a_skew_seed_never_slides_back_along_a_forward_slide(monkeypatch):
    # The straight seeds above find no new state by a forward slide, so they
    # never meet the reverse start that undoes one; these skew seeds do.  A
    # closure that forgot it would make 2,703 slides here, 266 of them back.
    calls = _record_slides(monkeypatch)
    made = forward = 0
    for tab in _skew_seeds():
        calls.clear()
        jdt_class(tab)
        _assert_no_slide_undoes_an_earlier_one(calls)
        made += len(calls)
        forward += sum(fwd for _, _, fwd, _ in calls)
    assert (made, forward) == (2437, 814)


def _greedy_tree_seeds():
    """Minimal tableaux on four bounded posets (lg:5, not minuscule, has
    og:6's box poset), and the one-row tableaux of p <= 3 boxes in the shifted windows
    of up to 7 columns that ``pieri_B_by_class`` closes in the tests."""
    for spec in ["a:3,4", "og:6", "qeven:5", "lg:5"]:
        poset = parse_poset(spec)
        for shape in enumerate_shapes(poset):
            yield minimal_tableau(shape)
    for cols in range(2, 8):
        window = ambient_shifted(cols)
        for p in range(1, min(cols, 3) + 1):
            yield minimal_tableau(window.shape([p]))


def test_greedy_tree_of_a_urt_is_its_class():
    for tab in _greedy_tree_seeds():
        tree = jdt_class(tab, seed_is_urt=True)
        assert tree.states == jdt_class(tab).states, tab
        assert tree.straight == [tab] and tree.exhausted


def test_greedy_tree_of_a_refuted_tableau_is_its_greedy_part():
    og = max_orthogonal(6)
    tab = superstandard(og.shape("4,2"), "col")
    assert tab in urt_census(og, max_size=6)["refuted"]
    whole = jdt_class(tab).states
    greedy = {m for m in whole if rect_greedy(Tableau.from_masks(og, tab.level_values, m)) == tab}
    tree = jdt_class(tab, seed_is_urt=True)
    assert tree.states == greedy
    assert greedy < whole


def test_greedy_tree_refuses_a_skew_seed():
    tab = parse_tableau(type_a(2, 2), ".,1/2")
    with pytest.raises(PosetError):
        jdt_class(tab, seed_is_urt=True)


def test_greedy_tree_budget_cuts_like_the_closure():
    # Both modes check ``len > budget`` after each expansion.
    for tab in [minimal_tableau(cayley_plane().shape("3,1")),
                minimal_tableau(max_orthogonal(5).shape("3,1"))]:
        whole = jdt_class(tab)
        for budget in range(1, whole.size + 2):
            cut = jdt_class(tab, budget=budget, seed_is_urt=True)
            assert cut.exhausted == jdt_class(tab, budget=budget).exhausted
            assert cut.exhausted == (whole.size <= budget)
            assert cut.states <= whole.states
            assert cut.size > budget or cut.states == whole.states


def _capped_tree_seeds():
    """Minimal tableaux of every shape of e6 and of a seeded sample of e7's."""
    yield from map(minimal_tableau, enumerate_shapes(cayley_plane()))
    yield from map(minimal_tableau, random.Random(31).sample(enumerate_shapes(freudenthal()), 8))


def test_capped_greedy_tree_is_the_whole_tree_cut_at_the_bound():
    # basis_product reads M_mu's class cut at |mu| inner boxes; other bounds check the cut itself.
    for tab in _capped_tree_seeds():
        poset, size = tab.poset, tab.size
        whole = jdt_class(tab, seed_is_urt=True).states
        inner = {m: poset.skew_geometry(reduce(or_, m, 0))[1].bit_count() for m in whole}
        for bound in {0, 1, size // 2, size, size + 1}:
            capped = jdt_class(tab, seed_is_urt=True, max_inner=bound)
            assert capped.exhausted and capped.straight == [tab]
            assert capped.states == {m for m in whole if inner[m] <= bound}, (tab, bound)


def _rectifying_to(cls, target, keep_support):
    """``{masks: number of rectifications}`` over the states of ``cls`` whose
    support passes ``keep_support`` and that have ``target`` among their
    rectifications."""
    poset, values = target.poset, target.level_values
    found = {}
    for masks in cls.states:
        if keep_support(reduce(or_, masks, 0)):
            rects = rectify_all(Tableau.from_masks(poset, values, masks))
            if target in rects:
                found[masks] = len(rects)
    return found


@pytest.mark.parametrize("orient, size", [("row", 923), ("col", 632)])
def test_bounded_closure_finds_the_e8_fails_tableaux_of_the_whole_class(orient, size):
    # the e8-fails fixture's counts, from the whole class and from the class
    # bounded by nu: the same tableaux of shape nu/lam, 12 with the target,
    # 10 of them uniquely
    e7 = freudenthal()
    lam, mu, nu = (e7.shape(lit) for lit in ("5,1", "5,3,3", "5,5,5,2,1,1"))
    target = superstandard(mu, orient)
    whole = jdt_class(target)
    bounded = jdt_class(target, within=nu.mask)
    assert bounded.exhausted and bounded.size == size
    assert bounded.states < whole.states
    skew = nu.mask & ~lam.mask
    found = [_rectifying_to(cls, target, skew.__eq__) for cls in (whole, bounded)]
    assert found[0] == found[1]
    assert len(found[1]) == 12
    assert sum(n == 1 for n in found[1].values()) == 10


def test_bounded_closure_keeps_every_tableau_inside_nu_that_rectifies_to_the_seed():
    # seeded sweep: the refuted straight tableaux and 15 sampled certified
    # ones of five posets, each bounded by 4 sampled outer shapes nu
    cases = found = 0
    for spec in ["a:3,3", "og:5", "a:2,5", "e6", "qeven:5"]:
        poset = parse_poset(spec)
        rng = random.Random(spec)
        report = urt_census(poset)
        shapes = [shape.mask for shape in enumerate_shapes(poset)]
        for tab in report["refuted"] + rng.sample(report["certified"], 15):
            outers = [m for m in shapes if m & tab.mask == tab.mask]
            whole = jdt_class(tab)
            for nu in rng.sample(outers, min(4, len(outers))):
                bounded = jdt_class(tab, within=nu)
                assert bounded.states <= whole.states
                assert all(not poset.down_closure(reduce(or_, m, 0)) & ~nu for m in bounded.states)

                def inside(support):
                    return not poset.down_closure(support) & ~nu

                want = _rectifying_to(whole, tab, inside)
                assert _rectifying_to(bounded, tab, inside) == want, (spec, tab.literal(), nu)
                cases += 1
                found += len(want)
    assert cases > 200 and found > 500


def test_within_zero_is_the_forward_closure_and_the_full_mask_no_bound():
    for tab in _closure_seeds():
        assert set(jdt_class(tab, within=0).straight) == rectify_all(tab)
        if not tab.poset.is_ambient:
            assert jdt_class(tab, within=tab.poset.full_mask).states == jdt_class(tab).states


@pytest.mark.parametrize("within", [2.5, "x", True, False, -1])
def test_within_must_be_a_non_negative_int_mask(within):
    tab = minimal_tableau(cayley_plane().shape("3,1"))
    with pytest.raises(KjdtError, match="within must be a non-negative int mask"):
        jdt_class(tab, within=within)


def test_within_refuses_boxes_outside_the_poset():
    e6 = cayley_plane()
    tab = minimal_tableau(e6.shape("3,1"))
    with pytest.raises(PosetError, match="outside the poset"):
        jdt_class(tab, within=1 << e6.n)
    with pytest.raises(KjdtError, match="no within bound"):
        jdt_class(tab, within=e6.full_mask, seed_is_urt=True)


def test_class_members_carry_the_seed_values():
    shifted = parse_poset("shifted:4")
    seeds = [minimal_tableau(cayley_plane().shape("4,2"))]
    seeds += [random_skew_tableau(random.Random(seed), shifted) for seed in range(5)]
    for tab in seeds:
        cls = jdt_class(tab)
        members = set(cls.members())
        assert {t.masks for t in members} == cls.states and len(members) == cls.size
        assert all(t.level_values == tab.level_values and t in cls for t in members)
        assert tab in cls and cls.member_keys == cls.states
        masks = next(iter(cls.states))
        if masks:
            other = tuple(v + 100 for v in tab.level_values)
            assert Tableau.from_masks(tab.poset, other, masks) not in cls


def _restrict(tab: Tableau, lo: int, hi: int) -> Tableau:
    """Sub-tableau of boxes whose values lie in [lo, hi]."""
    filling = {b: v for b, v in tab.as_dict().items() if lo <= v <= hi}
    return Tableau.from_dict(tab.poset, filling)


def test_restriction_compatibility(rng):
    # members restricted to a value interval stay in the restricted class
    poset = type_a(2, 3)
    for _ in range(20):
        tab = random_skew_tableau(rng, poset, max_size=5)
        if tab.size == 0:
            continue
        lo = min(tab.values)
        cls = jdt_class(tab)
        base = _restrict(tab, lo, lo + 1)
        if base.size == 0:
            continue
        restricted_cls = jdt_class(base)
        for member in cls.members():
            cut = _restrict(member, lo, lo + 1)
            assert cut in restricted_cls


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
    assert v.class_size == 3005  # the window closure, cut before the word route refuted


@pytest.mark.parametrize("budget, size", [(10, 15), (100, 101)])
def test_ambient_urt_verdict_from_words_carries_the_window_closure_size(budget, size):
    # the window closure ran and was cut; the word route leaves it undecided
    v = is_urt(parse_tableau(ambient_grid(3, 3), "1,3,5/2/4"), budget=budget)
    assert (v.status, v.class_size) == ("inconclusive", size)


def test_ambient_urt_verdicts_of_the_small_packed_tableaux():
    # Every packed straight tableau of at most 5 boxes in two ambient
    # windows: the window closure, then the word route, at one budget.
    rows = []
    for poset in (ambient_grid(3, 3), ambient_shifted(4)):
        for mask in poset.ideals_between(0, poset.full_mask)[1:]:
            if mask.bit_count() > 5:
                continue
            for masks in packed_straight_tableaux(poset, Shape(poset, mask)):
                tab = walk_tableau(poset, masks)
                v = is_urt(tab, budget=3000)
                rows.append((tab.literal(), v.status, v.witness and v.witness.literal(), v.class_size))
    statuses = [status for _, status, _, _ in rows]
    assert [statuses.count(s) for s in ("certified", "refuted", "inconclusive")] == [59, 11, 2]
    assert hashlib.sha256(repr(rows).encode()).hexdigest()[:12] == "e0f66c527ef7"


@pytest.mark.parametrize(
    "literal, budget, witness, size, whole_size",
    [
        ("1,2,4/3/4", 300, "1,2,4/3,4/4", 302, 654),
        ("1,2,4/3,5/5", 600, "1,2,4/3,4/5", 601, 1054),
        ("1,3,5/2,5/4", 600, "1,3,5/2,4/4", 603, 1054),
    ],
)
def test_ambient_urt_counts_every_straight_state_of_a_cut_window(
    literal, budget, witness, size, whole_size
):
    # The window closure is cut before it expands a second straight member,
    # but it has met one: the one URT rule refutes, as on a bounded poset.
    tab = parse_tableau(ambient_grid(3, 3), literal)
    v = is_urt(tab, pad=1, budget=budget)
    assert (v.status, v.witness.literal(), v.class_size) == ("refuted", witness, size)
    # the witness lies in the whole class of the pad-1 window, grid:4,4
    window = ambient_grid(4, 4)
    whole = jdt_class(Tableau.from_dict(window, tab.as_dict()))
    assert whole.exhausted and whole.size == whole_size
    assert Tableau.from_dict(window, v.witness.as_dict()) in whole


def test_shifted_hecke_permutation_is_that_of_the_doubled_word():
    # The word route leaves the shifted Hecke test to kknuth_equiv, which
    # reads it from reverse(w) + w instead of the doubled tableau.
    poset = ambient_shifted(6)
    count = 0
    for mask in poset.ideals_between(0, poset.full_mask)[1:]:
        if mask.bit_count() > 8:
            continue
        for masks in packed_straight_tableaux(poset, Shape(poset, mask)):
            tab = walk_tableau(poset, masks)
            assert hecke_of_tableau(tab) == hecke_of_word(doubled_word(tab.row_word()))
            count += 1
    assert count == 273


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


def test_census_and_is_urt_agree_on_a_cut_class():
    # One URT rule: two straight members refute a class, also one the budget
    # cuts.  The census meets both straight members of this class among the
    # states of its cut closure; is_urt stops at the second one.
    og = max_orthogonal(6)
    tab = parse_tableau(og, "1,2,3,5/4")
    assert not jdt_class(tab, budget=200).exhausted
    report = urt_census(og, budget=200)
    assert tab in report["refuted"] and tab not in report["certified"]
    # every other class of og:6 runs to its end at this budget
    assert report["exhausted"]
    assert (len(report["certified"]), len(report["refuted"])) == (12835, 244)
    verdict = is_urt(tab, budget=200)
    assert verdict.status == "refuted" and verdict.class_size == 199
    assert verdict.witness.literal() == "1,2,3,5/4,5" and verdict.witness in report["refuted"]
    whole = jdt_class(tab)
    assert whole.exhausted and whole.size == 246 and len(whole.straight) == 2


def test_is_urt_counts_every_straight_state_of_a_cut_closure():
    # From the class's other straight member the closure is cut before it
    # expands 1,2,3,5/4, but it has met it: the census rule refutes.
    og = max_orthogonal(6)
    verdict = is_urt(parse_tableau(og, "1,2,3,5/4,5"), budget=200)
    assert verdict.status == "refuted" and verdict.class_size == 202
    assert verdict.witness.literal() == "1,2,3,5/4"
    # is_urt refutes each tableau the census refutes whose own cut closure
    # already holds two straight states
    report = urt_census(og, budget=100)
    cut = held = 0
    for tab in report["refuted"]:
        cls = jdt_class(tab, budget=100)
        if cls.exhausted:
            continue
        cut += 1
        if sum(og.is_ideal(reduce(or_, masks)) for masks in cls.states) > 1:
            held += 1
            assert is_urt(tab, budget=100).status == "refuted", tab.literal()
    assert (len(report["refuted"]), cut, held) == (240, 18, 17)


def test_is_urt_witness_is_the_second_straight_member_the_closure_expands():
    # The closure stops at its second straight member, which is the witness,
    # even when it has met a third that comes first by size, then literal:
    # the states it expanded keep the order it met them in.
    og = max_orthogonal(6)
    tab = parse_tableau(og, "1,2,3,6/4,5,7")
    verdict = is_urt(tab)
    assert (verdict.status, verdict.class_size) == ("refuted", 102)
    assert verdict.witness.literal() == "1,2,3,6/4,5,7/7"
    stopped = jdt_class(tab, stop_second_straight=True)
    assert parse_tableau(og, "1,2,3,6/4,5/7") in stopped
    earlier = 0
    for refuted in urt_census(og)["refuted"]:
        stopped = jdt_class(refuted, stop_second_straight=True)
        verdict = is_urt(refuted)
        assert verdict.witness == stopped.straight[1]
        key = (verdict.witness.size, verdict.witness.literal())
        met = [walk_tableau(og, m) for m in stopped.states if og.is_ideal(reduce(or_, m))]
        earlier += any((t.size, t.literal()) < key for t in met if t != refuted)
    assert earlier == 11


@pytest.mark.parametrize("spec, max_size", [("a:3,4", 6), ("og:5", None), ("qeven:5", None)])
def test_urt_census_reports_packed_tableaux(spec, max_size):
    # every class is seeded by a packed tableau and slides keep its values
    report = urt_census(parse_poset(spec), max_size=max_size)
    reported = report["certified"] + report["refuted"]
    assert reported
    for t in reported:
        assert t.value_set() == set(range(1, len(t.masks) + 1)), t.literal()


def _urt_census_reference(poset, budget):
    """The census that remembers every member of every class it closes.

    Each closure is judged on every straight member it met, expanded or
    not: two refute the class, one certifies it only when the closure ran
    to its end.  A class the budget cuts may be closed again from a seed
    the first closure missed, so refuted members are listed once.
    """
    visited = set()
    certified, refuted, exhausted = [], [], True
    for shape in enumerate_shapes(poset):
        if shape.size == 0:
            continue
        for key in packed_straight_tableaux(poset, shape):
            if key in visited:
                continue
            cls = tableau_module.jdt_class(walk_tableau(poset, key), budget=budget)
            visited.update(cls.states)
            straight = [t for t in cls.members() if t.is_straight]
            if len(straight) > 1:
                refuted.extend(straight)
            elif cls.exhausted:
                certified.extend(straight)
            else:
                exhausted = False
    refuted = sorted(set(refuted), key=lambda t: (t.size, t.literal()))
    return certified, refuted, exhausted


@pytest.mark.parametrize(
    "spec, budget",
    [(spec, budget) for spec in ("a:3,3", "og:5", "qeven:5", "e6") for budget in (None, 3)]
    + [("a:3,3", 24), ("a:3,4", 24)],
)
def test_urt_census_matches_the_whole_class_reference(monkeypatch, spec, budget):
    # Only straight keys are looked up, so remembering the straight members
    # of each exhausted class gives the same report and the same closures.
    # At budget 24 some cut a:3,3 classes have seen a straight member other
    # than their seed: a census that forgot it would close it again, and
    # those with two are refuted, as whole classes are without a budget.
    closures = []
    closure = tableau_module.jdt_class

    def counted(tab, **kwargs):
        closures.append((tab.level_values, tab.masks))
        return closure(tab, **kwargs)

    monkeypatch.setattr(tableau_module, "jdt_class", counted)
    poset = parse_poset(spec)
    certified, refuted, exhausted = _urt_census_reference(poset, budget)
    reference_closures = closures[:]
    closures.clear()
    report = urt_census(poset, budget=budget)
    assert closures == reference_closures
    assert sorted((t.level_values, t.masks) for t in report["certified"]) == sorted(
        (t.level_values, t.masks) for t in certified
    )
    assert report["refuted"] == refuted
    assert report["exhausted"] == exhausted
    if spec == "a:3,3":
        assert len(reference_closures) == {None: 665, 3: 669, 24: 665}[budget]
        assert len(refuted) == {None: 8, 3: 0, 24: 8}[budget]


def test_urt_census_lists_a_member_refuted_twice_once():
    # At budget 24 a cut a:3,4 class is closed again from a seed its first
    # closure missed, and refuted again with a member it had already listed.
    poset = parse_poset("a:3,4")
    yielded = [
        t for status, members in tableau_module._census_classes(poset, 7, 24)
        if status == "refuted" for t in members
    ]
    assert len(yielded) == len(set(yielded)) + 1
    report = urt_census(poset, max_size=7, budget=24)
    assert report["refuted"] == sorted(set(yielded), key=lambda t: (t.size, t.literal()))
    assert len(report["refuted"]) == 55


@pytest.mark.parametrize(
    "spec, slides, forward, closures, states, largest, calls_digest",
    [
        ("og:5", 726, 14, 175, 747, 38, "2509f1857791"),
        ("e6", 16555, 33, 3026, 16600, 156, "8c4102fc564e"),
    ],
)
def test_urt_census_makes_the_pinned_slides_and_closures(
    monkeypatch, spec, slides, forward, closures, states, largest, calls_digest
):
    # The census's work, pinned: every slide call in order (by digest) and
    # the size of every class it closes.  A faster loop must do the same.
    calls, sizes = [], []
    slide, closure = tableau_module._slide_levels, tableau_module.jdt_class

    def recorded_slide(poset, masks, dots, fwd):
        calls.append((masks, dots, fwd))
        return slide(poset, masks, dots, fwd)

    def recorded_closure(tab, **kwargs):
        cls = closure(tab, **kwargs)
        sizes.append(cls.size)
        return cls

    monkeypatch.setattr(tableau_module, "_slide_levels", recorded_slide)
    monkeypatch.setattr(tableau_module, "jdt_class", recorded_closure)
    urt_census(parse_poset(spec))
    assert (len(calls), sum(fwd for _, _, fwd in calls)) == (slides, forward)
    assert (len(sizes), sum(sizes), max(sizes)) == (closures, states, largest)
    assert hashlib.sha256(repr(calls).encode()).hexdigest()[:12] == calls_digest


def test_urt_census_does_not_keep_whole_classes():
    # Remembering every closure state peaked at 9-10 MB here; the straight
    # members alone, under 2 MB.
    e6 = cayley_plane()
    tracemalloc.start()
    try:
        report = urt_census(e6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report["certified"]) == 3026
    assert peak < 4 * 2**20, peak


def test_large_closure_stores_masks_not_levels():
    # 5,434 states: a 3.8 MB peak as (value, mask) pairs, 1.9 MB as level
    # masks (4.2 and 2.3 MB while the poset's memos are still empty)
    target = superstandard(freudenthal().shape("5,3,3"), "row")
    tracemalloc.start()
    try:
        cls = jdt_class(target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cls.size == 5434 and cls.exhausted
    assert peak < 2.8 * 2**20, peak


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
    assert anti == minimal_tableau(SkewShape(Shape(e6, e6.full_mask), e6.shape("3,1").dual()))


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


def _infusion_by_swaps(s_tab, t_tab):
    """Infusion as it was computed before it ran on the slide engine."""
    poset = s_tab.poset
    expand = poset.expand_neighbors
    s_levels = dict(zip(s_tab.level_values, s_tab.masks))
    t_levels = dict(zip(t_tab.level_values, t_tab.masks))
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


def _display_infusion_pair():
    e6 = cayley_plane()
    s_tab = parse_tableau(e6, ".,.,.,2/1,3,4/3")
    t_tab = Tableau.from_dict(
        e6, {(2, 6): 1, (3, 4): 1, (3, 5): 2, (3, 6): 3, (4, 5): 3, (4, 6): 4, (4, 7): 5}
    )
    return s_tab, t_tab


def test_infusion_display_pair():
    e6 = cayley_plane()
    s_tab, t_tab = _display_infusion_pair()
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


def _random_infusion_pairs(rng, count=200):
    """Random nested pairs (S, T) that infusion accepts, with its result."""
    posets = [cayley_plane(), max_orthogonal(5), type_a(3, 3)]
    done = 0
    while done < count:
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
        yield s_tab, t_tab, pair
        done += 1


def test_infusion_involution_randomized(rng):
    for s_tab, t_tab, pair in _random_infusion_pairs(rng):
        assert infusion(*pair) == (s_tab, t_tab)


def test_infusion_matches_swap_loop(rng):
    s_tab, t_tab = _display_infusion_pair()
    assert infusion(s_tab, t_tab) == _infusion_by_swaps(s_tab, t_tab)
    for s_tab, t_tab, pair in _random_infusion_pairs(rng):
        assert pair == _infusion_by_swaps(s_tab, t_tab)


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


@pytest.mark.parametrize("filling", [{(3, 3): 1}, {(1, 1): 1, (3, 3): DOT}])
def test_dotted_box_outside_the_poset_is_a_window_error(filling):
    # the same error Tableau.from_dict raises for a box outside the poset
    a = type_a(2, 2)
    with pytest.raises(WindowExceeded, match="outside the poset"):
        Tableau.from_dict(a, {(3, 3): 1})
    with pytest.raises(WindowExceeded, match="outside the poset"):
        DottedTableau(a, filling)


def test_resolutions_are_kknuth_equivalent(rng):
    from kjdt.words import kknuth_equiv

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
            except (PosetError, StopIteration):
                words = []
                break
        for i in range(1, len(words)):
            verdict = kknuth_equiv(words[0], words[i], budget=30000)
            assert verdict.status != "refuted"
        done += 1


def test_pack():
    a = type_a(2, 2)
    tab = Tableau.from_dict(a, {(1, 1): 3, (1, 2): 7, (2, 1): 7})
    # the walk tableau of a tableau's masks renumbers its values 1..d
    assert walk_tableau(a, tab.masks).values == (1, 2, 2)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SLIDE_FAMILIES), st.integers(0, 2**32 - 1))
def test_tableau_identity_does_not_depend_on_constructor(spec, seed):
    poset = parse_poset(spec)
    tab = random_skew_tableau(random.Random(seed), poset)
    copies = [
        Tableau.from_masks(poset, tab.level_values, tab.masks),
        Tableau.from_levels(poset, tuple(zip(tab.level_values, tab.masks))),
        Tableau(poset, tab.mask, tab.values),
        Tableau.from_dict(poset, tab.as_dict()),
    ]
    for other in copies:
        assert other == tab and hash(other) == hash(tab)
        assert other.values == tab.values and other.literal() == tab.literal()
    # packing renumbers levels; compare with renumbering the value tuple.
    ranks = {v: k for k, v in enumerate(sorted(set(tab.values)), start=1)}
    assert walk_tableau(poset, tab.masks) == Tableau(poset, tab.mask, tuple(ranks[v] for v in tab.values))


def _reference_values(tab):
    """The value tuple in ``bits(mask)`` order, looked up box by box from the levels."""
    val_at = {}
    for v, m in zip(tab.level_values, tab.masks):
        for i in bits(m):
            val_at[i] = v
    return tuple(val_at[i] for i in bits(tab.mask))


def _reference_value_at(tab, i):
    """The offset reader: box i's value sits at i's rank among the bits of ``mask``."""
    return _reference_values(tab)[(tab.mask & ((1 << i) - 1)).bit_count()]


def _reference_literal(tab):
    """The row walker over the inner and support masks, cutting empty trailing rows."""
    poset, outer, inner = tab.poset, tab.outer_mask(), tab.inner_mask()
    parts = []
    for r in poset.row_numbers:
        row = poset.row_boxes[r]
        toks = []
        for i in row:
            if inner & (1 << i):
                toks.append(".")
            elif tab.mask & (1 << i):
                toks.append(str(_reference_value_at(tab, i)))
        if not toks and not any(outer & (1 << i) for i in row):
            break
        parts.append(",".join(toks))
    while parts and not parts[-1]:
        parts.pop()
    return "/".join(parts)


def _reference_render(tab):
    """The grid render from the reference value tuple."""
    cells = {tab.poset.boxes[i]: str(v) for i, v in zip(bits(tab.mask), _reference_values(tab))}
    for i in bits(tab.inner_mask()):
        cells[tab.poset.boxes[i]] = "."
    if not cells:
        return "(empty)"
    width = max(len(s) for s in cells.values())
    cols = range(min(c for _, c in cells), max(c for _, c in cells) + 1)
    return "\n".join(
        " ".join(cells.get((r, c), "").rjust(width) for c in cols).rstrip()
        for r in sorted({r for r, _ in cells})
    )


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(SLIDE_FAMILIES + ["grid:1,1", "grid:6,2", "shifted:1", "shifted:7"]),
    st.integers(0, 2**32 - 1),
)
def test_readers_match_the_offset_reader(spec, seed):
    poset = parse_poset(spec)
    tab = random_skew_tableau(random.Random(seed), poset)
    values = _reference_values(tab)
    assert tab.values == values
    assert list(tab.as_dict().items()) == [
        (poset.boxes[i], _reference_value_at(tab, i)) for i in bits(tab.mask)
    ]
    assert tab.literal() == _reference_literal(tab)
    assert tab.render() == _reference_render(tab)
    assert parse_tableau(poset, tab.literal()) == tab


def test_budget_paths():
    from kjdt.errors import BudgetExceeded

    e7 = freudenthal()
    target = superstandard(e7.shape("5,3,3"), "row")
    cls = jdt_class(target, budget=50)
    assert not cls.exhausted and cls.size >= 50
    tab = Tableau.from_dict(e7, {(2, 5): 1, (2, 6): 2, (3, 4): 1, (3, 5): 3})
    with pytest.raises(BudgetExceeded):
        rectify_all(tab, budget=1)


def _e6_class(budget, seed_is_urt=False):
    seed = minimal_tableau(cayley_plane().shape("2"))
    cls = jdt_class(seed, budget=budget, seed_is_urt=seed_is_urt)
    return cls.size, len(cls.straight), cls.exhausted


def _rectifications(budget):
    tab = parse_tableau(type_a(3, 3), ".,1,2/1,3/2")
    return sorted(t.literal() for t in rectify_all(tab, budget=budget))


def _census(budget):
    report = urt_census(type_a(2, 3), budget=budget)
    return len(report["certified"]), len(report["refuted"]), report["exhausted"]


def _urt_verdict(poset, budget):
    verdict = is_urt(parse_tableau(poset, "1,2/3"), budget=budget)
    return verdict.status, verdict.class_size


# Each closure search: its result with no bound (or a bound it never
# reaches), and its result at budget 4.
BUDGETED_SEARCHES = {
    "jdt_class": (_e6_class, (75, 1, True), (5, 1, False)),
    "jdt_class seed_is_urt": (
        lambda budget: _e6_class(budget, seed_is_urt=True), (75, 1, True), (5, 1, False)
    ),
    "rectify_all": (_rectifications, ["1,2/2,3"], ["1,2/2,3"]),
    "urt_census": (_census, (37, 0, True), (31, 0, False)),
    "is_urt bounded": (
        lambda budget: _urt_verdict(type_a(3, 3), budget), ("certified", 38), ("inconclusive", 8)
    ),
    "is_urt ambient": (
        lambda budget: _urt_verdict(ambient_grid(3, 3), budget), ("certified", 430), ("certified", 8)
    ),
}


@pytest.mark.parametrize("name", BUDGETED_SEARCHES)
def test_every_closure_search_has_one_budget_rule(name):
    # None is no bound (DEFAULT_BUDGET for ambient is_urt); a positive int
    # cuts after the expansion that passes it; anything else is refused.
    search, unbounded, at_four = BUDGETED_SEARCHES[name]
    assert search(None) == search(10**6) == unbounded
    assert search(4) == at_four
    for budget in (0, -1):
        with pytest.raises(KjdtError, match="budget must be a positive integer"):
            search(budget)


def test_urt_census_refuses_a_bad_budget_with_no_class_to_close():
    # max_size=0 closes no class, so the census itself checks the budget
    for budget in (0, -3):
        with pytest.raises(KjdtError, match="budget must be a positive integer"):
            urt_census(parse_poset("a:2,2"), max_size=0, budget=budget)


def test_urt_census_refuses_a_negative_max_size():
    # the library refuses what the CLI refuses (`kjdt urt --all --max-size -1`)
    with pytest.raises(KjdtError, match="max_size must be a non-negative integer"):
        urt_census(parse_poset("a:2,2"), max_size=-1)


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


# (poset, outer, inner, vmin, vmax): skews filled by values in [vmin, vmax]
FILLING_CASES = [
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
]


@pytest.mark.parametrize("spec, outer, inner, vmin, vmax", FILLING_CASES)
@pytest.mark.parametrize("surjective", [False, True])
def test_increasing_fillings_match_tuple_filter(spec, outer, inner, vmin, vmax, surjective):
    # every d up to one past the width of [vmin, vmax], values vmin..vmin+d-1;
    # the fillings that may skip values come from the test helper
    poset = parse_poset(spec)
    lam, nu = poset.shape(inner).mask, poset.shape(outer).mask
    skew = nu & ~lam
    for d in range(vmax - vmin + 2):
        if surjective:
            got = [walk_tableau(poset, key) for key in increasing_fillings(poset, lam, nu, d)]
        else:
            got = list(fillings_skipping_values(poset, lam, nu, d))
        assert len(got) == len(set(got))
        assert all(t.mask == skew for t in got)
        got_values = {tuple(v + vmin - 1 for v in t.values) for t in got}
        want = _fillings_by_filter(poset, skew, vmin, vmin + d - 1, surjective)
        assert got_values == set(want), d


@pytest.mark.parametrize("spec, outer, inner, vmin, vmax", FILLING_CASES)
def test_open_ended_walk_is_the_union_of_the_fixed_end_walks(spec, outer, inner, vmin, vmax):
    poset = parse_poset(spec)
    lam = poset.shape(inner).mask
    for d in range(vmax - vmin + 2):
        got = list(increasing_fillings(poset, lam, None, d))
        want = [
            key
            for nu in poset.ideals_between(lam, poset.full_mask)
            for key in increasing_fillings(poset, lam, nu, d)
        ]
        assert sorted(got) == sorted(want), d


@pytest.mark.parametrize("spec, outer, inner, vmin, vmax", FILLING_CASES)
@pytest.mark.parametrize("cut", [False, True])
def test_filling_row_words_match_tableau_row_words(spec, outer, inner, vmin, vmax, cut):
    # pair by pair, in the order of the open-ended walk; with the cut, only
    # the fillings whose word cut to the values 1..k passes at every level k
    def keep(word):
        return not cut or sum(word) % 3 != 1

    poset = parse_poset(spec)
    lam = poset.shape(inner).mask
    for d in range(vmax - vmin + 2):
        want = []
        for key in increasing_fillings(poset, lam, None, d):
            tab = walk_tableau(poset, key)
            word = tab.row_word()
            if all(keep(tuple(v for v in word if v <= k)) for k in range(1, d + 1)):
                want.append((lam | tab.mask, word))
        assert list(filling_row_words(poset, lam, d, keep)) == want, d


def _increasing_fillings_recursive(poset, lam, nu, d, keep=None):
    """``increasing_fillings`` as a recursive walk, one generator per node of the walk."""
    end = poset.full_mask if nu is None else nu
    rest = end & ~lam
    if rest.bit_count() < d:
        return
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
    key = []

    def rec(ideal, left):
        if not left:
            yield tuple(key)
            return
        left -= 1
        for step in poset.skew_geometry(ideal)[3]:
            grown = ideal | step
            rest = end & ~grown
            if step & ~end or rest & deep[left] or rest.bit_count() < left:
                continue
            key.append(step)
            if keep is None or keep(key):
                yield from rec(grown, left)
            key.pop()

    yield from rec(lam, d)


def _recording_keep(seen):
    """A keep that records each key it sees and cuts some branches at every level."""
    def keep(key):
        seen.append(tuple(key))
        return sum(m.bit_count() for m in key) % 3 != 1
    return keep


@pytest.mark.parametrize(
    "spec, whole, kept", [("a:3,4", 18229, 674), ("og:5", 931, 64), ("e6", 3048, 137), ("grid:3,3", 2909, 156)]
)
def test_increasing_fillings_yield_the_recursive_walks_sequence(spec, whole, kept):
    # The census closes classes in the order of the fillings, so the order
    # is pinned, and with a keep so are the keys it sees, in turn.  Fixed
    # ends up to 7 boxes above each ideal, open ends up to 5 values.
    poset = parse_poset(spec)
    ideals = poset.ideals_between(0, poset.full_mask)
    cases = [
        (lam, nu, d)
        for lam in ideals
        for nu in ideals
        if not lam & ~nu and (nu & ~lam).bit_count() <= 7
        for d in range((nu & ~lam).bit_count() + 2)
    ]
    cases += [(lam, None, d) for lam in ideals for d in range(6)]
    for cut, count in ((False, whole), (True, kept)):
        yielded = 0
        for lam, nu, d in cases:
            got_keys, want_keys = [], []
            got_keep = _recording_keep(got_keys) if cut else None
            want_keep = _recording_keep(want_keys) if cut else None
            got = list(increasing_fillings(poset, lam, nu, d, keep=got_keep))
            assert got == list(_increasing_fillings_recursive(poset, lam, nu, d, keep=want_keep))
            assert got_keys == want_keys
            yielded += len(got)
        assert yielded == count, cut


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
    # the walk's mask tuples are exactly the masks of the surjective value
    # tuples, for every d up to one past the box count
    poset = parse_poset(spec)
    lam, nu = poset.shape(inner).mask, poset.shape(outer).mask
    skew = nu & ~lam
    for d in range(skew.bit_count() + 2):  # d = |nu/lam| + 1 has no filling
        got = list(increasing_fillings(poset, lam, nu, d))
        assert len(got) == len(set(got))
        assert set(got) == {
            Tableau(poset, skew, f).masks
            for f in _fillings_by_filter(poset, skew, 1, d, surjective=True)
        }, d


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SLIDE_FAMILIES), st.integers(0, 2**32 - 1), st.integers(0, 4))
def test_non_surjective_fillings_count_by_value_sets(spec, seed, d):
    # a filling by 1..d uses some k of the values; packing it gives a
    # surjective filling by 1..k, and each k-subset of 1..d unpacks it
    poset = parse_poset(spec)
    tab = random_skew_tableau(random.Random(seed), poset, max_size=6)
    nu = tab.outer_mask()
    lam = nu & ~tab.mask
    tabs = list(fillings_skipping_values(poset, lam, nu, d))
    assert len(tabs) == len(set(tabs))
    packed = {t.masks for t in tabs}  # packing a tableau keeps its level masks
    assert packed == {key for k in range(d + 1) for key in increasing_fillings(poset, lam, nu, k)}
    assert len(tabs) == sum(
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
