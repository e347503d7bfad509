import pytest

from kjdt import poset as poset_module
from kjdt.errors import PosetError
from kjdt.kring import class_supports
from kjdt.poset import (
    MinusculePoset,
    PosetFamily,
    Shape,
    SkewShape,
    ambient_grid,
    ambient_shifted,
    bits,
    build_poset,
    cayley_plane,
    enumerate_shapes,
    freudenthal,
    lagrangian,
    max_orthogonal,
    parse_poset,
    quadric_even,
    quadric_odd,
    rook_strips_over,
    type_a,
)

from conftest import SLIDE_FAMILIES

E6_BOXES = {
    (1, c) for c in range(1, 5)
} | {(r, c) for r in (2, 3) for c in range(3, 7)} | {(4, c) for c in range(5, 9)}

E7_ROW_LENGTHS = (5, 5, 5, 3, 3, 3, 1, 1, 1)


def test_box_counts_match_table():
    for m in range(1, 5):
        for k in range(1, 5):
            assert type_a(m, k).n == m * k
    for n in range(2, 9):
        assert max_orthogonal(n).n == n * (n - 1) // 2
        assert quadric_even(n).n == 2 * n
    for n in range(1, 7):
        assert lagrangian(n).n == n * (n + 1) // 2
        assert quadric_odd(n).n == 2 * n - 1
    assert cayley_plane().n == 16
    assert freudenthal().n == 27


def test_exceptional_embeddings():
    assert set(cayley_plane().boxes) == E6_BOXES
    e7 = freudenthal()
    assert Shape(e7, e7.full_mask).row_lengths == E7_ROW_LENGTHS
    assert (2, 4) in e7.index and (5, 7) in e7.index and (9, 9) in e7.index


def test_quadric_even_layouts():
    q4 = quadric_even(4)
    assert set(q4.boxes) == {(1, c) for c in range(1, 5)} | {(2, c) for c in range(3, 7)}
    q5 = quadric_even(5)
    assert set(q5.boxes) == (
        {(1, c) for c in range(1, 6)} | {(2, 4), (2, 5)} | {(r, 5) for r in range(3, 6)}
    )


def test_parameter_validation():
    with pytest.raises(PosetError):
        type_a(0, 3)
    with pytest.raises(PosetError):
        quadric_even(1)
    with pytest.raises(PosetError):
        ambient_grid(0, 5)
    with pytest.raises(PosetError):
        build_poset(PosetFamily("nope"))
    # every parameter is an int, a bool excluded, of at least its least value
    for build, message in [
        (lambda: type_a(True, 2), r"a poset parameters are ints >= \(1, 1\), got \(True, 2\)"),
        # True == 1: the cached a:1,2 must not answer for a:True,2
        (lambda: (type_a(1, 2), type_a(True, 2)), r"got \(True, 2\)"),
        (lambda: type_a(2.5, 2), r"got \(2.5, 2\)"),
        (lambda: ambient_grid("3", 3), r"grid poset parameters are ints >= \(1, 1\), got \('3', 3\)"),
        (lambda: max_orthogonal(1), r"og poset parameters are ints >= \(2,\), got \(1,\)"),
        (lambda: parse_poset("qeven:1"), r"qeven poset parameters are ints >= \(2,\)"),
        (lambda: build_poset(PosetFamily(["a"], (2, 2))), r"unknown poset family \['a'\]"),
        (lambda: build_poset(PosetFamily("a", [3, 4])), r"a poset parameters are a tuple, not \[3, 4\]"),
        (lambda: MinusculePoset(PosetFamily("og", 5)), "og poset parameters are a tuple, not 5"),
    ]:
        with pytest.raises(PosetError, match=message):
            build()


def _order_by_double_loop(poset):
    """``(below, above, up, down)`` by comparing every pair of boxes."""
    n, boxes = poset.n, poset.boxes
    below, above = [0] * n, [0] * n
    for i, (r1, c1) in enumerate(boxes):
        for j, (r2, c2) in enumerate(boxes):
            if r2 <= r1 and c2 <= c1:
                below[i] |= 1 << j
                above[j] |= 1 << i
    # j covers i iff nothing sits strictly between them
    up, down = [[] for _ in range(n)], [[] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and below[j] & (1 << i):
                if (above[i] & below[j]) == (1 << i) | (1 << j):
                    up[i].append(j)
                    down[j].append(i)
    return below, above, up, down


@pytest.mark.parametrize(
    "spec",
    SLIDE_FAMILIES
    + ["a:1,1", "a:5,2", "og:2", "og:7", "lg:1", "qodd:1", "qeven:2", "qeven:3"]
    + ["qeven:7", "grid:1,6", "grid:6,1", "shifted:1", "shifted:7"],
)
def test_order_matches_the_double_loop(spec):
    poset = parse_poset(spec)
    below, above, up, down = _order_by_double_loop(poset)
    assert poset.below == tuple(below) and poset.above == tuple(above)
    assert poset.up == tuple(map(tuple, up)) and poset.down == tuple(map(tuple, down))
    nbr_mask = tuple(sum(1 << j for j in up[i] + down[i]) for i in range(poset.n))
    assert poset.nbr_mask == nbr_mask
    heights = []
    for i in range(poset.n):
        heights.append(1 + max((heights[j] for j in down[i]), default=0))
    assert poset.heights == tuple(heights)


@pytest.mark.parametrize(
    "family",
    [
        ("a", (13, 1)), ("og", (6,)), ("lg", (5,)), ("qodd", (7,)),
        ("qeven", (7,)), ("e7", ()), ("grid", (2, 7)), ("shifted", (5,)),
    ],
)
def test_families_over_the_box_bound_are_refused(monkeypatch, family):
    monkeypatch.setattr(poset_module, "MAX_BOXES", 12)
    assert MinusculePoset(PosetFamily("a", (3, 4))).n == 12
    with pytest.raises(PosetError, match="more than 12 boxes"):
        MinusculePoset(PosetFamily(*family))


def test_cayley_longest_chain():
    assert max(cayley_plane().heights) == 11


def test_heights_have_stepping_predecessors():
    for poset in [cayley_plane(), freudenthal(), max_orthogonal(5), quadric_even(5)]:
        for i in range(poset.n):
            h = poset.heights[i]
            if h > 1:
                assert any(poset.heights[j] == h - 1 for j in poset.down[i])


def test_wx_is_order_reversing_involution():
    for poset in [
        type_a(2, 3),
        max_orthogonal(5),
        lagrangian(4),
        quadric_odd(3),
        quadric_even(4),
        quadric_even(5),
        cayley_plane(),
        freudenthal(),
    ]:
        wx = poset.wx
        assert wx is not None
        assert all(wx[wx[i]] == i for i in range(poset.n))
        for i in range(poset.n):
            for j in poset.up[i]:
                assert poset.leq(wx[j], wx[i])


def test_minuscule_flags():
    assert cayley_plane().is_minuscule
    assert max_orthogonal(4).is_minuscule
    assert quadric_even(3).is_minuscule
    assert not lagrangian(3).is_minuscule
    assert not quadric_odd(3).is_minuscule
    assert not ambient_grid(3, 3).is_minuscule


def test_enumerate_shapes_counts():
    assert len(enumerate_shapes(type_a(2, 2))) == 6
    assert len(enumerate_shapes(cayley_plane())) == 27
    assert len(enumerate_shapes(freudenthal())) == 56
    with pytest.raises(PosetError):
        enumerate_shapes(ambient_grid(3, 3))


def test_rectangle_shape_count_is_binomial():
    import math

    for m, k in [(2, 3), (3, 3), (2, 4)]:
        assert len(enumerate_shapes(type_a(m, k))) == math.comb(m + k, m)


def test_shape_order_refines_cardinality():
    shapes = enumerate_shapes(max_orthogonal(5))
    sizes = [s.size for s in shapes]
    assert sizes == sorted(sizes)


def test_typea22_shapes():
    shapes = {s.row_lengths for s in enumerate_shapes(type_a(2, 2))}
    assert shapes == {(), (1,), (2,), (1, 1), (2, 1), (2, 2)}


def test_dual_shape_fixture():
    e6 = cayley_plane()
    assert e6.shape("4,2,1").dual().row_lengths == (4, 3, 2)
    assert type_a(2, 2).shape("1").dual().row_lengths == (2, 1)
    assert e6.shape("").dual() == Shape(e6, e6.full_mask)


def test_dual_is_involution_everywhere():
    for poset in [type_a(2, 3), max_orthogonal(5), quadric_even(5), cayley_plane()]:
        for s in enumerate_shapes(poset):
            assert s.dual().dual() == s


def test_rook_strips():
    a22 = type_a(2, 2)
    strips = {s.row_lengths for s in rook_strips_over(a22.shape("1"))}
    assert strips == {(1,), (2,), (1, 1), (2, 1)}
    full = Shape(a22, a22.full_mask)
    assert rook_strips_over(full) == [full]
    q2 = quadric_even(2)
    for lam in enumerate_shapes(q2):
        if lam.size == 2:
            strips = rook_strips_over(lam)
            for nu in strips:
                added = [i for i in range(q2.n) if nu.mask & ~lam.mask & (1 << i)]
                for a in added:
                    for b in added:
                        assert a == b or not q2.comparable(a, b)


def _rook_strips_by_search(shape):
    """Rook strips as they were found before the slide-start memo: a search."""
    poset = shape.poset
    results = {shape.mask}
    stack = [(shape.mask, 0)]
    while stack:
        mask, added = stack.pop()
        for i in poset.minimal_absent_boxes(mask):
            bit = 1 << i
            if added & (poset.below[i] | poset.above[i]):
                continue
            grown = mask | bit
            if grown not in results:
                results.add(grown)
                stack.append((grown, added | bit))
    shapes = [Shape(poset, m) for m in results]
    shapes.sort(key=lambda s: (s.size, s.row_lengths))
    return shapes


def test_rook_strips_are_reverse_slide_starts():
    shapes = []
    for spec in ["e6", "e7", "og:6", "a:3,4", "lg:4", "qodd:3", "qeven:4", "qeven:5"]:
        shapes += enumerate_shapes(parse_poset(spec))
    for spec in ["grid:4,5", "shifted:6"]:
        p = parse_poset(spec)
        shapes += [Shape(p, m) for m in p.ideals_between(0, p.full_mask)]
    assert len(shapes) == 384
    for shape in shapes:
        assert rook_strips_over(shape) == _rook_strips_by_search(shape), shape


def test_shape_literals_and_json():
    og = max_orthogonal(6)
    s = og.shape("5,3,2")
    assert s.literal() == "5,3,2"
    assert build_poset(og.family).shape(list(s.row_lengths)) == s
    with pytest.raises(PosetError):
        og.shape("5,5")  # not strict, not an ideal in the shifted poset


def test_skew_shape_validation():
    a = type_a(2, 2)
    with pytest.raises(PosetError):
        SkewShape(a.shape("1"), a.shape("2"))


def test_parse_poset_specs():
    assert parse_poset("a:2,2").n == 4
    assert parse_poset("og:5").n == 10
    assert parse_poset("e6").n == 16
    assert parse_poset("grid:3,4").n == 12
    assert parse_poset("shifted:4").n == 10
    with pytest.raises(PosetError):
        parse_poset("a:x,y")


def test_ambient_windows():
    g = ambient_grid(3, 4)
    assert g.is_ambient and g.wx is None
    sh = ambient_shifted(4)
    assert {g.boxes[i] for i in range(g.n)} == {
        (r, c) for r in range(1, 4) for c in range(1, 5)
    }
    assert all(r <= c for r, c in sh.boxes)


# -- the order-ideal walk -----------------------------------------------------


def _ideals_by_filter(poset, lo, hi):
    return sorted(
        m
        for m in range(1 << poset.n)
        if poset.is_ideal(m) and not lo & ~m and not m & ~hi
    )


def _ideals_by_minimal_boxes(poset, lo, hi):
    """Reference walk: breadth-first, each ideal grown by its minimal absent boxes in ``hi``."""
    start = poset.down_closure(lo)
    if start & ~hi:
        return []
    found = [start]
    for mask in found:
        for i in poset.minimal_absent_boxes(mask):
            if hi >> i & 1 and mask | 1 << i not in found:
                found.append(mask | 1 << i)
    return found


def _minimal_absent_boxes_by_scan(poset, mask):
    """Reference: scan every box for one outside ``mask`` whose lower covers all lie in it."""
    return [
        i
        for i in range(poset.n)
        if not mask & (1 << i)
        and all(mask & (1 << j) for j in poset.down[i])
    ]


def test_minimal_absent_boxes_match_the_scan_of_every_box():
    specs = ["a:3,4", "og:6", "e6", "e7", "qeven:4", "qeven:5", "qodd:4", "lg:4",
             "grid:4,5", "shifted:6", "a:1,1"]
    checked = 0
    for spec in specs:
        poset = parse_poset(spec)
        for mask in poset.ideals_between(0, poset.full_mask):
            got = poset.minimal_absent_boxes(mask)
            assert got == _minimal_absent_boxes_by_scan(poset, mask), (spec, mask)
            checked += 1
    assert checked == 388


@pytest.mark.parametrize("spec", ["grid:3,3", "shifted:4", "og:4", "a:2,3"])
def test_ideals_between_matches_subset_filter(spec):
    poset = parse_poset(spec)
    cut = sum(1 << i for i, (r, c) in enumerate(poset.boxes) if r <= 2 and c <= 2)
    ideal_lo = poset.shape("1").mask
    loose_lo = 0b10  # the second box, (1, 2): not an ideal on its own
    cases = [(0, poset.full_mask), (0, cut), (ideal_lo, poset.full_mask),
             (ideal_lo, cut), (loose_lo, poset.full_mask), (loose_lo, cut),
             (poset.full_mask, cut)]
    for lo, hi in cases:
        got = poset.ideals_between(lo, hi)
        assert len(set(got)) == len(got), (lo, hi)
        assert sorted(got) == _ideals_by_filter(poset, lo, hi), (lo, hi)
        assert got == _ideals_by_minimal_boxes(poset, lo, hi), (lo, hi)  # same order
        sizes = [m.bit_count() for m in got]
        assert sizes == sorted(sizes), (lo, hi)  # breadth-first


# -- the per-poset memos ------------------------------------------------------


def _subset_masks(items):
    """Masks of the nonempty subsets of ``items``, by the binary count of picks."""
    return tuple(
        sum(1 << items[k] for k in range(len(items)) if pick >> k & 1)
        for pick in range(1, 1 << len(items))
    )


def _skew_supports(poset):
    ideals = poset.ideals_between(0, poset.full_mask)
    return sorted({o & ~i for o in ideals for i in ideals if not i & ~o})


def _maximal_boxes_by_covers(poset, mask):
    """The per-box rule the cover masks replaced: boxes of ``mask`` none of whose covers is in it."""
    return [i for i in bits(mask) if not any(mask & (1 << j) for j in poset.up[i])]


def _direct_geometry(poset, support):
    outer = poset.down_closure(support)
    inner = outer & ~support
    return (
        outer,
        inner,
        _subset_masks(_maximal_boxes_by_covers(poset, inner)),
        _subset_masks(poset.minimal_absent_boxes(outer)),
    )


def _direct_layers(poset, inner):
    layers = []
    while inner:
        top = sum(1 << i for i in _maximal_boxes_by_covers(poset, inner))
        layers.append(top)
        inner &= ~top
    return tuple(layers)


@pytest.mark.parametrize("spec", ["e6", "e7", "og:6", "a:3,4", "qeven:5", "grid:3,3", "shifted:4"])
def test_skew_geometry_matches_direct_computation(spec):
    # Lists are compared whole, so the boxes keep their ascending order.
    poset = parse_poset(spec)
    for support in _skew_supports(poset):
        assert poset.skew_geometry(support) == _direct_geometry(poset, support), support
        assert poset.maximal_boxes(support) == _maximal_boxes_by_covers(poset, support), support
    for inner in poset.ideals_between(0, poset.full_mask):
        assert poset.greedy_layers(inner) == _direct_layers(poset, inner), inner
        assert poset.maximal_boxes(inner) == _maximal_boxes_by_covers(poset, inner), inner


def test_memos_stay_bounded_past_the_cap(monkeypatch):
    cap = 7
    cached = cayley_plane()
    shapes = enumerate_shapes(cached)
    classes = {mu.mask: class_supports(cached, mu) for mu in shapes}
    supports = _skew_supports(cached)
    monkeypatch.setattr(poset_module, "MEMO_CAP", cap)
    fresh = MinusculePoset(PosetFamily("e6"))  # outside the poset cache: empty memos
    for _ in range(2):  # the second round reads entries evicted in the first
        for support in supports:
            assert fresh.skew_geometry(support) == _direct_geometry(fresh, support)
            assert len(fresh._skew_memo) <= cap
        for mu in shapes:
            assert fresh.greedy_layers(mu.mask) == _direct_layers(fresh, mu.mask)
            assert len(fresh._layer_memo) <= cap
            assert class_supports(fresh, Shape(fresh, mu.mask)) == classes[mu.mask]
            assert len(fresh.class_supports_memo) <= cap
        for mask in range(0, 1 << 12, 3):
            expected = 0
            for i in range(fresh.n):
                if mask >> i & 1:
                    expected |= fresh.nbr_mask[i]
            assert fresh._expand_cache[mask] == expected  # the slide engine's read
            assert len(fresh._expand_cache) <= cap
            assert fresh.expand_neighbors(mask) == expected
            assert len(fresh._expand_cache) <= cap


@pytest.mark.parametrize("spec", SLIDE_FAMILIES)
def test_box_index_order_is_a_linear_extension(spec):
    # each cover goes up in index, so the last box of a shape is maximal in it
    # (rootsys.MarkedRootData.weyl_of_shape, minimal_tableau, maximal_tableau)
    poset = parse_poset(spec)
    assert all(i < j for i in range(poset.n) for j in poset.up[i])


@pytest.mark.parametrize("spec", ["a:3,4", "og:6", "e6", "e7", "qeven:5"])
def test_shape_size_is_its_box_count(spec):
    # the size is read in hot loops, so a change to how it is kept must not change it
    p = parse_poset(spec)
    for s in enumerate_shapes(p):
        for shape in (s, s.dual(), p.shape(s.literal())):
            assert shape.size == shape.mask.bit_count() == len(shape.boxes())
