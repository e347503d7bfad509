import math
import random
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kjdt.kring as kring_module
from kjdt.errors import NonMinusculePoset, PosetError, WindowExceeded
from kjdt.kring import (
    GammaElement,
    _attach,
    _count_hecke_fillings,
    SignedKElement,
    basis_product,
    class_supports,
    dual_class,
    euler_pairing,
    fat_hook_urt,
    from_schubert_basis,
    grothendieck_times_shape,
    is_pieri_word_b,
    multiply,
    pieri_A,
    pieri_A_by_counting,
    pieri_B,
    pieri_B_by_class,
    stable_grothendieck_coeffs,
    structure_constant,
    to_schubert_basis,
)
from kjdt.poset import (
    MinusculePoset,
    PosetFamily,
    Shape,
    ambient_grid,
    ambient_shifted,
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
from kjdt.tableau import (
    Tableau,
    increasing_fillings,
    minimal_tableau,
    packed_straight_tableaux,
    rect_greedy,
    rectifies_to,
)
from kjdt.words import Permutation, grassmannian_permutation, hecke_of_word

from conftest import SLIDE_FAMILIES, fillings_skipping_values, random_skew_tableau, walk_tableau


def terms(el):
    return {s.row_lengths: c for s, c in el.terms()}


# -- structure constants and products ------------------------------------------


def _attach_by_is_ideal(poset, lam, supports):
    out = {}
    for support, count in supports.items():
        if not support & lam and poset.is_ideal(lam | support):
            out[lam | support] = out.get(lam | support, 0) + count
    return out


@pytest.mark.parametrize(
    "spec, rows", [("e6", None), ("e7", None), ("shifted:6", ["1", "2", "3"])]
)
def test_attach_inner_test_matches_is_ideal(spec, rows):
    # Counts are positive and distinct supports disjoint from lam give
    # distinct unions, so equal outputs mean the lookup and the is_ideal
    # test agree on every (lam, support) pair.  The shifted window is the
    # pieri_B_by_class path.
    poset = parse_poset(spec)
    mus = enumerate_shapes(poset) if rows is None else [poset.shape(r) for r in rows]
    lams = poset.ideals_between(0, poset.full_mask)
    for mu in mus:
        supports = class_supports(poset, mu)
        for lam in lams:
            assert _attach(poset, lam, supports, 0) == _attach_by_is_ideal(poset, lam, supports)


def _attach_by_scanning(poset, lam, supports):
    """The rule the lookup over the shapes above lam replaced: scan every
    support, keep one disjoint from lam whose inner shape lies in lam."""
    out = {}
    for support, count in supports.items():
        inner = poset.down_closure(support) & ~support
        if support & lam or inner & ~lam:
            continue
        out[lam | support] = out.get(lam | support, 0) + count
    return out


@pytest.mark.parametrize("spec", ["a:3,4", "og:6", "e6", "e7", "qeven:5"])
def test_products_match_the_scanning_reference(spec):
    poset = parse_poset(spec)
    shapes = enumerate_shapes(poset)
    for mu in shapes:
        supports = class_supports(poset, mu)
        for lam in shapes:
            assert basis_product(lam, mu) == _attach_by_scanning(poset, lam.mask, supports)


@pytest.mark.parametrize("spec", ["a:3,4", "og:6", "e6", "e7", "qeven:5"])
def test_attach_skips_only_shapes_below_the_least_product_term(spec):
    # basis_product starts its lookup at the first shape above lam of
    # |lam| + |mu| boxes.  That skips no counted shape because the shapes
    # above lam come in nondecreasing size and no member of the cut class of
    # M_mu has fewer than |mu| boxes.
    poset = parse_poset(spec)
    shapes = enumerate_shapes(poset)
    for lam in shapes:
        sizes = [nu.bit_count() for nu in poset._above_memo[lam.mask]]
        assert sizes == sorted(sizes), lam
    for mu in shapes:
        supports = class_supports(poset, mu, max_inner=mu.size)
        assert min(s.bit_count() for s in supports) >= mu.size, mu
        for lam in shapes:
            if lam.size <= mu.size:
                assert basis_product(lam, mu) == _attach(poset, lam.mask, supports, 0)


@pytest.mark.parametrize("spec", ["a:3,3", "og:5", "e6", "qeven:5"])
def test_basis_product_is_commutative_and_reads_either_whole_class(spec):
    # basis_product reads the larger factor's cut class; the paper's rule read
    # from the whole class of M_mu, and of M_lam the other way round, agrees.
    poset = parse_poset(spec)
    shapes = enumerate_shapes(poset)
    for lam in shapes:
        for mu in shapes:
            product = basis_product(lam, mu)
            assert product == basis_product(mu, lam)
            assert product == _attach(poset, lam.mask, class_supports(poset, mu), 0)
            assert product == _attach(poset, mu.mask, class_supports(poset, lam), 0)


def test_a_product_table_closes_each_cut_class_once(monkeypatch):
    # Every mu is the larger factor of G_0 * G_mu, and each is cut at |mu|.
    e6 = MinusculePoset(PosetFamily("e6", ()))  # not the cached poset: an empty memo
    calls = []
    closure = kring_module.jdt_class

    def counted(*args, **kwargs):
        calls.append(kwargs["max_inner"])
        return closure(*args, **kwargs)

    monkeypatch.setattr(kring_module, "jdt_class", counted)
    shapes = enumerate_shapes(e6)
    for lam in shapes:
        for mu in shapes:
            basis_product(lam, mu)
    assert sorted(calls) == sorted(mu.size for mu in shapes)
    assert set(e6.class_supports_memo) == {(mu.mask, mu.size) for mu in shapes}


def test_class_supports_is_read_only():
    e6 = cayley_plane()
    lam, mu = e6.shape("2"), e6.shape("4,1")
    before = basis_product(lam, mu)
    supports = class_supports(e6, mu)
    with pytest.raises(TypeError):
        supports[0] = 1
    with pytest.raises(TypeError):
        del supports[next(iter(supports))]
    assert basis_product(lam, mu) == before


def test_class_supports_closes_each_class_once(monkeypatch):
    # The traced benchmark counts class_supports' misses as its calls of
    # kring.jdt_class, so each memo miss must be one call of that name.
    e6 = MinusculePoset(PosetFamily("e6", ()))  # not the cached poset: an empty memo
    calls = []
    closure = kring_module.jdt_class

    def counted(*args, **kwargs):
        calls.append(args[0])
        return closure(*args, **kwargs)

    monkeypatch.setattr(kring_module, "jdt_class", counted)
    shapes = enumerate_shapes(e6)
    per_pass = []
    for _ in range(2):
        calls.clear()
        for mu in shapes:
            class_supports(e6, mu)
        per_pass.append(len(calls))
    assert per_pass == [27, 0]


def test_cayley_squares_of_row_two():
    e6 = cayley_plane()
    g2 = GammaElement.basis(e6.shape("2"))
    assert terms(g2 * g2) == {(4,): 1, (3, 1): 1, (4, 1): 1}


def test_unit_and_empty():
    e6 = cayley_plane()
    one = GammaElement.one(e6)
    a = GammaElement.basis(e6.shape("4,2"))
    assert one * a == a
    assert structure_constant(e6.shape("4,2"), e6.shape(""), e6.shape("4,2")) == 1


def test_structure_constant_matches_class_counting():
    e6 = cayley_plane()
    shapes = [e6.shape(lit) for lit in ["2", "3,1", "4,2", "1"]]
    for lam in shapes:
        for mu in shapes:
            coeffs = basis_product(lam, mu)
            for nu in enumerate_shapes(e6):
                if abs(nu.size - lam.size - mu.size) > 1:
                    continue
                direct = structure_constant(lam, mu, nu)
                assert direct == coeffs.get(nu.mask, 0), (
                    lam.literal(), mu.literal(), nu.literal(),
                )


def test_structure_constant_symmetric_mode():
    e6 = cayley_plane()
    lam, mu, nu = e6.shape("3,1"), e6.shape("2"), e6.shape("4,2")
    c = structure_constant(lam, mu, nu)
    assert c >= 0
    assert structure_constant(mu, lam, nu) == c


def test_structure_constant_routes_agree_random(rng):
    from kjdt.poset import Shape

    posets = [cayley_plane(), max_orthogonal(5), quadric_even(4), type_a(2, 3)]
    checked = 0
    for poset in posets:
        shapes = enumerate_shapes(poset)
        small = [s for s in shapes if s.size <= 5]
        for _ in range(20):
            lam, mu = rng.choice(shapes), rng.choice(small)
            coeffs = basis_product(lam, mu)
            candidates = [Shape(poset, m) for m in coeffs][:3]
            candidates.append(rng.choice(shapes))
            for nu in candidates:
                if nu.size - lam.size > 8:
                    continue
                assert structure_constant(lam, mu, nu) == coeffs.get(nu.mask, 0), (
                    poset.family.spec(), lam.literal(), mu.literal(), nu.literal(),
                )
                checked += 1
    assert checked >= 120


def _greedy_reference(poset, lam: int, nu: int, d: int) -> Counter:
    """Every filling of nu/lam by 1..d, rectified whole: rectified masks -> count."""
    return Counter(
        rect_greedy(walk_tableau(poset, key), inner=lam).masks
        for key in increasing_fillings(poset, lam, nu, d)
    )


# The bounded posets that are not minuscule, each with the minuscule poset
# whose boxes, covers and wx it has (see test_refused_posets_are_their_twins_box_posets).
TWINS = {"lg:3": "og:4", "qodd:3": "a:1,5"}


@pytest.mark.parametrize(
    "spec, max_skew, refused",
    [
        ("e6", 6, False),
        ("e7", 6, False),
        ("og:5", None, False),
        ("a:3,4", None, False),
        # not minuscule: the ring refuses them, so the routes run on the twin
        ("lg:3", None, True),
        ("qodd:3", None, True),
    ],
)
def test_pruned_greedy_count_matches_the_unpruned_loop(spec, max_skew, refused):
    poset = parse_poset(spec)
    ring = parse_poset(TWINS[spec]) if refused else poset
    shapes = enumerate_shapes(poset)
    minimal = {mu: minimal_tableau(mu).masks for mu in shapes}
    nonzero = 0
    for lam in shapes:
        for nu in shapes:
            if lam.mask & ~nu.mask:
                continue
            if max_skew is not None and nu.size - lam.size > max_skew:
                continue
            rects = {}  # number of values -> rectified masks -> count
            for mu in shapes:
                target = minimal[mu]
                if len(target) not in rects:
                    rects[len(target)] = _greedy_reference(poset, lam.mask, nu.mask, len(target))
                keep = rectifies_to(poset, lam.mask, target)
                walked = increasing_fillings(poset, lam.mask, nu.mask, len(target), keep=keep)
                c = sum(1 for _ in walked)
                assert c == rects[len(target)][target], (lam.literal(), mu.literal(), nu.literal())
                shapes_on_ring = [Shape(ring, s.mask) for s in (lam, mu, nu)]
                assert c == structure_constant(*shapes_on_ring)
                assert c == basis_product(*shapes_on_ring[:2]).get(nu.mask, 0)
                nonzero += c > 0
    assert nonzero > 0


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SLIDE_FAMILIES), st.integers(0, 2**32 - 1))
def test_walk_yields_the_fillings_that_rectify_to_a_given_tableau(spec, seed):
    # T is a straight tableau other than the minimal one: the rectification
    # of a random skew tableau when it is not minimal, else another tableau
    # of its shape.  Skew tableaux are drawn until their rectified shape has
    # such a tableau, which a chain (every shape of qodd) never has.
    rng = random.Random(seed)
    poset = parse_poset(spec)
    for _ in range(20):
        skew = walk_tableau(poset, random_skew_tableau(rng, poset, max_size=8).masks)
        hit = rect_greedy(skew)
        shape = Shape(poset, hit.mask)
        others = [
            key
            for key in packed_straight_tableaux(poset, shape)
            if key != minimal_tableau(shape).masks
        ]
        if others:
            break
    else:
        return
    lam, nu = skew.inner_mask(), skew.outer_mask()
    target = hit.masks if hit.masks in others else rng.choice(others)
    d = len(target)
    walked = list(increasing_fillings(poset, lam, nu, d, keep=rectifies_to(poset, lam, target)))
    expected = [
        key
        for key in increasing_fillings(poset, lam, nu, d)
        if rect_greedy(walk_tableau(poset, key), inner=lam).masks == target
    ]
    assert sorted(walked) == sorted(expected)
    if target == hit.masks:
        assert skew.masks in walked


def test_type_a_constants_match_hecke_counting():
    # third route, no jeu de taquin: count tableaux whose Hecke permutation
    # matches that of the minimal tableau of mu

    a23 = type_a(2, 3)
    shapes = enumerate_shapes(a23)
    for lam in shapes:
        for mu in shapes:
            coeffs = basis_product(lam, mu)
            target = hecke_of_word(minimal_tableau(mu).row_word())
            vmax = max(minimal_tableau(mu).values, default=0)
            for nu in shapes:
                if lam.mask & ~nu.mask:
                    continue
                skew = nu.mask & ~lam.mask
                if mu.size == 0:
                    count = 1 if skew == 0 else 0
                elif skew == 0:
                    count = 0
                else:
                    count = 0
                    fillings = fillings_skipping_values(a23, lam.mask, nu.mask, vmax)
                    for tab in fillings:
                        word = tab.row_word()
                        if hecke_of_word(word) == target:
                            count += 1
                assert count == coeffs.get(nu.mask, 0), (
                    lam.literal(), mu.literal(), nu.literal(),
                )


def test_type_b_constants_match_doubled_hecke_counting():
    # shifted analogue: rectifying to the minimal tableau is equivalent to
    # matching the Hecke permutation of its doubling
    from kjdt.tableau import hecke_of_tableau

    og = max_orthogonal(4)
    shapes = enumerate_shapes(og)
    for lam in shapes:
        for mu in shapes:
            coeffs = basis_product(lam, mu)
            target = hecke_of_tableau(minimal_tableau(mu)) if mu.size else None
            vmax = max(minimal_tableau(mu).values, default=0)
            for nu in shapes:
                if lam.mask & ~nu.mask:
                    continue
                skew = nu.mask & ~lam.mask
                if mu.size == 0:
                    count = 1 if skew == 0 else 0
                elif skew == 0:
                    count = 0
                else:
                    count = 0
                    fillings = fillings_skipping_values(og, lam.mask, nu.mask, vmax)
                    for tab in fillings:
                        if hecke_of_tableau(tab) == target:
                            count += 1
                assert count == coeffs.get(nu.mask, 0), (
                    lam.literal(), mu.literal(), nu.literal(),
                )


@pytest.mark.parametrize("spec", ["a:2,3", "a:3,3", "a:2,5"])
def test_hecke_counting_gives_every_type_a_product(spec):
    # the jdt-free rule: G_lam * G_mu counts the fillings above lam whose
    # row word has the Hecke permutation of M_mu's row word
    poset = parse_poset(spec)
    shapes = enumerate_shapes(poset)
    for mu in shapes:
        if not mu.size:
            continue
        target = hecke_of_word(minimal_tableau(mu).row_word())
        for lam in shapes:
            got = _count_hecke_fillings(poset, lam.mask, target)
            assert got == basis_product(lam, mu), (lam.literal(), mu.literal())


def test_bilinearity():
    e6 = cayley_plane()
    a = GammaElement.basis(e6.shape("1"))
    b = GammaElement.basis(e6.shape("2"))
    c = GammaElement.basis(e6.shape("3,1"))
    assert (a + b) * c == a * c + b * c
    assert (2 * a) * b == 2 * (a * b)


def test_e8_fails_constant():
    e7 = freudenthal()
    c = structure_constant(
        e7.shape("5,1"), e7.shape("5,3,3"), e7.shape("5,5,5,2,1,1")
    )
    assert c == 11


def test_refuses_non_minuscule():
    for poset in (lagrangian(3), quadric_odd(3)):
        one = poset.shape("1")
        for call in (
            lambda: basis_product(one, one),
            lambda: structure_constant(one, one, poset.shape("2")),
            lambda: multiply(GammaElement.basis(one), GammaElement.basis(one)),
            lambda: euler_pairing(one, one),
        ):
            with pytest.raises(NonMinusculePoset, match="unverified that its products are the K-theory structure constants"):
                call()


@pytest.mark.parametrize(
    "spec, twin",
    [(f"lg:{n}", f"og:{n + 1}") for n in range(1, 7)]
    + [(f"qodd:{n}", f"a:1,{2 * n - 1}") for n in range(1, 7)],
)
def test_refused_posets_are_their_twins_box_posets(spec, twin):
    # so the refused ring would only repeat the twin's numbers under another label
    poset, other = parse_poset(spec), parse_poset(twin)
    assert not poset.is_minuscule and other.is_minuscule
    assert poset.boxes == other.boxes
    assert poset.covers == other.covers
    assert poset.wx == other.wx


def test_refuses_mixed_posets():
    with pytest.raises(PosetError):
        structure_constant(
            cayley_plane().shape("1"), freudenthal().shape("1"), freudenthal().shape("2")
        )


@pytest.mark.parametrize(
    "call",
    [
        lambda s, t: multiply(GammaElement.basis(s), GammaElement.basis(t)),
        lambda s, t: multiply(GammaElement.basis(t), GammaElement.basis(s)),
        lambda s, t: basis_product(s, t),
        lambda s, t: euler_pairing(s, t),
    ],
    ids=["multiply", "multiply-reversed", "basis_product", "euler_pairing"],
)
@pytest.mark.parametrize("spec, lit", [("e6", "1"), ("e7", "5")])
def test_ring_entry_points_refuse_mixed_posets(call, spec, lit):
    # the masks of a shape mean nothing on another poset, so no product is read off
    with pytest.raises(PosetError, match="different posets"):
        call(parse_poset(spec).shape(lit), type_a(2, 3).shape("1"))


def test_commutativity_and_associativity_samples(rng):
    e6 = cayley_plane()
    shapes = enumerate_shapes(e6)
    for _ in range(15):
        a, b, c = (GammaElement.basis(rng.choice(shapes)) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


@pytest.mark.parametrize("spec", ["a:3,4", "og:6", "qeven:4", "qeven:5", "e6", "e7"])
def test_chevalley_row_is_the_rook_strips(spec):
    # Observed on these posets, not cited: G_1 * G_lam is the sum of G_nu
    # over the rook strips nu/lam other than lam itself, each once.
    poset = parse_poset(spec)
    one_box = poset.shape("1")
    for lam in enumerate_shapes(poset):
        want = {nu.mask: 1 for nu in rook_strips_over(lam) if nu.mask != lam.mask}
        assert basis_product(one_box, lam) == want, lam.literal()


@pytest.mark.parametrize("spec", ["a:3,4", "og:6", "e6", "qeven:5"])
def test_full_product_table_is_associative(spec):
    poset = parse_poset(spec)
    masks = [s.mask for s in enumerate_shapes(poset)]
    table = {
        (a, b): basis_product(Shape(poset, a), Shape(poset, b)) for a in masks for b in masks
    }

    def total(products) -> dict[int, int]:
        """Coefficients of the sum of k * G_x * G_y over ``(k, x, y)``."""
        out = Counter()
        for k, x, y in products:
            for nu, c in table[x, y].items():
                out[nu] += k * c
        return {nu: k for nu, k in out.items() if k}

    for a in masks:
        for b in masks:
            for c in masks:
                left = total((k, nu, c) for nu, k in table[a, b].items())
                right = total((k, a, nu) for nu, k in table[b, c].items())
                assert left == right, (a, b, c)


def test_signed_basis_round_trip_and_products():
    e6 = cayley_plane()
    g = GammaElement.basis(e6.shape("3,1"))
    assert from_schubert_basis(to_schubert_basis(g)) == g
    o4 = SignedKElement(e6, {e6.shape("4").mask: 1})
    sq = multiply(o4, o4)
    assert terms(sq) == {
        (4, 4): 1, (4, 3, 1): 1, (4, 2, 2): 1, (4, 4, 1): -1, (4, 3, 2): -1,
    }


def test_mixed_basis_multiplication_rejected():
    e6 = cayley_plane()
    g = GammaElement.basis(e6.shape("1"))
    o = SignedKElement(e6, {e6.shape("1").mask: 1})
    with pytest.raises(PosetError):
        multiply(g, o)


# -- duality and pairing ----------------------------------------------------------


def test_classical_grassmannian_products():
    a22 = type_a(2, 2)
    O = lambda lit: SignedKElement(a22, {a22.shape(lit).mask: 1})
    assert terms(multiply(O("1"), O("1"))) == {(2,): 1, (1, 1): 1, (2, 1): -1}
    assert terms(multiply(O("1"), O("2"))) == {(2, 1): 1}
    assert multiply(O("2"), O("1,1")).coeffs == {}  # transverse cells miss
    assert terms(multiply(O("2"), O("2"))) == {(2, 2): 1}


def test_dual_class_fixture():
    a22 = type_a(2, 2)
    got = terms(dual_class(a22.shape("2,1")))
    assert got == {(1,): 1, (2,): -1, (1, 1): -1, (2, 1): 1}


def test_dual_class_of_dual_full():
    e6 = cayley_plane()
    lam = e6.shape("").dual()  # the full shape; its dual is empty
    assert lam == Shape(e6, e6.full_mask)
    got = dual_class(Shape(e6, e6.full_mask))
    # dual of the full shape is empty, so strips extend the empty shape
    assert got.coefficient(e6.shape("")) == 1
    # no strips extend the full poset: the dual of the empty class is a point
    assert dual_class(e6.shape("")).coeffs == {e6.full_mask: 1}


def test_dual_pairing_is_kronecker():
    a23 = type_a(2, 3)
    shapes = enumerate_shapes(a23)
    for lam in shapes:
        o_lam = SignedKElement(a23, {lam.mask: 1})
        for mu in shapes:
            paired = multiply(o_lam, dual_class(mu))
            chi = sum(paired.coeffs.values())  # each structure sheaf pairs to 1
            assert chi == (1 if lam == mu else 0), (lam.literal(), mu.literal())


def test_euler_pairing_indicator_small():
    a22 = type_a(2, 2)
    for lam in enumerate_shapes(a22):
        for mu in enumerate_shapes(a22):
            expected = 1 if lam.mask | mu.dual().mask == mu.dual().mask else 0
            assert euler_pairing(lam, mu) == expected
    e6 = cayley_plane()
    assert euler_pairing(e6.shape(""), e6.shape("4,4")) == 1
    assert euler_pairing(e6.shape("4,2,1"), e6.shape("4,2,1").dual()) == 1


def _check_symmetry(lam, mu, nu):
    """The dual-class identity for lam, and c^nu_{lam,mu} = c^{mu dual}_{lam,nu dual}."""
    poset = lam.poset
    one_minus_o1 = SignedKElement(poset, {0: 1, poset.shape("1").mask: -1})
    o_dual = SignedKElement(poset, {lam.dual().mask: 1})
    assert dual_class(lam) == multiply(one_minus_o1, o_dual), lam.literal()
    c = basis_product(lam, mu).get(nu.mask, 0)
    c_dual = basis_product(lam, nu.dual()).get(mu.dual().mask, 0)
    assert c == c_dual, (lam.literal(), mu.literal(), nu.literal(), c, c_dual)


def test_check_symmetry_triples():
    e6 = cayley_plane()
    for lam_lit, mu_lit, nu_lit in [
        ("2", "2", "3,1"),
        ("2", "2", "4,1"),
        ("4", "4", "4,3,1"),
        ("1", "2", "3"),
    ]:
        _check_symmetry(e6.shape(lam_lit), e6.shape(mu_lit), e6.shape(nu_lit))


def test_check_symmetry_random_og5(rng):
    og = max_orthogonal(5)
    shapes = enumerate_shapes(og)
    for _ in range(25):
        _check_symmetry(*(rng.choice(shapes) for _ in range(3)))


# -- Pieri rules --------------------------------------------------------------------


def test_pieri_a_fixture():
    assert terms(pieri_A((1,), 1)) == {(2,): 1, (1, 1): 1, (2, 1): 1}
    assert terms(pieri_A((), 2)) == {(2,): 1}


def test_pieri_a_window_guard():
    # each route refuses a window that cannot hold every term
    for pieri in (pieri_A, pieri_A_by_counting):
        for lam, p, rows, cols in [((3,), 2, 1, 3), ((1,), 2, 2, 2)]:
            with pytest.raises(WindowExceeded):
                pieri(lam, p, rows=rows, cols=cols)


@pytest.mark.parametrize("lam", [(1, 2), (2, -1)])
def test_pieri_a_routes_refuse_a_non_partition(lam):
    for route in (pieri_A, lambda lam, p: pieri_A_by_counting(lam, p, 4, 4)):
        with pytest.raises(PosetError):
            route(lam, 1)


def test_pieri_a_closed_form_matches_counting():
    for lam in [(), (1,), (2,), (2, 1), (3, 1)]:
        for p in (1, 2, 3):
            closed = terms(pieri_A(lam, p, rows=4, cols=6))
            counted = terms(pieri_A_by_counting(lam, p, rows=4, cols=6))
            assert closed == counted, (lam, p)


def _horizontal_strips(lam: tuple[int, ...], max_rows: int, max_cols: int):
    """Reference: partitions nu >= lam in the window, at most one new box per column.

    The strip condition is the interlacing nu[i] <= lam[i-1] for i >= 1.
    """

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


def _pieri_a_by_strip_recursion(lam, p: int, rows: int, cols: int) -> dict:
    """The closed form C(r - 1, k - p) summed over the reference strips."""
    out = {}
    for nu in _horizontal_strips(lam, rows, cols):
        k = sum(nu) - sum(lam)
        r = sum(1 for i, x in enumerate(nu) if x > (lam[i] if i < len(lam) else 0))
        c = math.comb(r - 1, k - p) if k >= p else 0
        if c:
            out[nu] = c
    return out


def test_pieri_a_strips_match_the_strip_recursion():
    # pieri_A reads its strips from the ideal walk; the reference recursion
    # gives the same element in the least window and in the 4x6 window
    grid = ambient_grid(4, 6)
    cases = 0
    for mask in grid.ideals_between(0, grid.full_mask):
        lam = grid.row_lengths(mask)
        for p in range(1, 5):
            windows = [(len(lam) + 1, (lam[0] if lam else 0) + p)]
            if len(lam) < 4 and (lam[0] if lam else 0) + p <= 6:
                windows.append((4, 6))
            for rows, cols in windows:
                got = terms(pieri_A(lam, p, rows=rows, cols=cols))
                assert got == _pieri_a_by_strip_recursion(lam, p, rows, cols), (lam, p, rows, cols)
                cases += 1
    assert cases == 961


def test_pieri_word_recognition():
    assert is_pieri_word_b((2, 3, 4, 2, 5, 5, 1, 6))
    assert is_pieri_word_b((1,))
    assert not is_pieri_word_b((2, 4, 3))


def test_pieri_b_fixtures():
    assert terms(pieri_B((), 2)) == {(2,): 1}
    got = terms(pieri_B((1,), 1))
    assert got == {(2,): 1}
    for lam in [(), (1,), (2,), (2, 1), (3,), (3, 1), (3, 2)]:
        for p in (1, 2, 3):
            a = terms(pieri_B(lam, p, cols=(lam[0] if lam else 0) + p + 1))
            by_class = pieri_B_by_class(lam, p, cols=(lam[0] if lam else 0) + p + 1)
            assert a == terms(by_class), (lam, p)
            window, lam_mask = by_class.poset, by_class.poset.shape(list(lam)).mask
            want = _attach_by_scanning(window, lam_mask, class_supports(window, window.shape([p])))
            want.pop(lam_mask, None)
            assert by_class.coeffs == want, (lam, p)


def test_pieri_b_routes_share_one_window():
    # G_3 * G_2 reaches G_5: a 4-column window would drop three terms.
    for route in (pieri_B, pieri_B_by_class):
        with pytest.raises(WindowExceeded, match="shifted window 4 too small; need 5"):
            route((3,), 2, 4)
    least = pieri_B((3,), 2)
    assert least.poset is pieri_B_by_class((3,), 2, 5).poset
    assert terms(least) == terms(pieri_B_by_class((3,), 2, 5)) == {
        (3, 2): 1, (4, 1): 2, (4, 2): 2, (5,): 1, (5, 1): 2, (5, 2): 1,
    }


# -- stable Grothendieck classes -------------------------------------------------


def test_identity_class():
    assert stable_grothendieck_coeffs(Permutation.identity()).coeffs == {0: 1}


def test_grassmannian_class_leads_with_its_shape():
    for lam in [(1,), (2,), (2, 1)]:
        w = grassmannian_permutation(lam)
        el = stable_grothendieck_coeffs(w)
        got = terms(el)
        assert got.get(tuple(lam)) == 1, (lam, got)
        for shape, c in got.items():
            assert sum(shape) >= sum(lam)


def test_one_row_class_matches_pieri():
    for p in (1, 2, 3):
        w = hecke_of_word(tuple(range(1, p + 1))).inverse()
        prod = grothendieck_times_shape(w, ())
        closed = terms(pieri_A((), p))
        assert {k: v for k, v in terms(prod).items() if v} == closed, p


def test_grothendieck_times_shape_specializations():
    assert terms(grothendieck_times_shape(Permutation.identity(), (2, 1))) == {(2, 1): 1}
    for lam in [(1,), (2, 1)]:
        for p in (1, 2):
            w = hecke_of_word(tuple(range(1, p + 1))).inverse()
            got = terms(grothendieck_times_shape(w, lam))
            want = terms(pieri_A(lam, p))
            assert got == want, (lam, p)
    for images in permutations(range(1, 5)):  # S_4, the identity first
        w = Permutation.from_one_line(images)
        stable, times_empty = stable_grothendieck_coeffs(w), grothendieck_times_shape(w, ())
        assert stable.poset is times_empty.poset, images
        assert stable.coeffs == times_empty.coeffs, images


_A21_TIMES_ROW = {
    (3, 1): 1, (2, 2): 1, (2, 1, 1): 1, (3, 2): 1, (3, 1, 1): 1, (2, 2, 1): 1, (3, 2, 1): 1,
}


@pytest.mark.parametrize(
    "route,want",
    [
        (lambda lam: terms(pieri_A(lam, 1)), _A21_TIMES_ROW),
        (lambda lam: terms(pieri_B(lam, 1)), {(3, 1): 1}),
        (
            lambda lam: terms(grothendieck_times_shape(Permutation.transposition(1), lam)),
            _A21_TIMES_ROW,
        ),
        (
            lambda lam: fat_hook_urt(lam, Tableau.from_dict(ambient_grid(3, 3), {(1, 1): 4}))[
                "direct_verdict"
            ],
            "certified",
        ),
        (lambda lam: ambient_grid(3, 3).shape(lam).literal(), "2,1"),
    ],
    ids=["pieri_A", "pieri_B", "grothendieck_times_shape", "fat_hook_urt", "shape"],
)
def test_partition_routes_refuse_non_partitions(route, want):
    # Trailing zeros drop; an interior zero, an increase, a negative or a
    # non-int entry (a bool too) is refused, not read as another partition.
    for lam in [(2, 1), (2, 1, 0), [2, 1, 0, 0]]:
        assert route(lam) == want, lam
    for bad in [(2, 0, 1), (1, 2), (1, -1), ("a",), (1.5,), (True, True), ["a"], [1.5]]:
        with pytest.raises(PosetError):
            route(bad)


def test_grothendieck_routes_refuse_a_non_permutation():
    for bad in ["x", (2, 1), None]:
        with pytest.raises(PosetError):
            stable_grothendieck_coeffs(bad)
        with pytest.raises(PosetError):
            grothendieck_times_shape(bad, (1,))


def _unpruned_hecke_counts(poset, lam_mask, lo, hi, target):
    """Hecke counts over every shape above lam, folding each row word by hand."""
    counts = {}
    for nu in poset.ideals_between(lam_mask, poset.full_mask)[1:]:
        n = 0
        for tab in fillings_skipping_values(poset, lam_mask, nu, hi - lo + 1):
            u = Permutation.identity()
            for v in tab.row_word():
                a = v + lo - 1
                if u(a) < u(a + 1):
                    u = u * Permutation.transposition(a)
            n += u == target
        if n:
            counts[nu] = n
    return counts


def _sym(n):
    return [Permutation.from_one_line(p) for p in permutations(range(1, n + 1))]


def test_stable_grothendieck_pruning_matches_unpruned():
    checked = 0
    for w in _sym(3) + _sym(4):
        got = stable_grothendieck_coeffs(w)
        if w.is_identity():
            assert got.coeffs == {0: 1}
        else:
            lo, hi = w.support()
            want = _unpruned_hecke_counts(got.poset, 0, lo, hi - 1, w.inverse())
            assert got.coeffs == want, w
        checked += 1
    assert checked == 30


def test_grothendieck_times_shape_pruning_matches_unpruned():
    checked = 0
    for w in _sym(3):
        for lam in [(), (1,), (2, 1), (2, 2)]:
            got = grothendieck_times_shape(w, lam)
            lam_mask = got.poset.shape(list(lam)).mask
            if w.is_identity():
                assert got.coeffs == {lam_mask: 1}
            else:
                lo, hi = w.support()
                want = _unpruned_hecke_counts(got.poset, lam_mask, lo, hi - 1, w.inverse())
                assert got.coeffs == want, (w, lam)
            checked += 1
    assert checked == 24


# -- minimal products and the shape monoid ----------------------------------------


def test_minimal_product_monoid(rng):
    from kjdt.tableau import hecke_of_tableau, tableau_product
    from kjdt.words import hecke_product

    g = ambient_grid(10, 10)

    def random_partition():
        rows = rng.randint(0, 3)
        lam = sorted((rng.randint(1, 3) for _ in range(rows)), reverse=True)
        return lam

    for _ in range(40):
        lam, mu = random_partition(), random_partition()
        m, n = minimal_tableau(g.shape(lam)), minimal_tableau(g.shape(mu))
        prod = tableau_product(m, n) if lam or mu else m
        if lam and mu:
            prod = tableau_product(m, n)
            expected_shape = prod.shape.outer
            assert prod == minimal_tableau(expected_shape)
            assert hecke_of_tableau(prod) == hecke_product(
                hecke_of_tableau(m), hecke_of_tableau(n)
            )


def test_minimal_product_associative_on_shapes(rng):
    from kjdt.tableau import tableau_product

    g = ambient_grid(12, 12)
    parts = [(1,), (2,), (2, 1), (1, 1), (3, 1)]
    for _ in range(20):
        a, b, c = (minimal_tableau(g.shape(list(rng.choice(parts)))) for _ in range(3))
        left = tableau_product(tableau_product(a, b), c)
        right = tableau_product(a, tableau_product(b, c))
        assert left.straight_rows() == right.straight_rows()


# -- fat hooks ----------------------------------------------------------------------


def test_fat_hook_fixture():
    g = ambient_grid(3, 3)
    u = Tableau.from_dict(g, {(1, 1): 4})
    rep = fat_hook_urt((2, 1), u)
    assert rep["u_verdict"] == "certified"
    assert rep["direct_verdict"] == "certified"
    assert rep["consistent"]


def test_fat_hook_superstandard_iteration():
    from kjdt.tableau import is_urt, superstandard

    g = ambient_grid(5, 5)
    for lam in [(2, 1), (3, 2), (2, 2, 1)]:
        s = superstandard(g.shape(list(lam)), "row")
        assert is_urt(s).status == "certified", lam


def test_fat_hook_rejects_bad_corner():
    g = ambient_grid(4, 4)
    u = Tableau.from_dict(g, {(1, 1): 9, (1, 2): 10})
    with pytest.raises(PosetError):
        fat_hook_urt((2, 1), u)  # corner is 1x1, the attachment is too wide


@pytest.mark.parametrize("u_tab", ["x", None, {(1, 1): 4}])
def test_fat_hook_refuses_an_attachment_that_is_not_a_tableau(u_tab):
    with pytest.raises(PosetError, match="must be a Tableau"):
        fat_hook_urt((2, 1), u_tab)


def test_near_counterexample_is_refuted():
    from kjdt.tableau import is_urt

    g = ambient_grid(6, 6)
    t = Tableau.from_dict(
        g, {(1, 1): 1, (1, 2): 2, (1, 3): 3, (2, 1): 2, (3, 1): 4}
    )
    assert is_urt(t).status == "refuted"


@pytest.mark.parametrize("p", [0, -1])
@pytest.mark.parametrize(
    "route",
    [
        lambda p: pieri_A((1,), p, 4, 8),
        lambda p: pieri_A_by_counting((1,), p, 4, 8),
        lambda p: pieri_B((1,), p, 8),
        lambda p: pieri_B_by_class((1,), p, 8),
    ],
    ids=["pieri_A", "pieri_A_by_counting", "pieri_B", "pieri_B_by_class"],
)
def test_pieri_routes_refuse_nonpositive_row_length(route, p):
    with pytest.raises(PosetError, match="the Pieri row length must be positive"):
        route(p)
