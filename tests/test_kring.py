import random
from itertools import permutations

import pytest

from kjdt.errors import NonMinusculePoset, PosetError, WindowExceeded
from kjdt.kring import (
    GammaElement,
    _attach,
    SignedKElement,
    basis_product,
    check_symmetry,
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
    type_a,
)
from kjdt.tableau import Tableau, increasing_fillings, minimal_tableau
from kjdt.words import Permutation, grassmannian_permutation, hecke_of_word


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
    # distinct unions, so equal outputs mean the two tests agree on every
    # (lam, support) pair.  The shifted window is the pieri_B_by_class path.
    poset = parse_poset(spec)
    mus = enumerate_shapes(poset) if rows is None else [poset.shape(r) for r in rows]
    lams = poset.ideals_between(0, poset.full_mask)
    for mu in mus:
        supports = class_supports(poset, mu)
        for lam in lams:
            assert _attach(poset, lam, supports) == _attach_by_is_ideal(poset, lam, supports)


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
    c = structure_constant(
        e6.shape("3,1"), e6.shape("2"), e6.shape("4,2"), check_symmetric=True
    )
    assert c >= 0


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


def test_type_a_constants_match_hecke_counting():
    # third route, no jeu de taquin: count tableaux whose Hecke permutation
    # matches that of the minimal tableau of mu
    from kjdt.tableau import increasing_fillings

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
                    fillings = increasing_fillings(
                        a23, lam.mask, nu.mask, vmax, surjective=False
                    )
                    for key in fillings:
                        word = Tableau.from_levels(a23, key).row_word()
                        if hecke_of_word(word) == target:
                            count += 1
                assert count == coeffs.get(nu.mask, 0), (
                    lam.literal(), mu.literal(), nu.literal(),
                )


def test_type_b_constants_match_doubled_hecke_counting():
    # shifted analogue: rectifying to the minimal tableau is equivalent to
    # matching the Hecke permutation of its doubling
    from kjdt.tableau import increasing_fillings
    from kjdt.words import hecke_of_tableau

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
                    fillings = increasing_fillings(
                        og, lam.mask, nu.mask, vmax, surjective=False
                    )
                    for key in fillings:
                        tab = Tableau.from_levels(og, key)
                        if hecke_of_tableau(tab) == target:
                            count += 1
                assert count == coeffs.get(nu.mask, 0), (
                    lam.literal(), mu.literal(), nu.literal(),
                )


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
    lg = lagrangian(3)
    with pytest.raises(NonMinusculePoset):
        basis_product(lg.shape("1"), lg.shape("1"))
    assert basis_product(lg.shape("1"), lg.shape("1"), assume_urp=True)


def test_refuses_mixed_posets():
    with pytest.raises(PosetError):
        structure_constant(
            cayley_plane().shape("1"), freudenthal().shape("1"), freudenthal().shape("2")
        )


def test_commutativity_and_associativity_samples(rng):
    e6 = cayley_plane()
    shapes = enumerate_shapes(e6)
    for _ in range(15):
        a, b, c = (GammaElement.basis(rng.choice(shapes)) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


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
    assert lam == e6.full_shape()
    got = dual_class(e6.full_shape())
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


def test_check_symmetry_triples():
    e6 = cayley_plane()
    for lam_lit, mu_lit, nu_lit in [
        ("2", "2", "3,1"),
        ("2", "2", "4,1"),
        ("4", "4", "4,3,1"),
        ("1", "2", "3"),
    ]:
        rep = check_symmetry(e6.shape(lam_lit), e6.shape(mu_lit), e6.shape(nu_lit))
        assert rep["pass"], rep


def test_check_symmetry_random_og5(rng):
    og = max_orthogonal(5)
    shapes = enumerate_shapes(og)
    for _ in range(25):
        lam, mu, nu = (rng.choice(shapes) for _ in range(3))
        rep = check_symmetry(lam, mu, nu)
        assert rep["pass"], (lam.literal(), mu.literal(), nu.literal(), rep)


# -- Pieri rules --------------------------------------------------------------------


def test_pieri_a_fixture():
    assert terms(pieri_A((1,), 1)) == {(2,): 1, (1, 1): 1, (2, 1): 1}
    assert terms(pieri_A((), 2)) == {(2,): 1}


def test_pieri_a_window_guard():
    with pytest.raises(WindowExceeded):
        pieri_A((3,), 2, rows=1, cols=3)


def test_pieri_a_closed_form_matches_counting():
    for lam in [(), (1,), (2,), (2, 1), (3, 1)]:
        for p in (1, 2, 3):
            closed = terms(pieri_A(lam, p, rows=4, cols=6))
            counted = terms(pieri_A_by_counting(lam, p, rows=4, cols=6))
            assert closed == counted, (lam, p)


def test_pieri_word_recognition():
    assert is_pieri_word_b((2, 3, 4, 2, 5, 5, 1, 6))
    assert is_pieri_word_b((1,))
    assert not is_pieri_word_b((2, 4, 3))


def test_pieri_b_fixtures():
    assert terms(pieri_B((), 2)) == {(2,): 1}
    got = terms(pieri_B((1,), 1))
    assert got == {(2,): 1}
    for lam in [(), (1,), (2,), (2, 1)]:
        for p in (1, 2):
            a = terms(pieri_B(lam, p, cols=(lam[0] if lam else 0) + p + 1))
            b = terms(pieri_B_by_class(lam, p, cols=(lam[0] if lam else 0) + p + 1))
            assert a == b, (lam, p)


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
    w1 = grassmannian_permutation((1,))
    assert terms(grothendieck_times_shape(w1, ())) == terms(
        stable_grothendieck_coeffs(w1)
    )


def _unpruned_hecke_counts(poset, lam_mask, lo, hi, target):
    """Hecke counts over every shape above lam, folding each row word by hand."""
    counts = {}
    for nu in poset.ideals_between(lam_mask, poset.full_mask)[1:]:
        n = 0
        for key in increasing_fillings(poset, lam_mask, nu, hi - lo + 1, surjective=False):
            u = Permutation.identity()
            for v in Tableau.from_levels(poset, key).row_word():
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
    from kjdt.tableau import tableau_product
    from kjdt.words import hecke_of_tableau, hecke_product

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
