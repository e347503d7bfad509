import random
import re
import time
from bisect import insort
from itertools import groupby, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kjdt.words as words_module
from kjdt.errors import KjdtError, check_budget
from kjdt.poset import ambient_grid, ambient_shifted, cayley_plane, max_orthogonal, type_a
from kjdt.tableau import (
    Tableau,
    WeakTableau,
    hecke_of_tableau,
    minimal_tableau,
    parse_tableau,
    reading_words,
)
from kjdt.words import (
    EquivalenceVerdict,
    Permutation,
    _moves,
    bruhat_leq,
    conjecture_search,
    doubled_word,
    grassmannian_permutation,
    hecke_of_word,
    hecke_product,
    kknuth_basic_moves,
    kknuth_equiv,
    lds,
    lis,
    reduced_word,
)

words_strategy = st.lists(st.integers(min_value=1, max_value=4), max_size=6).map(tuple)


# -- permutations -----------------------------------------------------------


def test_permutation_basics():
    s1 = Permutation.transposition(1)
    assert s1(1) == 2 and s1(2) == 1 and s1(3) == 3
    assert (s1 * s1).is_identity()
    assert s1.inverse() == s1
    assert s1.length() == 1


def test_permutation_window_is_tight():
    p = Permutation.from_one_line([1, 2, 4, 3])
    assert p.support() == (3, 4)
    assert p == Permutation.transposition(3)


@pytest.mark.parametrize("moved", [{1: 2}, {1: 2, 2: 3}, {1: 2, 2: 1, 3: 1}])
def test_permutation_refuses_a_non_bijection(moved):
    with pytest.raises(KjdtError, match="not a permutation"):
        Permutation(moved)
    with pytest.raises(KjdtError, match="not a permutation"):
        Permutation.from_one_line([moved.get(x, x) for x in range(1, 4)])


def _dense_inversions(images):
    n = len(images)
    return sum(1 for i in range(n) for j in range(i + 1, n) if images[i] > images[j])


def _assert_cycles_give(w, window, dense):
    cycles = w.cycles()
    groups = [[int(x) for x in g.split(",")] for g in re.findall(r"\(([^()]+)\)", cycles)]
    assert cycles == "".join(f"({','.join(map(str, g))})" for g in groups) or cycles == "()"
    assert (cycles == "()") == (dense == list(window))
    assert all(g[0] == min(g) and len(g) > 1 for g in groups)
    assert [g[0] for g in groups] == sorted(g[0] for g in groups)
    from_cycles = dict(zip(window, window))
    for g in groups:
        from_cycles.update(zip(g, g[1:] + g[:1]))
    assert [from_cycles[x] for x in window] == dense


@settings(max_examples=300, deadline=None)
@given(
    st.permutations(range(5)), st.permutations(range(4)),
    st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3),
)
def test_sparse_permutation_matches_dense_reference(p, q, s, t):
    # u and v are p and q on the windows starting at s and t; the dense
    # reference lists each one's images over a window covering both.
    u = Permutation.from_one_line([x + s for x in p], start=s)
    v = Permutation.from_one_line([x + t for x in q], start=t)
    lo, hi = min(s, t) - 1, max(s + 5, t + 4) + 1
    window = range(lo, hi)
    ud = [p[x - s] + s if s <= x < s + 5 else x for x in window]
    vd = [q[x - t] + t if t <= x < t + 4 else x for x in window]
    uv = [ud[y - lo] for y in vd]
    inv = [0] * len(ud)
    for k, y in enumerate(ud):
        inv[y - lo] = lo + k
    assert [u(x) for x in window] == ud and [v(x) for x in window] == vd
    assert [(u * v)(x) for x in window] == uv
    assert [u.inverse()(x) for x in window] == inv
    assert u.length() == _dense_inversions(ud) and (u * v).length() == _dense_inversions(uv)
    assert (u == v) == (ud == vd)
    for w, dense in ((u, ud), (u * v, uv), (u.inverse(), inv)):
        same = Permutation.from_one_line(dense, start=lo)
        assert same == w and hash(same) == hash(w)
        _assert_cycles_give(w, window, dense)


def _inversions_by_pairs(w):
    lo, hi = w.support()
    return sum(1 for i in range(lo, hi + 1) for j in range(i + 1, hi + 1) if w(i) > w(j))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=-3, max_value=8), max_size=8), st.permutations(range(6)))
def test_length_counts_inversions_over_moved_points(word, perm):
    # Hecke permutations of sparse words leave fixed points inside the window.
    assert hecke_of_word(word).length() == _inversions_by_pairs(hecke_of_word(word))
    w = Permutation.from_one_line([x - 2 for x in perm], start=-2)
    assert w.length() == _inversions_by_pairs(w)


def test_length_of_a_wide_window_is_fast():
    n = 10**6
    assert hecke_of_word((1, n)).length() == 2
    assert hecke_of_word((1, n)).moved == {1: 2, 2: 1, n: n + 1, n + 1: n}
    # the transposition (1 n): every point strictly between is inverted twice
    far = Permutation.from_one_line([n] + list(range(2, n)) + [1])
    assert far.length() == 2 * (n - 2) + 1


def test_reduced_word_round_trip():
    rng = random.Random(5)
    for _ in range(50):
        w = Permutation.identity()
        for _ in range(rng.randint(0, 8)):
            w = w * Permutation.transposition(rng.randint(1, 5))
        word = reduced_word(w)
        assert len(word) == w.length()
        rebuilt = Permutation.identity()
        for i in word:
            rebuilt = rebuilt * Permutation.transposition(i)
        assert rebuilt == w


def test_hecke_product_fixtures():
    s1, s2 = Permutation.transposition(1), Permutation.transposition(2)
    assert hecke_product(s1, s1) == s1
    lhs = hecke_product(hecke_product(s1, s2), s1)
    rhs = hecke_product(hecke_product(s2, s1), s2)
    assert lhs == rhs
    w = hecke_of_word((2, 1, 2))
    assert w.length() == 3
    assert [w(i) for i in (1, 2, 3)] == [3, 2, 1]
    assert hecke_of_word(()).is_identity()


def _hecke_fold(word, u=Permutation.identity()):
    """Hecke product of u and a word, letter by letter through Permutation products."""
    for a in word:
        if u(a) < u(a + 1):
            u = u * Permutation.transposition(a)
    return u


@settings(max_examples=400, deadline=None)
@given(st.lists(st.integers(min_value=-2, max_value=6), max_size=10))
def test_hecke_of_word_matches_product_fold(word):
    assert hecke_of_word(word) == _hecke_fold(word)
    assert hecke_of_word(word + word[-1:]) == hecke_of_word(word)


def test_hecke_of_word_edge_cases():
    assert hecke_of_word(()) == Permutation.identity()
    assert hecke_of_word((0, 0, -1)) == _hecke_fold((0, 0, -1))
    assert hecke_of_word((-2,)) == Permutation.transposition(-2)
    assert hecke_of_word((3, 3, 3)) == Permutation.transposition(3)


def _bruhat_interval(w):
    """Permutations with a reduced word that is a subword of one of w's."""
    word = reduced_word(w)
    out = set()
    for keep in product((False, True), repeat=len(word)):
        sub = [a for a, k in zip(word, keep) if k]
        u = Permutation.identity()
        for a in sub:
            u = u * Permutation.transposition(a)
        if u.length() == len(sub):
            out.add(u)
    return out


def test_bruhat_leq_matches_subword_definition_on_s4():
    s4 = [Permutation.from_one_line(p) for p in permutations(range(1, 5))]
    pairs = 0
    for w in s4:
        below = _bruhat_interval(w)
        for u in s4:
            assert bruhat_leq(u, w) == (u in below), (u, w)
            pairs += 1
    assert pairs == 576


def _bruhat_leq_span_walk(u, w):
    """Tableau criterion over every point of the span of the two supports:
    the sorted images of each prefix under u are componentwise at most
    those under w."""
    (ulo, uhi), (wlo, whi) = u.support(), w.support()
    us: list[int] = []
    ws: list[int] = []
    for x in range(min(ulo, wlo), max(uhi, whi)):
        insort(us, u(x))
        insort(ws, w(x))
        if any(a > b for a, b in zip(us, ws)):
            return False
    return True


def _sparse_permutation(rng):
    # up to six moved points scattered over a wide range, so supports lie
    # far apart and fixed points sit between moved ones
    points = rng.sample(range(-20, 100), rng.randint(0, 6))
    images = points[:]
    rng.shuffle(images)
    return Permutation(dict(zip(points, images)))


def test_bruhat_leq_matches_the_span_walk_on_sparse_permutations():
    rng = random.Random(17)
    seen = set()
    for _ in range(1000):
        u = _sparse_permutation(rng)
        w = rng.choice([
            _sparse_permutation(rng),
            Permutation.identity(),
            u * _sparse_permutation(rng),
            u * Permutation.transposition(rng.randint(-20, 100)),
        ])
        for a, b in ((u, w), (w, u)):
            got = bruhat_leq(a, b)
            assert got == _bruhat_leq_span_walk(a, b), (a, b)
            seen.add((got, a.is_identity() or b.is_identity()))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_bruhat_leq_cost_does_not_follow_the_span():
    # the span walk took about 2.3 s at n = 8,000, growing with n squared
    u, w = hecke_of_word((1,)), hecke_of_word((1, 20000))
    start = time.perf_counter()
    assert bruhat_leq(u, w) and not bruhat_leq(w, u)
    assert time.perf_counter() - start < 1.0


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=-1, max_value=5), st.booleans()), max_size=10))
def test_hecke_of_subword_is_bruhat_below(marked):
    word = tuple(a for a, _ in marked)
    sub = tuple(a for a, keep in marked if keep)
    assert bruhat_leq(hecke_of_word(sub), hecke_of_word(word))


def test_hecke_product_matches_fold():
    rng = random.Random(11)
    for _ in range(100):
        u = _hecke_fold(rng.choices(range(1, 6), k=rng.randint(0, 6)))
        v = _hecke_fold(rng.choices(range(1, 6), k=rng.randint(0, 6)))
        assert hecke_product(u, v) == _hecke_fold(reduced_word(v), u)


def test_hecke_reducedness():
    s1, s3 = Permutation.transposition(1), Permutation.transposition(3)
    assert hecke_product(s1, s3).length() == s1.length() + s3.length()
    assert hecke_product(s1, s1).length() < s1.length() + s1.length()


def test_one_row_word_hecke():
    for p in range(1, 6):
        w = hecke_of_word(tuple(range(1, p + 1)))
        assert w(p + 1) == 1 and all(w(i) == i + 1 for i in range(1, p + 1))
        assert w.length() == p


def test_grassmannian_permutation():
    assert grassmannian_permutation(()).is_identity()
    g = grassmannian_permutation((2, 1))
    assert [g(i) for i in (1, 2, 3, 4)] == [2, 4, 1, 3]
    assert g.length() == 3
    one = grassmannian_permutation((1,))
    assert one.length() == 1
    for lam in [(3,), (2, 2), (3, 1), (4, 2, 1)]:
        assert grassmannian_permutation(lam).length() == sum(lam)


def test_hecke_of_tableau_types():
    a = type_a(2, 2)
    assert hecke_of_tableau(parse_tableau(a, "1,2/2")) == hecke_of_word((2, 1, 2))
    og = max_orthogonal(4)
    tab = minimal_tableau(og.shape("2,1"))
    from kjdt.tableau import doubling

    assert hecke_of_tableau(tab) == hecke_of_word(doubling(tab).row_word())


# -- lis / lds --------------------------------------------------------------


def test_lis_lds_fixtures():
    assert lis((1, 2, 3)) == 3 and lds((1, 2, 3)) == 1
    assert lis((3, 2, 1)) == 1 and lds((3, 2, 1)) == 3
    assert lis((2, 1, 2)) == 2 and lds((2, 1, 2)) == 2


def test_lis_lds_of_straight_tableaux():
    og = ambient_grid(4, 6)
    for lit in ["3", "3,2", "4,4,1"]:
        tab = minimal_tableau(og.shape(lit))
        word = tab.row_word()
        rows = tab.straight_rows()
        assert lds(word) == len(rows)
        assert lis(word) == max(len(r) for r in rows)


# -- reading words -------------------------------------------------------------


def test_reading_words_fixture():
    filling = {
        (1, 9): 2, (2, 8): 1, (2, 9): 2, (3, 6): 2, (3, 7): 2, (4, 7): 3,
        (5, 3): 1, (5, 4): 2, (5, 5): 4,
        (6, 1): 1, (6, 2): 2, (6, 3): 3, (6, 4): 3,
        (7, 2): 2, (7, 3): 3, (7, 4): 4, (8, 4): 5,
    }
    words = sorted(reading_words(WeakTableau(filling)))
    assert len(words) == 4
    assert words[0] == (2, 3, 1, 2, 3, 1, 5, 4, 3, 2, 4, 2, 3, 2, 1, 2, 2)
    assert len({hecke_of_word(w) for w in words}) == 1


def test_reading_word_single_row():
    tab = WeakTableau({(1, 1): 1, (1, 2): 2, (1, 3): 3})
    assert list(reading_words(tab)) == [(1, 2, 3)]


def test_row_word_is_reading_word():
    a = type_a(3, 3)
    tab = parse_tableau(a, ".,.,./.,.,2/1,3,4")
    assert tab.row_word() in set(reading_words(tab))


def test_reading_words_reject_non_hook_closed():
    with pytest.raises(KjdtError):
        reading_words(WeakTableau({(1, 1): 1, (2, 2): 2}))


def test_hecke_of_tableau_refuses_an_exceptional_tableau():
    e6 = cayley_plane()
    with pytest.raises(KjdtError):
        hecke_of_tableau(minimal_tableau(e6.shape("2")))


@pytest.mark.parametrize("lam", [(2, -1), (1, 2), (2, 0, 1)])
def test_grassmannian_permutation_refuses_a_non_partition(lam):
    with pytest.raises(KjdtError, match=re.escape(f"{lam} is not a partition")):
        grassmannian_permutation(lam)


def test_row_word_fixture():
    a = type_a(2, 2)
    assert parse_tableau(a, "1,2/2").row_word() == (2, 1, 2)
    grid = ambient_grid(6, 10)
    from kjdt.poset import SkewShape

    theta = SkewShape(grid.shape("9,7,6,6,4"), grid.shape("5,3,2"))
    word = minimal_tableau(theta).row_word()
    assert word[:10] == (2, 3, 4, 5, 1, 2, 3, 4, 5, 6)


# -- K-Knuth rewriting -----------------------------------------------------------


def test_basic_moves_fixtures():
    assert (2, 1, 2) in kknuth_basic_moves((1, 2, 1))
    assert (1,) in kknuth_basic_moves((1, 1))
    assert (1, 1) in kknuth_basic_moves((1,))
    assert (3, 1, 2) in kknuth_basic_moves((1, 3, 2))
    assert (1, 2, 3) not in kknuth_basic_moves((2, 1, 3))
    assert (2, 1, 3) not in kknuth_basic_moves((1, 2, 3))


def _basic_moves_minmax(word, weak=False, max_len=None):
    """The K-Knuth moves with the commutation tests spelled by min and max."""
    w = tuple(word)
    n = len(w)
    out = set()
    grow = max_len is None or n < max_len
    for i in range(n - 1):
        if w[i] == w[i + 1]:
            out.add(w[:i] + w[i + 1 :])
    if grow:
        for i in range(n):
            out.add(w[: i + 1] + (w[i],) + w[i + 1 :])
    for i in range(n - 2):
        a, b, c = w[i], w[i + 1], w[i + 2]
        if a == c and a != b:
            out.add(w[:i] + (b, a, b) + w[i + 3 :])
        if min(b, c) < a < max(b, c):
            out.add(w[:i] + (a, c, b) + w[i + 3 :])
        if min(a, b) < c < max(a, b):
            out.add(w[:i] + (b, a, c) + w[i + 3 :])
    if weak and n >= 2 and w[0] != w[1]:
        out.add((w[1], w[0]) + w[2:])
    out.discard(w)
    return out


@pytest.mark.parametrize("weak", [False, True])
def test_basic_moves_match_minmax_spelling(weak):
    for n in range(6):
        for word in product(range(1, 5), repeat=n):
            got = kknuth_basic_moves(word, weak=weak)
            want = _basic_moves_minmax(word, weak=weak)
            assert list(got) == list(want), word


@pytest.mark.parametrize("weak", [False, True])
@pytest.mark.parametrize("grow", [False, True])
def test_ordered_moves_give_the_basic_moves(weak, grow):
    for n in range(7):
        for word in product(range(1, 5), repeat=n):
            moves = _moves(word, weak, grow)
            assert set(moves) == _basic_moves_minmax(
                word, weak=weak, max_len=None if grow else n
            ), word
            runs = [len(list(run)) for _, run in groupby(word)]
            assert sum(len(m) < n for m in moves) == sum(r > 1 for r in runs), word
            assert sum(len(m) > n for m in moves) == (len(runs) if grow else 0), word


def test_ordered_moves_order():
    # drops, inserts, windows from the left, then the weak prefix swap
    assert _moves((1, 1, 2), False, True) == [(1, 2), (1, 1, 1, 2), (1, 1, 2, 2)]
    # windows 0 and 1 reach the same word; the list keeps both
    assert _moves((2, 1, 3, 2), True, False) == [
        (2, 3, 1, 2), (2, 3, 1, 2), (1, 2, 3, 2)
    ]


def test_weak_move_swaps_prefix():
    assert (2, 1, 3) in kknuth_basic_moves((1, 2, 3), weak=True)


@settings(max_examples=300, deadline=None)
@given(words_strategy)
def test_moves_preserve_invariants(word):
    w = hecke_of_word(word)
    stats = (lis(word), lds(word))
    for nxt in kknuth_basic_moves(word):
        assert hecke_of_word(nxt) == w
        assert (lis(nxt), lds(nxt)) == stats


@settings(max_examples=200, deadline=None)
@given(words_strategy)
def test_weak_moves_preserve_doubled_invariants(word):
    dbl = doubled_word(word)
    key = (hecke_of_word(dbl), lis(dbl), lds(dbl))
    for nxt in kknuth_basic_moves(word, weak=True):
        nd = doubled_word(nxt)
        assert (hecke_of_word(nd), lis(nd), lds(nd)) == key


def test_equiv_fixtures():
    assert kknuth_equiv((1, 2, 1), (2, 1, 2)).status == "equivalent"
    assert kknuth_equiv((1, 1), (1,)).status == "equivalent"
    refuted = kknuth_equiv((1,), (2,))
    assert refuted.status == "refuted" and refuted.invariant == "hecke"
    assert kknuth_equiv((1, 3, 2), (3, 1, 2)).status == "equivalent"


def test_equiv_needs_longer_intermediates():
    # the dotted-box resolution chain forces growth past both input lengths
    verdict = kknuth_equiv((1, 3, 1, 4, 2), (1, 3, 2, 4, 2), budget=300000)
    assert verdict.status == "equivalent"
    assert any(len(w) > 5 for w in verdict.path)


def test_equiv_path_is_valid():
    verdict = kknuth_equiv((1, 2, 1), (2, 1, 2))
    path = verdict.path
    assert path[0] == (1, 2, 1) and path[-1] == (2, 1, 2)
    for a, b in zip(path, path[1:]):
        assert b in kknuth_basic_moves(a)


def test_near_counterexample_pair_is_equivalent():
    u = (4, 2, 1, 2, 3)  # row word of rows (1,2,3),(2),(4)
    v = (4, 2, 4, 1, 2, 3)  # row word of rows (1,2,3),(2,4),(4)
    assert kknuth_equiv(u, v, budget=100000).status == "equivalent"


def test_weak_equiv():
    assert kknuth_equiv((1, 2), (2, 1), weak=True).status == "equivalent"
    v = kknuth_equiv((1, 2), (2, 1))
    assert v.status == "refuted"
    # any plainly equivalent pair stays weakly equivalent
    assert kknuth_equiv((1, 2, 1), (2, 1, 2), weak=True).status == "equivalent"


def test_inconclusive_on_tiny_budget():
    v = kknuth_equiv((1, 3, 1, 4, 2), (1, 3, 2, 4, 2), budget=10)
    assert v.status == "inconclusive"


@pytest.mark.parametrize(
    "budget, status",
    [(None, "equivalent"), (10**6, "equivalent"), (10, "inconclusive"), (1, "inconclusive")]
    + [(bad, None) for bad in (0, -1, 2.5, "x")],
)
@pytest.mark.parametrize("u, v", [((1, 3, 1, 4, 2), (1, 3, 2, 4, 2)), ((1, 2), (1, 2))])
def test_kknuth_equiv_has_the_closures_budget_rule(budget, status, u, v):
    # None is no bound, a positive int cuts the search (211 words decide the
    # first pair), anything else is refused, even for equal words
    if status is None:
        with pytest.raises(KjdtError, match="budget must be a positive integer"):
            kknuth_equiv(u, v, budget=budget)
    else:
        want = "equivalent" if u == v else status
        assert kknuth_equiv(u, v, budget=budget).status == want


@pytest.mark.parametrize(
    "u, v", [((1, "a"), (1, 2)), ((1, 2), (2.0, 1)), ((True, 2), (1, 2)), ((1, 2), (1, None))]
)
def test_kknuth_equiv_refuses_a_letter_that_is_not_an_int(u, v, monkeypatch):
    # refused before any search: no invariant is computed, no move is tried
    def no_search(*args):
        raise AssertionError("searched")

    monkeypatch.setattr(words_module, "_invariants", no_search)
    monkeypatch.setattr(words_module, "_moves", no_search)
    monkeypatch.setattr(words_module, "_packed_moves", no_search)
    with pytest.raises(KjdtError, match="letters must be ints"):
        kknuth_equiv(u, v)


# The search over tuple words that the packed search replaced, kept as a
# reference: the same moves in the same order, so the same verdicts, paths
# and explored counts.


def _reference_moves(w, weak, grow):
    n = len(w)
    out, inserts = [], []
    prev = None
    for i, x in enumerate(w):
        if x != prev:  # a run of equal letters starts at i
            prev = x
            if i + 1 < n and w[i + 1] == x:
                out.append(w[:i] + w[i + 1 :])  # drop a repeat
            if grow:
                inserts.append(w[: i + 1] + w[i:])  # insert a repeat
    out += inserts
    for i in range(n - 2):
        a, b, c = w[i], w[i + 1], w[i + 2]
        if a == c:
            if a != b:
                out.append(w[:i] + (b, a, b) + w[i + 3 :])  # braid
        elif b < a < c or c < a < b:
            out.append(w[:i] + (a, c, b) + w[i + 3 :])  # swap last two
        elif a < c < b or b < c < a:
            out.append(w[:i] + (b, a, c) + w[i + 3 :])  # swap first two
    if weak and n >= 2 and w[0] != w[1]:
        out.append((w[1], w[0]) + w[2:])
    return out


def _reference_kknuth_equiv(u, v, slack=3, budget=20000, weak=False):
    check_budget(budget)
    u, v = words_module._letters(u), words_module._letters(v)
    if u == v:
        return EquivalenceVerdict("equivalent", path=[u])
    inv_u, inv_v = words_module._invariants(u, weak), words_module._invariants(v, weak)
    if inv_u != inv_v:
        names = ("hecke", "lis", "lds")
        which = next(n for n, a, b in zip(names, inv_u, inv_v) if a != b)
        if weak:
            which = f"{which} of reverse(w)+w"
        return EquivalenceVerdict("refuted", invariant=which)
    max_len = max(len(u), len(v)) + slack
    sides = ({u: None}, {v: None})
    frontiers = ([u], [v])
    explored = 2

    def path_through(meet, fwd, bwd):
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
        if left and left[0] != u:
            left.reverse()
        return left

    while frontiers[0] or frontiers[1]:
        side = 0 if 0 < len(frontiers[0]) <= len(frontiers[1]) or not frontiers[1] else 1
        mine, theirs = sides[side], sides[1 - side]
        new = []
        for word in frontiers[side]:
            for nxt in _reference_moves(word, weak, len(word) < max_len):
                if nxt in mine:
                    continue
                mine[nxt] = word
                explored += 1
                if nxt in theirs:
                    fwd, bwd = (sides[0], sides[1]) if side == 0 else (sides[1], sides[0])
                    return EquivalenceVerdict(
                        "equivalent", path=path_through(nxt, fwd, bwd), explored=explored
                    )
                new.append(nxt)
                if budget is not None and explored >= budget:
                    return EquivalenceVerdict("inconclusive", explored=explored)
        frontiers = (new, frontiers[1]) if side == 0 else (frontiers[0], new)
    return EquivalenceVerdict("inconclusive", explored=explored)


SHORT_WORDS = [w for n in range(4) for w in product(range(1, 4), repeat=n)]


@pytest.mark.parametrize("weak", [False, True])
def test_packed_search_matches_the_tuple_search_on_short_words(weak):
    for u, v in product(SHORT_WORDS, repeat=2):
        for slack in range(3):
            for budget in (None, 25):
                want = _reference_kknuth_equiv(u, v, slack, budget, weak)
                assert kknuth_equiv(u, v, slack, budget, weak) == want, (u, v, slack, budget)


@pytest.mark.parametrize(
    "letters", [(-2, 0, 10**9), (0, 1), (-2, 10**9, 5, 0, 3, 7, 1, 2, 4)], ids=["3", "2", "9"]
)
def test_packed_search_matches_the_tuple_search_on_any_alphabet(letters):
    # the codes are ranks and the digit width follows the number of letters;
    # v is a few moves from u or a word of its own, so every verdict occurs
    rng = random.Random(len(letters))
    for _ in range(60):
        u = v = tuple(rng.choices(letters, k=rng.randint(1, 5)))
        weak = rng.random() < 0.5
        for _ in range(rng.randint(1, 4)):
            v = rng.choice(_reference_moves(v, weak, len(v) < 6))
        if rng.random() < 0.3:
            v = tuple(rng.choices(letters, k=len(v)))
        for slack, budget in product((0, 1), (None, 8)):
            want = _reference_kknuth_equiv(u, v, slack, budget, weak)
            assert kknuth_equiv(u, v, slack, budget, weak) == want, (u, v, weak, budget)


def test_packed_search_matches_the_tuple_search_on_a_long_doubled_pair():
    # 10 letters and slack 3: the search reaches 13-letter words and spends
    # the whole budget
    u, v = doubled_word((1, 3, 4, 4, 3)), doubled_word((3, 4, 1, 1, 4))
    want = _reference_kknuth_equiv(u, v, 3, 4000)
    assert want.status == "inconclusive" and want.explored == 4000
    assert kknuth_equiv(u, v, 3, 4000) == want


def test_conjecture_search_is_the_same_under_the_tuple_search(monkeypatch):
    got = conjecture_search(max_len=3, max_letter=3)
    monkeypatch.setattr(words_module, "kknuth_equiv", _reference_kknuth_equiv)
    assert conjecture_search(max_len=3, max_letter=3) == got


def test_conjecture_sweep_small():
    report = conjecture_search(max_len=3, max_letter=2, budget=3000)
    assert report["counterexample_candidates"] == []
    assert report["pairs"] > 0
    assert report["searched"] <= report["pairs"]


def test_diagonal_resolution_words_weakly_equivalent():
    # the two resolutions of a dotted diagonal box, at values (1,2,3,4,5):
    # reading words (b,a,b,d,c,y) and (c,a,b,d,c,y)
    u = (2, 1, 2, 5, 4, 3)
    v = (4, 1, 2, 5, 4, 3)
    assert kknuth_equiv(u, v, budget=200000, weak=True).status == "equivalent"
    assert kknuth_equiv(doubled_word(u), doubled_word(v), budget=200000).status != "refuted"


def test_reading_words_pairwise_equivalent_random(rng):
    from conftest import random_skew_tableau

    grid = ambient_grid(4, 4)
    done = 0
    while done < 25:
        tab = random_skew_tableau(rng, grid, max_size=6)
        if tab.size < 2:
            continue
        words = []
        for w in reading_words(tab, limit=6):
            words.append(w)
        for i in range(1, len(words)):
            verdict = kknuth_equiv(words[0], words[i], budget=30000)
            assert verdict.status != "refuted", (words[0], words[i])
        done += 1


def test_class_members_have_equivalent_row_words(rng):
    from conftest import random_skew_tableau
    from kjdt.tableau import jdt_class

    grid = ambient_grid(3, 4)
    done = 0
    while done < 15:
        tab = random_skew_tableau(rng, grid, max_size=5)
        if tab.size < 2:
            continue
        cls = jdt_class(tab, budget=400)
        members = []
        for m in cls.members():
            members.append(m)
            if len(members) >= 6:
                break
        base = tab.row_word()
        for m in members:
            verdict = kknuth_equiv(base, m.row_word(), budget=30000)
            assert verdict.status != "refuted", (base, m.row_word())
        done += 1
