from collections import Counter
from functools import lru_cache
from itertools import islice
import random

import pytest

from kjdt.errors import PosetError
from kjdt.poset import Shape, bits, build_poset, enumerate_shapes, type_a
import kjdt.rootsys as rootsys_module
from kjdt.rootsys import (
    MarkedRootData,
    RootSystem,
    WeylElement,
    check_bruhat_containment,
    check_incomparable_orthogonal,
    check_inversion_sets,
    check_poincare_duality,
    cominuscule_realization,
    grid_family_for,
    is_cominuscule,
    is_minuscule,
    lambda_from_root_data,
    root_system,
    run_suite,
    verify_poset_embedding,
)
from kjdt.tableau import increasing_fillings


_CLOSED_FORMS = (
    [("A", n, n * (n + 1) // 2) for n in range(1, 9)]
    + [(kind, n, n * n) for kind in "BC" for n in range(2, 9)]
    + [("D", n, n * (n - 1)) for n in range(3, 9)]
    + [("E6", 6, 36), ("E7", 7, 63)]
)


def test_positive_root_counts():
    for kind, rank, count in _CLOSED_FORMS:
        assert root_system(kind, rank).nroots == count, (kind, rank)


def test_simple_reflections_permute_the_positive_roots():
    # s_i sends every positive root but alpha_i to a positive root
    for kind, rank, _ in _CLOSED_FORMS:
        rs = root_system(kind, rank)
        roots = set(rs.positive_roots)
        for alpha in rs.simple_roots:
            for beta in rs.positive_roots:
                image = rs.reflect(beta, alpha)
                if beta == alpha:
                    assert image == tuple(-x for x in alpha)
                else:
                    assert image in roots, (kind, rank, alpha, beta)


def _bilinear_by_double_sum(rs, a, b):
    """Reference: the rank^2 sum of a_i b_j (alpha_i, alpha_j) from the Cartan data."""
    return sum(
        a[i] * b[j] * rs.half_norm[j] * rs.cartan[i][j]
        for i in range(rs.rank)
        for j in range(rs.rank)
        if a[i] and b[j]
    )


def test_bilinear_reads_a_symmetric_form_equal_to_the_double_sum():
    for kind, rank, _ in _CLOSED_FORMS:
        rs = root_system(kind, rank)
        assert all(
            rs.form[i][j] == rs.form[j][i] for i in range(rank) for j in range(rank)
        ), (kind, rank)
        for a in rs.positive_roots:
            for b in rs.positive_roots:
                assert rs.bilinear(a, b) == _bilinear_by_double_sum(rs, a, b), (kind, rank)


def test_positive_roots_have_nonnegative_coefficients():
    for kind, rank in [("A", 4), ("B", 3), ("C", 3), ("D", 4), ("E6", 6)]:
        rs = root_system(kind, rank)
        assert all(all(c >= 0 for c in r) for r in rs.positive_roots)


def test_marked_node_root_counts():
    assert len(lambda_from_root_data(root_system("E6", 6), 5)) == 16
    assert len(lambda_from_root_data(root_system("A", 4), 1)) == 6  # 2x3 rectangle
    assert len(lambda_from_root_data(root_system("C", 3), 0)) == 5  # projective space
    assert len(lambda_from_root_data(root_system("E7", 7), 6)) == 27


def test_cominuscule_detection():
    assert is_cominuscule(root_system("A", 3), 1)
    assert not is_cominuscule(root_system("C", 3), 0)
    assert is_minuscule(root_system("C", 3), 0)
    with pytest.raises(PosetError):
        lambda_from_root_data(root_system("B", 3), 1)  # middle node of B3


def test_embeddings():
    for kind, rank, node in [
        ("A", 1, 1),
        ("A", 3, 2),
        ("D", 5, 1),
        ("D", 4, 4),
        ("E6", 6, 6),
        ("E7", 7, 7),
        ("B", 3, 3),
        ("C", 4, 4),
    ]:
        data = MarkedRootData(kind, rank, node)
        rep = verify_poset_embedding(data.system, data.node, data.poset)
        assert rep["pass"], (kind, rank, node, rep)


def _has_grid_family(kind, rank, node):
    try:
        grid_family_for(kind, rank, node)
    except PosetError:
        return False
    return True


_SUITE_CASES = [
    (kind, rank, node)
    for kind, low in [("A", 1), ("B", 2), ("C", 2), ("D", 3)]
    for rank in range(low, 7)
    for node in range(1, rank + 1)
    if _has_grid_family(kind, rank, node)
] + [("E6", 6, 1), ("E6", 6, 6), ("E7", 7, 7)]


def test_suite_cases_count_every_grid_family_up_to_rank_6():
    assert len(_SUITE_CASES) == 53 + 3


@pytest.mark.parametrize("kind,rank,node", _SUITE_CASES)
def test_run_suite_passes_on_every_grid_family(kind, rank, node):
    rep = run_suite(kind, rank, node)
    assert rep["pass"], [c for c in rep["checks"] if not c["pass"]]


@pytest.mark.parametrize(
    "kind,rank,node,spec,isomorphism",
    [
        (
            "A", 3, 2, "a:2,2",
            [[[0, 1, 0], [1, 1]], [[0, 1, 1], [1, 2]], [[1, 1, 0], [2, 1]], [[1, 1, 1], [2, 2]]],
        ),
        (
            "D", 4, 1, "qeven:3",
            [
                [[1, 0, 0, 0], [1, 1]], [[1, 1, 0, 0], [1, 2]], [[1, 1, 0, 1], [1, 3]],
                [[1, 1, 1, 0], [2, 2]], [[1, 1, 1, 1], [2, 3]], [[1, 2, 1, 1], [3, 3]],
            ],
        ),
    ],
)
def test_embedding_is_the_first_in_box_order(kind, rank, node, spec, isomorphism):
    # both posets have automorphisms, so the search order picks the answer
    data = MarkedRootData(kind, rank, node)
    assert data.poset.family.spec() == spec
    assert data.embedding["isomorphism"] == isomorphism


def test_embedding_heights_match():
    data = MarkedRootData("E7", 7, 7)
    for i, root in data.box_to_root.items():
        assert sum(root) == data.poset.heights[i]


def test_embedding_mismatch_is_reported():
    rep = verify_poset_embedding(
        root_system("E6", 6), 5, build_poset(grid_family_for("A", 5, 3))
    )
    assert not rep["pass"]
    assert "witness" in rep


def test_weyl_of_shape_basics():
    data = MarkedRootData("A", 3, 2)
    assert data.weyl_of_shape(data.poset.empty_shape()).is_identity()
    one = data.weyl_of_shape(data.poset.shape("1"))
    assert one.length() == 1
    full_shape = Shape(data.poset, data.poset.full_mask)
    full = data.weyl_of_shape(full_shape)
    assert full.length() == 4
    assert full.inversion_set() == data.shape_root_indices(full_shape)


@pytest.mark.parametrize("kind,rank", [(kind, rank) for kind, rank, _ in _CLOSED_FORMS])
def test_reflection_table_matches_direct_computation(kind, rank):
    # the table reads rows of the form; reflect goes through pair_coroot and bilinear
    rs = root_system(kind, rank)
    for alpha in rs.positive_roots:
        w = rs.reflection(alpha)
        direct = tuple(rs.signed_index(rs.reflect(r, alpha)) for r in rs.positive_roots)
        assert w.images == direct
        assert (w * w).is_identity()
        assert w.length() % 2 == 1
        assert rs.reflection(tuple(-x for x in alpha)) == w
    for i in range(rank):
        simple = tuple(1 if j == i else 0 for j in range(rank))
        assert rs.simple_reflection(i) == rs.reflection(simple)
    assert rs.reflections() == {
        rs.reflection(alpha).images: alpha for alpha in rs.positive_roots
    }
    for bad in [(0,) * rank, (2,) + (0,) * (rank - 1), (1, -1) + (0,) * (rank - 2)]:
        with pytest.raises(PosetError):
            rs.reflection(bad)


def test_reflection_table_reads_rows_of_the_form_not_the_pairing(monkeypatch):
    def refuse(*args):
        raise AssertionError("the reflection table called the pairwise form")

    monkeypatch.setattr(RootSystem, "bilinear", refuse)
    monkeypatch.setattr(RootSystem, "pair_coroot", refuse)
    fresh = RootSystem("E7", 7)
    assert fresh.reflections() == {
        w.images: alpha for alpha, w in root_system("E7", 7)._reflections_by_root().items()
    }


def test_reflection_table_refuses_a_non_integral_pairing(monkeypatch):
    # half norms 3, 3, 1 on B3 make <alpha_3, (alpha_2 + alpha_3)-coroot> = -2/3
    cartan = rootsys_module._cartan
    monkeypatch.setattr(
        rootsys_module, "_cartan", lambda kind, n: (cartan(kind, n)[0], [3, 3, 1])
    )
    rs = RootSystem("B", 3)
    assert rs.positive_roots == root_system("B", 3).positive_roots
    assert rs._reflection_table is None
    with pytest.raises(PosetError, match="non-integral coroot pairing"):
        rs.reflection(rs.simple_roots[0])
    with pytest.raises(PosetError, match="non-integral coroot pairing"):
        rs.pair_coroot((0, 0, 1), (0, 1, 1))


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: root_system("A", 0), "type A needs rank >= 1"),
        (lambda: root_system("A", -1), "type A needs rank >= 1"),
        (lambda: root_system("B", 1), "type B needs rank >= 2"),
        (lambda: root_system("C", 1), "type C needs rank >= 2"),
        (lambda: root_system("D", 2), "type D needs rank >= 3"),
        (lambda: root_system("E7", 6), "type E7 has rank 7"),
        (lambda: root_system("F", 4), "unknown root system type"),
        (lambda: root_system("A", 3).simple_reflection(7), "no simple root 7 in rank 3"),
        (lambda: root_system("A", 3).simple_reflection(-1), "no simple root -1 in rank 3"),
        (lambda: run_suite("A", 3, 9), "node 9 is outside 1..3"),
        (lambda: run_suite("A", 3, 0), "node 0 is outside 1..3"),
        (lambda: MarkedRootData("D", 4, 5), "node 5 is outside 1..4"),
        (lambda: root_system("A", 3.0), "a rank is an int, not 3.0"),
        (lambda: root_system("A", True), "a rank is an int, not True"),
        (lambda: root_system("E6", "6"), "a rank is an int, not '6'"),
        # True == 1 and hash(True) == hash(1): an untyped cache would hand back A1
        (lambda: (root_system("A", 1), root_system("A", True)), "a rank is an int, not True"),
        (lambda: run_suite("A", 3, 2.0), "a node is an int, not 2.0"),
        (lambda: run_suite("A", 3, True), "a node is an int, not True"),
        (lambda: MarkedRootData("D", 4.0, 1), "a rank is an int, not 4.0"),
        # refused before the cache, which would raise TypeError on an unhashable kind
        (lambda: root_system(["A"], 3), r"unknown root system type \['A'\]"),
    ],
    ids=["A0", "A-1", "B1", "C1", "D2", "E7-6", "F4", "A3-s7", "A3-s-1", "A3-n9", "A3-n0", "D4-n5",
         "A3.0", "ATrue", "E6-str", "A1-then-ATrue", "A3-n2.0", "A3-nTrue", "D4.0", "list-kind"],
)
def test_bad_root_data_is_refused(build, message):
    with pytest.raises(PosetError, match=message):
        build()


def test_type_labels_name_each_system_once():
    assert run_suite("E6", 6, 6)["type"] == "E6"
    assert run_suite("E7", 7, 7)["type"] == "E7"
    assert run_suite("C", 3, 1)["type"] == "C3"
    assert repr(root_system("E7", 7)) == "RootSystem(E7, 63 positive roots)"
    with pytest.raises(PosetError, match="node 1 of E7 is neither"):
        cominuscule_realization(root_system("E7", 7), 0)
    with pytest.raises(PosetError, match="grid family for E6 node 2"):
        grid_family_for("E6", 6, 2)


def test_marked_root_data_computes_each_weyl_element_once(monkeypatch):
    calls = []
    compute = MarkedRootData.weyl_of_shape

    def counted(self, shape):
        calls.append(shape.mask)
        return compute(self, shape)

    monkeypatch.setattr(MarkedRootData, "weyl_of_shape", counted)
    data = MarkedRootData("E7", 7, 7)
    assert len(calls) == len(set(calls)) == len(data.shapes) == 56
    calls.clear()
    for check in (check_inversion_sets, check_bruhat_containment, check_poincare_duality):
        assert check(data)["pass"]
    assert calls == []
    for shape in data.shapes:
        assert data.weyl[shape.mask] == data.weyl_of_shape(shape)


def _weyl_along(data: MarkedRootData, order) -> WeylElement:
    """Reference: the product of the box reflections in the given order, from the identity."""
    w = data.system.identity()
    for i in order:
        w = w * data.system.reflection(data.box_to_root[i])
    return w


_REFERENCE_CASES = [("E6", 6, 1), ("E6", 6, 6), ("E7", 7, 7), ("D", 5, 5), ("A", 4, 2)] + [
    case for case in _SUITE_CASES if case[0] in "BC"
]


@pytest.mark.parametrize("kind,rank,node", _REFERENCE_CASES)
def test_weyl_table_matches_products_along_two_linear_extensions(kind, rank, node):
    # the table takes one product a shape from a smaller shape; the reference
    # multiplies every box reflection, in row-major and in column-major order
    data = MarkedRootData(kind, rank, node)
    poset = data.poset
    for shape in data.shapes:
        boxes = list(bits(shape.mask))
        by_columns = sorted(boxes, key=lambda i: poset.boxes[i][::-1])
        assert data.weyl[shape.mask] == _weyl_along(data, boxes), shape
        assert data.weyl[shape.mask] == _weyl_along(data, by_columns), shape


def test_marked_root_data_makes_one_product_a_shape_and_two_a_reflection(monkeypatch):
    # On a fresh E7: one product for each of the 55 nonempty shapes, two for
    # each of the 56 non-simple positive roots, and one for each step of
    # longest_element, which lengthens by one a step: l(w0) + l(wX) = 63 + 36.
    monkeypatch.setattr(rootsys_module, "_root_system", lru_cache(maxsize=None)(RootSystem))
    phase, counts = ["shapes"], Counter()
    multiply = WeylElement.__mul__

    def counted(self, other):
        counts[phase[-1]] += 1
        return multiply(self, other)

    def in_phase(name, method):
        def run(*args, **kwargs):
            phase.append(name)
            try:
                return method(*args, **kwargs)
            finally:
                phase.pop()
        return run

    monkeypatch.setattr(WeylElement, "__mul__", counted)
    monkeypatch.setattr(
        RootSystem, "_reflections_by_root", in_phase("table", RootSystem._reflections_by_root)
    )
    monkeypatch.setattr(
        RootSystem, "longest_element", in_phase("longest", RootSystem.longest_element)
    )
    data = MarkedRootData("E7", 7, 7)
    assert counts == {"shapes": 55, "table": 2 * (63 - 7), "longest": 63 + 36}
    assert (data.w0.length(), data.wx.length()) == (63, 36)


@pytest.mark.parametrize("left,right", [(("B", 3), ("C", 3)), (("E6", 6), ("E7", 7))])
def test_weyl_elements_of_two_root_systems_do_not_multiply(left, right):
    # B3 and C3 have as many positive roots, E6 fewer than E7
    u, v = root_system(*left).simple_reflection(2), root_system(*right).simple_reflection(2)
    with pytest.raises(PosetError, match="cannot multiply Weyl elements of"):
        u * v
    with pytest.raises(PosetError, match="cannot multiply Weyl elements of"):
        v * u


def test_shape_lengths_everywhere():
    data = MarkedRootData("D", 5, 5)
    for shape in enumerate_shapes(data.poset):
        assert data.weyl_of_shape(shape).length() == shape.size


def test_inversion_theorem_small():
    for kind, rank, node in [("A", 3, 2), ("D", 4, 1), ("B", 3, 3)]:
        data = MarkedRootData(kind, rank, node)
        rep = check_inversion_sets(data)
        assert rep["pass"], rep


def test_bruhat_containment_small():
    for kind, rank, node in [("A", 3, 2), ("D", 4, 4), ("D", 4, 1)]:
        data = MarkedRootData(kind, rank, node)
        rep = check_bruhat_containment(data)
        assert rep["pass"], rep


def test_poincare_duality_small():
    for kind, rank, node in [("A", 3, 2), ("D", 5, 5), ("E6", 6, 6)]:
        data = MarkedRootData(kind, rank, node)
        rep = check_poincare_duality(data)
        assert rep["pass"], rep


def test_incomparable_orthogonal():
    for kind, rank, node in [("E6", 6, 6), ("D", 5, 5), ("A", 4, 2)]:
        data = MarkedRootData(kind, rank, node)
        rep = check_incomparable_orthogonal(data)
        assert rep["pass"], rep


def _box_label(data: MarkedRootData, i: int):
    """Heap label of a box: the simple reflection of its one-box skew."""
    below = data.poset.below[i]
    lam = Shape(data.poset, below)
    mu = Shape(data.poset, below & ~(1 << i))
    return data.weyl_of_shape(lam) * data.weyl_of_shape(mu).inverse()


def _check_full_commutativity(
    data: MarkedRootData,
    shape: Shape,
    budget: int = 10**6,
    samples: int = 200,
    seed: int = 0,
) -> dict:
    """Every linear extension multiplies the box labels to the same reduced word.

    Exhaustive when the number of extensions fits the budget, otherwise a
    random sample of extensions is checked.
    """
    poset = data.poset
    labels = {i: _box_label(data, i) for i in bits(shape.mask)}
    target = data.weyl_of_shape(shape)
    # A filling by 1..size puts one box on each level: a linear extension.
    fillings = increasing_fillings(poset, 0, shape.mask, shape.size)
    exts = [
        tuple(m.bit_length() - 1 for m in key) for key in islice(fillings, budget + 1)
    ]
    mode = "exhaustive"
    if len(exts) > budget:
        rng = random.Random(seed)
        chosen = []
        for _ in range(samples):
            done = 0
            ext = []
            while done != shape.mask:
                minimal = poset.minimal_absent_boxes(done)
                pick = rng.choice([i for i in minimal if shape.mask >> i & 1])
                ext.append(pick)
                done |= 1 << pick
            chosen.append(tuple(ext))
        exts = chosen
        mode = "sampled"
    failures = 0
    for ext in exts:
        w = data.system.identity()
        ok = True
        for i in ext:  # labels multiply on the left along the extension
            nxt = labels[i] * w
            if nxt.length() != w.length() + 1:
                ok = False
                break
            w = nxt
        if not ok or w != target:
            failures += 1
    return {
        "check": "full_commutativity",
        "shape": shape.literal(),
        "mode": mode,
        "extensions": len(exts),
        "pass": failures == 0,
        "failures": failures,
    }


def test_full_commutativity():
    data = MarkedRootData("A", 3, 2)
    rep = _check_full_commutativity(data, data.poset.shape("2,1"))
    assert rep["pass"] and rep["extensions"] == 2 and rep["mode"] == "exhaustive"
    rep_single = _check_full_commutativity(data, data.poset.shape("1"))
    assert rep_single["pass"]
    og = MarkedRootData("D", 5, 5)
    og_full = Shape(og.poset, og.poset.full_mask)
    sampled = _check_full_commutativity(og, og_full, budget=5, samples=40)
    assert sampled["pass"] and sampled["mode"] == "sampled"
    exhaustive = _check_full_commutativity(og, og_full)
    assert exhaustive["pass"] and exhaustive["mode"] == "exhaustive"


def _linear_extensions(poset, mask: int) -> list[tuple[int, ...]]:
    """Reference: every linear extension of the shape, by recursion on minimal boxes."""
    out = []

    def rec(remaining: int, prefix: list[int]):
        if not remaining:
            out.append(tuple(prefix))
            return
        for i in bits(remaining):
            if not (poset.below[i] & remaining & ~(1 << i)):
                prefix.append(i)
                rec(remaining & ~(1 << i), prefix)
                prefix.pop()

    rec(mask, [])
    return out


@pytest.mark.parametrize(
    "kind,rank,node,spec", [("A", 3, 2, "a:2,2"), ("D", 5, 5, "og:5"), ("E6", 6, 1, "e6")]
)
def test_full_commutativity_counts_the_recursions_extensions(kind, rank, node, spec):
    # the extensions come from the level walk, one box a level
    data = MarkedRootData(kind, rank, node)
    assert data.poset.family.spec() == spec
    shapes = [s for s in enumerate_shapes(data.poset) if s.size <= 8]
    for shape in shapes:
        want = len(_linear_extensions(data.poset, shape.mask))
        rep = _check_full_commutativity(data, shape)
        assert rep["pass"] and rep["mode"] == "exhaustive", shape
        assert rep["extensions"] == want, shape
        if want > 1:  # a budget one short of the count samples instead
            cut = _check_full_commutativity(data, shape, budget=want - 1, samples=3)
            assert cut["pass"] and cut["mode"] == "sampled", shape


def test_run_suite_smoke():
    rep = run_suite("A", 2, 1)
    assert rep["pass"]
    assert {c["check"] for c in rep["checks"]} == {
        "poset_embedding",
        "inversion_sets",
        "poincare",
        "orthogonality",
        "bruhat",
    }


def test_marked_root_counts_match_table_sweep():
    for rank in range(1, 6):
        for node in range(rank):
            m, k = node + 1, rank - node
            roots = lambda_from_root_data(root_system("A", rank), node)
            assert len(roots) == m * k
    for rank in range(2, 6):
        assert len(lambda_from_root_data(root_system("B", rank), 0)) == 2 * rank - 1
        assert (
            len(lambda_from_root_data(root_system("B", rank), rank - 1))
            == rank * (rank + 1) // 2
        )
        assert len(lambda_from_root_data(root_system("C", rank), 0)) == 2 * rank - 1
        assert (
            len(lambda_from_root_data(root_system("C", rank), rank - 1))
            == rank * (rank + 1) // 2
        )
    for rank in range(4, 7):
        assert len(lambda_from_root_data(root_system("D", rank), 0)) == 2 * (rank - 1)
        assert (
            len(lambda_from_root_data(root_system("D", rank), rank - 1))
            == rank * (rank - 1) // 2
        )
