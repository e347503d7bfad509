"""The bundled reference-fixture suite must be green end to end."""

from kjdt.fixtures import FIXTURES, run_fixture


def test_every_fixture_passes():
    results = [run_fixture(name) for name in FIXTURES]
    assert len(results) == len(FIXTURES)
    failures = [(name, detail) for name, ok, detail, _ in results if not ok]
    assert not failures, failures


def test_product_details_list_their_terms_sorted():
    # the details do not follow the order in which a class is enumerated
    from kjdt.fixtures import _product_table, check_cayley_product
    from kjdt.poset import cayley_plane

    assert check_cayley_product()[1] == "G[2]*G[2] = {(3, 1): 1, (4,): 1, (4, 1): 1}"
    ok, detail, _ = _product_table(cayley_plane(), [("2", "2")], [{}])
    assert not ok
    assert detail == "product O[2]*O[2]: got {(3, 1): 1, (4,): 1, (4, 1): -1}"
