"""The bundled reference-fixture suite must be green end to end."""

from kjdt.fixtures import FIXTURES, run_fixture


def test_every_fixture_passes():
    results = [run_fixture(name) for name in FIXTURES]
    assert len(results) == len(FIXTURES)
    failures = [(name, detail) for name, ok, detail, _ in results if not ok]
    assert not failures, failures
