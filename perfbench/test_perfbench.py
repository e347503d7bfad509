"""Tests of the benchmark itself: input digests, oracles, trace restore."""
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, kjdt_modules, layer_metrics  # noqa: E402
from workloads import REFERENCES, Ops, kring, poset, words  # noqa: E402


@pytest.mark.parametrize("workload", ["ring", "words"])
def test_seed_fixes_the_inputs(workload):
    one = workloads.digest(workloads.make_inputs(workload, 1))
    assert workloads.digest(workloads.make_inputs(workload, 1)) == one
    assert workloads.digest(workloads.make_inputs(workload, 2)) != one


@pytest.mark.parametrize("workload", ["census", "verify"])
def test_exhaustive_workloads_ignore_the_seed(workload):
    assert workloads.digest(workloads.make_inputs(workload, 1)) == workloads.digest(
        workloads.make_inputs(workload, 2)
    )


def _small_ring_inputs():
    """The fixture products and the c = 11 triple, without the full tables."""
    pairs = []
    for name in ("e6-products", "e7-products"):
        p = poset.parse_poset(REFERENCES[name]["poset"])
        pairs += [(p.shape(a), p.shape(b)) for (a, b), _ in REFERENCES[name]["products"]]
    spec, lits, _ = REFERENCES["c11"]
    c11 = tuple(poset.parse_poset(spec).shape(lit) for lit in lits)
    e6 = poset.cayley_plane()
    triples = [(e6.shape("2"), e6.shape("2"), e6.shape(nu)) for nu in ("4", "3,1", "4,4")]
    pairs += [c11[:2], (e6.shape("2"), e6.shape("2"))]
    return {"tables": [pairs], "triples": triples, "c11": c11}


def _fail_ratio(workload, inputs, refs):
    ops = Ops()
    check = workloads.SECTIONS[workload](inputs, ops, refs)
    check()
    assert ops.count > 0
    return len(ops.failed) / ops.count


def test_ring_oracles_pass_on_published_values():
    assert _fail_ratio("ring", _small_ring_inputs(), REFERENCES) == 0


@pytest.mark.parametrize(
    "workload, key, wrong",
    [
        ("ring", "c11", ("e7", ("5,1", "5,3,3", "5,5,5,2,1,1"), 12)),
        ("census", "census", {"e6": (3025, 0)}),
    ],
)
def test_wrong_reference_gives_failures(workload, key, wrong):
    refs = dict(REFERENCES, **{key: wrong})
    if workload == "ring":
        inputs = _small_ring_inputs()
    else:
        inputs = {"posets": [poset.cayley_plane()]}
    assert _fail_ratio(workload, inputs, refs) > 0


def _bindings():
    from kjdt import fixtures, rootsys, tableau

    out = {}
    for module in kjdt_modules():
        out.update({(module.__name__, k): v for k, v in vars(module).items()})
    for cls in (poset.MinusculePoset, tableau.Tableau, rootsys.MarkedRootData, rootsys.RootSystem):
        out.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    out.update({("FIXTURES", k): v for k, v in fixtures.FIXTURES.items()})
    return out


def test_traced_pass_restores_every_alias():
    from kjdt import fixtures, tableau

    before = _bindings()
    original_jdt_class = tableau.jdt_class
    tracer = Tracer().install()
    try:
        assert kring.jdt_class is not original_jdt_class
        assert fixtures.jdt_class is kring.jdt_class is tableau.jdt_class
        e6 = poset.cayley_plane()
        lam, mu, nu = e6.shape("2"), e6.shape("2"), e6.shape("4")
        assert kring.structure_constant(lam, mu, nu) == kring.basis_product(lam, mu)[nu.mask]
        words.kknuth_equiv((1, 2, 1), (2, 1, 2))
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    layers = layer_metrics(tracer)
    assert layers["kring.structure_constant.calls"][0] == 1
    assert layers["kring.basis_product.calls"][0] == 1
    assert layers["words.kknuth_equiv.calls"][0] == 1
    assert layers["tableau.increasing_fillings.yielded"][0] >= 1


def test_benchmark_json_names_every_metric():
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.END_TO_END
    per_layer = [(name, unit) for name, (_, unit) in layer_metrics(Tracer()).items()]
    per_layer += run.RUN_METRICS + run.TRACE_METRICS
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == per_layer


def test_pass_times_are_scaled_by_the_reference_work(monkeypatch):
    timings = iter([0.2, 0.4])
    monkeypatch.setattr(run, "reference_work", lambda: next(timings))
    monkeypatch.setattr(
        run, "run_pass", lambda w, s, t: {"setup_s": 1.0, "wall_s": 2.0, "latency": None}
    )
    (p,) = run.scaled_passes("ring", 1, lambda done, elapsed: None if done else False)
    assert p["scale"] == pytest.approx(2 * run.REFERENCE_S / 0.6)
    assert (p["raw_wall_s"], p["raw_setup_s"]) == (2.0, 1.0)
    assert p["wall_s"] == pytest.approx(2.0 * p["scale"])
    assert p["setup_s"] == pytest.approx(1.0 * p["scale"])
