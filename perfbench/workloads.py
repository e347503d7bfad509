"""The kjdt benchmark workloads: seeded inputs, timed sections, oracles.

Run as a script, this module performs one pass of one workload in a
fresh interpreter and prints one JSON object as its last line:

    python3 perfbench/workloads.py --workload ring --seed 1 --trace 0

``perfbench/run.py`` starts one such process per pass.  A fresh process
is what a ``kjdt`` user gets: the library's process-wide caches
(``_POSET_CACHE``, ``_SUPPORT_CACHE``, ``MinusculePoset._expand_cache``)
start empty, and have no bound, so a second pass in the same process
would measure cache reads instead of work.

Every op is a public library call made from here, always looked up on
its module at call time so that a traced pass sees the wrapped object.
Outputs are checked after the timed section, against published values
or against a second, independent route.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "kjdt" / "__init__.py").is_file():
    raise SystemExit(f"kjdt sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import kjdt  # noqa: E402
from kjdt import cli, kring, poset, tableau, words  # noqa: E402

if Path(kjdt.__file__).resolve().parent != (SRC / "kjdt").resolve():
    raise SystemExit(f"imported kjdt from {kjdt.__file__}, not from {SRC}")

WORKLOADS = ("ring", "census", "words", "verify")

# Published values the outputs are checked against.  Product terms are
# signed coefficients in the structure-sheaf basis, keyed by row lengths.
REFERENCES = {
    "e6-products": {
        "poset": "e6",
        "products": [
            (("4", "4"), {(4, 4): 1, (4, 3, 1): 1, (4, 2, 2): 1, (4, 4, 1): -1, (4, 3, 2): -1}),
            (("4,4", "4"), {(4, 4, 4): 1}),
            (("4,4", "4,4"), {(4, 4, 4, 4): 1}),
        ],
        "total": 7,
    },
    "e7-products": {
        "poset": "e7",
        "products": [
            (("5", "5"), {(5, 4, 1): 2, (5, 3, 2): 2, (5, 4, 2): -3, (5, 3, 3): -1, (5, 4, 3): 1}),
            (("5,4", "5"), {(5, 5, 4): 2, (5, 5, 3, 1): 2, (5, 4, 4, 1): 1, (5, 5, 4, 1): -4}),
            (("5,4", "5,4"), {(5, 5, 5, 2, 1): 2, (5, 5, 4, 2, 1, 1): 2, (5, 5, 5, 2, 1, 1): -3}),
        ],
        "total": 25,
    },
    "c11": ("e7", ("5,1", "5,3,3", "5,5,5,2,1,1"), 11),
    # poset spec -> (certified, refuted); OG(6,12) is og:6.
    "census": {"e6": (3026, 0), "og:6": (12835, 244)},
    "verify_pass_lines": 20,
}

# ring: E7 triples are drawn from those with |nu/lam| <= this many boxes.
# Greedy cost grows by 1000x across skew sizes (0.1 ms to 0.25 s), so a
# sample of large skews would make wall_s follow the seed.
E7_TRIPLE_SKEW_MAX = 6
E7_TRIPLES = 150

# words: the criterion-12g window, and the budget of the criterion-13 sweep.
# Pieri cases and word pairs are fixed sets in seeded order: single cases
# cost from 0.01 s to 1.4 s and single pairs from 0.2 ms to 0.14 s, so a
# seeded sample would move wall_s with the seed.  Rows p = 3, 4 are
# taken over the three-row rectangles only, which keeps a pass near 3 s.
PIERI_BOX = (3, 4)
PIERI_WINDOW = (4, 8)
WORD_MAX_LEN, WORD_MAX_LETTER = 5, 4
KKNUTH_SLACK, KKNUTH_BUDGET = 3, 4000
WORD_PAIRS = 40
WORD_PAIR_SAMPLE_SEED = 0

clock = time.perf_counter


# -- independent references ----------------------------------------------

def hecke_one_line(word, size):
    """0-Hecke product of simple reflections, as a one-line list."""
    im = list(range(1, size + 1))
    for a in word:
        if im[a - 1] < im[a]:
            im[a - 1], im[a] = im[a], im[a - 1]
    return tuple(im)


def longest_monotone(word, sign):
    """Longest strictly increasing (sign 1) or decreasing (-1) subsequence."""
    best = []
    for k, x in enumerate(word):
        best.append(1 + max((best[j] for j in range(k) if sign * word[j] < sign * x), default=0))
    return max(best, default=0)


def doubled(word):
    return tuple(reversed(word)) + tuple(word)


def word_invariants(word):
    """(Hecke permutation, lis, lds) computed here, not by the library."""
    return (
        hecke_one_line(word, WORD_MAX_LETTER * 2 + 2),
        longest_monotone(word, 1),
        longest_monotone(word, -1),
    )


# -- seeded inputs -----------------------------------------------------------

def _triples(shapes, skew_max=None):
    """(lam, mu, nu) with lam, mu inside nu and |nu| >= |lam| + |mu|."""
    out = []
    for nu in shapes:
        inside = [s for s in shapes if s.mask & ~nu.mask == 0]
        for lam in inside:
            if skew_max is not None and nu.size - lam.size > skew_max:
                continue
            for mu in inside:
                if nu.size >= lam.size + mu.size:
                    out.append((lam, mu, nu))
    return out


def _partitions(rows, cols):
    out = set()
    for parts in itertools.product(range(cols + 1), repeat=rows):
        if list(parts) == sorted(parts, reverse=True):
            out.add(tuple(x for x in parts if x))
    return sorted(out)


def _word_pairs():
    """A fixed sample of pairs of distinct words with equal invariants."""
    groups: dict = {}
    for n in range(1, WORD_MAX_LEN + 1):
        for w in itertools.product(range(1, WORD_MAX_LETTER + 1), repeat=n):
            groups.setdefault(word_invariants(doubled(w)), []).append(w)
    pairs = [
        pair
        for key in sorted(groups)
        for pair in itertools.combinations(groups[key], 2)
    ]
    return random.Random(WORD_PAIR_SAMPLE_SEED).sample(pairs, WORD_PAIRS)


def make_inputs(workload, seed):
    """The inputs of one workload; the same seed gives the same inputs."""
    rng = random.Random(seed)
    if workload == "ring":
        e7, e6 = poset.freudenthal(), poset.cayley_plane()
        tables = []
        for p in (e7, e6):
            shapes = poset.enumerate_shapes(p)
            pairs = list(itertools.product(shapes, repeat=2))
            rng.shuffle(pairs)
            tables.append(pairs)
        triples = _triples(poset.enumerate_shapes(e6))
        rng.shuffle(triples)
        e7_pool = _triples(poset.enumerate_shapes(e7), E7_TRIPLE_SKEW_MAX)
        triples += rng.sample(e7_pool, E7_TRIPLES)
        spec, lits, _ = REFERENCES["c11"]
        c11 = tuple(poset.parse_poset(spec).shape(lit) for lit in lits)
        return {"tables": tables, "triples": triples, "c11": c11}
    if workload == "census":
        return {"posets": [poset.parse_poset(spec) for spec in REFERENCES["census"]]}
    if workload == "words":
        rows, cols = PIERI_BOX
        rectangles = [(c,) * rows if c else () for c in range(cols + 1)]
        cases = [(lam, p) for lam in _partitions(rows, cols) for p in (1, 2)]
        cases += [(lam, p) for lam in rectangles for p in (3, 4)]
        rng.shuffle(cases)
        pairs = _word_pairs()
        rng.shuffle(pairs)
        return {"cases": cases, "pairs": pairs}
    if workload == "verify":
        return {"argv": ["verify", "--threads", "1"]}
    raise ValueError(f"unknown workload {workload!r}")


def _describe(x):
    if isinstance(x, poset.Shape):
        return f"{x.poset.family.spec()}[{x.literal()}]"
    if isinstance(x, poset.MinusculePoset):
        return x.family.spec()
    if isinstance(x, dict):
        return "{" + ",".join(f"{k}:{_describe(v)}" for k, v in x.items()) + "}"
    if isinstance(x, (list, tuple)):
        return "(" + ",".join(_describe(v) for v in x) + ")"
    return repr(x)


def digest(inputs):
    return hashlib.sha256(_describe(inputs).encode()).hexdigest()[:16]


# -- timed sections ------------------------------------------------------

class Ops:
    """Per-op latencies, failures and three-valued verdicts of one pass."""

    def __init__(self):
        self.count = 0
        self.times: list[float] = []
        self.failed: set[int] = set()
        self.verdicts = 0
        self.inconclusive = 0

    def timed(self, fn, *args, **kwargs):
        t0 = clock()
        result = fn(*args, **kwargs)
        self.times.append(clock() - t0)
        self.count += 1
        return result, self.count - 1

    def fail(self, *ops):
        self.failed.update(ops)

    def verdict(self, v):
        self.verdicts += 1
        self.inconclusive += v.status == "inconclusive"


def run_ring(inp, ops, refs):
    products = {}
    for pairs in inp["tables"]:
        for lam, mu in pairs:
            products[lam, mu] = ops.timed(kring.basis_product, lam, mu)
    greedy = [
        (t, ops.timed(kring.structure_constant, *t)) for t in inp["triples"]
    ]
    c11_greedy = ops.timed(kring.structure_constant, *inp["c11"])
    return lambda: check_ring(products, greedy, inp["c11"], c11_greedy, ops, refs)


def check_ring(products, greedy, c11, c11_greedy, ops, refs):
    notes = {"nonzero_triples": 0, "zero_triples": 0}
    for (lam, mu, nu), (c, op) in greedy:
        coeffs, table_op = products[lam, mu]
        if coeffs.get(nu.mask, 0) != c:
            ops.fail(op, table_op)
        notes["nonzero_triples" if c else "zero_triples"] += 1
    _, _, want = refs["c11"]
    lam, mu, nu = c11
    coeffs, table_op = products[lam, mu]
    c, op = c11_greedy
    if not (c == want == coeffs.get(nu.mask, 0)):
        ops.fail(op, table_op)
    for name in ("e6-products", "e7-products"):
        ref = refs[name]
        p = poset.parse_poset(ref["poset"])
        total = 0
        table_ops = []
        for (lam_lit, mu_lit), terms in ref["products"]:
            lam, mu = p.shape(lam_lit), p.shape(mu_lit)
            coeffs, table_op = products[lam, mu]
            table_ops.append(table_op)
            total += sum(coeffs.values())
            got = {
                p.row_lengths(m): (-1) ** (m.bit_count() - lam.size - mu.size) * c
                for m, c in coeffs.items()
            }
            if got != terms:
                ops.fail(table_op)
        if total != ref["total"]:
            ops.fail(*table_ops)
    return notes


def run_census(inp, ops, refs):
    reports = [(p, tableau.urt_census(p)) for p in inp["posets"]]
    return lambda: check_census(reports, ops, refs)


def check_census(reports, ops, refs):
    notes = {}
    for p, rep in reports:
        got = (len(rep["certified"]), len(rep["refuted"]))
        first = ops.count
        ops.count += sum(got)
        want = refs["census"][p.family.spec()]
        if got != want or not rep["exhausted"]:
            ops.fail(*range(first, ops.count))
        notes[p.family.spec()] = got
    return notes


def run_words(inp, ops, refs):
    rows, cols = PIERI_WINDOW
    cases = []
    for lam, p in inp["cases"]:
        closed = ops.timed(kring.pieri_A, lam, p, rows=rows, cols=cols)
        counted = ops.timed(kring.pieri_A_by_counting, lam, p, rows, cols)
        cases.append((closed, counted))
    pairs = []
    for u, v in inp["pairs"]:
        weak = ops.timed(
            words.kknuth_equiv, u, v, slack=KKNUTH_SLACK, budget=KKNUTH_BUDGET, weak=True
        )
        dbl = ops.timed(
            words.kknuth_equiv, doubled(u), doubled(v), slack=KKNUTH_SLACK, budget=KKNUTH_BUDGET
        )
        pairs.append(((u, v), weak, (doubled(u), doubled(v)), dbl))
    return lambda: check_words(cases, pairs, ops)


def _path_ok(verdict, u, v, weak):
    path = verdict.path or []
    if not path or path[0] != u or path[-1] != v:
        return False
    return all(b in words.kknuth_basic_moves(a, weak=weak) for a, b in zip(path, path[1:]))


def _refutation_ok(verdict, u, v, weak):
    names = ("hecke", "lis", "lds")
    name = (verdict.invariant or "").split(" ")[0]
    if name not in names:
        return False
    if weak:
        u, v = doubled(u), doubled(v)
    k = names.index(name)
    return word_invariants(u)[k] != word_invariants(v)[k]


def check_words(cases, pairs, ops):
    for (closed, a), (counted, b) in cases:
        if closed != counted:
            ops.fail(a, b)
    statuses: dict[str, int] = {}
    for (u, v), (weak, a), (du, dv), (dbl, b) in pairs:
        for verdict, x, y, is_weak, op in ((weak, u, v, True, a), (dbl, du, dv, False, b)):
            ops.verdict(verdict)
            if verdict.status == "equivalent" and not _path_ok(verdict, x, y, is_weak):
                ops.fail(op)
            if verdict.status == "refuted" and not _refutation_ok(verdict, x, y, is_weak):
                ops.fail(op)
        pair = (weak.status, dbl.status)
        if "equivalent" in pair and "refuted" in pair:
            ops.fail(a, b)
        key = "/".join(pair)
        statuses[key] = statuses.get(key, 0) + 1
    return {"pair_verdicts": statuses}


def run_verify(inp, ops, refs):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(inp["argv"]))
    return lambda: check_verify(code, out.getvalue(), ops, refs)


def check_verify(code, text, ops, refs):
    want = refs["verify_pass_lines"]
    passed = sum(1 for line in text.splitlines() if line.startswith("PASS "))
    ops.count += want
    if code != 0 or passed != want:
        ops.fail(*range(min(max(want - passed, 1), want)))
    return {"exit_code": code, "pass_lines": passed}


SECTIONS = {"ring": run_ring, "census": run_census, "words": run_words, "verify": run_verify}


# -- one pass ------------------------------------------------------------

def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    k = max(0, -(-len(sorted_values) * q // 100) - 1)
    return sorted_values[int(k)]


def latency_summary(times):
    """p50 and the highest of p90/p99 leaving at least 10 samples beyond it."""
    ts = sorted(times)
    tail = next((q for q in (99, 90) if len(ts) * (100 - q) / 100 >= 10), None)
    if tail is None:
        return None
    return {
        "op_p50_ms": percentile(ts, 50) * 1e3,
        "op_tail_ms": percentile(ts, tail) * 1e3,
        "tail_percentile": tail,
        "samples": len(ts),
    }


def run_pass(workload, seed, traced=False, spawned_at=None):
    """One pass of one workload; returns its measurements as a dict."""
    inputs = make_inputs(workload, seed)
    ops = Ops()
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer().install()
    started = time.monotonic()
    t0 = clock()
    try:
        check = SECTIONS[workload](inputs, ops, REFERENCES)
        wall = clock() - t0
    finally:
        if tracer is not None:
            tracer.restore()
    notes = check()
    result = {
        "workload": workload,
        "seed": seed,
        "digest": digest(inputs),
        "traced": traced,
        "setup_s": None if spawned_at is None else started - spawned_at,
        "wall_s": wall,
        "ops": ops.count,
        "failed": len(ops.failed),
        "verdicts": ops.verdicts,
        "inconclusive": ops.inconclusive,
        "latency": latency_summary(ops.times) if workload in ("ring", "words") else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "notes": notes,
    }
    if tracer is not None:
        from tracer import layer_metrics

        result["layers"] = layer_metrics(tracer)
        result["unattributed_s"] = wall - tracer.root_time()
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description="one pass of one kjdt benchmark workload")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float,
                    help="time.monotonic() of the parent just before it started this process")
    args = ap.parse_args(argv)
    result = run_pass(args.workload, args.seed, bool(args.trace), args.spawned_at)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
