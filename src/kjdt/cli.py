"""Command-line surface for posets, products, classes, and verification.

Exit codes: 0 ok, 1 fixture mismatch, 2 bad input, 3 refused poset,
4 budget exhausted.  Only library errors (``KjdtError``) become exit
codes; any other exception is a bug and propagates.  Bounded searches
take ``--budget``, ``DEFAULT_BUDGET`` when it is not given.  All
long-running enumerations report progress on standard error only.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import BudgetExceeded, KjdtError, NonMinusculePoset
from .kring import (
    GammaElement,
    SignedKElement,
    basis_product,
    multiply,
    structure_constant,
)
from .poset import SkewShape, enumerate_shapes, parse_entry, parse_poset
from .tableau import (
    DEFAULT_BUDGET,
    is_urt,
    jdt_class,
    minimal_tableau,
    parse_tableau,
    rect_greedy,
    rectify_all,
    tableau_to_json,
    _census_classes,
    _census_refuted,
)
from .words import kknuth_equiv, hecke_of_word, lds, lis

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_REFUSED = 3
EXIT_BUDGET = 4


def _int_at_least(low: int):
    """Argument type of an integer that is at least ``low`` (0 or 1)."""
    kind = "positive" if low == 1 else "non-negative"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {text!r}")
        return value

    return parse


_positive_int = _int_at_least(1)  # --budget, --threads
_non_negative_int = _int_at_least(0)  # --slack, --pad, --max-size


def _progress(msg: str):
    print(msg, file=sys.stderr, flush=True)


def _parse_word(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(parse_entry(t, "word") for t in text.split(","))


def _emit(data, as_json: bool, text: str | None = None):
    if as_json:
        print(json.dumps(data, sort_keys=True))
    else:
        print(text if text is not None else data)


def cmd_poset(args) -> int:
    poset = parse_poset(args.poset)
    data = poset.to_json()
    data["boxes"] = poset.n
    data["longest_chain"] = max(poset.heights, default=0)
    data["minuscule"] = poset.is_minuscule
    if args.json:
        _emit(data, True)
    else:
        print(f"{poset.family.spec()}: {poset.n} boxes, "
              f"longest chain {data['longest_chain']}, "
              f"minuscule: {poset.is_minuscule}")
    return EXIT_OK


def cmd_shapes(args) -> int:
    poset = parse_poset(args.poset)
    shapes = enumerate_shapes(poset)
    if args.json:
        _emit([s.literal() for s in shapes], True)
    else:
        for s in shapes:
            print(s.literal() or "(empty)")
        print(f"total: {len(shapes)}", file=sys.stderr)
    return EXIT_OK


def cmd_lr(args) -> int:
    poset = parse_poset(args.poset)
    lam = poset.shape(args.l)
    mu = poset.shape(args.m)
    if args.n is not None:
        nu = poset.shape(args.n)
        c = structure_constant(lam, mu, nu)
        _emit({"l": lam.literal(), "m": mu.literal(), "n": nu.literal(), "c": c},
              args.json, str(c))
        return EXIT_OK
    coeffs = basis_product(lam, mu)
    rows = sorted(
        ((poset.row_lengths(m), c) for m, c in coeffs.items()),
        key=lambda t: (sum(t[0]), t[0]),
    )
    if args.json:
        _emit([{"n": ",".join(map(str, n)), "c": c} for n, c in rows], True)
    else:
        for n, c in rows:
            print(f"{','.join(map(str, n)) or '(empty)'}\t{c}")
    return EXIT_OK


def cmd_product(args) -> int:
    poset = parse_poset(args.poset)
    lam = poset.shape(args.l)
    mu = poset.shape(args.m)
    if args.signed:
        a = SignedKElement(poset, {lam.mask: 1})
        b = SignedKElement(poset, {mu.mask: 1})
    else:
        a = GammaElement.basis(lam)
        b = GammaElement.basis(mu)
    out = multiply(a, b)
    _emit(out.to_json(), args.json, out.render())
    return EXIT_OK


def cmd_urt(args) -> int:
    poset = parse_poset(args.poset)
    budget = args.budget
    if args.all:
        # certified classes are counted, not kept: a long census holds only the refuted
        certified, refuted, exhausted = 0, [], True
        for status, members in _census_classes(poset, args.max_size, budget):
            if status == "certified":
                certified += len(members)
            elif status == "refuted":
                refuted.extend(members)
            else:
                exhausted = False
        refuted = _census_refuted(refuted)
        summary = {
            "poset": poset.family.spec(),
            "certified": certified,
            "refuted": len(refuted),
            "all_certified": exhausted and not refuted,
            "exhausted": exhausted,
        }
        if args.json:
            summary["refuted_tableaux"] = [t.literal() for t in refuted]
            _emit(summary, True)
        else:
            print(f"census for {summary['poset']}: {certified} certified, {len(refuted)} refuted")
            for t in refuted:
                print(f"  not a URT: {t.literal()}")
        return EXIT_OK if exhausted else EXIT_BUDGET
    verdict = is_urt(parse_tableau(poset, args.tableau), pad=args.pad, budget=budget)
    data = {"status": verdict.status}
    if verdict.witness is not None:
        data["witness"] = verdict.witness.literal()
    _emit(data, args.json,
          verdict.status + (f" (witness {data.get('witness')})" if "witness" in data else ""))
    return EXIT_OK if verdict.status != "inconclusive" else EXIT_BUDGET


def cmd_rectify(args) -> int:
    poset = parse_poset(args.poset)
    tab = parse_tableau(poset, args.tableau)
    if args.greedy:
        out = rect_greedy(tab)
        _emit(tableau_to_json(out), args.json, out.render())
        return EXIT_OK
    rects = sorted(rectify_all(tab, budget=args.budget), key=lambda t: t.values)
    if args.json:
        _emit([tableau_to_json(t) for t in rects], True)
    else:
        for t in rects:
            print(t.render())
            print()
        print(f"rectifications: {len(rects)}", file=sys.stderr)
    return EXIT_OK


def cmd_class(args) -> int:
    poset = parse_poset(args.poset)
    tab = parse_tableau(poset, args.tableau)
    budget = args.budget
    cls = jdt_class(tab, budget=budget)
    data = {
        "size": cls.size,
        "straight": [t.literal() for t in cls.straight],
        "exhausted": cls.exhausted,
        "budget": budget,
    }
    _emit(data, args.json,
          f"class size {cls.size} (budget {budget}, exhausted: {cls.exhausted}); "
          f"straight members: {data['straight']}")
    return EXIT_OK if cls.exhausted else EXIT_BUDGET


def cmd_word_equiv(args) -> int:
    verdict = kknuth_equiv(
        _parse_word(args.u), _parse_word(args.v),
        slack=args.slack, budget=args.budget, weak=args.weak,
    )
    data = {"status": verdict.status, "explored": verdict.explored}
    if verdict.invariant:
        data["invariant"] = verdict.invariant
    if verdict.path and args.json:
        data["path"] = [",".join(map(str, w)) for w in verdict.path]
    _emit(data, args.json, verdict.status
          + (f" (invariant {verdict.invariant})" if verdict.invariant else ""))
    return EXIT_OK if verdict.status != "inconclusive" else EXIT_BUDGET


def cmd_word_hecke(args) -> int:
    w = hecke_of_word(_parse_word(args.w))
    cycles, length = w.cycles(), w.length()
    _emit({"cycles": cycles, "length": length}, args.json,
          f"{cycles} length {length}")
    return EXIT_OK


def cmd_word_stats(args) -> int:
    word = _parse_word(args.w)
    _emit({"lis": lis(word), "lds": lds(word)}, args.json,
          f"lis {lis(word)} lds {lds(word)}")
    return EXIT_OK


def cmd_minimal(args) -> int:
    poset = parse_poset(args.poset)
    outer = poset.shape(args.outer)
    inner = poset.shape(args.inner) if args.inner else poset.empty_shape()
    tab = minimal_tableau(SkewShape(outer, inner))
    _emit(tableau_to_json(tab), args.json, tab.render())
    return EXIT_OK


def cmd_render(args) -> int:
    poset = parse_poset(args.poset)
    tab = parse_tableau(poset, args.tableau)
    if args.json:
        _emit(tableau_to_json(tab), True)
    else:
        print(tab.render())
    return EXIT_OK


def cmd_verify(args) -> int:
    from .fixtures import FIXTURES, run_fixture

    names = [args.only] if args.only else list(FIXTURES)
    for name in names:
        if name not in FIXTURES:
            _progress(f"unknown fixture {name!r}; known: {', '.join(FIXTURES)}")
            return EXIT_PARSE
    failures = 0
    workers = min(args.threads, len(names))
    if workers > 1:
        from multiprocessing import Pool  # imported at the top it slows every start
        with Pool(workers) as pool:
            results = pool.map(run_fixture, names)
    else:
        results = []
        for name in names:
            _progress(f"running {name} ...")
            results.append(run_fixture(name))
    for name, ok, detail, seconds in results:
        _progress(f"{name}: {seconds:.3f} s")
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += not ok
    return EXIT_OK if failures == 0 else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kjdt",
        description="K-theoretic jeu de taquin on minuscule posets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, into=sub, **kwargs):
        p = into.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="emit JSON")
        return p

    p = add("poset", cmd_poset, help="describe a poset")
    p.add_argument("poset")

    p = add("shapes", cmd_shapes, help="list straight shapes")
    p.add_argument("poset")

    p = add("lr", cmd_lr, help="structure constants")
    p.add_argument("--poset", required=True)
    p.add_argument("--l", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--n")

    p = add("product", cmd_product, help="basis products")
    p.add_argument("--poset", required=True)
    p.add_argument("--l", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--signed", action="store_true",
                   help="structure-sheaf basis with alternating signs")

    p = add("urt", cmd_urt, help="unique rectification target checks")
    p.add_argument("--poset", required=True)
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--tableau")
    which.add_argument("--all", action="store_true")
    p.add_argument("--max-size", type=_non_negative_int)
    p.add_argument("--pad", type=_non_negative_int, default=2)
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)

    p = add("rectify", cmd_rectify, help="rectification")
    p.add_argument("--poset", required=True)
    p.add_argument("--tableau", required=True)
    p.add_argument("--greedy", action="store_true",
                   help="only the greedy rectification, not every one")
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)

    p = add("class", cmd_class, help="jeu de taquin class")
    p.add_argument("--poset", required=True)
    p.add_argument("--tableau", required=True)
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)

    actions = sub.add_parser("word", help="word operations").add_subparsers(
        dest="action", required=True
    )
    p = add("equiv", cmd_word_equiv, actions, help="K-Knuth equivalence of two words")
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--weak", action="store_true")
    p.add_argument("--slack", type=_non_negative_int, default=3)
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)
    p = add("hecke", cmd_word_hecke, actions, help="Hecke permutation of a word")
    p.add_argument("--w", required=True)
    p = add("stats", cmd_word_stats, actions, help="longest monotone subsequences")
    p.add_argument("--w", required=True)

    p = add("minimal", cmd_minimal, help="minimal increasing tableau")
    p.add_argument("--poset", required=True)
    p.add_argument("--outer", required=True)
    p.add_argument("--inner")

    p = add("render", cmd_render, help="render a tableau literal")
    p.add_argument("--poset", required=True)
    p.add_argument("--tableau", required=True)

    p = add("verify", cmd_verify, help="run the reference fixture suite")
    p.add_argument("--only")
    p.add_argument("--threads", type=_positive_int, default=os.cpu_count() or 1,
                   help="worker processes")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except NonMinusculePoset as exc:
        _progress(f"refused: {exc}")
        return EXIT_REFUSED
    except BudgetExceeded as exc:
        _progress(f"budget exhausted: {exc}")
        return EXIT_BUDGET
    except KjdtError as exc:
        _progress(f"error: {exc}")
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
