"""Command-line surface for posets, products, classes, and verification.

Exit codes: 0 ok, 1 fixture mismatch, 2 bad input, 3 refused poset,
4 budget exhausted.  Only library errors (``KjdtError``) become exit
codes; any other exception is a bug and propagates.  The environment
variable ``KJDT_BUDGET`` sets the default node budget for bounded
searches.  All long-running enumerations report progress on standard
error only.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from multiprocessing import Pool

from .errors import BudgetExceeded, KjdtError, NonMinusculePoset, PosetError
from .kring import (
    GammaElement,
    SignedKElement,
    basis_product,
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
    urt_census,
)
from .words import kknuth_equiv, hecke_of_word, lds, lis

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_REFUSED = 3
EXIT_BUDGET = 4


def _positive_int(text: str) -> int:
    """Argument type of ``--budget`` and ``--threads``: a positive integer."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _non_negative_int(text: str) -> int:
    """Argument type of ``--slack``, ``--pad`` and ``--max-size``: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}"
        )
    return value


def _budget(args) -> int:
    """``--budget`` if given, else ``KJDT_BUDGET``, else ``DEFAULT_BUDGET``."""
    if args.budget is not None:
        return args.budget
    text = os.environ.get("KJDT_BUDGET")
    if text is None:
        return DEFAULT_BUDGET
    try:
        return _positive_int(text)
    except argparse.ArgumentTypeError:
        raise KjdtError("KJDT_BUDGET must be a positive integer") from None


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
        c = structure_constant(lam, mu, nu, assume_urp=args.assume_urp)
        _emit({"l": lam.literal(), "m": mu.literal(), "n": nu.literal(), "c": c},
              args.json, str(c))
        return EXIT_OK
    coeffs = basis_product(lam, mu, assume_urp=args.assume_urp)
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
    from .kring import multiply

    out = multiply(a, b, assume_urp=args.assume_urp)
    if args.assume_urp and not poset.is_minuscule:
        _progress("warning: non-minuscule poset, output unverified")
    _emit(out.to_json(), args.json, out.render())
    return EXIT_OK


def cmd_urt(args) -> int:
    poset = parse_poset(args.poset)
    budget = _budget(args)
    if args.all:
        report = urt_census(poset, max_size=args.max_size, budget=budget)
        summary = {
            "poset": report["poset"],
            "certified": len(report["certified"]),
            "refuted": len(report["refuted"]),
            "all_certified": report["all_certified"],
            "exhausted": report["exhausted"],
        }
        if args.json:
            summary["refuted_tableaux"] = [t.literal() for t in report["refuted"]]
            _emit(summary, True)
        else:
            print(f"census for {report['poset']}: {summary['certified']} certified, "
                  f"{summary['refuted']} refuted")
            for t in report["refuted"]:
                print(f"  not a URT: {t.literal()}")
        if not report["exhausted"]:
            return EXIT_BUDGET
        return EXIT_OK
    if args.tableau is None:
        _progress("urt needs --tableau or --all")
        return EXIT_PARSE
    tab = parse_tableau(poset, args.tableau)
    if not tab.is_straight:
        # skew input: report whether the rectification is unique instead
        rects = sorted(rectify_all(tab, budget=budget), key=lambda t: t.values)
        status = "certified" if len(rects) == 1 else "refuted"
        data = {
            "status": status,
            "rectifications": [t.literal() for t in rects],
        }
        _emit(data, args.json,
              f"{status} (rectifications: {', '.join(data['rectifications'])})")
        return EXIT_OK
    verdict = is_urt(tab, pad=args.pad, budget=budget)
    data = {"status": verdict.status}
    if verdict.witness is not None:
        data["witness"] = verdict.witness.literal()
    _emit(data, args.json,
          verdict.status + (f" (witness {data.get('witness')})" if "witness" in data else ""))
    return EXIT_OK if verdict.status != "inconclusive" else EXIT_BUDGET


def cmd_rectify(args) -> int:
    poset = parse_poset(args.poset)
    tab = parse_tableau(poset, args.tableau)
    budget = _budget(args)
    if args.greedy:
        out = rect_greedy(tab)
        _emit(tableau_to_json(out), args.json, out.render())
        return EXIT_OK
    rects = rectify_all(tab, budget=budget)
    data = [tableau_to_json(t) for t in sorted(rects, key=lambda t: t.values)]
    if args.json:
        _emit(data, True)
    else:
        for t in sorted(rects, key=lambda t: t.values):
            print(t.render())
            print()
        print(f"rectifications: {len(rects)}", file=sys.stderr)
    return EXIT_OK


def cmd_class(args) -> int:
    poset = parse_poset(args.poset)
    tab = parse_tableau(poset, args.tableau)
    budget = _budget(args)
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


def cmd_word(args) -> int:
    if args.action == "equiv":
        if args.u is None or args.v is None:
            _progress("word equiv needs --u and --v")
            return EXIT_PARSE
        budget = _budget(args)
        verdict = kknuth_equiv(
            _parse_word(args.u), _parse_word(args.v),
            slack=args.slack, budget=budget, weak=args.weak,
        )
        data = {"status": verdict.status, "explored": verdict.explored}
        if verdict.invariant:
            data["invariant"] = verdict.invariant
        if verdict.path and args.json:
            data["path"] = [",".join(map(str, w)) for w in verdict.path]
        _emit(data, args.json, verdict.status
              + (f" (invariant {verdict.invariant})" if verdict.invariant else ""))
        return EXIT_OK if verdict.status != "inconclusive" else EXIT_BUDGET
    if args.action in {"hecke", "stats"} and args.w is None:
        _progress(f"word {args.action} needs --w")
        return EXIT_PARSE
    if args.action == "hecke":
        w = hecke_of_word(_parse_word(args.w))
        one_line, length = w.one_line(), w.length()
        _emit({"one_line": one_line, "length": length}, args.json,
              f"{one_line} length {length}")
        return EXIT_OK
    if args.action == "stats":
        word = _parse_word(args.w)
        _emit({"lis": lis(word), "lds": lds(word)}, args.json,
              f"lis {lis(word)} lds {lds(word)}")
        return EXIT_OK
    raise PosetError(f"unknown word action {args.action!r}")


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
    parser.add_argument("--threads", type=_positive_int, default=os.cpu_count() or 1,
                        help="worker processes for sweep commands")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
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
    p.add_argument("--assume-urp", action="store_true")

    p = add("product", cmd_product, help="basis products")
    p.add_argument("--poset", required=True)
    p.add_argument("--l", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--signed", action="store_true",
                   help="structure-sheaf basis with alternating signs")
    p.add_argument("--assume-urp", action="store_true")

    p = add("urt", cmd_urt, help="unique rectification target checks")
    p.add_argument("--poset", required=True)
    p.add_argument("--tableau")
    p.add_argument("--all", action="store_true")
    p.add_argument("--max-size", type=_non_negative_int)
    p.add_argument("--pad", type=_non_negative_int, default=2)
    p.add_argument("--budget", type=_positive_int)

    p = add("rectify", cmd_rectify, help="rectification")
    p.add_argument("--poset", required=True)
    p.add_argument("--tableau", required=True)
    p.add_argument("--all", action="store_true")
    p.add_argument("--greedy", action="store_true")
    p.add_argument("--budget", type=_positive_int)

    p = add("class", cmd_class, help="jeu de taquin class")
    p.add_argument("--poset", required=True)
    p.add_argument("--tableau", required=True)
    p.add_argument("--budget", type=_positive_int)

    p = add("word", cmd_word, help="word operations")
    p.add_argument("action", choices=["equiv", "hecke", "stats"])
    p.add_argument("--u")
    p.add_argument("--v")
    p.add_argument("--w")
    p.add_argument("--weak", action="store_true")
    p.add_argument("--slack", type=_non_negative_int, default=3)
    p.add_argument("--budget", type=_positive_int)

    p = add("minimal", cmd_minimal, help="minimal increasing tableau")
    p.add_argument("--poset", required=True)
    p.add_argument("--outer", required=True)
    p.add_argument("--inner")

    p = add("render", cmd_render, help="render a tableau literal")
    p.add_argument("--poset", required=True)
    p.add_argument("--tableau", required=True)

    p = add("verify", cmd_verify, aliases=["verify-paper"],
            help="run the reference fixture suite")
    p.add_argument("--only")
    # SUPPRESS keeps a top-level --threads given before the subcommand.
    p.add_argument("--threads", type=_positive_int, default=argparse.SUPPRESS)
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
