"""Span tracer for the traced benchmark pass.

The tracer wraps library functions from outside the library: every alias
of a wrapped object in the ``kjdt.*`` module namespaces is rebound to one
wrapper, methods are wrapped on their class, and ``restore`` puts every
original object back.  Untraced passes never construct a tracer.

Spans are aggregated in memory by (name, parent name), because the hot
layers see 10^5 to 10^6 calls per pass.  A span's self time is its
duration minus the time covered by its child spans.
"""
from __future__ import annotations

import sys
import time

ROOT = "<root>"

# (module, attribute path, span name).  A dotted attribute path names a
# method on a class.
SPANS = [
    ("poset", "build_poset", "poset.build_poset"),
    ("poset", "enumerate_shapes", "poset.enumerate_shapes"),
    ("poset", "MinusculePoset.expand_neighbors", "poset.expand_neighbors"),
    ("tableau", "_slide_levels", "tableau.slide"),
    ("tableau", "jdt_class", "tableau.jdt_class"),
    ("tableau", "urt_census", "tableau.urt_census"),
    ("tableau", "Tableau.from_levels", "tableau.Tableau.from_levels"),
    ("tableau", "rect_greedy", "tableau.rect_greedy"),
    ("tableau", "rectify_all", "tableau.rectify_all"),
    ("tableau", "Tableau.row_word", "tableau.Tableau.row_word"),
    ("words", "hecke_of_word", "words.hecke_of_word"),
    ("words", "kknuth_equiv", "words.kknuth_equiv"),
    ("kring", "basis_product", "kring.basis_product"),
    ("kring", "class_supports", "kring.class_supports"),
    ("kring", "structure_constant", "kring.structure_constant"),
    ("kring", "pieri_A_by_counting", "kring.pieri_A_by_counting"),
    ("kring", "pieri_A", "kring.pieri_A"),
    ("rootsys", "run_suite", "rootsys.run_suite"),
    ("rootsys", "MarkedRootData.weyl_of_shape", "rootsys.MarkedRootData.weyl_of_shape"),
    ("rootsys", "RootSystem.reflection", "rootsys.RootSystem.reflection"),
    ("rootsys", "check_inversion_sets", "rootsys.check_inversion_sets"),
    ("rootsys", "check_poincare_duality", "rootsys.check_poincare_duality"),
    ("rootsys", "check_bruhat_containment", "rootsys.check_bruhat_containment"),
    ("cli", "main", "cli.main"),
]

# Generators: only the next() calls are timed.
GENERATOR_SPANS = [
    ("tableau", "increasing_fillings", "tableau.increasing_fillings"),
    ("tableau", "packed_straight_tableaux", "tableau.packed_straight_tableaux"),
]


def _count_result(key, measure):
    def hook(extra, args, kwargs, result):
        extra[key] = extra.get(key, 0) + measure(args, kwargs, result)
    return hook


def _jdt_states(extra, args, kwargs, result):
    n = len(result.member_keys)
    extra["states"] = extra.get("states", 0) + n
    extra["states_max"] = max(extra.get("states_max", 0), n)


def _kknuth(extra, args, kwargs, result):
    extra["explored"] = extra.get("explored", 0) + result.explored
    inconclusive = result.status == "inconclusive"
    extra["inconclusive"] = extra.get("inconclusive", 0) + inconclusive


# Extra per-call measures, read from a call's arguments and result.
HOOKS = {
    "tableau.jdt_class": _jdt_states,
    "words.hecke_of_word": _count_result("letters", lambda a, k, r: len(a[0])),
    "words.kknuth_equiv": _kknuth,
    "kring.structure_constant": _count_result("accepted", lambda a, k, r: r),
    "kring.pieri_A_by_counting": _count_result(
        "accepted", lambda a, k, r: sum(r.coeffs.values())
    ),
}


def kjdt_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "kjdt" or n.startswith("kjdt.")]


class Tracer:
    """Wraps the listed library functions and aggregates their spans."""

    def __init__(self):
        self.stats: dict[tuple[str, str], list] = {}  # -> [calls, total_s, self_s]
        self.extra: dict[str, dict[str, int]] = {}
        self._names = [ROOT]
        self._child = [0.0]
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------

    def _enter(self, name):
        parent = self._names[-1]
        self._names.append(name)
        self._child.append(0.0)
        return parent

    def _leave(self, name, parent, dt):
        self._names.pop()
        inner = self._child.pop()
        self._child[-1] += dt
        rec = self.stats.get((name, parent))
        if rec is None:
            rec = self.stats[(name, parent)] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - inner

    def _wrap(self, name, fn):
        extra = self.extra.setdefault(name, {})
        hook = HOOKS.get(name)
        enter, leave, clock = self._enter, self._leave, time.perf_counter

        def traced(*args, **kwargs):
            parent = enter(name)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(name, parent, clock() - t0)
            if hook is not None:
                hook(extra, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name, fn):
        extra = self.extra.setdefault(name, {})
        tracer = self

        def traced(*args, **kwargs):
            extra["calls"] = extra.get("calls", 0) + 1
            return _TimedIterator(tracer, name, extra, fn(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------

    def install(self):
        """Wrap every listed function; call ``restore`` afterwards."""
        from kjdt import fixtures

        modules = kjdt_modules()
        for mod_name, attr, name in SPANS:
            self._patch(modules, mod_name, attr, self._wrap, name)
        for mod_name, attr, name in GENERATOR_SPANS:
            self._patch(modules, mod_name, attr, self._wrap_generator, name)
        for fixture, fn in list(fixtures.FIXTURES.items()):
            wrapped = self._wrap(f"fixtures.{fixture}", fn)
            self._rebind(modules, fn, wrapped)
            self._patches.append(("item", fixtures.FIXTURES, fixture, fn))
            fixtures.FIXTURES[fixture] = wrapped
        return self

    def _patch(self, modules, mod_name, attr, wrap, name):
        module = sys.modules[f"kjdt.{mod_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            if isinstance(original, classmethod):
                wrapped = classmethod(wrap(name, original.__func__))
            else:
                wrapped = wrap(name, original)
            self._patches.append(("attr", cls, meth, original))
            setattr(cls, meth, wrapped)
            return
        original = getattr(module, attr)
        self._rebind(modules, original, wrap(name, original))

    def _rebind(self, modules, original, wrapped):
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append(("attr", module, key, original))
                    setattr(module, key, wrapped)

    def restore(self):
        for kind, owner, key, original in reversed(self._patches):
            if kind == "item":
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    # -- results -------------------------------------------------------

    def totals(self, name):
        """(calls, self_s) of a span name over all its parents."""
        calls = self_s = 0
        for (n, _), (c, _, s) in self.stats.items():
            if n == name:
                calls += c
                self_s += s
        return calls, self_s

    def calls_under(self, name, parent):
        rec = self.stats.get((name, parent))
        return rec[0] if rec else 0

    def yielded_under(self, name, parent):
        """Values a generator span yielded to calls made under ``parent``."""
        rec = self.stats.get((name, parent))
        stops = self.extra.get(name, {}).get(("stops", parent), 0)
        return rec[0] - stops if rec else 0

    def root_time(self):
        return sum(t for (_, parent), (_, t, _) in self.stats.items() if parent == ROOT)


class _TimedIterator:
    """Iterator wrapper that records each next() call as one span."""

    __slots__ = ("_tracer", "_name", "_extra", "_it")

    def __init__(self, tracer, name, extra, it):
        self._tracer, self._name, self._extra, self._it = tracer, name, extra, it

    def __iter__(self):
        return self

    def __next__(self):
        tracer, name = self._tracer, self._name
        parent = tracer._enter(name)
        t0 = time.perf_counter()
        try:
            return next(self._it)
        except StopIteration:
            key = ("stops", parent)
            self._extra[key] = self._extra.get(key, 0) + 1
            raise
        finally:
            tracer._leave(name, parent, time.perf_counter() - t0)


# The fixtures `kjdt verify` runs, one self-time metric each.
FIXTURE_NAMES = (
    "cayley", "e6-products", "e7-products", "e8-fails", "non-urt-a",
    "non-urt-e7", "non-urt-b", "slide-display", "infusion-display",
    "reading-words", "tableau-products", "doubling", "pieri-b-tableau",
    "minimal-displays", "superstandard-displays", "dual-shape",
    "mininc-urt-e6", "rootsys-e6", "rootsys-e7", "quadric-pattern",
)

# Span name -> the plain measures reported for it.
LAYER_SPANS = [
    ("poset.build_poset", ("calls", "self_s")),
    ("poset.enumerate_shapes", ("self_s",)),
    ("poset.expand_neighbors", ("calls", "self_s")),
    ("tableau.slide", ("calls", "self_s")),
    ("tableau.jdt_class", ("calls", "self_s")),
    ("tableau.urt_census", ("self_s",)),
    ("tableau.packed_straight_tableaux", ("self_s",)),
    ("tableau.Tableau.from_levels", ("calls", "self_s")),
    ("tableau.rect_greedy", ("calls", "self_s")),
    ("tableau.rectify_all", ("calls", "self_s")),
    ("tableau.increasing_fillings", ("calls", "self_s")),
    ("tableau.Tableau.row_word", ("calls", "self_s")),
    ("words.hecke_of_word", ("calls", "self_s")),
    ("words.kknuth_equiv", ("calls", "self_s")),
    ("kring.basis_product", ("calls", "self_s")),
    ("kring.class_supports", ("calls", "self_s")),
    ("kring.structure_constant", ("calls", "self_s")),
    ("kring.pieri_A_by_counting", ("calls", "self_s")),
    ("kring.pieri_A", ("self_s",)),
    ("rootsys.run_suite", ("self_s",)),
    ("rootsys.MarkedRootData.weyl_of_shape", ("calls", "self_s")),
    ("rootsys.RootSystem.reflection", ("calls", "self_s")),
    ("rootsys.check_inversion_sets", ("self_s",)),
    ("rootsys.check_poincare_duality", ("self_s",)),
    ("rootsys.check_bruhat_containment", ("self_s",)),
    *((f"fixtures.{name}", ("self_s",)) for name in FIXTURE_NAMES),
    ("cli.main", ("self_s",)),
]

GENERATORS = {name for _, _, name in GENERATOR_SPANS}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}
    for span, measures in LAYER_SPANS:
        calls, self_s = tr.totals(span)
        if span in GENERATORS:
            calls = tr.extra.get(span, {}).get("calls", 0)
        if "calls" in measures:
            out[f"{span}.calls"] = (calls, "count")
        out[f"{span}.self_s"] = (self_s, "s")

    def extra(span, key):
        return tr.extra.get(span, {}).get(key, 0)

    def yielded(span, parent=None):
        parents = {p for (n, p) in tr.stats if n == span} if parent is None else {parent}
        return sum(tr.yielded_under(span, p) for p in parents)

    jdt_calls = tr.totals("tableau.jdt_class")[0]
    states = extra("tableau.jdt_class", "states")
    out["tableau.jdt_class.states"] = (states, "count")
    out["tableau.jdt_class.states_max"] = (extra("tableau.jdt_class", "states_max"), "count")
    out["tableau.jdt_class.new_per_slide"] = (
        _ratio(states - jdt_calls, tr.calls_under("tableau.slide", "tableau.jdt_class")),
        "ratio",
    )
    out["tableau.packed_straight_tableaux.yielded"] = (
        yielded("tableau.packed_straight_tableaux"), "count")
    out["tableau.increasing_fillings.yielded"] = (yielded("tableau.increasing_fillings"), "count")
    out["words.hecke_of_word.letters"] = (extra("words.hecke_of_word", "letters"), "count")
    out["words.kknuth_equiv.explored"] = (extra("words.kknuth_equiv", "explored"), "count")
    out["words.kknuth_equiv.inconclusive"] = (extra("words.kknuth_equiv", "inconclusive"), "count")
    out["kring.class_supports.misses"] = (
        tr.calls_under("tableau.jdt_class", "kring.class_supports"), "count")
    for span in ("kring.structure_constant", "kring.pieri_A_by_counting"):
        out[f"{span}.accept_ratio"] = (
            _ratio(extra(span, "accepted"), yielded("tableau.increasing_fillings", span)),
            "ratio",
        )
    return out
