"""Mutation probe: does the tier-1 suite kill one-line engine mutants, and fast?

Run from anywhere, with no arguments for every mutant or with mutant names::

    python tests/mutants.py
    python tests/mutants.py census-verdict within-filter

Each mutant replaces one line of a module under ``src/kjdt``: the text
``old`` must occur exactly once in it.  The probe copies the checkout (no
``.git``) to a temporary directory, applies the mutant to the copy of
``src/`` there and runs the tier-1 suite on the copy with ``-x``, so the
first failing test ends the run; the autouse guard in ``tests/conftest.py``
ends any test that runs past 60 s.  A mutant is killed when the suite
fails within ``LIMIT`` seconds and not by the guard.  The test named for
each mutant is the one expected to kill it; another test failing first is
reported, not counted against the mutant.  The child's address space is
capped at ``MEMORY_CAP`` bytes, so a runaway search fails on memory rather
than filling the machine.  Exit status 0 when every mutant is killed.

pytest does not collect this file (its name does not start with
``test_``).  Rerun it when an engine changes.
"""
from __future__ import annotations

import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
LIMIT = 60.0
MEMORY_CAP = 2 << 30


class Mutant(NamedTuple):
    name: str
    module: str  # file under src/kjdt
    old: str
    new: str
    killer: str  # the test expected to kill it


MUTANTS = [
    Mutant(
        "within-filter", "tableau.py",
        "reverse_starts = [c for c in reverse_starts if not c & outside]",
        "reverse_starts = [c for c in reverse_starts if c & within]",
        "tests/test_tableau.py::test_bounded_closure_finds_the_e8_fails_tableaux_of_the_whole_class[row-923]",
    ),
    Mutant(
        "rectifies-to-containment", "tableau.py",
        "if target[k - 1] != m:",
        "if target[k - 1] & ~m:",
        "perfbench/test_perfbench.py::test_ring_oracles_pass_on_published_values",
    ),
    Mutant(
        "attach-lookup-key", "kring.py",
        "supports[nu & ~lam] for nu in islice(above, start, None) if nu & ~lam in supports",
        "supports[nu] for nu in islice(above, start, None) if nu in supports",
        "perfbench/test_perfbench.py::test_ring_oracles_pass_on_published_values",
    ),
    Mutant(
        "covers-from-up", "poset.py",
        "tuple(sum(1 << i for i in v) for v in down)",
        "tuple(sum(1 << i for i in v) for v in up)",
        "perfbench/test_perfbench.py::test_ring_oracles_pass_on_published_values",
    ),
    Mutant(
        "walk-depth-cut", "tableau.py",
        "if step & ~end or rest & deep[left] or rest.bit_count() < left:",
        "if step & ~end or rest & deep[left + 1] or rest.bit_count() < left:",
        "perfbench/test_perfbench.py::test_ring_oracles_pass_on_published_values",
    ),
    Mutant(
        "census-verdict", "tableau.py",
        "            status, straight = _judge(cls)",
        "            straight = _judge(cls)[1]; status = \"certified\" if cls.exhausted else \"inconclusive\"",
        "tests/test_cli.py::test_urt_census_holds_no_certified_tableaux",
    ),
    Mutant(
        "urt-rule-cut-never-refutes", "tableau.py",
        "if len(straight) > 1:",
        "if len(straight) > 1 and cls.exhausted:",
        "tests/test_cli.py::test_urt_single_and_census",
    ),
    Mutant(
        "urt-rule-needs-three", "tableau.py",
        "if len(straight) > 1:",
        "if len(straight) > 2:",
        "tests/test_cli.py::test_urt_single_and_census",
    ),
    Mutant(
        "judge-cut-expanded-only", "tableau.py",
        "straight = straight + sorted(met, key=lambda t: (t.size, t.literal()))",
        "straight = list(straight)",
        "tests/test_tableau.py::test_ambient_urt_counts_every_straight_state_of_a_cut_window[1,2,4/3/4-300-1,2,4/3,4/4-302-654]",
    ),
    Mutant(
        "judge-cut-read-below-two", "tableau.py",
        "straight = straight + sorted(met, key=lambda t: (t.size, t.literal()))",
        "straight = straight + sorted(met, key=lambda t: (t.size, t.literal())) if len(straight) < 2 else straight",
        "tests/test_tableau.py::test_urt_census_matches_the_whole_class_reference[a:3,4-24]",
    ),
    Mutant(
        "judge-expanded-resorted", "tableau.py",
        "straight = straight + sorted(met, key=lambda t: (t.size, t.literal()))",
        "straight = straight[:1] + sorted(straight[1:] + met, key=lambda t: (t.size, t.literal()))",
        "tests/test_tableau.py::test_is_urt_witness_is_the_second_straight_member_the_closure_expands",
    ),
    Mutant(
        "census-refuted-listed-twice", "tableau.py",
        "return sorted(set(refuted), key=lambda t: (t.size, t.literal()))",
        "return sorted(refuted, key=lambda t: (t.size, t.literal()))",
        "tests/test_tableau.py::test_is_urt_counts_every_straight_state_of_a_cut_closure",
    ),
    Mutant(
        "braid-move", "words.py",
        "delta = (a ^ x) * (1 | 1 << b | 1 << 2 * b)  # braid",
        "delta = (a ^ x) * (1 | 1 << b)  # braid",
        "tests/test_cli.py::test_word_commands",
    ),
    Mutant(
        "swap-first-two-flipped", "words.py",
        "elif a < c < x or x < c < a:",
        "elif not (a < c < x or x < c < a):",
        "tests/test_cli.py::test_word_equiv_json_pins_the_search_order",
    ),
    Mutant(
        "insert-shift", "words.py",
        "inserts.append(w & (1 << s + b) - 1 | w >> s << s + b)",
        "inserts.append(w & (1 << s + b) - 1 | w >> s << s + 2 * b)",
        "tests/test_cli.py::test_word_equiv_json_pins_the_search_order",
    ),
    Mutant(
        "weak-swap-one-digit", "words.py",
        "windows.append(w ^ (d | d << b))",
        "windows.append(w ^ d)",
        "tests/test_words.py::test_basic_moves_match_minmax_spelling[True]",
    ),
    Mutant(
        "bruhat-leq-bound", "words.py",
        "if excess[j] > 0:",
        "if excess[j] > 1:",
        "tests/test_words.py::test_bruhat_leq_matches_subword_definition_on_s4",
    ),
    Mutant(
        "reverse-sweep-order", "tableau.py",
        "for m in masks if forward else reversed(masks):",
        "for m in masks:",
        "perfbench/test_perfbench.py::test_ring_oracles_pass_on_published_values",
    ),
    Mutant(
        "closure-backs-swapped", "tableau.py",
        "backs[nxt] = ([holes], [])",
        "backs[nxt] = ([], [holes])",
        "tests/test_tableau.py::test_closure_never_slides_back_along_a_slide_it_made",
    ),
    Mutant(
        "closure-forward-backs-swapped", "tableau.py",
        "backs[nxt] = ([], [holes])",
        "backs[nxt] = ([holes], [])",
        "tests/test_tableau.py::test_closure_of_a_skew_seed_never_slides_back_along_a_forward_slide",
    ),
    Mutant(
        "weak-initial-swap", "words.py",
        "if d and w >> b:",
        "if not d and w >> b:",
        "tests/test_words.py::test_basic_moves_match_minmax_spelling[True]",
    ),
    Mutant(
        "greedy-tree-child", "tableau.py",
        "if top and top[0] == holes and",
        "if top and top[0] & holes and",
        "tests/test_acceptance.py::test_criterion_08_greedy_tree_slides_once_per_reverse_start_of_each_member[shifted:5-2]",
    ),
    Mutant(
        "greedy-tree-bound-strict", "tableau.py",
        "holes.bit_count() <= room:",
        "holes.bit_count() < room:",
        "perfbench/test_perfbench.py::test_ring_oracles_pass_on_published_values",
    ),
    Mutant(
        "product-factor-order", "kring.py",
        "if lam.size > mu.size:",
        "if lam.size < mu.size:",
        "perfbench/test_perfbench.py::test_ring_oracles_pass_on_published_values",
    ),
    Mutant(
        "census-reports-past-max-size", "tableau.py",
        "yield status, [t for t in straight if max_size is None or t.size <= max_size]",
        "yield status, straight",
        "tests/test_tableau.py::test_urt_census_lists_a_member_refuted_twice_once",
    ),
    Mutant(
        "census-refuted-not-remembered", "tableau.py",
        "visited.update(t.masks for t in straight)",
        "pass",
        "tests/test_tableau.py::test_urt_census_matches_the_whole_class_reference[a:3,3-None]",
    ),
    Mutant(
        "weyl-shape-reflection-first", "rootsys.py",
        "return self.weyl[shape.mask ^ 1 << last] * self.system.reflection(self.box_to_root[last])",
        "return self.system.reflection(self.box_to_root[last]) * self.weyl[shape.mask ^ 1 << last]",
        "tests/test_acceptance.py::test_criterion_10_root_system_suite",
    ),
    Mutant(
        "reflection-conjugated-on-one-side", "rootsys.py",
        "table[alpha] = s_i * table[lower] * s_i",
        "table[alpha] = table[lower] * s_i",
        "tests/test_acceptance.py::test_criterion_10_root_system_suite",
    ),
    Mutant(
        "weyl-product-any-system", "rootsys.py",
        "if other.system is not self.system:",
        "if False:",
        "tests/test_rootsys.py::test_weyl_elements_of_two_root_systems_do_not_multiply[left0-right0]",
    ),
]


def _copy_checkout(dest: Path) -> None:
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")
    shutil.copytree(ROOT, dest, ignore=ignore)


def _apply(tree: Path, mutant: Mutant) -> None:
    path = tree / "src" / "kjdt" / mutant.module
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: {mutant.old!r} occurs {text.count(mutant.old)} times")
    path.write_text(text.replace(mutant.old, mutant.new))


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def probe(mutant: Mutant) -> bool:
    """Run tier-1 on a mutated copy; print and return whether it was killed in time."""
    with tempfile.TemporaryDirectory(prefix="kjdt-mutant-") as tmp:
        tree = Path(tmp) / "repo"
        _copy_checkout(tree)
        _apply(tree, mutant)
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 "--continue-on-collection-errors"],
                cwd=tree, capture_output=True, text=True, preexec_fn=_cap_memory, timeout=LIMIT,
                env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(tree / "src"),
                     "PYTHONDONTWRITEBYTECODE": "1", "PYTHONHASHSEED": "0"},
            )
        except subprocess.TimeoutExpired:
            proc = None
        elapsed = time.perf_counter() - start
    if proc is None:
        failed, by = [], f"nothing in {LIMIT:.0f} s"
    else:
        failed = [
            line.split()[1] for line in proc.stdout.splitlines()
            if line.startswith(("FAILED ", "ERROR "))
        ]
        guard = "Timeout" in proc.stderr
        by = failed[0] if failed else ("the 60 s guard" if guard else f"exit {proc.returncode}")
    killed = bool(failed) and elapsed < LIMIT
    note = "" if by == mutant.killer else f" (expected {mutant.killer})"
    print(f"{'killed' if killed else 'SURVIVED'} {mutant.name}: {elapsed:.1f} s, by {by}{note}",
          flush=True)
    return killed


def main(names: list[str]) -> int:
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in names if n not in known]
    if unknown:
        raise SystemExit(f"unknown mutants: {', '.join(unknown)}")
    chosen = [known[n] for n in names] if names else MUTANTS
    results = [probe(m) for m in chosen]
    print(f"{sum(results)} of {len(results)} mutants killed within {LIMIT:.0f} s")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
