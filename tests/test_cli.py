import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import kjdt
from kjdt.cli import build_parser, main
from kjdt.fixtures import FIXTURES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def python(*argv):
    """Run a fresh interpreter that imports this checkout's kjdt."""
    src = str(Path(kjdt.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120
    )


def test_poset_info(capsys):
    code, out, _ = run(capsys, "poset", "e6")
    assert code == 0
    assert "16 boxes" in out and "longest chain 11" in out


def test_shapes_listing(capsys):
    code, out, _ = run(capsys, "shapes", "a:2,2")
    assert code == 0
    assert len(out.strip().splitlines()) == 6


def test_lr_e7_fixture(capsys):
    code, out, _ = run(
        capsys, "lr", "--poset", "e7", "--l", "5,1", "--m", "5,3,3",
        "--n", "5,5,5,2,1,1",
    )
    assert code == 0 and out.strip() == "11"


def test_lr_table(capsys):
    code, out, _ = run(capsys, "lr", "--poset", "e6", "--l", "2", "--m", "2")
    assert code == 0
    rows = dict(line.split("\t") for line in out.strip().splitlines())
    assert rows == {"4": "1", "3,1": "1", "4,1": "1"}


def test_lr_trivial_empty(capsys):
    code, out, _ = run(
        capsys, "lr", "--poset", "a:2,2", "--l", "", "--m", "", "--n", ""
    )
    assert code == 0 and out.strip() == "1"


def test_exit_code_refused_poset(capsys):
    code, _, err = run(capsys, "lr", "--poset", "lg:3", "--l", "1", "--m", "1")
    assert code == 3
    assert "not minuscule" in err


def test_exit_code_parse_error(capsys):
    code, _, _ = run(capsys, "poset", "bogus")
    assert code == 2
    code, _, _ = run(capsys, "lr", "--poset", "e6", "--l", "9,9", "--m", "1")
    assert code == 2


def test_urt_single_and_census(capsys):
    code, out, _ = run(capsys, "urt", "--poset", "a:3,3", "--tableau", "1,2,4/3", "--json")
    # the two rectifications of .,.,./.,.,2/1,3,4 share one class
    assert code == 0
    assert json.loads(out) == {"status": "refuted", "witness": "1,2,4/3,4"}
    code, out, _ = run(capsys, "urt", "--poset", "a:2,2", "--all")
    assert code == 0 and "0 refuted" in out


def _census_stdout(report, as_json):
    """What ``kjdt urt --all`` prints for a whole ``urt_census`` report."""
    if as_json:
        summary = {
            "poset": report["poset"],
            "certified": len(report["certified"]),
            "refuted": len(report["refuted"]),
            "all_certified": report["all_certified"],
            "exhausted": report["exhausted"],
            "refuted_tableaux": [t.literal() for t in report["refuted"]],
        }
        return json.dumps(summary, sort_keys=True) + "\n"
    lines = [
        f"census for {report['poset']}: {len(report['certified'])} certified, "
        f"{len(report['refuted'])} refuted"
    ]
    lines += [f"  not a URT: {t.literal()}" for t in report["refuted"]]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def og6_census():
    return kjdt.urt_census(kjdt.parse_poset("og:6"))


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_urt_census_prints_the_urt_census_report(capsys, og6_census, flags):
    code, out, _ = run(capsys, "urt", "--poset", "og:6", "--all", *flags)
    assert code == 0
    assert out == _census_stdout(og6_census, as_json=bool(flags))


def test_urt_census_holds_no_certified_tableaux(capsys):
    # The CLI counts certified classes and keeps only the 244 refuted
    # tableaux: a traced peak of 0.2-0.6 MB here, 3.7-5.5 MB while it kept
    # all 12,835 certified ones.
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "urt", "--poset", "og:6", "--all")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and out.startswith("census for og:6: 12835 certified, 244 refuted\n")
    assert peak < 1.5 * 2**20, peak


def test_urt_refuted_with_witness(capsys):
    code, out, _ = run(
        capsys, "urt", "--poset", "og:6", "--tableau", "1,2,4,6/3,5", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "refuted" and "witness" in data


def test_rectify_all_and_greedy(capsys):
    code, out, _ = run(
        capsys, "rectify", "--poset", "a:3,3", "--tableau", ".,.,./.,.,2/1,3,4", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert len(data) == 2
    code, out, _ = run(
        capsys, "rectify", "--poset", "a:3,3", "--tableau", ".,.,./.,.,2/1,3,4",
        "--greedy",
    )
    assert code == 0 and out.strip()


def test_class_command(capsys):
    code, out, _ = run(
        capsys, "class", "--poset", "e6", "--tableau", "1,2", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["size"] == 75 and data["straight"] == ["1,2"]


def test_word_commands(capsys):
    code, out, _ = run(capsys, "word", "equiv", "--u", "1,2,1", "--v", "2,1,2")
    assert code == 0 and out.strip() == "equivalent"
    code, out, _ = run(capsys, "word", "equiv", "--u", "1", "--v", "2")
    assert code == 0 and "refuted" in out
    code, out, _ = run(capsys, "word", "hecke", "--w", "2,1,2")
    assert code == 0 and "length 3" in out
    code, out, _ = run(capsys, "word", "hecke", "--w", "1,1000000")
    assert code == 0 and out == "(1,2)(1000000,1000001) length 2\n"
    code, out, _ = run(capsys, "word", "hecke", "--w", "2,1,2", "--json")
    assert code == 0 and json.loads(out) == {"cycles": "(1,3)", "length": 3}
    code, out, _ = run(capsys, "word", "stats", "--w", "3,2,1")
    assert code == 0 and "lis 1 lds 3" in out


def test_word_equiv_budget_exit(capsys):
    code, out, _ = run(
        capsys, "word", "equiv", "--u", "1,3,1,4,2", "--v", "1,3,2,4,2",
        "--budget", "10",
    )
    assert code == 4


def test_word_equiv_json_pins_the_search_order(capsys):
    # the documented move order fixes the words explored and the path found
    code, out, _ = run(capsys, "word", "equiv", "--u", "1,3,1,4,2", "--v", "1,3,2,4,2", "--json")
    assert code == 0
    assert out == (
        '{"explored": 211, "path": ["1,3,1,4,2", "1,3,1,4,2,2", "3,1,3,4,2,2", '
        '"3,1,3,2,4,2", "1,3,1,2,4,2", "1,1,3,2,4,2", "1,3,2,4,2"], "status": "equivalent"}\n'
    )


@pytest.mark.parametrize("command", ["rectify"])
def test_exhausted_rectification_budget_exits_4(capsys, command):
    code, out, err = run(
        capsys, command, "--poset", "a:3,3", "--tableau", ".,.,./.,.,2/1,3,4",
        "--budget", "1",
    )
    assert code == 4 and out == ""
    assert err.startswith("budget exhausted: rectify_all exceeded 1 ")


def test_urt_refuses_a_skew_tableau(capsys):
    # `kjdt rectify` lists the rectifications; `urt` asks only the URT question
    code, out, err = run(
        capsys, "urt", "--poset", "a:3,3", "--tableau", ".,.,./.,.,2/1,3,4", "--budget", "1",
    )
    assert code == 2 and out == ""
    assert err == "error: URT checks are defined for straight tableaux\n"


@pytest.mark.parametrize("budget", ["0", "-5", "ten"])
def test_budget_must_be_positive_integer(capsys, budget):
    code, _, err = run(
        capsys, "word", "equiv", "--u", "1,2,1", "--v", "2,1,2", "--budget", budget,
    )
    assert code == 2
    assert "--budget: must be a positive integer" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--threads", "0", "--only", "cayley"],
         "--threads: must be a positive integer, got '0'"),
        (["verify", "--threads", "-3", "--only", "cayley"],
         "--threads: must be a positive integer, got '-3'"),
        (["word", "equiv", "--u", "1,2,1", "--v", "2,1,2", "--slack", "-5"],
         "--slack: must be a non-negative integer, got '-5'"),
        (["urt", "--poset", "a:2,2", "--all", "--max-size", "-1"],
         "--max-size: must be a non-negative integer, got '-1'"),
        (["urt", "--poset", "grid:3,3", "--tableau", "1,2", "--pad", "-1"],
         "--pad: must be a non-negative integer, got '-1'"),
        (["urt", "--poset", "grid:3,3", "--tableau", "1,2", "--pad", "two"],
         "--pad: must be a non-negative integer, got 'two'"),
    ],
)
def test_counts_out_of_range_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["word", "equiv", "--u", "1,2,1", "--v", "2,1,2", "--slack", "0"], "equivalent"),
        (["urt", "--poset", "a:2,2", "--all", "--max-size", "0"],
         "census for a:2,2: 0 certified, 0 refuted"),
        (["urt", "--poset", "grid:3,3", "--tableau", "1,2", "--pad", "0"], "certified"),
        (["urt", "--poset", "grid:3,3", "--tableau", "", "--pad", "0"], "certified"),
        (["urt", "--poset", "shifted:3", "--tableau", "", "--pad", "0"], "certified"),
    ],
)
def test_zero_counts_are_accepted(capsys, argv, expected):
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.strip() == expected


def test_budget_default_is_the_library_default(capsys, monkeypatch):
    # --budget is the one way to set it: the environment is not read
    monkeypatch.setenv("KJDT_BUDGET", "5")
    code, out, _ = run(capsys, "class", "--poset", "e6", "--tableau", "1,2", "--json")
    assert code == 0 and json.loads(out)["budget"] == 200000
    code, out, _ = run(
        capsys, "word", "equiv", "--u", "1,2,1", "--v", "2,1,2", "--budget", "50",
    )
    assert code == 0 and out.strip() == "equivalent"


@pytest.mark.parametrize(
    "argv, message",
    [
        # argparse reads the unknown option's value as the subcommand
        (["--threads", "1", "verify", "--only", "cayley"], "argument command: invalid choice: '1'"),
        (["verify-paper", "--only", "cayley"], "invalid choice: 'verify-paper'"),
        (["rectify", "--poset", "a:3,3", "--tableau", "1,2", "--all"],
         "unrecognized arguments: --all"),
        (["lr", "--poset", "lg:3", "--l", "1", "--m", "1", "--assume-urp"],
         "unrecognized arguments: --assume-urp"),
        (["urt", "--poset", "a:2,2", "--all", "--tableau", "1,2"],
         "argument --tableau: not allowed with argument --all"),
        (["urt", "--poset", "a:2,2"], "one of the arguments --tableau --all is required"),
        (["word", "stats", "--w", "1,2", "--weak", "--budget", "5", "--slack", "9"],
         "unrecognized arguments: --weak --budget 5 --slack 9"),
        (["word", "hecke", "--w", "1,2", "--u", "1"], "unrecognized arguments: --u 1"),
        (["word", "equiv", "--u", "1,2"], "the following arguments are required: --v"),
        (["word", "stats"], "the following arguments are required: --w"),
        (["word", "--json", "hecke", "--w", "1,2"], "unrecognized arguments: --json"),
    ],
)
def test_each_setting_has_one_spelling(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err


def test_minimal_render_fixture(capsys):
    code, out, _ = run(capsys, "minimal", "--poset", "og:6", "--outer", "5,3,2")
    assert code == 0
    lines = out.rstrip("\n").splitlines()
    assert lines == ["1 2 3 4 5", "  3 4 5", "    5 6"]


def test_render_round_trip(capsys):
    lit = ".,.,.,1/.,2,4,5/3,4,5"
    code, out, _ = run(capsys, "render", "--poset", "e6", "--tableau", lit, "--json")
    assert code == 0
    assert json.loads(out) == {
        "poset": {"family": "e6", "params": []},
        "inner": [3, 1],
        "outer": [4, 4, 3],
        "rows": [[1], [2, 4, 5], [3, 4, 5]],
    }


def test_json_output_is_canonical(capsys):
    code, first, _ = run(capsys, "product", "--poset", "e6", "--l", "2", "--m", "2", "--json")
    code2, second, _ = run(capsys, "product", "--poset", "e6", "--l", "2", "--m", "2", "--json")
    assert code == code2 == 0 and first == second
    data = json.loads(first)
    assert data["terms"] == [
        {"shape": "3,1", "coeff": 1},
        {"shape": "4", "coeff": 1},
        {"shape": "4,1", "coeff": 1},
    ]


# Every fixture's line of `kjdt verify --threads 1`, as printed.  A change to
# an iteration order or a count anywhere under a fixture shows here.
VERIFY_STDOUT = """\
PASS cayley: G[2]*G[2] = {(3, 1): 1, (4,): 1, (4, 1): 1}
PASS e6-products: products match; contributing tableaux: 7 (want 7)
PASS e7-products: products match; contributing tableaux: 25 (want 25)
PASS e8-fails: c = 11 (want 11); row: 12 with the target (want 12), 10 unique (want 10); col: 12 with the target (want 12), 10 unique (want 10)
PASS non-urt-a: rectifications: [((1, 2, 4), (3,)), ((1, 2, 4), (3, 4))]
PASS non-urt-e7: slide-dependent rectification: [True, True]
PASS non-urt-b: reached via [1,4]: True; avoided via [2,2]: True; verdict: refuted
PASS slide-display: slide result .,.,.,1/2,4,5/3,5
PASS infusion-display: infusion pair and involution
PASS reading-words: 4 reading words, 1 Hecke class
PASS tableau-products: left ((1, 2, 4), (3,)), right ((1, 2, 4), (3, 4))
PASS doubling: doubled support and values
PASS pieri-b-tableau: row word (2, 3, 4, 2, 5, 5, 1, 6) accepted with range [1,6]
PASS minimal-displays: minimal and maximal skew fillings match
PASS superstandard-displays: row-wise and column-wise superstandard fillings
PASS dual-shape: dual of (4,2,1) is (4, 3, 2)
PASS mininc-urt-e6: 27 shapes, straight-member failures: []
PASS rootsys-e6: 27/27 shapes pass inversion, duality, Bruhat, orthogonality
PASS rootsys-e7: 56/56 shapes pass inversion, duality, Bruhat, orthogonality
PASS quadric-pattern: divisor action and middle squares match for n=2..5
"""


def test_verify_stdout_is_pinned(capsys):
    code, out, _ = run(capsys, "verify", "--threads", "1")
    assert code == 0
    assert out == VERIFY_STDOUT


def test_verify_single_fixture(capsys):
    code, out, err = run(capsys, "verify", "--threads", "1", "--only", "cayley")
    assert code == 0 and out.startswith("PASS cayley")
    assert len(out.splitlines()) == 1
    assert re.search(r"^cayley: \d+\.\d{3} s$", err, re.MULTILINE)


def test_verify_threads_is_an_option_of_verify():
    assert build_parser().parse_args(["verify", "--threads", "1"]).threads == 1


def test_verify_runs_fixtures_in_a_worker_pool():
    proc = python("-m", "kjdt.cli", "verify", "--threads", "2")
    assert proc.returncode == 0
    assert sorted(line.split(":")[0] for line in proc.stdout.splitlines()) == sorted(
        f"PASS {name}" for name in FIXTURES
    )


def test_importing_the_cli_does_not_import_multiprocessing():
    # every kjdt process imports the CLI; only verify's worker pool needs it
    proc = python("-c", "import kjdt.cli, sys; sys.exit('multiprocessing' in sys.modules)")
    assert proc.returncode == 0, proc.stderr


def test_verify_threads_default_is_the_core_count():
    assert build_parser().parse_args(["verify"]).threads == (os.cpu_count() or 1)


def test_verify_unknown_fixture(capsys):
    code, _, err = run(capsys, "verify", "--threads", "1", "--only", "nope")
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["word", "stats", "--w", "a"], "error: bad word entry 'a'"),
        (["word", "hecke", "--w", "1,,2"], "error: bad word entry ''"),
        (["word", "equiv", "--u", "1,2", "--v", "2;1"], "error: bad word entry '2;1'"),
        (["lr", "--poset", "e6", "--l", "a", "--m", "1"], "error: bad shape entry 'a'"),
        (["poset", "a:2"], "error: a poset takes 2 parameter(s), got 1"),
        (["poset", "og:1,2"], "error: og poset takes 1 parameter(s), got 2"),
        (["poset", "e6:1"], "error: e6 poset takes 0 parameter(s), got 1"),
        (["shapes", "grid:3"], "error: grid poset takes 2 parameter(s), got 1"),
    ],
)
def test_bad_input_exits_2_with_message(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.strip() == message


def test_oversized_poset_exits_2_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "poset", "a:100000,100000")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.strip() == "error: poset a:100000,100000 has more than 4096 boxes"


@pytest.mark.parametrize("exc_type", [ValueError, KeyError])
def test_internal_errors_are_not_reported_as_bad_input(monkeypatch, exc_type):
    from kjdt import cli

    def broken(args):
        raise exc_type("internal")

    monkeypatch.setattr(cli, "cmd_poset", broken)
    with pytest.raises(exc_type):
        main(["poset", "e6"])
