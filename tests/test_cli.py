import json
import os
import re

import pytest

from kjdt.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
    code, out, _ = run(
        capsys, "urt", "--poset", "a:3,3", "--tableau", ".,.,./.,.,2/1,3,4", "--json"
    )
    # a skew tableau is judged by uniqueness of its rectifications
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "refuted" and len(data["rectifications"]) == 2
    code, out, _ = run(capsys, "urt", "--poset", "a:2,2", "--all")
    assert code == 0 and "0 refuted" in out


def test_urt_refuted_with_witness(capsys):
    code, out, _ = run(
        capsys, "urt", "--poset", "og:6", "--tableau", "1,2,4,6/3,5", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "refuted" and "witness" in data


def test_rectify_all_and_greedy(capsys):
    code, out, _ = run(
        capsys, "rectify", "--poset", "a:3,3", "--tableau", ".,.,./.,.,2/1,3,4",
        "--all", "--json",
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
    code, out, _ = run(capsys, "word", "hecke", "--w", "1,100000")
    assert code == 0 and out.endswith(",100001,100000] length 2\n")
    code, out, _ = run(capsys, "word", "stats", "--w", "3,2,1")
    assert code == 0 and "lis 1 lds 3" in out


def test_word_equiv_budget_exit(capsys):
    code, out, _ = run(
        capsys, "word", "equiv", "--u", "1,3,1,4,2", "--v", "1,3,2,4,2",
        "--budget", "10",
    )
    assert code == 4


@pytest.mark.parametrize("command", ["rectify", "urt"])
def test_exhausted_rectification_budget_exits_4(capsys, command):
    code, out, err = run(
        capsys, command, "--poset", "a:3,3", "--tableau", ".,.,./.,.,2/1,3,4",
        "--budget", "1",
    )
    assert code == 4 and out == ""
    assert err.startswith("budget exhausted: rectify_all exceeded 1 ")


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
        (["--threads", "0", "verify", "--only", "cayley"],
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
    ],
)
def test_zero_counts_are_accepted(capsys, argv, expected):
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.strip() == expected


@pytest.mark.parametrize("value", ["0", "-1", "lots", ""])
def test_bad_budget_environment_variable(capsys, monkeypatch, value):
    monkeypatch.setenv("KJDT_BUDGET", value)
    code, out, err = run(capsys, "word", "equiv", "--u", "1,2,1", "--v", "2,1,2")
    assert code == 2 and out == ""
    assert "error: KJDT_BUDGET must be a positive integer" in err
    code, out, _ = run(
        capsys, "word", "equiv", "--u", "1,2,1", "--v", "2,1,2", "--budget", "50",
    )
    assert code == 0 and out.strip() == "equivalent"


def test_minimal_render_fixture(capsys):
    code, out, _ = run(capsys, "minimal", "--poset", "og:6", "--outer", "5,3,2")
    assert code == 0
    lines = out.rstrip("\n").splitlines()
    assert lines == ["1 2 3 4 5", "  3 4 5", "    5 6"]


def test_render_round_trip(capsys):
    lit = ".,.,.,1/.,2,4,5/3,4,5"
    code, out, _ = run(capsys, "render", "--poset", "e6", "--tableau", lit, "--json")
    assert code == 0
    data = json.loads(out)
    from kjdt.poset import cayley_plane
    from kjdt.tableau import parse_tableau, tableau_from_json

    assert tableau_from_json(data) == parse_tableau(cayley_plane(), lit)


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


def test_verify_single_fixture(capsys):
    code, out, err = run(capsys, "--threads", "1", "verify", "--only", "cayley")
    assert code == 0 and out.startswith("PASS cayley")
    assert len(out.splitlines()) == 1
    assert re.search(r"^cayley: \d+\.\d{3} s$", err, re.MULTILINE)


@pytest.mark.parametrize(
    "argv",
    [["--threads", "1", "verify"], ["verify", "--threads", "1"]],
)
def test_verify_threads_before_or_after_subcommand(argv):
    assert build_parser().parse_args(argv).threads == 1


def test_verify_threads_default_is_top_level():
    assert build_parser().parse_args(["verify"]).threads == (os.cpu_count() or 1)


def test_verify_alias(capsys):
    code, out, _ = run(capsys, "--threads", "1", "verify-paper", "--only", "dual-shape")
    assert code == 0 and "PASS" in out


def test_verify_unknown_fixture(capsys):
    code, _, err = run(capsys, "--threads", "1", "verify", "--only", "nope")
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


@pytest.mark.parametrize("exc_type", [ValueError, KeyError])
def test_internal_errors_are_not_reported_as_bad_input(monkeypatch, exc_type):
    from kjdt import cli

    def broken(args):
        raise exc_type("internal")

    monkeypatch.setattr(cli, "cmd_poset", broken)
    with pytest.raises(exc_type):
        main(["poset", "e6"])
