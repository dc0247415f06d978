"""CLI surface: argument grammar, exit codes, output determinism."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

from girthlab import cayley, cli, words
from girthlab.cli import EXIT_BUDGET, EXIT_OK, EXIT_PARAM, EXIT_VERIFY, prime_iter, run
from girthlab.exactmat import ParameterError
from girthlab.params import validate


def run_capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_subcommand(capsys):
    code, out, _ = run_capture(
        capsys, ["validate", "--n", "3", "--l", "4", "--a", "4", "--b", "2"]
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["schema_version"] == 3
    assert set(data["guarantees"]) == {"freeness", "generation", "girth-bound"}


def test_validate_rejects_bad_parameters(capsys):
    code, _, err = run_capture(
        capsys, ["validate", "--n", "1", "--l", "1", "--a", "2", "--b", "2"]
    )
    assert code == EXIT_PARAM
    assert "error" in err


def test_unknown_flag_exits_one(capsys):
    code, _, _ = run_capture(capsys, ["validate", "--frobnicate"])
    assert code == EXIT_PARAM


def test_unknown_subcommand_exits_one(capsys):
    code, _, _ = run_capture(capsys, ["no-such-command"])
    assert code == EXIT_PARAM


def test_construct_text(capsys):
    code, out, _ = run_capture(
        capsys,
        [
            "construct", "--n", "2", "--l", "1", "--a", "2", "--b", "2",
            "--p", "5", "--format", "text",
        ],
    )
    assert code == EXIT_OK
    assert "A:" in out and "X mod m" in out


def test_dg_table_csv(capsys):
    code, out, _ = run_capture(
        capsys,
        ["dg-table", "--n", "2", "--l", "1", "--a", "2", "--b", "2", "--primes", "5..50"],
    )
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "p,order,full,girth,diameter,ratio,seconds,peak_bytes"
    assert len(lines) == 1 + 13  # primes 5..47
    assert all(",true," in ln for ln in lines[1:])


def test_dg_table_byte_identical_reruns(tmp_path, capsys):
    args = [
        "dg-table", "--n", "2", "--l", "1", "--a", "2", "--b", "2",
        "--primes", "3..13",
    ]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["-o", str(f1)]) == EXIT_OK
    assert run(args + ["-o", str(f2)]) == EXIT_OK
    assert f1.read_bytes() == f2.read_bytes()


def test_bound_subcommand_prints_norm_values(capsys):
    code, out, _ = run_capture(
        capsys,
        ["bound", "--n", "3", "--l", "4", "--a", "2", "--b", "4", "--p", "101"],
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert abs(data["lambda_max"] - 704.54) < 0.01
    assert data["bound_reported"] == 3


def test_girth_subcommand(capsys):
    code, out, _ = run_capture(
        capsys, ["girth", "--n", "2", "--l", "1", "--a", "2", "--b", "2", "--p", "3"]
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["girth"] == 3
    assert data["seconds"] == 0.0


def test_girth_degenerate_prime(capsys):
    code, _, err = run_capture(
        capsys, ["girth", "--n", "2", "--l", "1", "--a", "2", "--b", "2", "--p", "2"]
    )
    assert code == EXIT_PARAM


def test_budget_exhaustion_exit_two(capsys):
    code, out, _ = run_capture(
        capsys,
        [
            "girth", "--n", "2", "--l", "1", "--a", "2", "--b", "2",
            "--p", "61", "--memory-budget", "200000",
        ],
    )
    assert code == EXIT_BUDGET
    data = json.loads(out)
    assert data["partial"] is True
    assert (data["depth_reached"], data["order_so_far"]) == (7, 4373)
    # ten times that budget holds the p^3-byte rank table: the full row
    code, out, _ = run_capture(
        capsys,
        [
            "girth", "--n", "2", "--l", "1", "--a", "2", "--b", "2",
            "--p", "61", "--memory-budget", "2000000",
        ],
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert (data["order"], data["girth"], data["diameter"], data["peak_bytes"]) == (
        226920,
        16,
        15,
        1751011,
    )


def test_memory_budget_env_default(monkeypatch, capsys):
    monkeypatch.setenv(cli.ENV_MEMORY_BUDGET, "200000")
    code, out, _ = run_capture(
        capsys, ["girth", "--n", "2", "--l", "1", "--a", "2", "--b", "2", "--p", "61"]
    )
    assert code == EXIT_BUDGET


@pytest.mark.parametrize("value", ["8GiB", "0", "-4096"])
def test_memory_budget_env_rejects_bad_value(monkeypatch, capsys, value):
    monkeypatch.setenv(cli.ENV_MEMORY_BUDGET, value)
    code, out, err = run_capture(
        capsys, ["girth", "--n", "2", "--l", "1", "--a", "2", "--b", "2", "--p", "5"]
    )
    assert code == EXIT_PARAM
    assert out == ""
    assert cli.ENV_MEMORY_BUDGET in err and value in err


@pytest.mark.parametrize("value", ["0", "-5"])
def test_memory_budget_flag_rejects_non_positive(capsys, value):
    code, out, err = run_capture(
        capsys,
        [
            "girth", "--n", "2", "--l", "1", "--a", "2", "--b", "2",
            "--p", "5", "--memory-budget", value,
        ],
    )
    assert code == EXIT_PARAM
    assert out == ""
    assert "--memory-budget" in err and value in err


def test_spectral_subcommand(capsys):
    code, out, _ = run_capture(
        capsys, ["spectral", "--n", "2", "--l", "1", "--a", "2", "--b", "2", "--p", "5"]
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["second_eigenvalue"] < 4.0
    assert data["seed"] == 0


def test_seed_is_a_spectral_option_only(capsys):
    # only spectral draws a random start vector: any other command rejects
    # --seed as an unknown flag
    spec = ["--n", "2", "--l", "1", "--a", "2", "--b", "2"]
    code, out, _ = run_capture(capsys, ["dg-table", *spec, "--primes", "5", "--seed", "1"])
    assert (code, out) == (EXIT_PARAM, "")
    code, out, _ = run_capture(capsys, ["spectral", *spec, "--p", "5", "--seed", "3"])
    assert code == EXIT_OK
    assert json.loads(out)["seed"] == 3


def test_no_command_loads_numpy_random():
    # the spectral start vectors come from a SplitMix64 stream on uint64
    # arrays, so no command imports numpy.random: spectral on the module
    # path (p = 13) and on the Cayley path (the composite 9), dg-table,
    # verify freeness and girth, in one fresh interpreter
    code = (
        "import sys\n"
        "from girthlab import cli\n"
        "spec = ['--n', '2', '--l', '1', '--a', '2', '--b', '2']\n"
        "for argv in (\n"
        "    ['spectral', *spec, '--p', '13', '--seed', '1'],\n"
        "    ['spectral', *spec, '--p', '9'],\n"
        "    ['dg-table', *spec, '--primes', '3..13'],\n"
        "    ['verify', 'freeness', *spec, '--max-length', '6'],\n"
        "    ['girth', *spec, '--p', '13'],\n"
        "):\n"
        "    assert cli.run(argv) == 0, argv\n"
        "assert 'numpy.random' not in sys.modules, 'numpy.random was imported'\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.count('"second_eigenvalue"') == 2


def test_spectral_negative_seed_exits_one_without_a_traceback(capsys):
    spec = ["--n", "2", "--l", "1", "--a", "2", "--b", "2"]
    code, out, err = run_capture(capsys, ["spectral", *spec, "--p", "5", "--seed", "-1"])
    assert (code, out) == (EXIT_PARAM, "")
    assert err == "error: seed must be >= 0, got -1\n"


def test_spectral_over_the_budget_exits_two_with_the_partial_result(capsys):
    # mod the composite 9 the Cayley path runs: the BFS of the 648 elements
    # fits 62,000 bytes; their neighbour map, 8 * 648 * (4 + max(2^2 + 4,
    # 4 + 3)) = 62,208 bytes, does not
    code, out, _ = run_capture(
        capsys,
        [
            "spectral", "--n", "2", "--l", "1", "--a", "2", "--b", "2",
            "--p", "9", "--memory-budget", "62000",
        ],
    )
    assert code == EXIT_BUDGET
    data = json.loads(out)
    assert data["partial"] is True
    assert (data["depth_reached"], data["order_so_far"]) == (8, 648)
    assert "neighbour map" in data["error"]


def test_spectral_modules_over_the_budget_exit_two_at_depth_zero(capsys):
    # at p = 5 the two modules of 24 vertices are charged 8 * 24 * (3 * 4 +
    # 14) = 4,992 bytes before anything is built
    code, out, _ = run_capture(
        capsys,
        [
            "spectral", "--n", "2", "--l", "1", "--a", "2", "--b", "2",
            "--p", "5", "--memory-budget", "4991",
        ],
    )
    assert code == EXIT_BUDGET
    data = json.loads(out)
    assert (data["partial"], data["depth_reached"], data["order_so_far"]) == (True, 0, 0)
    assert "Gelfand-Graev modules" in data["error"]


def test_help_keeps_the_command_list_on_its_own_lines(capsys):
    # the top-level description is the cli docstring with its line breaks:
    # the command list does not run into the next paragraph
    code, out, _ = run_capture(capsys, ["--help"])
    assert code == EXIT_OK
    lines = out.splitlines()
    assert "    subgroup-gens, export-dot" in lines
    assert any(line.startswith("Each command takes") for line in lines)


def test_verify_freeness_clean(capsys):
    code, out, _ = run_capture(
        capsys,
        [
            "verify", "freeness", "--n", "2", "--l", "1", "--a", "2", "--b", "2",
            "--max-length", "8",
        ],
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["violations"] == [] and data["guaranteed_free"] is True


def test_verify_freeness_unguaranteed_violations_exit_zero(capsys):
    # a = b = 1 sits outside the guaranteed domain: finding the torsion
    # relation is a successful (negative) finding, not a claim failure
    code, out, _ = run_capture(
        capsys,
        [
            "verify", "freeness", "--n", "2", "--l", "1", "--a", "1", "--b", "1",
            "--max-length", "8",
        ],
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["violations"] and data["guaranteed_free"] is False


def test_verify_freeness_budget_exit_two(capsys):
    code, out, _ = run_capture(
        capsys,
        [
            "verify", "freeness", "--n", "2", "--l", "1", "--a", "2", "--b", "2",
            "--max-length", "10", "--word-budget", "50",
        ],
    )
    assert code == EXIT_BUDGET
    assert json.loads(out)["partial"] is True


def test_verify_freeness_rejects_negative_word_budget(capsys):
    code, out, err = run_capture(
        capsys,
        [
            "verify", "freeness", "--n", "2", "--l", "1", "--a", "2", "--b", "2",
            "--max-length", "4", "--word-budget", "-1",
        ],
    )
    assert code == EXIT_PARAM
    assert out == ""
    assert "--word-budget" in err and "-1" in err


def test_identity_power_names_l(capsys):
    # l = 0 makes both generators the identity although 5 divides neither a nor b
    code, out, err = run_capture(
        capsys, ["girth", "--n", "2", "--l", "0", "--a", "2", "--b", "2", "--p", "5"]
    )
    assert code == EXIT_PARAM
    assert out == ""
    assert "l=0" in err and "a,b = 0" not in err


def test_bound_at_l_zero_is_a_parameter_error(capsys):
    # l = 0 makes both generators the identity, of norm 1, which bounds no
    # girth: an error line and EXIT_PARAM, as girth --l 0 gives, not a
    # traceback from the bound formula
    code, out, err = run_capture(
        capsys, ["bound", "--n", "2", "--l", "0", "--a", "2", "--b", "2", "--p", "13"]
    )
    assert code == EXIT_PARAM
    assert out == ""
    assert err.startswith("error: ") and "l=0" in err and "Traceback" not in err


def test_verify_generation_asserted_prime(capsys):
    code, out, _ = run_capture(
        capsys,
        ["verify", "generation", "--n", "2", "--l", "1", "--a", "2", "--b", "2", "--p", "7"],
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["generated_full"] is True and data["asserted"] is True


def test_verify_generation_never_asserts_a_composite_modulus(capsys):
    # dim2 asserts every prime not dividing a or b; 9 is not prime, so the
    # closure is reported with no expected order and no assertion
    code, out, _ = run_capture(
        capsys,
        ["verify", "generation", "--n", "2", "--l", "1", "--a", "2", "--b", "2", "--p", "9"],
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert (data["order"], data["expected_order"], data["generated_full"]) == (648, None, None)
    assert data["asserted"] is False


def test_verify_recipe_sl3(capsys):
    code, out, _ = run_capture(capsys, ["verify", "recipe", "sl3", "--a", "4", "--b", "2"])
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["closure_order"] == 5616


def test_verify_recipe_mismatch_exits_three(monkeypatch, capsys):
    # sabotage one expected matrix to exercise the failure wiring
    real = words._sl3_expected_steps

    def tampered():
        steps = real()
        label, word, _ = steps[0]
        steps[0] = (label, word, ((0, 0, 0), (0, 0, 0), (0, 0, 0)))
        return steps

    monkeypatch.setattr(words, "_sl3_expected_steps", tampered)
    code, _, err = run_capture(capsys, ["verify", "recipe", "sl3", "--a", "4", "--b", "2"])
    assert code == EXIT_VERIFY
    assert "verification failure" in err


def test_verify_lucas(capsys):
    code, out, _ = run_capture(capsys, ["verify", "lucas", "--max-alpha", "40"])
    assert code == EXIT_OK
    assert json.loads(out)["mismatches"] == []


def test_subgroup_gens(capsys):
    code, out, _ = run_capture(capsys, ["subgroup-gens", "--m", "2"])
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["rank"] == 3
    assert set(data["generators"]) == {"Y", "X^2", "X Y X^-1"}


def test_export_dot(capsys):
    code, out, _ = run_capture(
        capsys, ["export-dot", "--n", "2", "--l", "1", "--a", "2", "--b", "2", "--p", "3"]
    )
    assert code == EXIT_OK
    assert out.startswith("graph cayley {")


def test_output_to_file(tmp_path):
    path = tmp_path / "spec.json"
    code = run(
        ["validate", "--n", "2", "--l", "1", "--a", "2", "--b", "2", "-o", str(path)]
    )
    assert code == EXIT_OK
    assert json.loads(path.read_text())["regime"] == "dim2"


def test_prime_iter_ranges():
    assert prime_iter("3..20", 2, 2) == [3, 5, 7, 11, 13, 17, 19]
    assert prime_iter("2..4", 2, 2) == [3]
    assert prime_iter("3,5") == [3, 5]
    # a repeated prime is swept, and its row printed, once
    assert prime_iter("5,3,3,5") == [3, 5]
    assert prime_iter("7,7") == [7]
    with pytest.raises(ParameterError):
        prime_iter("4,6")
    with pytest.raises(ParameterError):
        prime_iter("1..5", 2, 2)


def test_prime_iter_unit_residue_filter():
    base = prime_iter("3..20", 3, 5)
    assert base == [7, 11, 13, 17, 19]  # 3 | a and 5 | b are skipped
    filtered = prime_iter("3..20", 8, 2, skip_unit_residues=True)
    assert 7 not in filtered  # 8 = 1 mod 7
    assert filtered == [3, 5, 11, 13, 17, 19]


def test_prime_iter_empty_warns(capsys):
    out = prime_iter("3..4", 3, 2)
    assert out == []
    assert "empty" in capsys.readouterr().err


def test_threads_flag_does_not_change_output(capsys):
    args = [
        "verify", "freeness", "--n", "2", "--l", "1", "--a", "1", "--b", "1",
        "--max-length", "8",
    ]
    code1, out1, _ = run_capture(capsys, args)
    code2, out2, _ = run_capture(capsys, args + ["--threads", "4"])
    assert (code1, out1) == (code2, out2)


def test_invalid_format_for_subcommand(capsys):
    # validate has no --format; construct has one, and csv is not its choice
    spec = ["--n", "2", "--l", "1", "--a", "2", "--b", "2"]
    for argv in (["validate", *spec, "--format", "dot"], ["construct", *spec, "--format", "csv"]):
        code, out, err = run_capture(capsys, argv)
        assert (code, out) == (EXIT_PARAM, ""), argv
        assert "--format" in err


def test_csv_format():
    rows = cayley.dg_table(validate(2, 1, 2, 2), [2, 3, 5])
    lines = cli._csv(rows).splitlines()
    assert lines[0] == "p,order,full,girth,diameter,ratio,seconds,peak_bytes"
    assert lines[1] == "2,,,,,,,"  # 2 divides a and b: an error row
    assert lines[2].startswith("3,24,true,3,4,1.333333,")
    assert lines[3].startswith("5,120,true,")


def test_seconds_are_zeroed_unless_timings(monkeypatch, capsys):
    stats = cayley.cayley_stats

    def timed(*args, **kwargs):
        return dataclasses.replace(stats(*args, **kwargs), seconds=1.25)

    monkeypatch.setattr(cayley, "cayley_stats", timed)
    for timings, seconds, column in (([], 0.0, "0.000"), (["--timings"], 1.25, "1.250")):
        code, out, _ = run_capture(capsys, ["girth", *_SPEC, "--p", "5", *timings])
        assert (code, json.loads(out)["seconds"]) == (EXIT_OK, seconds)
        argv = ["dg-table", *_SPEC, "--primes", "3,5", *timings]
        code, out, _ = run_capture(capsys, argv + ["--format", "json"])
        assert code == EXIT_OK
        assert [r["seconds"] for r in json.loads(out)["rows"]] == [seconds, seconds]
        code, out, _ = run_capture(capsys, argv)
        assert code == EXIT_OK
        assert [line.split(",")[6] for line in out.splitlines()[1:]] == [column, column]


def test_dg_table_json_format(capsys):
    code, out, _ = run_capture(
        capsys,
        [
            "dg-table", "--n", "2", "--l", "1", "--a", "2", "--b", "2",
            "--primes", "3..7", "--format", "json",
        ],
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert [r["m"] for r in data["rows"]] == [3, 5, 7]
    assert all(r["seconds"] == 0.0 for r in data["rows"])
    assert data["spec"]["regime"] == "dim2"


def test_construct_json(capsys):
    code, out, _ = run_capture(
        capsys, ["construct", "--n", "3", "--l", "4", "--a", "4", "--b", "2"]
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["A"] == [[1, 4, 0], [0, 1, 4], [0, 0, 1]]
    assert data["X=A^l"][0] == [1, 16, 96]


def test_spectral_code_space_over_63_bits_exits_two(capsys):
    # SL_6 mod 5: 5^36 codes exceed 2^63, so the BFS stops at depth 0 and
    # the CLI writes the partial result like girth and export-dot do
    code, out, _ = run_capture(
        capsys, ["spectral", "--n", "6", "--l", "1", "--a", "2", "--b", "2", "--p", "5"]
    )
    assert code == EXIT_BUDGET
    data = json.loads(out)
    assert data["partial"] is True
    assert data["depth_reached"] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["dg-table", "--n", "2", "--l", "1", "--a", "2", "--b", "2", "--primes", "3,x"],
        ["dg-table", "--n", "2", "--l", "1", "--a", "2", "--b", "2", "--primes", "5..x"],
        ["verify", "lucas", "--moduli", "2,y"],
    ],
    ids=["prime-list", "prime-range", "moduli"],
)
def test_malformed_integer_list_is_a_parameter_error(capsys, argv):
    code, out, err = run_capture(capsys, argv)
    assert code == EXIT_PARAM
    assert out == ""
    assert err.startswith("error: ")


def test_verify_lucas_negative_max_alpha_is_a_parameter_error(capsys):
    code, out, err = run_capture(capsys, ["verify", "lucas", "--max-alpha", "-3"])
    assert code == EXIT_PARAM
    assert out == ""
    assert "--max-alpha" in err


# a = b = 1 is outside `validate`'s domain: the graph commands measure it and
# report a spec block with no regime, q or t and no guarantees.  The outputs
# are pinned byte for byte.
_UNGUARANTEED = ["--n", "2", "--l", "1", "--a", "1", "--b", "1"]
_UNGUARANTEED_SPEC = """\
  "spec": {
    "a": 1,
    "alternative_q": [],
    "b": 1,
    "guarantees": {},
    "l": 1,
    "n": 2,
    "q": null,
    "regime": null,
    "t": null
  }"""
_UNGUARANTEED_EXACT = {
    "girth": (
        ["girth", *_UNGUARANTEED, "--p", "3"],
        """\
{
  "a": 1,
  "b": 1,
  "degree": 4,
  "dg_ratio": 1.3333333333333333,
  "diameter": 4,
  "error": null,
  "generated_full": true,
  "girth": 3,
  "l": 1,
  "m": 3,
  "n": 2,
  "order": 24,
  "peak_bytes": 1013,
  "schema_version": 3,
  "seconds": 0.0,
%s
}
"""
        % _UNGUARANTEED_SPEC,
    ),
    "dg-table": (
        ["dg-table", *_UNGUARANTEED, "--primes", "3..7"],
        """\
p,order,full,girth,diameter,ratio,seconds,peak_bytes
3,24,true,3,4,1.333333,0.000,1013
5,120,true,5,6,1.200000,0.000,3693
7,336,true,6,7,1.166667,0.000,7989
""",
    ),
    "verify-generation": (
        ["verify", "generation", *_UNGUARANTEED, "--p", "3"],
        """\
{
  "asserted": false,
  "expected_order": 24,
  "generated_full": true,
  "order": 24,
  "p": 3,
  "schema_version": 3,
%s
}
"""
        % _UNGUARANTEED_SPEC,
    ),
}


@pytest.mark.parametrize("cmd", sorted(_UNGUARANTEED_EXACT))
def test_out_of_domain_tuple_is_measured_unguaranteed(capsys, cmd):
    argv, expected = _UNGUARANTEED_EXACT[cmd]
    code, out, _ = run_capture(capsys, argv)
    assert code == EXIT_OK
    assert out == expected


_SPEC = ["--n", "2", "--l", "1", "--a", "2", "--b", "2"]


@pytest.mark.parametrize(
    "tuple_", [_SPEC, _UNGUARANTEED], ids=["in-domain", "out-of-domain"]
)
@pytest.mark.parametrize(
    "cmd,opts",
    [
        (["girth"], ["--p", "3"]),
        (["dg-table"], ["--primes", "3", "--format", "json"]),
        (["spectral"], ["--p", "3"]),
        (["verify", "freeness"], ["--max-length", "4"]),
        (["verify", "generation"], ["--p", "3"]),
    ],
    ids=["girth", "dg-table", "spectral", "verify freeness", "verify generation"],
)
def test_spec_block_has_validates_key_set(capsys, tuple_, cmd, opts):
    # one key set in every report, inside validate's domain and outside it
    code, out, _ = run_capture(capsys, ["validate", *_SPEC])
    assert code == EXIT_OK
    keys = set(json.loads(out)) - {"schema_version"}
    code, out, _ = run_capture(capsys, [*cmd, *tuple_, *opts])
    assert code == EXIT_OK
    assert set(json.loads(out)["spec"]) == keys


# In-domain reports pinned byte for byte against tests/golden/<name>: a spec
# block with its guarantees, matrices as rows, words as text, a Fraction
# ratio as a float, nested steps and rows.  The bound's floats are exact:
# gram_lambda_max checks its float in exact arithmetic.
_GOLDEN = {
    "validate.json": ["validate", "--n", "4", "--l", "10", "--a", "4", "--b", "7"],
    "construct.json": ["construct", "--n", "3", "--l", "4", "--a", "4", "--b", "2", "--p", "7"],
    "construct.txt": [
        "construct", "--n", "3", "--l", "4", "--a", "4", "--b", "2", "--p", "7",
        "--format", "text",
    ],
    "bound.json": ["bound", *_SPEC, "--p", "10007"],
    "girth.json": ["girth", *_SPEC, "--p", "13"],
    "dg-table.json": ["dg-table", *_SPEC, "--primes", "2..31", "--format", "json"],
    "verify-freeness.json": ["verify", "freeness", *_UNGUARANTEED, "--max-length", "8"],
    "verify-recipe-sl3.json": ["verify", "recipe", "sl3", "--a", "4", "--b", "2"],
    "subgroup-gens.json": ["subgroup-gens", "--m", "5"],
}


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_report_matches_its_golden_output(capsys, name):
    code, out, err = run_capture(capsys, _GOLDEN[name])
    assert (code, err) == (EXIT_OK, "")
    with open(os.path.join(os.path.dirname(__file__), "golden", name)) as fh:
        assert out == fh.read()


def test_out_of_domain_export_dot_is_pinned(capsys):
    code, out, _ = run_capture(capsys, ["export-dot", *_UNGUARANTEED, "--p", "3"])
    assert code == EXIT_OK
    lines = out.splitlines()
    assert (lines[0], lines[1], lines[-1]) == ("graph cayley {", '  v15 [label="15"];', "}")
    assert len(lines) == 2 + 24 + 48  # 24 vertices, 4-regular
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "5f0bccf25af88958760129020a34ee276c0068ffe25e1e065a4f82de350553e3"


# Floating-point fields come from numpy reductions, so they are compared to
# 1e-9 rather than by text, and a residual pinned at 0.0 to 1e-12; every
# other field is exact.  The spectral values are exact: lambda_2 = 1 + sqrt 3
# (a dense eigvalsh of the 24-vertex adjacency agrees).  The pair
# [[1, 1], [0, 1]], [[1, 0], [1, 1]] mod 3 takes the module path, and
# Lanczos finds an invariant subspace of each 8-vertex module after 5 steps,
# with top eigenvalue 1 + sqrt 3 in both, so the residuals are rounding only.
_UNGUARANTEED_FLOAT = {
    "bound": {
        "beta_max": 2.618033988740681,
        "bound_raw": 0.6851834763596081,
        "bound_reported": 3,
        "gamma": 1.6180339887470476,
        "lambda_max": 2.6180339887356197,
        "p": 3,
        "schema_version": 3,
    },
    "spectral": {
        "degree": 4,
        "gap": (3 - math.sqrt(3)) / 4,
        "iterations": 5,
        "modules": [
            {
                "iterations": 5,
                "psi": psi,
                "residual": 0.0,
                "top_eigenvalue": 1 + math.sqrt(3),
                "vertices": 8,
            }
            for psi in (1, 2)
        ],
        "order": 24,
        "p": 3,
        "residual": 0.0,
        "schema_version": 3,
        "second_eigenvalue": 1 + math.sqrt(3),
        "seed": 0,
        "spec": json.loads("{%s}" % _UNGUARANTEED_SPEC)["spec"],
        "top_eigenvalue": 4.0,
    },
}


@pytest.mark.parametrize("cmd", sorted(_UNGUARANTEED_FLOAT))
def test_out_of_domain_tuple_float_reports(capsys, cmd):
    code, out, _ = run_capture(capsys, [cmd, *_UNGUARANTEED, "--p", "3"])
    assert code == EXIT_OK
    data = json.loads(out)
    _assert_close(data, _UNGUARANTEED_FLOAT[cmd], cmd)


def _assert_close(got, want, where):
    """got == want, with the same keys in the same order, and floats to
    1e-9 (a zero to 1e-12)."""
    if isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12), where
    elif isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    else:
        assert got == want, where


def test_cli_defaults_come_from_the_parser(capsys):
    code, out, _ = run_capture(
        capsys,
        [
            "verify", "freeness", "--n", "2", "--l", "1", "--a", "2", "--b", "2",
            "--max-length", "3",
        ],
    )
    assert code == EXIT_OK
    assert json.loads(out)["budget"] == 10_000_000

    code, out, _ = run_capture(capsys, ["verify", "lucas"])
    assert code == EXIT_OK
    data = json.loads(out)
    assert (data["max_alpha"], data["moduli"]) == (200, [2, 3, 5, 7])
    assert data["checked"] == 4 * 201 * 202 // 2

    code, out, _ = run_capture(
        capsys, ["spectral", "--n", "2", "--l", "1", "--a", "2", "--b", "2", "--p", "3"]
    )
    assert code == EXIT_OK
    assert json.loads(out)["seed"] == 0


# Each leaf command, with arguments that parse, and the options beyond those
# arguments that its handler reads.  -o is on every command.
_LEAVES = {
    "validate": (["validate", *_SPEC], {"-o"}),
    "construct": (["construct", *_SPEC], {"-o", "--format"}),
    "girth": (["girth", *_SPEC, "--p", "5"], {"-o", "--memory-budget", "--timings"}),
    "diameter": (["diameter", *_SPEC, "--p", "5"], {"-o", "--memory-budget", "--timings"}),
    "dg-table": (
        ["dg-table", *_SPEC, "--primes", "5"],
        {"-o", "--memory-budget", "--timings", "--format"},
    ),
    "bound": (["bound", *_SPEC, "--p", "5"], {"-o"}),
    "spectral": (["spectral", *_SPEC, "--p", "5"], {"-o", "--memory-budget"}),
    "verify freeness": (
        ["verify", "freeness", *_SPEC, "--max-length", "2"],
        {"-o", "--threads"},
    ),
    "verify generation": (
        ["verify", "generation", *_SPEC, "--p", "5"],
        {"-o", "--memory-budget"},
    ),
    "verify recipe sl3": (
        ["verify", "recipe", "sl3", "--a", "4", "--b", "2"],
        {"-o", "--memory-budget"},
    ),
    "verify recipe qt": (
        ["verify", "recipe", "qt", "--q", "3", "--t", "1"],
        {"-o", "--memory-budget"},
    ),
    "verify lucas": (["verify", "lucas", "--max-alpha", "2"], {"-o"}),
    "subgroup-gens": (["subgroup-gens", "--m", "2"], {"-o"}),
    "export-dot": (["export-dot", *_SPEC, "--p", "3"], {"-o", "--memory-budget"}),
}
_OPTIONS = {
    "-o": ["-o", "out.json"],
    "--memory-budget": ["--memory-budget", "10000000"],
    "--threads": ["--threads", "1"],
    "--timings": ["--timings"],
    "--format": ["--format", "json"],
}
_PAIRS = [(cmd, opt) for cmd in _LEAVES for opt in _OPTIONS]


def _pairs(accepted):
    return [
        pytest.param(cmd, opt, id=f"{cmd} {opt}")
        for cmd, opt in _PAIRS
        if (opt in _LEAVES[cmd][1]) == accepted
    ]


@pytest.mark.parametrize("cmd,opt", _pairs(accepted=True))
def test_leaf_command_parses_the_options_it_reads(cmd, opt):
    argv, _ = _LEAVES[cmd]
    args = cli.build_parser().parse_args(argv + _OPTIONS[opt])
    assert callable(args.handler)


@pytest.mark.parametrize("cmd,opt", _pairs(accepted=False))
def test_removed_option_is_unrecognized(capsys, cmd, opt):
    argv, _ = _LEAVES[cmd]
    code, out, err = run_capture(capsys, argv + _OPTIONS[opt])
    assert (code, out) == (EXIT_PARAM, "")
    assert "unrecognized arguments: " + opt in err


@pytest.mark.parametrize(
    "argv,full",
    [
        (["dg-table", *_SPEC, "--p", "61"], "--primes"),
        (["verify", "freeness", *_SPEC, "--m", "3"], "--max-length"),
    ],
)
def test_option_prefix_is_not_read_as_the_option(capsys, argv, full):
    # no parser matches an option by a prefix, so the prefix leaves the
    # full option missing; given the full option too, it is unrecognized
    code, out, err = run_capture(capsys, argv)
    assert (code, out) == (EXIT_PARAM, "")
    assert "the following arguments are required: " + full in err
    code, out, err = run_capture(capsys, argv + [full, "3"])
    assert (code, out) == (EXIT_PARAM, "")
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in err


@pytest.mark.parametrize(
    "cmd", [cmd for cmd, (_, opts) in _LEAVES.items() if "--memory-budget" not in opts]
)
def test_memory_budget_env_is_read_only_by_budgeted_commands(monkeypatch, capsys, cmd):
    # a command without --memory-budget never reads GIRTHLAB_MEMORY_BUDGET
    monkeypatch.setenv(cli.ENV_MEMORY_BUDGET, "8GiB")
    code, _, err = run_capture(capsys, _LEAVES[cmd][0])
    assert (code, err) == (EXIT_OK, "")
