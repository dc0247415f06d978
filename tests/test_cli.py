"""CLI surface: argument grammar, exit codes, output determinism."""

import json

import pytest

from girthlab import cli, words
from girthlab.cli import EXIT_BUDGET, EXIT_OK, EXIT_PARAM, EXIT_VERIFY, prime_iter, run
from girthlab.exactmat import ParameterError


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
    assert data["schema_version"] == 1
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
    assert data["depth_reached"] >= 1


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


def test_spectral_subcommand(capsys):
    code, out, _ = run_capture(
        capsys, ["spectral", "--n", "2", "--l", "1", "--a", "2", "--b", "2", "--p", "5"]
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["second_eigenvalue"] < 4.0
    assert data["seed"] == 0


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


def test_verify_generation_asserted_prime(capsys):
    code, out, _ = run_capture(
        capsys,
        ["verify", "generation", "--n", "2", "--l", "1", "--a", "2", "--b", "2", "--p", "7"],
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["generated_full"] is True and data["asserted"] is True


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
    code, _, err = run_capture(
        capsys,
        ["validate", "--n", "2", "--l", "1", "--a", "2", "--b", "2", "--format", "dot"],
    )
    assert code == EXIT_PARAM
    assert "not valid" in err


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
