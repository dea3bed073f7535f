import time
from pathlib import Path

import pytest

from galcq import parse_classical
from galcq.cli import run

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def _write(tmp_path, text, name="onto.sexp"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_check_consistent(tmp_path, capsys):
    path = _write(tmp_path, "(assert (inst a (and A (not A))) >= 0.5)")
    assert run(["check", path]) == 0
    assert capsys.readouterr().out.strip() == "CONSISTENT"


def test_check_inconsistent(tmp_path, capsys):
    path = _write(tmp_path, "(assert (inst a (and A (not A))) >= 0.6)")
    assert run(["check", path]) == 1
    assert capsys.readouterr().out.strip() == "INCONSISTENT"


def test_check_empty(tmp_path, capsys):
    path = _write(tmp_path, "; nothing here\n")
    assert run(["check", path]) == 0
    assert capsys.readouterr().out.strip() == "CONSISTENT"


def test_check_parse_error_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "(assert (inst a A) >= 1.5)")
    assert run(["check", path]) == 2
    assert "degree outside" in capsys.readouterr().err


def test_check_locality_error_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "(assert (inst (a b) r) >= 0.5)")
    assert run(["check", path]) == 2
    assert "non-local" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path, capsys):
    assert run(["check", str(tmp_path / "nope.sexp")]) == 2


def test_non_utf8_input_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.sexp"
    path.write_bytes(b"(assert (inst a A) >= 0.5)\n; caf\xe9\n")
    assert run(["check", str(path)]) == 2
    assert "not UTF-8" in capsys.readouterr().err


def test_deep_nesting_exits_2_quickly(tmp_path, capsys):
    depth = 3000
    path = _write(
        tmp_path, "(assert (inst a " + "(not " * depth + "A" + ")" * depth + ") >= 0.5)"
    )
    start = time.monotonic()
    assert run(["check", path]) == 2
    assert time.monotonic() - start < 1.0
    assert "nesting deeper than" in capsys.readouterr().err


def test_oversized_order_structure_exits_2_quickly(tmp_path, capsys):
    # 150 nested conjunctions pass the nesting bound but give an order
    # structure of 609 elements, about 226M transitivity axioms
    depth = 150
    path = _write(
        tmp_path, "(assert (inst a " + "(and A " * depth + "A" + ")" * depth + ") >= 0.5)"
    )
    for command in ("check", "reduce"):
        start = time.monotonic()
        assert run([command, path]) == 2
        assert time.monotonic() - start < 1.0
        assert "reduction budget exceeded" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, code",
    [("graded-chain", 1), ("no-duality", 0), ("residual-atmost", 1), ("tipping-point", 0)],
)
def test_samples_verdicts_match_their_comments(name, code, capsys):
    assert run(["check", str(SAMPLES / f"{name}.sexp")]) == code
    assert capsys.readouterr().out.strip() == ("INCONSISTENT" if code else "CONSISTENT")


def test_sat_and_subsumes_ignore_assertions_with_a_warning(tmp_path, capsys):
    # taken into account, the assertion would make A >= 1 unsatisfiable
    path = _write(tmp_path, "(gci A B >= 1)\n(assert (inst a A) < 1/2)")
    cases = [
        (["sat", path, "-c", "A", "-d", "1"], 0, "SATISFIABLE"),
        (["sat", path, "-c", "(and A (not B))", "-d", "0.6"], 1, "UNSATISFIABLE"),
        (["subsumes", path, "--lhs", "A", "--rhs", "B", "-d", "1"], 0, "SUBSUMED"),
        (["subsumes", path, "--lhs", "B", "--rhs", "A", "-d", "1"], 1, "NOT SUBSUMED"),
    ]
    for argv, code, word in cases:
        assert run(argv) == code
        captured = capsys.readouterr()
        assert captured.out.strip() == word
        assert f"input assertions are ignored by {argv[0]}" in captured.err


def test_sat_tautology(tmp_path, capsys):
    path = _write(tmp_path, "")
    assert run(["sat", path, "-c", "top", "-d", "1"]) == 0
    assert capsys.readouterr().out.strip() == "SATISFIABLE"


def test_sat_godel_bound(tmp_path, capsys):
    path = _write(tmp_path, "")
    assert run(["sat", path, "-c", "(and A (not A))", "-d", "0.6"]) == 1
    assert capsys.readouterr().out.strip() == "UNSATISFIABLE"


def test_sat_with_tbox(tmp_path, capsys):
    path = _write(tmp_path, "(gci top (not A) >= 1)")
    assert run(["sat", path, "-c", "A", "-d", "0.7"]) == 1


def test_subsumes_reflexive(tmp_path, capsys):
    path = _write(tmp_path, "")
    assert run(["subsumes", path, "--lhs", "A", "--rhs", "A", "-d", "1"]) == 0
    assert capsys.readouterr().out.strip() == "SUBSUMED"


def test_subsumes_unrelated(tmp_path, capsys):
    path = _write(tmp_path, "")
    assert run(["subsumes", path, "--lhs", "A", "--rhs", "B", "-d", "1"]) == 1
    assert capsys.readouterr().out.strip() == "NOT SUBSUMED"


def test_subsumes_with_tbox(tmp_path, capsys):
    path = _write(tmp_path, "(gci A B >= 0.5)")
    assert run(["subsumes", path, "--lhs", "A", "--rhs", "B", "-d", "0.5"]) == 0


def test_subsumes_rejects_degree_zero(tmp_path, capsys):
    path = _write(tmp_path, "")
    assert run(["subsumes", path, "--lhs", "A", "--rhs", "B", "-d", "0"]) == 2


def test_emit_reduction_round_trips(tmp_path, capsys):
    path = _write(tmp_path, "(assert (inst a A) >= 1/2)")
    out = tmp_path / "red.sexp"
    assert run(["check", path, "--emit-reduction", str(out)]) == 0
    reduced = parse_classical(out.read_text(encoding="utf-8"))
    assert reduced.assertions


def test_reduce_subcommand_stdout(tmp_path, capsys):
    path = _write(tmp_path, "(assert (inst a A) >= 1/2)")
    assert run(["reduce", path]) == 0
    text = capsys.readouterr().out
    assert "(gci" in text and "(leq" in text
    parse_classical(text)


def test_emit_model_verifies(tmp_path, capsys):
    path = _write(tmp_path, "(assert (inst a (some r A)) = 1/2)")
    out = tmp_path / "model.sexp"
    assert run(["check", path, "--emit-model", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text.startswith("(model")
    assert "(role r" in text


@pytest.mark.parametrize("flag", ["--depth", "--max-domain"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_counts_below_one_exit_2(tmp_path, capsys, flag, value):
    # --depth 0 used to reach extract_classical_model and exit 1 with a
    # ValueError; --max-domain 0 turned both oracles into no-ops
    path = _write(tmp_path, "(assert (inst a (some r A)) = 1/2)")
    out = tmp_path / "model.sexp"
    with pytest.raises(SystemExit) as exit_info:
        run(["check", path, "--emit-model", str(out), "--oracle", "grid", flag, value])
    assert exit_info.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_oracle_grid_agreement(tmp_path, capsys):
    path = _write(tmp_path, "(assert (inst a (and A (not A))) >= 0.5)")
    assert run(["check", path, "--oracle", "grid"]) == 0
    path2 = _write(tmp_path, "(assert (inst a (and A (not A))) >= 0.6)", "o2.sexp")
    assert run(["check", path2, "--oracle", "grid"]) == 1


def test_oracle_brute_small(tmp_path, capsys):
    path = _write(tmp_path, "(assert (inst a A) >= 1/2)")
    assert run(["check", path, "--oracle", "brute", "--max-domain", "1"]) == 0


def test_atmost_flag_changes_verdict(tmp_path, capsys):
    # the residual expansion makes at-most crisp, so = 1/2 is impossible
    text = "(assert (inst a (atmost 1 r top)) = 1/2)"
    path = _write(tmp_path, text)
    assert run(["check", path, "--atmost", "residual"]) == 1
    assert run(["check", path, "--atmost", "involutive"]) == 0


def test_trace_goes_to_stderr(tmp_path, capsys):
    path = _write(tmp_path, "(assert (inst a A) >= 1/2)")
    assert run(["check", path, "--trace"]) == 0
    assert capsys.readouterr().err


def test_budget_exit_code(tmp_path, capsys):
    path = _write(tmp_path, "(assert (inst a (some r A)) = 1/2)")
    assert run(["check", path, "--budget", "1"]) == 2
    assert "budget" in capsys.readouterr().err.lower()


def test_grid_step_flag(tmp_path, capsys):
    path = _write(tmp_path, "(assert (inst a (and A (not A))) >= 0.5)")
    assert run(["check", path, "--oracle", "grid", "--grid-step", "1/10"]) == 0


def test_reduce_opt_shrinks_output_same_verdicts(tmp_path, capsys):
    path = _write(tmp_path, "(assert (inst a (and A (not A))) >= 0.5)")
    full = tmp_path / "full.sexp"
    slim = tmp_path / "slim.sexp"
    assert run(["reduce", path, "-o", str(full)]) == 0
    assert run(["reduce", path, "--reduce-opt", "-o", str(slim)]) == 0
    n_full = len(parse_classical(full.read_text(encoding="utf-8")).inclusions)
    n_slim = len(parse_classical(slim.read_text(encoding="utf-8")).inclusions)
    assert n_slim < n_full
    assert run(["check", path, "--reduce-opt"]) == 0
    bad = _write(tmp_path, "(assert (inst a (and A (not A))) >= 0.6)", "bad.sexp")
    assert run(["check", bad, "--reduce-opt"]) == 1
