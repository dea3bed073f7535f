import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import CORPUS

import galcq.classical_model
from galcq import ClassicalOntology, parse_classical
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


def _wide(head, width):
    return f"({head} " + " ".join(f"A{i}" for i in range(width)) + ")"


# an n-ary `and` or `or` builds a chain one level per argument, so these are
# within the list nesting bound but built deeper than it
WIDE_CASES = {
    "wide-and": (f"(assert (inst a {_wide('and', 600)}) >= 1/2)", ["check"]),
    "nested-chains": (
        "(assert (inst a " + "(and B0 B1 B2 B3 B4 B5 " * 100 + "A" + ")" * 100 + ") >= 1/2)",
        ["check"],
    ),
    "wide-or": ("", ["sat", "-c", _wide("or", 700), "-d", "1/2"]),
}


@pytest.mark.parametrize("name", sorted(WIDE_CASES))
def test_wide_concepts_exit_2_quickly(name, tmp_path, capsys):
    text, argv = WIDE_CASES[name]
    path = _write(tmp_path, text)
    start = time.monotonic()
    assert run([argv[0], path, *argv[1:]]) == 2
    assert time.monotonic() - start < 1.0
    err = capsys.readouterr().err
    assert "concept nested deeper than 200 levels" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "name, code",
    [("graded-chain", 1), ("no-duality", 0), ("residual-atmost", 1), ("tipping-point", 0)],
)
def test_samples_verdicts_match_their_comments(name, code, capsys):
    assert run(["check", str(SAMPLES / f"{name}.sexp")]) == code
    assert capsys.readouterr().out.strip() == ("INCONSISTENT" if code else "CONSISTENT")


@pytest.mark.parametrize("module", ["galcq", "galcq.cli"])
def test_package_runs_as_a_module(module):
    # `python -m` reaches the same front end as the console script, with
    # its verdict in the exit code
    src = str(Path(galcq.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-m", module, "check", str(SAMPLES / "graded-chain.sexp")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert (done.returncode, done.stdout.strip()) == (1, "INCONSISTENT")


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


def test_degree_zero_inclusion_warns_on_one_cli_line(tmp_path, capsys):
    path = _write(tmp_path, "(gci A B >= 0)")
    assert run(["check", path]) == 0
    captured = capsys.readouterr()
    assert captured.out == "CONSISTENT\n"
    assert captured.err == "warning: dropping inclusion with degree 0: it constrains nothing\n"


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


@pytest.mark.parametrize(
    "flags",
    [
        ["--emit-reduction", "red.sexp"],
        ["--emit-model", "model.sexp"],
        ["--oracle", "brute"],
        ["--grid-step", "1/4"],
        ["--max-domain", "3"],
        ["--budget", "10"],
        ["--depth", "1"],
        ["--trace"],
    ],
    ids=lambda flags: flags[0],
)
def test_reduce_refuses_the_flags_it_does_not_read(tmp_path, capsys, flags):
    # `reduce` reads only the ontology, --atmost and --output; any flag of
    # the decision tasks is a usage error, not silently ignored
    path = _write(tmp_path, "(assert (inst a A) >= 1/2)")
    args = [tmp_path / f if f.endswith(".sexp") else f for f in flags]
    with pytest.raises(SystemExit) as exit_info:
        run(["reduce", path, *map(str, args)])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["onto.sexp"]  # nothing written
    out = tmp_path / "out.sexp"
    assert run(["reduce", path, "--atmost", "residual", "--output", str(out)]) == 0
    assert out.read_text(encoding="utf-8").startswith("(")


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


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "text, least",
    [
        ("(gci top (some r (some r A)) >= 1/2)\n(assert (inst a A) >= 1/2)", 3),
        ("(assert-cmp (inst a A) < (inst a (some r (some r (some r B)))))", 4),
    ],
    ids=["gci", "assert-cmp"],
)
def test_emit_model_depth_must_exceed_quantifier_depth(tmp_path, capsys, text, least, depth):
    # no deeper than the quantifier depth, the unravelled tree has no element
    # far enough from its cut leaves for the axioms to be checked there
    path = _write(tmp_path, text)
    out = tmp_path / "model.sexp"
    code = run(["check", path, "--emit-model", str(out), "--depth", str(depth)])
    assert (code, out.exists()) == ((0, True) if depth >= least else (2, False))
    if depth < least:
        assert f"use {least} or more" in capsys.readouterr().err


def test_deep_unravelling_exits_2_on_the_tree_budget(tmp_path, capsys):
    # every element has two successors, so depth 40 would ask for 2^41 - 1
    # elements: the unravelling stops at TREE_BUDGET and writes no model
    path = _write(tmp_path, "(gci top (atleast 2 r A) >= 1/2)")
    out = tmp_path / "model.sexp"
    start = time.monotonic()
    assert run(["check", path, "--emit-model", str(out), "--depth", "40"]) == 2
    assert time.monotonic() - start < 5.0
    assert "tree budget" in capsys.readouterr().err
    assert not out.exists()


def test_subsumes_emits_a_countermodel_on_not_subsumed_only(tmp_path, capsys):
    # the task ontology asserts (A => B) < d, so its models are countermodels
    path = _write(tmp_path, "(gci A B >= 1/2)")
    out = tmp_path / "model.sexp"
    argv = ["subsumes", path, "--lhs", "A", "--rhs", "B", "--emit-model", str(out)]
    assert run(argv + ["-d", "1/2"]) == 0
    assert not out.exists()
    assert run(argv + ["-d", "1"]) == 1
    assert out.read_text(encoding="utf-8").startswith("(model")


@pytest.mark.parametrize("flag", ["--depth", "--max-domain", "--budget"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_counts_below_one_exit_2(tmp_path, capsys, flag, value):
    # --depth 0 used to reach extract_classical_model and exit 1 with a
    # ValueError; --max-domain 0 turned both oracles into no-ops; --budget 0
    # was accepted and then failed with "node budget exhausted"
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


def test_query_concepts_follow_the_files_atmost_directive(tmp_path, capsys):
    # residual at-most is crisp: a concept and its complement cannot both
    # reach 1/2, and their disjunction always reaches 1
    path = _write(tmp_path, "(set-option :atmost residual)\n")
    at_most = "(atmost 1 r top)"
    sat = ["sat", path, "-c", f"(and {at_most} (not {at_most}))", "-d", "1/2"]
    subsumes = ["subsumes", path, "--lhs", "top", "--rhs", f"(or {at_most} (not {at_most}))",
                "-d", "1"]
    assert run(sat) == 1
    assert run(subsumes) == 0
    assert capsys.readouterr().out.split("\n")[:2] == ["UNSATISFIABLE", "SUBSUMED"]
    # the flag still overrides the file
    assert run(sat + ["--atmost", "involutive"]) == 0
    assert run(subsumes + ["--atmost", "involutive"]) == 1
    assert capsys.readouterr().out.split("\n")[:2] == ["SATISFIABLE", "NOT SUBSUMED"]


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


def test_huge_grid_is_skipped_before_it_is_built(tmp_path, capsys):
    # 1e-9 would mean a billion grid points; the count is predicted from the
    # step and refused against the grid budget instead
    path = _write(tmp_path, dict(CORPUS)["assert-half"])
    start = time.monotonic()
    assert run(["check", path, "--oracle", "grid", "--grid-step", "1e-9"]) == 0
    assert time.monotonic() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out.strip() == "CONSISTENT"
    assert "oracle: grid search skipped" in captured.err
    assert "1000000001 points" in captured.err


def test_huge_degree_exponent_exits_2_quickly(tmp_path, capsys):
    # Fraction expands the exponent into a power of ten, which never returned
    path = _write(tmp_path, "(assert (inst a A) >= 0.5e99999999)")
    tbox = _write(tmp_path, "", "tbox.sexp")
    for argv in (["check", path], ["sat", tbox, "-c", "A", "-d", "0.5e99999999"]):
        start = time.monotonic()
        assert run(argv) == 2
        assert time.monotonic() - start < 1.0
        assert "degree exponent larger than" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, code",
    [("tipping-point", 0), ("assert-half", 0), ("open-interval", 0), ("empty", 0),
     ("squeeze", 1), ("gci-force", 1)],
)
def test_no_pipeline_path_builds_the_transitivity_family(
    tmp_path, capsys, monkeypatch, name, code
):
    # every reader takes the family from the order structure by position;
    # `ClassicalOntology.inclusions` lists it only for reference
    def refuse(o):
        raise AssertionError("the transitivity family was built")

    monkeypatch.setattr(ClassicalOntology, "inclusions", property(refuse))
    texts = dict(CORPUS, **{"tipping-point": (SAMPLES / "tipping-point.sexp").read_text()})
    path = _write(tmp_path, texts[name])
    out = tmp_path / "model.sexp"
    # no stderr: the brute force ran to its end, and its model check with it
    assert run(["check", path, "--oracle", "brute", "--emit-model", str(out)]) == code
    assert (capsys.readouterr().err, out.exists()) == ("", code == 0)
    assert run(["reduce", path]) == 0


@pytest.mark.parametrize(
    "text", ["(assert (inst a (some r top)) >= 1)", "(assert (inst a (all r bot)) = 1)"]
)
def test_no_pipeline_path_builds_the_transfer_family(tmp_path, capsys, monkeypatch, text):
    # the tableau, the printer and the model checker that verifies the
    # brute force's model (an r-loop on the root) read transfer by position;
    # rendering a failing instance builds only that instance's inclusion
    class Refused:
        def __iter__(self):
            raise AssertionError("the transfer family was built")

    families = galcq.classical_model.order_families

    def refusing(u):
        *preorder, (_, inclusion) = families(u)
        return (*preorder, (Refused(), inclusion))

    monkeypatch.setattr(galcq.classical_model, "order_families", refusing)
    path = _write(tmp_path, text)
    out = tmp_path / "model.sexp"
    assert run(["check", path, "--oracle", "brute", "--emit-model", str(out)]) == 0
    assert (capsys.readouterr().err, out.exists()) == ("", True)
    assert run(["reduce", path]) == 0
    assert "(all r (not (leq " in capsys.readouterr().out
