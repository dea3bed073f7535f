"""Command-line front end.

Subcommands: `check` (local consistency), `sat` (graded concept
satisfiability), `subsumes` (graded subsumption), `reduce` (emit the
classical compilation).  Exit codes: 0 for the positive verdict, 1 for the
negative one, 2 for any error (parse, locality, budget, oracle
disagreement).
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from fractions import Fraction

from .algebra import ValueSet, parse_degree
from .bruteforce import brute_force_consistency
from .errors import BudgetExceededError, ParseError, ReasonerError
from .extraction import certify
from .ontology import ConceptAssertion, FuzzyOntology, OrderAssertion, value_closure
from .ontology import roles as ontology_roles
from .reduction import reduce_ontology
from .semantics import GRID_BUDGET, concept_names, grid_search_fuzzy_model
from .syntax import (
    atmost_mode,
    classical_to_sexpr,
    model_to_sexpr,
    parse_concept_text,
    parse_ontology,
    read_forms,
)
from .tableau import NODE_BUDGET, check_consistency
from .concepts import Implies


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="galcq",
        description="Reasoner for fuzzy ALCQ ontologies under min-based semantics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def source(p):
        p.add_argument("ontology", help="input ontology file")
        p.add_argument("--atmost", choices=("involutive", "residual"), default=None,
                       help="override the file's at-most expansion")

    def common(p):
        source(p)
        p.add_argument("--emit-reduction", metavar="PATH",
                       help="write the classical compilation here")
        p.add_argument("--emit-model", metavar="PATH",
                       help="write an extracted fuzzy model here: a model on "
                            "CONSISTENT/SATISFIABLE, a countermodel on NOT SUBSUMED")
        p.add_argument("--oracle", choices=("off", "grid", "brute"), default="off",
                       help="cross-check the verdict with an independent oracle")
        p.add_argument("--grid-step", metavar="P/Q", default=None,
                       help="grid oracle step (default: ontology constants plus midpoints)")
        p.add_argument("--max-domain", type=positive_int, default=2,
                       help="domain bound for the oracles")
        p.add_argument("--budget", type=positive_int, default=NODE_BUDGET,
                       help="tableau node budget")
        p.add_argument("--depth", type=positive_int, default=4,
                       help="unraveling depth for model extraction; must exceed "
                            "the ontology's quantifier depth")
        p.add_argument("--trace", action="store_true",
                       help="print one line per tableau rule application to stderr")

    p_check = sub.add_parser("check", help="decide local consistency")
    common(p_check)

    p_sat = sub.add_parser("sat", help="decide satisfiability of C to degree q")
    common(p_sat)
    p_sat.add_argument("--concept", "-c", required=True, help="concept (s-expression)")
    p_sat.add_argument("--degree", "-d", required=True, help="degree in [0,1]")

    p_sub = sub.add_parser("subsumes", help="decide subsumption of C in D to degree q")
    common(p_sub)
    p_sub.add_argument("--lhs", required=True, help="subsumee concept (s-expression)")
    p_sub.add_argument("--rhs", required=True, help="subsumer concept (s-expression)")
    p_sub.add_argument("--degree", "-d", required=True, help="degree in (0,1]")

    p_red = sub.add_parser("reduce", help="emit the classical compilation")
    source(p_red)
    p_red.add_argument("--output", "-o", metavar="PATH", default=None,
                       help="output file (default: stdout)")
    return parser


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not UTF-8 (byte offset {exc.start})") from exc


def _grid(args, ontology):
    if args.grid_step is None:
        return None
    step = parse_degree(args.grid_step)
    if step == 0:
        raise ReasonerError("grid step must be positive")
    # with any concept name, g points mean at least g interpretations at
    # domain size 1, so a grid above the budget is refused before it is built
    count = math.ceil(1 / step) + 1
    if count > GRID_BUDGET:
        raise BudgetExceededError(
            f"grid step {args.grid_step} gives {count} points, more than the "
            f"grid search budget of {GRID_BUDGET}"
        )
    points = []
    q = Fraction(0)
    while q < 1:
        points.append(q)
        q += step
    points.append(Fraction(1))
    return ValueSet(tuple(points) + value_closure(ontology).degrees)


def _decide(ontology: FuzzyOntology, args) -> bool:
    """Run the pipeline on a prepared ontology; returns consistency."""
    trace = (lambda line: print(line, file=sys.stderr)) if args.trace else None
    reduced = reduce_ontology(ontology)
    if args.emit_reduction:
        with open(args.emit_reduction, "w", encoding="utf-8") as handle:
            handle.write(classical_to_sexpr(reduced))
    result = check_consistency(reduced, node_budget=args.budget, trace=trace)

    if args.oracle == "grid":
        try:
            found = grid_search_fuzzy_model(
                ontology, max_domain=args.max_domain, grid=_grid(args, ontology)
            )
        except BudgetExceededError as exc:
            print(f"oracle: grid search skipped ({exc})", file=sys.stderr)
            found = None
        if found is not None and not result.consistent:
            raise ReasonerError(
                "oracle disagreement: grid search found a model but the "
                "tableau reports inconsistency"
            )
        if found is None and result.consistent:
            print("oracle: grid search found no model (one-sided; not a "
                  "contradiction)", file=sys.stderr)
    elif args.oracle == "brute":
        try:
            brute = brute_force_consistency(reduced, max_domain=args.max_domain)
        except BudgetExceededError as exc:
            print(f"oracle: brute force skipped ({exc})", file=sys.stderr)
            brute = None
        if brute is not None:
            if brute.consistent and not result.consistent:
                raise ReasonerError(
                    "oracle disagreement: brute force found a classical model "
                    "but the tableau reports inconsistency"
                )
            if not brute.consistent and result.consistent:
                print(
                    f"oracle: no classical model up to domain size "
                    f"{brute.completed_domain} (not a contradiction)",
                    file=sys.stderr,
                )

    if args.emit_model and result.consistent:
        interp, _ = certify(ontology, reduced, result.graph, args.depth)
        with open(args.emit_model, "w", encoding="utf-8") as handle:
            handle.write(
                model_to_sexpr(
                    interp,
                    concept_names(ontology),
                    ontology_roles(ontology),
                    ontology.individual,
                )
            )
    return result.consistent


# (positive, negative) verdict words; `subsumes` is positive when its task
# ontology is inconsistent, the others when it is consistent
_VERDICTS = {
    "check": ("CONSISTENT", "INCONSISTENT"),
    "sat": ("SATISFIABLE", "UNSATISFIABLE"),
    "subsumes": ("SUBSUMED", "NOT SUBSUMED"),
}


def run_task(args) -> int:
    """Decide `check`, `sat` or `subsumes` on the input and print the verdict.

    `sat` asserts `C >= d` and `subsumes` asserts `(C => D) < d` at the
    individual, in place of the input's assertions.
    """
    text = _read(args.ontology)
    ontology = parse_ontology(text, at_most=args.atmost)
    if args.command != "check":
        if ontology.abox:
            print(
                f"warning: input assertions are ignored by {args.command} "
                "(only the TBox is used)",
                file=sys.stderr,
            )
        degree = parse_degree(args.degree)
        mode = atmost_mode(read_forms(text), args.atmost)
        if args.command == "sat":
            concept, rel = parse_concept_text(args.concept, mode), ">="
        else:
            if degree == 0:
                raise ReasonerError("subsumption degree must be in (0,1]")
            lhs = parse_concept_text(args.lhs, mode)
            rhs = parse_concept_text(args.rhs, mode)
            concept, rel = Implies(lhs, rhs), "<"
        assertion = OrderAssertion(
            ConceptAssertion(ontology.individual, concept), rel, degree
        )
        ontology = FuzzyOntology((assertion,), ontology.tbox, ontology.individual)
    positive = _decide(ontology, args) != (args.command == "subsumes")
    positive_word, negative_word = _VERDICTS[args.command]
    print(positive_word if positive else negative_word)
    return 0 if positive else 1


def run_reduce(args) -> int:
    ontology = parse_ontology(_read(args.ontology), at_most=args.atmost)
    text = classical_to_sexpr(reduce_ontology(ontology))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _print_warning(message, *_):
    print(f"warning: {message}", file=sys.stderr)


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = run_reduce if args.command == "reduce" else run_task
    with warnings.catch_warnings():
        # the library's warnings (a dropped degree-0 inclusion) print as
        # the CLI's own `warning:` lines, without a source location
        warnings.showwarning = _print_warning
        try:
            return handler(args)
        except (ReasonerError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
