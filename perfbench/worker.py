"""Benchmark worker: sends one workload's inputs through the reasoner.

A single closed-loop client: each input is sent only after the previous one
has returned.  Every layer is timed from outside, around calls into its
module's public functions; nothing inside the reasoner is instrumented.

Per input the worker runs up to three paths, each timed as a whole:

  decide   text to verdict.  `galcq check`: parse_ontology, reduce_ontology,
           check_consistency.  On the oracle workload the verdict comes from
           the two oracles instead: parse_ontology, reduce_ontology,
           grid_search_fuzzy_model, brute_force_consistency.
  certify  `galcq check --emit-model`: the verdict, then on a consistent
           input OrderStructure.from_ontology, extract_classical_model,
           extract_fuzzy_model and check_fuzzy_model on
           tree.interior(margin).  On the oracle workload: the verdict,
           then check_fuzzy_model on the grid oracle's model.
  reduce   `galcq reduce`: parse_ontology, reduce_ontology,
           classical_to_sexpr.  Only on corpus and chain.

With --trace 0 a speed probe (speed.py) runs beside the reasoner; run.py
scales every path time by it.  A pass sends every input once, in an order
permuted by the seed.  Passes repeat while the next one is expected to end
within --seconds; at least one runs.  With --trace 1 untraced and traced passes alternate (at least one of
each); a traced pass keeps spans in memory and calls Tableau(...) and .run()
separately, which is exactly what check_consistency does.

The worker prints one JSON object on its last stdout line.  Run it through
run.py, which sets PYTHONHASHSEED and computes the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, input id]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, input_id: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        record = [name, 0.0, 0.0, parent, input_id]
        self.spans.append(record)
        self._open.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()


class Runner:
    def __init__(self, galcq, tableau_cls, inputs, tracer: Tracer | None):
        self.g = galcq
        self.tableau_cls = tableau_cls
        self.inputs = inputs
        self.tracer = tracer

    def span(self, name, input_id):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, input_id)

    @contextmanager
    def path(self, name, rec):
        """Time one path into rec["<name>_s"], after a full collection."""
        gc.collect()
        start = time.perf_counter()
        with self.span(name, rec["id"]):
            yield
        end = time.perf_counter()
        rec[f"{name}_s"] = end - start
        rec[f"{name}_at"] = [start, end]

    # -- the three paths ---------------------------------------------------

    def decide_tableau(self, item, rec):
        g, iid, tr = self.g, item["id"], self.tracer
        with self.path("decide", rec):
            with self.span("syntax.parse", iid):
                o = g.parse_ontology(item["text"])
            with self.span("reduction.reduce", iid):
                red = g.reduce_ontology(o)
            if tr is None:
                result = g.check_consistency(
                    red, node_budget=self.inputs.NODE_BUDGET,
                    step_budget=self.inputs.STEP_BUDGET,
                )
            else:
                with self.span("tableau.build", iid):
                    tab = self.tableau_cls(
                        red, self.inputs.NODE_BUDGET, self.inputs.STEP_BUDGET
                    )
                with self.span("tableau.search", iid):
                    result = tab.run()
        rec["consistent"] = result.consistent
        if tr is not None:
            rec["counters"].update(
                {
                    "orders.elements": len(g.OrderStructure.from_ontology(o).elements),
                    "reduction.inclusions": len(red.inclusions),
                    "reduction.atoms": len(red.atoms()),
                    "tableau.base_clauses": len(tab.base_list),
                    "tableau.interned": len(tab.interner.objs),
                    "tableau.nodes": tab.created,
                    "tableau.steps": tab.steps,
                }
            )
        return o, result

    def certify_tableau(self, item, rec, o, result):
        g, iid = self.g, item["id"]
        with self.path("certify", rec):
            with self.span("orders.structure", iid):
                structure = g.OrderStructure.from_ontology(o)
            with self.span("tableau.unravel", iid):
                tree = g.extract_classical_model(result.graph, depth=item["depth"])
            with self.span("extraction.fuzzy", iid):
                interp, _ = g.extract_fuzzy_model(tree, structure, o.individual)
            with self.span("semantics.verify", iid):
                elements = tree.interior(margin(g, o))
                report = g.check_fuzzy_model(interp, o, elements=elements)
        rec["certified"] = report.satisfied
        if not report.satisfied:
            rec["errors"].append(f"certificate rejected: {report.violation}")
        if self.tracer is not None:
            rec["counters"].update(
                {
                    "tableau.tree_elements": len(tree.domain),
                    "semantics.verify_elements": len(elements),
                }
            )

    def decide_oracle(self, item, rec):
        g, iid, inp = self.g, item["id"], self.inputs
        with self.path("decide", rec):
            with self.span("syntax.parse", iid):
                o = g.parse_ontology(item["text"])
            with self.span("reduction.reduce", iid):
                red = g.reduce_ontology(o)
            with self.span("semantics.grid", iid):
                try:
                    model = g.grid_search_fuzzy_model(
                        o, max_domain=inp.GRID_MAX_DOMAIN, budget=inp.GRID_BUDGET
                    )
                    grid_skipped = False
                except g.BudgetExceededError:
                    model, grid_skipped = None, True
            with self.span("bruteforce.brute", iid):
                try:
                    brute = g.brute_force_consistency(
                        red, max_domain=inp.BRUTE_MAX_DOMAIN, budget=inp.BRUTE_BUDGET
                    )
                except g.BudgetExceededError:
                    brute = None
        if model is not None and not item["consistent"]:
            rec["errors"].append("grid oracle found a model of an inconsistent input")
        if brute is None:
            outcome = "skip"
        elif brute.consistent or not red.roles():
            # without roles one element decides every domain size
            outcome = "definitive"
            if brute.consistent != item["consistent"]:
                rec["errors"].append(f"brute force says consistent={brute.consistent}")
        else:
            outcome = "bounded"
        if outcome != item["brute"]:
            rec["errors"].append(f"brute force outcome {outcome}, expected {item['brute']}")
        if model is not None:
            rec["consistent"] = True
        elif outcome == "definitive":
            rec["consistent"] = brute.consistent
        if self.tracer is not None:
            atoms = len(red.atoms())
            rec["counters"].update(
                {
                    "orders.elements": len(g.OrderStructure.from_ontology(o).elements),
                    "reduction.inclusions": len(red.inclusions),
                    "reduction.atoms": atoms,
                    "semantics.grid_found": model is not None,
                    "semantics.grid_skipped": grid_skipped,
                    "bruteforce.outcome": outcome,
                    "bruteforce.completed_domain": (
                        None if brute is None else brute.completed_domain
                    ),
                    "bruteforce.atoms": atoms,
                }
            )
        return o, model

    def certify_oracle(self, item, rec, o, model):
        with self.path("certify", rec):
            with self.span("semantics.verify", item["id"]):
                report = self.g.check_fuzzy_model(model, o)
        rec["certified"] = report.satisfied
        if not report.satisfied:
            rec["errors"].append(f"grid model rejected: {report.violation}")
        if self.tracer is not None:
            rec["counters"]["semantics.verify_elements"] = len(model.domain)

    def reduce_path(self, item, rec):
        g, iid = self.g, item["id"]
        with self.path("reduce", rec):
            with self.span("syntax.parse", iid):
                o = g.parse_ontology(item["text"])
            with self.span("reduction.reduce", iid):
                red = g.reduce_ontology(o)
            with self.span("syntax.print", iid):
                text = g.classical_to_sexpr(red)
        if not text:
            rec["errors"].append("empty compilation")
        if self.tracer is not None:
            rec["counters"]["syntax.print_bytes"] = len(text.encode("utf-8"))

    # -- one input ---------------------------------------------------------

    def run_input(self, item, oracle: bool) -> dict:
        rec = {
            "id": item["id"],
            "decide_s": None,
            "certify_s": None,
            "reduce_s": None,
            "consistent": None,
            "certified": None,
            "errors": [],
            "counters": {},
        }
        try:
            if oracle:
                o, model = self.decide_oracle(item, rec)
            else:
                o, result = self.decide_tableau(item, rec)
            if not oracle and rec["consistent"] != item["consistent"]:
                rec["errors"].append(f"verdict consistent={rec['consistent']}")
            certify = (
                model is not None and item["consistent"]
                if oracle
                else item["depth"] is not None and result.consistent
            )
            if certify:
                if oracle:
                    self.certify_oracle(item, rec, o, model)
                else:
                    self.certify_tableau(item, rec, o, result)
                rec["certify_s"] += rec["decide_s"]
            else:
                # `check --emit-model` adds nothing to a negative verdict
                rec["certify_s"] = rec["decide_s"]
            if item["reduce"]:
                self.reduce_path(item, rec)
        except self.g.BudgetExceededError as exc:
            rec["errors"].append(f"budget exhausted: {exc}")
        except Exception:  # a failing input is counted, the run goes on
            rec["errors"].append(traceback.format_exc(limit=3))
        return rec


def margin(g, o) -> int:
    """Quantifier depth of the ontology, the CLI's verification margin."""
    depths = [g.quantifier_depth(c) for ax in o.tbox for c in (ax.lhs, ax.rhs)]
    depths += [g.quantifier_depth(a.left.concept) for a in o.abox]
    return max(depths, default=0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop just before the first timed call")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    try:
        import galcq
        from galcq.tableau import Tableau
    except ImportError as exc:
        print(f"perfbench worker: cannot import galcq from {ROOT}/src: {exc}",
              file=sys.stderr)
        return 2
    import inputs
    import speed

    if args.workload not in inputs.WORKLOADS:
        print(f"perfbench worker: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    items = inputs.WORKLOADS[args.workload]()
    rng = random.Random(args.seed)
    oracle = args.workload == "oracle"

    first_call_at = time.monotonic()
    if args.setup_only:
        print(json.dumps({"first_call_at": first_call_at}))
        return 0

    passes = []
    tracer = Tracer()
    probe = speed.Probe()
    if args.trace == 0:
        probe.start()
    start = time.monotonic()
    while True:
        traced = args.trace == 1 and len(passes) % 2 == 1
        order = items[:]
        rng.shuffle(order)
        runner = Runner(galcq, Tableau, inputs, tracer if traced else None)
        pass_start = time.monotonic()
        records = [runner.run_input(item, oracle) for item in order]
        took = time.monotonic() - pass_start
        passes.append({"traced": traced, "seconds": took, "records": records})
        elapsed = time.monotonic() - start
        need_traced = args.trace == 1 and not any(p["traced"] for p in passes)
        if not need_traced and elapsed + took > args.seconds:
            break
    probe.stop()

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "first_call_at": first_call_at,
        "peak_rss_mb": peak_kb / 1024.0,
        "passes": passes,
        "spans": tracer.spans,
        "probe": probe.samples,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
