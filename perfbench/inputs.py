"""The benchmark's fixed input families, each input with its hand label.

The texts are frozen copies, not imports: the corpus in tests/conftest.py and
the files in samples/ may grow, and a benchmark whose inputs change between
commits cannot compare them.  The seed only permutes the order in which the
inputs are sent (see run.py); it never changes an input.

An input is a dict with
  id        unique name, "<workload>/<entry>"
  text      ontology text in the reasoner's s-expression syntax
  consistent  the hand label
  depth     unravelling depth used for certification (None: not certified)
  reduce    whether the `galcq reduce` path is timed on it
  brute     for the oracle workload: "definitive" or "skip", the expected
            brute-force outcome at max domain 4 and budget 25,000
"""

from __future__ import annotations

# tests/conftest.py budgets, used for every workload
NODE_BUDGET = 600
STEP_BUDGET = 40_000_000
GRID_BUDGET = 250_000
GRID_MAX_DOMAIN = 2
BRUTE_BUDGET = 25_000
BRUTE_MAX_DOMAIN = 4

# the CLI's default --depth
CLI_DEPTH = 4
# verifying counting k=3 on a depth-4 tree (341 elements) takes about 50 s,
# because evaluating (atleast k ...) enumerates k-subsets of the domain;
# at depth 3 the tree has 85 elements
COUNTING_DEPTH = 3

CONSISTENT_CORPUS = [
    ("empty", ""),
    ("assert-half", "(assert (inst a A) >= 0.5)"),
    ("godel-mid", "(assert (inst a (and A (not A))) >= 0.5)"),
    ("godel-above", "(assert (inst a (and A (not A))) > 0.3)"),
    ("cmp-lt", "(assert-cmp (inst a A) < (inst a B))"),
    ("cmp-eq-neg", "(assert-cmp (inst a A) = (inst a (not B)))"),
    ("implies-deg", "(assert (inst a (implies A B)) >= 0.6)"),
    ("gci-chain", "(gci A B >= 1/2)\n(assert (inst a A) >= 3/4)"),
    ("gci-top", "(gci top A >= 1/2)"),
    ("exists-half", "(assert (inst a (some r A)) = 1/2)"),
    ("forall-low", "(assert (inst a (all r B)) <= 1/2)"),
    ("atleast-two", "(assert (inst a (atleast 2 r A)) >= 1/2)"),
    ("atmost-inv", "(assert (inst a (atmost 1 r A)) >= 1/2)"),
    (
        "atmost-res",
        "(set-option :atmost residual)\n(assert (inst a (atmost 1 r A)) >= 1/2)",
    ),
    (
        "duality",
        "(assert-cmp (inst a (some r A)) < (inst a (not (all r (not A)))))",
    ),
    ("crisp-sat", "(assert (inst a A) >= 1)\n(gci A B >= 1)"),
    (
        "two-roles",
        "(assert (inst a (some r A)) >= 1/2)\n(assert (inst a (some s B)) >= 1/2)",
    ),
    ("loop-gci", "(gci A (some r A) >= 1/2)\n(assert (inst a A) >= 1/2)"),
    ("open-interval", "(assert (inst a A) > 0)\n(assert (inst a A) < 1)"),
    ("neg-forall", "(assert (inst a (not (all r A))) >= 1/2)"),
]

INCONSISTENT_CORPUS = [
    ("godel-high", "(assert (inst a (and A (not A))) >= 0.6)"),
    ("squeeze", "(assert (inst a A) >= 3/4)\n(assert (inst a A) < 1/2)"),
    ("top-neg", "(gci top (not A) >= 1)\n(assert (inst a A) > 0)"),
    (
        "forall-clash",
        "(gci top (all r (not A)) >= 1)\n(assert (inst a (some r A)) >= 3/4)",
    ),
    (
        "count-clash",
        "(assert (inst a (and (atleast 2 r A) (atmost 1 r top))) >= 1)",
    ),
    ("self-implies", "(assert (inst a (implies A A)) < 1)"),
    ("top-low", "(assert (inst a top) < 1)"),
    ("below-zero", "(assert (inst a B) < 0)"),
    (
        "cmp-circle",
        "(assert-cmp (inst a A) < (inst a B))\n(assert-cmp (inst a B) < (inst a A))",
    ),
    (
        "res-atmost-midway",
        "(set-option :atmost residual)\n(assert (inst a (atmost 1 r top)) = 1/2)",
    ),
    ("gci-force", "(gci top A >= 1)\n(assert (inst a A) < 1)"),
    (
        "exists-zero",
        "(assert (inst a (some r top)) = 0)\n(assert (inst a (some r A)) >= 1/2)",
    ),
    (
        "chain-squeeze",
        "(gci A B >= 1)\n(gci B (not A) >= 1)\n(assert (inst a A) > 1/2)",
    ),
    (
        "count-squeeze",
        "(assert (inst a (atleast 3 r A)) >= 1/4)\n(assert (inst a (atmost 2 r A)) >= 1)",
    ),
]

# samples/*.sexp, labelled by their own comments
SAMPLES = [
    (
        "graded-chain.sexp",
        "(gci Fever Infection >= 0.8)\n(gci Infection NeedsCare >= 0.9)\n"
        "(assert (inst p Fever) >= 0.7)\n(assert (inst p NeedsCare) < 0.7)\n",
        False,
    ),
    (
        "no-duality.sexp",
        "(assert-cmp (inst a (some knows Expert))\n            <\n"
        "            (inst a (not (all knows (not Expert)))))\n",
        True,
    ),
    (
        "residual-atmost.sexp",
        "(set-option :atmost residual)\n"
        "(assert (inst a (atmost 1 supervises Trainee)) = 1/2)\n",
        False,
    ),
    (
        "tipping-point.sexp",
        "(assert (inst a (and Busy (not Busy))) >= 0.5)\n",
        True,
    ),
]

# corpus entries the oracle workload runs, with the expected brute-force
# outcome: "definitive" (a model, or no model on a role-free ontology) or
# "skip" (the label budget runs out before domain size 1)
ORACLE_ENTRIES = {
    "empty": "definitive",
    "assert-half": "definitive",
    "open-interval": "definitive",
    "top-neg": "definitive",
    "top-low": "definitive",
    "below-zero": "definitive",
    "gci-force": "definitive",
    "squeeze": "skip",
    "godel-mid": "skip",
}


def _entry(workload, name, text, consistent, depth=None, reduce=False, brute=None):
    return {
        "id": f"{workload}/{name}",
        "text": text,
        "consistent": consistent,
        "depth": depth if consistent else None,
        "reduce": reduce,
        "brute": brute,
    }


def corpus():
    """The 34 corpus ontologies plus the 4 samples, certified at depth 4 and
    compiled."""
    labelled = [(n, t, True) for n, t in CONSISTENT_CORPUS]
    labelled += [(n, t, False) for n, t in INCONSISTENT_CORPUS]
    labelled += SAMPLES
    return [
        _entry("corpus", n, t, c, depth=CLI_DEPTH, reduce=True)
        for n, t, c in labelled
    ]


def chain_text(k: int) -> str:
    """Criterion-5 chain: A1 >= 1/2 pushed through k-1 graded inclusions."""
    axioms = ["(assert (inst a A1) >= 1/2)"]
    axioms += [f"(gci A{i} A{i + 1} >= 1/2)" for i in range(1, k)]
    return "\n".join(axioms)


def chain():
    """Chain k = 1..8; all consistent, certified at depth 4 and compiled."""
    return [
        _entry("chain", f"k{k}", chain_text(k), True, depth=CLI_DEPTH, reduce=True)
        for k in range(1, 9)
    ]


def counting_text(k: int, q: str) -> str:
    return (
        "(gci B C >= 1/2)\n"
        "(assert (inst a (all s (not C))) = 1)\n"
        f"(assert (inst a (atleast {k} s B)) >= {q})"
    )


def counting():
    """F(k, q); q = 3/4 is inconsistent: B >= 3/4 and C <= 1/4 force the
    residuum B -> C <= 1/4 < 1/2.  The others are consistent."""
    out = []
    for k in (1, 2, 3):
        for q in ("1/4", "1/2", "3/4"):
            out.append(
                _entry(
                    "counting",
                    f"k{k}-q{q.replace('/', '_')}",
                    counting_text(k, q),
                    q != "3/4",
                    depth=COUNTING_DEPTH,
                )
            )
    return out


def oracle():
    """Both oracles on nine corpus entries; no tableau runs."""
    texts = dict(CONSISTENT_CORPUS + INCONSISTENT_CORPUS)
    labels = {n: True for n, _ in CONSISTENT_CORPUS}
    labels.update({n: False for n, _ in INCONSISTENT_CORPUS})
    return [
        _entry("oracle", n, texts[n], labels[n], brute=b)
        for n, b in ORACLE_ENTRIES.items()
    ]


WORKLOADS = {
    "corpus": corpus,
    "chain": chain,
    "counting": counting,
    "oracle": oracle,
}
