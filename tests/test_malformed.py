"""Malformed input: seeded s-expression mutants of the corpus and the samples.

Each mutant deletes, duplicates, swaps or cross-copies one node of an input,
or replaces it with a reserved word, a relator or a huge or out-of-range
number.  Every command then runs on it in process, with a small node budget:
it must exit 0 or 1 with a verdict or 2 with an error, and no exception may
escape `galcq.cli.run`.  The brute-force oracle gets the suite's label
budget instead of the CLI's, which takes seconds to run out.
"""

import copy
import functools
import pathlib
import random

from conftest import BRUTE_BUDGET, CORPUS

import galcq.cli
from galcq.bruteforce import brute_force_consistency
from galcq.cli import run
from galcq.syntax import RELATIONS, RESERVED, SAtom, SList, read_forms

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "samples"
INPUTS = [text for _, text in CORPUS]
INPUTS += [p.read_text() for p in sorted(SAMPLES.glob("*.sexp"))]
MUTANTS = 300
NUMBERS = [
    "0", "1", "2", "-1/2", "3/2", "1/0", "0.5.5", "1e400", "1e-400", "1e99999999",
    "9" * 200, "1/" + "7" * 60, "0." + "3" * 300,
]


def _print(node) -> str:
    if isinstance(node, SAtom):
        return node.text
    return "(" + " ".join(_print(item) for item in node.items) + ")"


def _slots(items, out):
    """Append to `out` every (list, index) slot below the list `items`."""
    for k, item in enumerate(items):
        out.append((items, k))
        if isinstance(item, SList):
            _slots(item.items, out)
    return out


def _mutant(text: str, rng) -> str:
    forms = read_forms(text)
    slots = _slots(forms, [])
    if not slots:
        return rng.choice(NUMBERS + sorted(RESERVED))
    items, k = rng.choice(slots)
    kind = rng.choice(["delete", "duplicate", "swap", "cross", "reserved", "relator", "number"])
    if kind == "delete":
        del items[k]
    elif kind == "duplicate":
        items.insert(k, copy.deepcopy(items[k]))
    elif kind == "swap":
        m = rng.randrange(len(items))
        items[k], items[m] = items[m], items[k]
    elif kind == "cross":
        other = _slots(read_forms(rng.choice(INPUTS)), [])
        if other:
            there, m = rng.choice(other)
            items[k] = there[m]
    else:
        pool = {"reserved": sorted(RESERVED), "relator": sorted(RELATIONS), "number": NUMBERS}
        items[k] = SAtom(rng.choice(pool[kind]), 0, 0)
    return "\n".join(_print(form) for form in forms)


def _commands(path, out):
    decide = [
        ["check"],
        ["check", "--oracle", "grid"],
        ["check", "--oracle", "brute", "--max-domain", "1"],
        *(["check", "--emit-model", str(out / "m.sexp"), "--depth", d] for d in "124"),
        ["check", "--emit-reduction", str(out / "r.sexp"), "--trace"],
        ["sat", "-c", "A", "-d", "1/2"],
        ["subsumes", "--lhs", "A", "--rhs", "B", "-d", "1/2"],
    ]
    yield from ([*argv[:1], path, *argv[1:], "--budget", "30"] for argv in decide)
    yield ["reduce", path, "-o", str(out / "reduce.sexp")]


def test_mutants_exit_with_a_verdict_or_an_error(tmp_path, capsys, monkeypatch):
    brute = functools.partial(brute_force_consistency, budget=BRUTE_BUDGET)
    monkeypatch.setattr(galcq.cli, "brute_force_consistency", brute)
    rng = random.Random("malformed")
    codes = {}
    for _ in range(MUTANTS):
        text = _mutant(rng.choice(INPUTS), rng)
        path = tmp_path / "mutant.sexp"
        path.write_text(text, encoding="utf-8")
        for argv in _commands(str(path), tmp_path):
            code = run(argv)
            assert code in (0, 1, 2), (argv, text)
            codes[code] = codes.get(code, 0) + 1
        capsys.readouterr()
    # the mutants reach the decision as well as the parser's errors
    assert min(codes.get(0, 0), codes.get(1, 0), codes.get(2, 0)) > 50, codes
