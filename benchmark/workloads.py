"""Seeded inputs for the four workloads.

Every item is one CLI call, ``argv`` as a user would type it after
``predual``.  Only ``syntactic`` depends on the seed; the other workloads are
the acceptance-criterion inputs and run the same items under every seed.
Nothing here calls predual: the syntactic draw is filtered and deduplicated
with the benchmark's own oracle.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import dfa_oracle as oracle

DATA = Path(__file__).resolve().parent / "data"

MAIN_PAIRS = ("BA", "DL01", "JSL0", "VECT2", "BR")

# Syntactic draw: languages per oracle order |M|.  BA's local variety of a
# language has 2^|M| languages, so the closure cap of 4096 is reached at
# |M| = 12; |M| = 7 already costs about 6 s per call and |M| = 6 over 1 s.
# The draw stops at 5, so that one pass over all items takes about 1.5 s and
# repeats many times within a run.  Small items (|M| <= 3) and large ones
# (|M| >= 5) both run under every pair.  Fixed counts per order keep a run's
# work alike across seeds; with 104 calls the median call is a small one.
ORDERS = {1: 2, 2: 5, 3: 9, 4: 2, 5: 2}
# Large languages are over {a,b}, with GF(2) and Boolean-ring varieties of
# 32 languages and a DL01 variety of at most LARGE_DL01, so that their calls,
# which take about half of a pass, cost alike across seeds: without this one
# large language cost 0.34-0.95 s over the five pairs, with it 0.34-0.42 s.
LARGE_VARIETY = {"VECT2": 32, "BR": 32}
LARGE_DL01 = 10
ALPHABETS = ("a", "ab")

# README examples, each with the oracle check that applies to its output.
# Two are left out because one call would take most of a pass: the BA
# example syntactic --tag BA --regex "(ab)*" (1 s) and the closure gate of
# ROADMAP item 4, syntactic --tag BA --regex "(a|b)*abb" (6-7 s).
SYNTACTIC_ANCHORS = (
    (["syntactic", "--tag", "JSL0", "--regex", "(ab)*", "--json"], "order"),
    (["localvariety", "--tag", "BA", "--regex", "(aa)*", "--json"], "variety-size"),
    (["minimize", "--regex", "(a|b)*abb", "--json"], "dfa"),
    (["deriv", "--side", "right", "--letter", "b", "--regex", "(ab)*"], "right-deriv"),
)

# criterion 1's pairs in the order the acceptance test runs them.  BA and BR
# keep their bound of 8; the others stop at 4, because at 5 one call takes
# 3-10 s (JSL0, JSL01 and DL01 pay the poset enumeration up to size 5) and
# VECT2 at 8 takes 7 s.
DUALITY_BOUNDS = (("BA", 8), ("BR", 8), ("JSL0", 4), ("JSL01", 4), ("DL01", 4), ("VECT2", 4))

# criterion 2's law battery, one call per pair, each over a few of the seed
# languages of predual.preimage.SEED_REGEXES, grouped by alphabet as
# default_seed_languages groups them.  Each call takes 0.1-0.4 s.  The full
# battery takes 26 s or more, and BA's battery takes about 1 s even on one
# seed language: a call that long follows the machine's drift in speed, and
# spread by 0.3 of its median from run to run.
LAW_PAIRS = ("JSL0", "DL01", "VECT2")
LAW_SEEDS = {"a": ["(aa)*", "a*", "a"], "ab": ["(a|b)*a"]}

# criterion 6 samples without (ab)*, a(ba)*, ab and (a|b)(a|b), whose BA
# varieties cost 0.1-1.7 s per generator; a list entry is [regex, explicit
# alphabet]
EILENBERG_SAMPLES = (
    "(aa)*", "a*", ["∅", "a"], ["ε", "a"], "a", "aa*", "aa", "(aaa)*",
    "(a|b)*", "b*", "(a|b)*b(a|b)*",
)


@dataclass
class Item:
    """One CLI call and what the checks need to know about it."""

    id: str
    argv: list
    kind: str  # which output check applies
    meta: dict = field(default_factory=dict)


def _render(letters, rng, depth) -> str:
    """A random regex over ``letters``; every concatenation and union is
    parenthesised, so operator precedence never decides the language."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(letters)
    roll = rng.random()
    first = _render(letters, rng, depth - 1)
    if roll < 0.4:
        return f"({first}{_render(letters, rng, depth - 1)})"
    if roll < 0.65:
        return f"({first}|{_render(letters, rng, depth - 1)})"
    atomic = len(first) == 1 or (first[0] == "(" and first[-1] == ")")
    if roll < 0.9:
        return f"{first}*" if atomic else f"({first})*"
    return f"~{first}" if atomic else f"~({first})"


def draw_languages(seed: int) -> list:
    """(regex, oracle order) pairs, distinct as languages, ORDERS[m] of order m.

    Languages with the same canonical minimal DFA over the same alphabet are
    drawn once.  A draw over {a,b} that uses one letter only is a language
    over that letter.
    """
    rng = random.Random(seed)
    want = dict(ORDERS)
    seen = set()
    drawn = []
    for _ in range(100_000):
        text = _render(rng.choice(ALPHABETS), rng, 4)
        dfa = oracle.compile_regex(text)
        if dfa in seen:
            continue
        seen.add(dfa)
        order = oracle.syntactic_order(text)
        if not want.get(order):
            continue
        if order >= 5:
            if len(dfa.alphabet) < 2:
                continue
            sizes = oracle.variety_sizes(text)
            if sizes["DL01"] > LARGE_DL01 or any(
                    sizes[pair] != n for pair, n in LARGE_VARIETY.items()):
                continue
        want[order] -= 1
        drawn.append((text, order))
        if not any(want.values()):
            return drawn
    raise RuntimeError(f"seed {seed}: draw did not fill the orders {want}")


def syntactic_items(seed: int) -> list:
    items = []
    for i, (argv, check) in enumerate(SYNTACTIC_ANCHORS):
        meta = {"oracle": check, "regex": argv[argv.index("--regex") + 1]}
        for flag, key in (("--tag", "pair"), ("--letter", "letter")):
            if flag in argv:
                meta[key] = argv[argv.index(flag) + 1]
        items.append(Item(f"anchor-{i}", list(argv), "anchor", meta))
    for n, (text, order) in enumerate(draw_languages(seed)):
        for pair in MAIN_PAIRS:
            items.append(
                Item(
                    f"lang-{n:02d}-{pair}",
                    ["syntactic", "--tag", pair, "--regex", text, "--json"],
                    "syntactic",
                    {"regex": text, "pair": pair, "oracle": "order"},
                )
            )
    return items


def duality_items() -> list:
    items = [
        Item(
            f"dualize-{pair}",
            ["dualize", "--check", "--pair", pair, "--max-size", str(size)],
            "dualize",
            {"pair": pair},
        )
        for pair, size in DUALITY_BOUNDS
    ]
    items.append(Item("enumerate-JSL0-4", ["enumerate", "--tag", "JSL0", "--size", "4"], "digest"))
    return items


def law_items(docdir: Path) -> list:
    """Writes the corpus documents into ``docdir``."""
    items = []
    for pair in LAW_PAIRS:
        corpus = docdir / f"corpus-{pair}.json"
        corpus.write_text(json.dumps({"pairs": [pair], "seeds": LAW_SEEDS}, ensure_ascii=False))
        items.append(Item(f"check-laws-{pair}", ["check-laws", "--corpus", str(corpus)], "laws"))
    return items


def eilenberg_items(docdir: Path) -> list:
    """Writes the generator and sample documents into ``docdir``."""
    generators = json.loads((DATA / "generators.json").read_text())
    samples = docdir / "samples.json"
    samples.write_text(json.dumps(EILENBERG_SAMPLES, ensure_ascii=False))
    items = []
    varlang = []
    for gen in generators:
        pair, name, doc = gen["pair"], gen["name"], gen["doc"]
        path = docdir / f"{pair}-{name}.json"
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        items.append(
            Item(
                f"eilenberg-{pair}-{name}",
                ["eilenberg-check", "--monoid", str(path), "--samples", str(samples),
                 "--pair", pair, "--nmax", "2"],
                "eilenberg",
            )
        )
        if doc["carrier"]["size"] <= 2:
            for alphabet in ("a", "ab"):
                varlang.append(
                    Item(
                        f"varlang-{pair}-{name}-{alphabet}",
                        ["varlang", "--monoid", str(path), "--alphabet", alphabet, "--pair", pair],
                        "digest",
                    )
                )
    return items + varlang


WORKLOADS = ("syntactic", "duality-laws", "preimage-laws", "eilenberg")


def build(workload: str, seed: int, docdir: Path) -> list:
    """The workload's items in their fixed run order."""
    if workload == "syntactic":
        return syntactic_items(seed)
    if workload == "duality-laws":
        return duality_items()
    if workload == "preimage-laws":
        return law_items(docdir)
    if workload == "eilenberg":
        return eilenberg_items(docdir)
    raise ValueError(f"unknown workload {workload!r}")
