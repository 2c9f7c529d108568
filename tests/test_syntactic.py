"""The syntactic L-algebra against the closure route it replaced.

For BA, DL01 and BR, syntactic builds the dual of a language's local variety
on its syntactic monoid, and localvariety dualizes that L-algebra again.
oracle.closure_local_variety closes the seed languages under derivatives and
the language operations instead, as generated_local_variety did for every
pair; both routes must give the same languages and the same bytes.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import oracle
import pytest
from predual.algebra import CapExceeded
from predual.automata import (
    dual_generated_monoid,
    eval_free,
    generated_local_variety,
    languages_of,
    syntactic_lalgebra,
)
from predual.cli import main
from predual.duality import MAIN_PAIRS
from predual.langlib import closure_under_ops_and_derivs, free_mul, parse_regex
from predual.monoids import transition_dmonoid
from predual.serialize import dumps, generated_dmonoid_doc

PAIRS = ("BA", "DL01", "BR")

# (regex, alphabet): a null class (BR's basepoint), a unit that is null,
# groups, nilpotents, an ordered monoid that is no chain, and |M| = 7 or 8
CORPUS = (
    ("(aa)*", "a"), ("a*", "a"), ("a", "a"), ("∅", "a"), ("ε", "a"), ("aa*", "a"),
    ("(aaa)*", "a"), ("(ab)*", "ab"), ("a(ba)*", "ab"), ("ab|ba", "ab"), ("a*b", "ab"),
    ("(a|b)*a", "ab"), ("~(a*)", "ab"), ("b(a|b)*", "ab"), ("a&b*|b", "ab"),
    ("~(a(a|b)*)", "ab"), ("b*a(a|b)*", "ab"), ("(a|b)*b(a|b)*", "ab"), ("ab", "ab"),
    ("(a|b)*abb", "ab"),
)

SEED_SETS = (
    ("(aa)*", "a*"), ("a*b", "b*"), ("ab", "ba"), ("∅", "(aa)*"), ("(a|b)*a", "b(a|b)*"),
)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def check_localvariety(pair, regexes, alphabet, tmp_path):
    """generated_local_variety and localvariety --json against the closure
    route; returns the reference coalgebra."""
    seeds = [parse_regex(rx, alphabet) for rx in regexes]
    reference = oracle.closure_local_variety(pair, seeds)
    q = generated_local_variety(pair, seeds)
    assert q == reference, regexes
    assert set(languages_of(q)) == set(closure_under_ops_and_derivs(pair, seeds))
    path = tmp_path / "seeds.json"
    path.write_text(json.dumps(regexes, ensure_ascii=False))
    code, out, err = run_cli(
        "localvariety", "--tag", pair, "--seeds", str(path), "--alphabet", alphabet, "--json"
    )
    assert (code, err) == (0, "")
    assert out == dumps(reference), regexes
    return reference


@pytest.mark.parametrize("pair", PAIRS)
def test_one_seed_gives_the_closure_routes_bytes(pair, tmp_path):
    for rx, alphabet in CORPUS:
        reference = dual_generated_monoid(check_localvariety(pair, [rx], alphabet, tmp_path))
        code, out, err = run_cli(
            "syntactic", "--tag", pair, "--regex", rx, "--alphabet", alphabet, "--json"
        )
        assert (code, err) == (0, "")
        assert out == dumps(generated_dmonoid_doc(reference)), rx


@pytest.mark.parametrize("pair", PAIRS)
def test_several_seeds_give_the_closure_routes_bytes(pair, tmp_path):
    for regexes in SEED_SETS:
        check_localvariety(pair, list(regexes), "ab", tmp_path)


def test_several_seeds_give_the_subdirect_product():
    seeds = [parse_regex("(aa)*"), parse_regex("(aaa)*")]
    for pair in PAIRS:
        g = dual_generated_monoid(syntactic_lalgebra(pair, seeds))
        assert g.base.size == 6 + (pair == "BR")  # Z2 x Z3, behind a basepoint


@pytest.mark.parametrize("regex, order", [("(aab)*", 12), ("(ab|ba)*", 15)])
def test_large_ba_syntactic_monoids_finish(regex, order):
    # the closure route needed 2^order languages: (aab)* ran for over 900 s
    # and (ab|ba)* stopped at the cap of 4096
    start = time.perf_counter()
    code, out, err = run_cli("syntactic", "--tag", "BA", "--regex", regex)
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    assert out.startswith(f"order {order} dual generated D-monoid\n")


@pytest.mark.parametrize("pair", MAIN_PAIRS)
def test_multiplication_is_evaluation_of_free_products(pair):
    zeros = combinations = 0
    for rx, alphabet in CORPUS:
        a = syntactic_lalgebra(pair, [parse_regex(rx, alphabet)])
        g = dual_generated_monoid(a)
        reprs = dict(g.reprs)
        n = a.states.size
        assert g.base.mult == tuple(
            tuple(eval_free(a, free_mul(reprs[x], reprs[y])) for y in range(n))
            for x in range(n)
        ), rx
        zeros += any(fe.is_zero() for fe in reprs.values())
        combinations += any(len(fe.pairs) > 1 for fe in reprs.values())
    # BR's basepoint is the zero; JSL0 and VECT2 need joins and sums of words
    if pair == "BR":
        assert zeros
    if pair in ("JSL0", "VECT2"):
        assert combinations


FAULTS = """
from predual.algebra import StructureError
from predual.automata import LAlgebra, dual_generated_monoid, syntactic_lalgebra
from predual.langlib import parse_regex

assert False  # stripped under -O
for pair in ("BA", "DL01", "BR"):
    a = syntactic_lalgebra(pair, [parse_regex("(ab)*")])
    faults = caught = 0
    for i, (letter, table) in enumerate(a.trans):
        for s, t in enumerate(table):
            for v in range(a.states.size):
                if v == t:
                    continue
                trans = list(a.trans)
                trans[i] = (letter, table[:s] + (v,) + table[s + 1:])
                faults += 1
                try:
                    dual_generated_monoid(LAlgebra(pair, a.alphabet, a.states, tuple(trans), a.init))
                except StructureError:
                    caught += 1
    print(pair, faults, caught)
"""


def test_faults_in_the_lalgebra_are_caught_under_python_O():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run(
        [sys.executable, "-O", "-c", FAULTS], capture_output=True, text=True, env=env, timeout=120
    )
    assert run.returncode == 0, run.stderr
    # every change of one transition entry of the 6-element monoid is caught
    assert run.stdout == "BA 60 60\nDL01 60 60\nBR 60 60\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["syntactic", "--tag", "BA", "--regex", "(a|b)*a" + "(a|b)" * 8],
         "syntactic monoid exceeded cap 512"),
        (["minimize", "--regex", "(a|b)*a" + "(a|b)" * 13], "regex states exceeded cap 10000"),
    ],
)
def test_cap_messages_name_the_stage(argv, message):
    code, out, err = run_cli(*argv)
    assert (code, out) == (3, "")
    assert err == f"cap exceeded: {message}\n"


def test_cap_messages_of_the_api_name_the_stage():
    lang = parse_regex("(ab)*")
    with pytest.raises(CapExceeded, match="^local variety exceeded cap 63$"):
        generated_local_variety("BA", [lang], cap=63)
    generated_local_variety("BA", [lang], cap=64)
    with pytest.raises(CapExceeded, match="^language closure exceeded cap 5$"):
        generated_local_variety("JSL0", [lang], cap=5)
    with pytest.raises(CapExceeded, match="^transition monoid exceeded cap 2$"):
        transition_dmonoid(syntactic_lalgebra("BA", [lang]), cap=2)
