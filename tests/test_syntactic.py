"""The syntactic L-algebra and the mask closure against the closure route
they replaced.

For every pair, generated_local_variety dualizes the L-algebra built on the
syntactic monoid from the columns of its quotients, and syntactic returns
that L-algebra; for JSL0 and VECT2 it is numbered by the languages read off
masks over the monoid, where oracle.syntactic_lalgebra_by_duals dualizes
the variety back, as syntactic once did, and both must be equal.  For BA,
DL01 and BR it is ranked by the language of each element (of its up-set
for DL01), read off the fibers of one multiplication table
(langlib.element_languages), where oracle.column_lalgebra_ranked_by_minimize
minimizes once per element.
oracle.closure_local_variety closes the seed languages under derivatives
and the language operations instead, as generated_local_variety once did;
both routes must give the same variety, tables included, and the same
bytes.  For all five pairs,
closure_under_ops_and_derivs closes bitmasks over the syntactic monoid;
oracle.closure_under_ops_and_derivs closes the languages themselves by DFA
products, and both must give the same languages.  validate_dmonoid
tests the D-monoid laws at a generating set (Light's test) and each section
at the carrier's generators; it must pass and fail the tables that
oracle.validate_dmonoid, which tests every triple and every section at
every pair, passes and fails, and name tuples where a law fails.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import oracle
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from predual import algebra, automata, duality, langlib
from predual.algebra import CapExceeded, StructureError, explore, free_algebra, make_algebra
from predual.automata import (
    SYNTACTIC_CAP,
    dual_automaton,
    dual_generated_monoid,
    eval_free,
    generated_local_variety,
    languages_of,
    make_lalgebra,
    syntactic_lalgebra,
)
from predual.cli import main
from predual.duality import MAIN_PAIRS
from predual.langlib import (
    closure_under_ops_and_derivs,
    element_languages,
    free_mul,
    parse_regex,
    syntactic_masks,
)
from predual.monoids import DMonoid, make_dmonoid, transition_dmonoid, validate_dmonoid
from predual.preimage import default_seed_languages
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
    assert set(languages_of(q)) == set(oracle.closure_under_ops_and_derivs(pair, seeds))
    path = tmp_path / "seeds.json"
    path.write_text(json.dumps(regexes, ensure_ascii=False))
    code, out, err = run_cli(
        "localvariety", "--tag", pair, "--seeds", str(path), "--alphabet", alphabet, "--json"
    )
    assert (code, err) == (0, "")
    assert out == dumps(reference), regexes
    return reference


@pytest.mark.parametrize("pair", MAIN_PAIRS)
def test_one_seed_gives_the_closure_routes_bytes(pair, tmp_path):
    for rx, alphabet in CORPUS:
        reference = dual_generated_monoid(check_localvariety(pair, [rx], alphabet, tmp_path))
        code, out, err = run_cli(
            "syntactic", "--tag", pair, "--regex", rx, "--alphabet", alphabet, "--json"
        )
        assert (code, err) == (0, "")
        assert out == dumps(generated_dmonoid_doc(reference)), rx


@pytest.mark.parametrize("pair", MAIN_PAIRS)
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


ROUTES = (closure_under_ops_and_derivs, oracle.closure_under_ops_and_derivs)


def closures_of(tag, seeds, cap):
    """Both routes' languages at cap, or both routes' CapExceeded messages."""
    results = []
    for route in ROUTES:
        try:
            results.append(route(tag, seeds, cap))
        except CapExceeded as e:
            results.append(str(e))
    return results


@pytest.mark.parametrize("tag", MAIN_PAIRS)
def test_mask_closure_equals_the_product_closure(tag):
    cases = [([rx], alphabet) for rx, alphabet in CORPUS]
    cases += [(list(regexes), "ab") for regexes in SEED_SETS]
    if tag in ("DL01", "BR"):
        cases += [(["ab", "ba"], "ab"), (["(ab)*", "a(a|b)*"], "ab")]
    for regexes, alphabet in cases:
        seeds = [parse_regex(rx, alphabet) for rx in regexes]
        size = len(closure_under_ops_and_derivs(tag, seeds))
        got, want = closures_of(tag, seeds, size)
        assert got == want, (tag, regexes)  # languages in order
        # a closure that adds no language to its seeds never hits the cap
        if size > len(set(seeds)):
            message = f"language closure exceeded cap {size - 1}"
            assert closures_of(tag, seeds, size - 1) == [message] * 2, (tag, regexes)


def regexes(depth, letters="ab"):
    """Regexes over letters of nesting depth at most depth."""
    if depth == 0:
        return st.sampled_from([*letters, "ε", "∅"])
    sub = regexes(depth - 1, letters)
    return st.one_of(
        sub,
        st.builds("({}{})".format, sub, sub),
        st.builds("({}|{})".format, sub, sub),
        st.builds("({}&{})".format, sub, sub),
        st.builds("({})*".format, sub),
        st.builds("~({})".format, sub),
    )


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(regexes(3))
@example("(((aa)(aa))(ba))")  # over the cap under every pair
def test_mask_closure_equals_the_product_closure_on_random_regexes(regex):
    seeds = [parse_regex(regex, "ab")]
    for tag in MAIN_PAIRS:
        got, want = closures_of(tag, seeds, 256)
        assert got == want, (tag, regex)
        if isinstance(want, list):  # and the variety and its dual, tables included
            reference = oracle.closure_local_variety(tag, seeds, 256)
            assert generated_local_variety(tag, seeds, 256) == reference, (tag, regex)
            assert syntactic_lalgebra(tag, seeds) == dual_automaton(reference), (tag, regex)


# JSL0 and VECT2 varieties of 5 to 512 languages over syntactic monoids of
# 5 to 31 elements
LARGE = ("(aab)*", "(ab|ba)*", "(a|b)*abb", "(a|b)*a(a|b)(a|b)(a|b)", "a*b*", "(ab)*")


def by_duals(tag, seeds, cap):
    """generated_local_variety at cap, or its CapExceeded message, against
    oracle.generated_local_variety_by_duals, and returned; for JSL0 and
    VECT2 also syntactic_lalgebra against oracle.syntactic_lalgebra_by_duals."""
    results = []
    for route in (generated_local_variety, oracle.generated_local_variety_by_duals):
        try:
            results.append(route(tag, seeds, cap))
        except CapExceeded as e:
            results.append(str(e))
    assert results[0] == results[1], (tag, seeds)
    if tag in ("JSL0", "VECT2") and not isinstance(results[0], str):
        assert syntactic_lalgebra(tag, seeds) == oracle.syntactic_lalgebra_by_duals(tag, seeds)
    return results[0]


@pytest.mark.parametrize("tag", MAIN_PAIRS)
def test_the_column_lalgebra_is_numbered_as_the_dual_of_the_variety(tag):
    # the Birkhoff pairs at 512 languages: BA on (aab)* has 4096
    cases = [([rx], alphabet) for alphabet, rxs in default_seed_languages().items() for rx in rxs]
    cases += [(list(regexes), "ab") for regexes in SEED_SETS]
    cases += [([rx], "ab") for rx in LARGE] + [(["ε"], "")]
    for regexes, alphabet in cases:
        by_duals(tag, [parse_regex(rx, alphabet) for rx in regexes], 512)
    if tag not in PAIRS:
        return
    # each Birkhoff variety of LARGE within 512 languages at the cap edge:
    # its n down-sets fit at cap n and exceed cap n - 1
    for rx in LARGE:
        seeds = [parse_regex(rx, "ab")]
        q = by_duals(tag, seeds, 512)
        if not isinstance(q, str):
            n = q.states.size
            assert by_duals(tag, seeds, n) == q, (tag, rx)
            assert by_duals(tag, seeds, n - 1) == f"local variety exceeded cap {n - 1}", (tag, rx)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(regexes(3))
def test_the_column_lalgebra_is_numbered_as_the_dual_of_the_variety_on_random_regexes(regex):
    for tag in MAIN_PAIRS:
        by_duals(tag, [parse_regex(regex, "ab")], 256)


def _merged(perm):
    """A standard form that gives the element coded 1 the code 2 too."""
    return tuple(2 if v == 1 else v for v in perm)


def _skewed(perm):
    """The standard form with the codes 1 and 3 swapped, a linear map that
    does not keep the dot product."""
    return tuple({1: 3, 3: 1}.get(v, v) for v in perm)


@pytest.mark.parametrize(
    "fault, message",
    [
        (_merged, "two elements of the L-algebra pair with one language"),
        (_skewed, "a derivative of a paired language is not paired"),
    ],
)
def test_a_broken_pairing_is_an_internal_error(monkeypatch, fault, message):
    standard_form = automata.standard_basis_perm
    monkeypatch.setattr(
        automata, "standard_basis_perm", lambda a, scan=None: fault(standard_form(a, scan))
    )
    with pytest.raises(algebra.InternalInvariantError, match=f"^{message}$"):
        syntactic_lalgebra("VECT2", [parse_regex("(ab)*")])


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


@pytest.mark.parametrize("pair", MAIN_PAIRS)
def test_table_columns_give_the_entrywise_multiplication_and_representatives(pair):
    for rx, alphabet in CORPUS:
        a = syntactic_lalgebra(pair, [parse_regex(rx, alphabet)])
        g = dual_generated_monoid(a)
        assert (g.base.mult, g.reprs) == oracle.dual_monoid_entries(a), rx


def test_an_element_no_word_reaches_gets_a_scaled_word():
    # GF(3) acting on itself: the letter is the identity, the unit is 1, so
    # the words reach 1 alone, 0 is the zero and 2 the combination 2 eps
    carrier = free_algebra("VECT3", ["u"])[0]
    a = make_lalgebra("VECT3", "a", carrier, {"a": (0, 1, 2)}, 1)
    g = dual_generated_monoid(a)
    assert [fe.pairs for _, fe in g.reprs] == [(), (("", 1),), (("", 2),)]
    assert g.base.mult == ((0, 0, 0), (0, 1, 2), (0, 2, 1))
    assert (g.base.mult, g.reprs) == oracle.dual_monoid_entries(a)


def ranked_alike(regex, alphabet):
    """The languages of each element and of each element's up-set (DL01's
    order) read off the fibers of one multiplication table against one
    _minimize per target, and the BA, DL01 and BR syntactic L-algebras,
    which rank their carriers by them, against the per-element ranking of
    oracle.column_lalgebra_ranked_by_minimize."""
    seeds = [parse_regex(regex, alphabet)]
    try:
        _, derivatives, masks, right = syntactic_masks(seeds, SYNTACTIC_CAP, "syntactic monoid")
    except CapExceeded:
        return
    quotients = algebra.closure(dict.fromkeys(masks), derivatives)[0]
    for targets in ([{m} for m in range(len(right))], oracle.upsets(quotients, len(right))):
        languages = element_languages(alphabet, right, targets)
        want = oracle.element_languages_by_minimize(alphabet, right, targets)
        assert languages == want, (regex, alphabet, targets)
    for pair in PAIRS:
        want = oracle.column_lalgebra_ranked_by_minimize(pair, seeds, SYNTACTIC_CAP)
        assert syntactic_lalgebra(pair, seeds) == want, (pair, regex, alphabet)


def test_fiber_ranking_equals_one_minimization_per_element():
    for rx, alphabet in CORPUS:
        ranked_alike(rx, alphabet)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(["a", "ab", "ba"]).flatmap(
        lambda alphabet: st.tuples(regexes(3, "a" if alphabet == "a" else "ab"), st.just(alphabet))
    )
)
def test_fiber_ranking_equals_one_minimization_per_element_on_random_regexes(case):
    ranked_alike(*case)


def watch(monkeypatch, homes, names):
    """Record (name, whether within _column_lalgebra) for each call of the
    named functions of homes, a module or a tuple of modules, while the test
    runs; each name is watched in every module of homes that has it."""
    calls, within = [], []
    column_lalgebra = automata._column_lalgebra

    def watched_column_lalgebra(*args):
        within.append(True)
        try:
            return column_lalgebra(*args)
        finally:
            within.pop()

    monkeypatch.setattr(automata, "_column_lalgebra", watched_column_lalgebra)
    homes = homes if isinstance(homes, tuple) else (homes,)
    for name in names:
        assert any(hasattr(home, name) for home in homes), name
        for home in homes:
            if not hasattr(home, name):
                continue
            original = getattr(home, name)

            def watched(*args, name=name, original=original, **kwargs):
                calls.append((name, bool(within)))
                return original(*args, **kwargs)

            monkeypatch.setattr(home, name, watched)
    return calls


@pytest.mark.parametrize("tag", ["JSL0", "VECT2"])
def test_a_jsl0_or_vect2_carrier_is_built_once_in_its_final_order(monkeypatch, tag):
    calls = watch(monkeypatch, automata, ["make_algebra", "dmonoid_closure"])
    code, out, err = run_cli("syntactic", "--tag", tag, "--regex", "(ab)*")
    assert (code, err) == (0, "") and out.startswith("order 16 dual generated D-monoid\n")
    # one checked carrier, no copy, and the words' search needs no closure
    assert calls == [("make_algebra", True)]
    seeds = [parse_regex("(ab)*")]
    assert syntactic_lalgebra(tag, seeds) == oracle.syntactic_lalgebra_by_duals(tag, seeds)


@pytest.mark.parametrize("tag", PAIRS)
def test_a_birkhoff_variety_is_built_once_in_language_order(monkeypatch, tag):
    names = ["make_algebra", "dual_automaton_inv", "downset_masks", "closure"]
    calls = watch(monkeypatch, (automata, algebra, duality), names)
    code, out, err = run_cli("localvariety", "--tag", tag, "--regex", "(ab)*")
    assert (code, err) == (0, "") and out.startswith("local variety with ")
    # the down-sets enumerated once, and one checked carrier besides the
    # L-algebra's, read off their masks with no closure, no dual taken and
    # no copy
    assert [c for c in calls if not c[1]] == [("downset_masks", False), ("make_algebra", False)]
    seeds = [parse_regex("(ab)*")]
    assert generated_local_variety(tag, seeds) == oracle.generated_local_variety_by_duals(tag, seeds)


@pytest.mark.parametrize("tag", MAIN_PAIRS)
def test_every_variety_is_read_off_its_masks_with_no_dual_and_no_refinement(monkeypatch, tag):
    seeds = [parse_regex("(ab)*")]
    calls = watch(monkeypatch, (automata, langlib), ["dual_automaton_inv", "_nerode"])
    q = generated_local_variety(tag, seeds)
    assert calls == []
    assert q == oracle.generated_local_variety_by_duals(tag, seeds)


def test_ba_dl01_and_br_syntactic_rank_their_carriers_with_no_minimization(monkeypatch):
    calls = watch(monkeypatch, langlib, ["_minimize"])
    for tag in PAIRS:
        calls.clear()
        code, out, err = run_cli("syntactic", "--tag", tag, "--regex", "(ab)*")
        assert (code, err) == (0, "")
        assert ("_minimize", True) not in calls, tag


@pytest.mark.parametrize(
    "pair, regex, closures",
    [
        ("JSL0", "(ab)*", 0), ("VECT2", "(ab)*", 0), ("BR", "(ab)*", 0),
        ("JSL0", "(a|b)*abb", 0), ("BR", "(ab|ba)*", 0),
        # 15 words: too many to search, so the words are closed
        ("VECT2", "(ab|ba)*", 1), ("JSL0", "(ab|ba)*", 1),
    ],
)
def test_representatives_are_searched_first_and_closed_where_the_search_misses(
    monkeypatch, pair, regex, closures
):
    a = syntactic_lalgebra(pair, [parse_regex(regex)])
    calls = watch(monkeypatch, automata, ["dmonoid_closure"])
    g = dual_generated_monoid(a)
    assert len(calls) == closures
    assert (g.base.mult, g.reprs) == oracle.dual_monoid_entries(a)


@pytest.mark.parametrize("tag", ["JSL0", "VECT2"])
def test_a_carrier_the_words_do_not_generate_is_refused(monkeypatch, tag):
    # the letter fixes the first generator, which alone the words reach
    # (the pair and its D-side share the tag)
    carrier, gens = free_algebra(tag, ["u", "v"])
    a = make_lalgebra(tag, "a", carrier, {"a": tuple(range(carrier.size))}, gens[0])
    calls = watch(monkeypatch, automata, ["dmonoid_closure"])
    with pytest.raises(StructureError, match="^carrier not generated by words and D-operations$"):
        dual_generated_monoid(a)
    assert len(calls) == 1


def test_syntactic_builds_its_monoid_without_per_entry_combinations(monkeypatch):
    # each combination of the whole command, with the watched calls it is made in
    calls, within = [], []
    homes = {
        "combine_elements": algebra, "generated_subalgebra": algebra,
        "init_selector_table": duality, "dual_generated_monoid": automata,
    }
    for name, home in homes.items():
        original = getattr(home, name)

        def watched(*args, name=name, original=original, home=home):
            if home is algebra:
                calls.append((name, *within))
            within.append(name)
            try:
                return original(*args)
            finally:
                within.pop()

        for module in [m for key, m in sys.modules.items() if key.startswith("predual")]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, watched)
    code, out, _ = run_cli("syntactic", "--tag", "VECT2", "--regex", "(a|b)*abb", "--json")
    assert code == 0 and json.loads(out)["kind"] == "generated-dmonoid"
    # none builds the monoid, and no dual of the column L-algebra is taken
    assert calls == []


@pytest.mark.parametrize("pair", MAIN_PAIRS)
def test_light_test_passes_the_corpus_monoids(pair):
    for rx, alphabet in CORPUS:
        m = dual_generated_monoid(syntactic_lalgebra(pair, [parse_regex(rx, alphabet)])).base
        assert validate_dmonoid(m) == oracle.validate_dmonoid(m) == [], rx
        gens = algebra.greedy_generators(m.mult, range(m.size), (m.unit,))
        assert gens == oracle.monoid_generators(m), rx


_ASSOCIATIVITY = re.compile(r"^associativity fails at \((\d+),(\d+),(\d+)\)$")
_SECTION = re.compile(
    r"^(left|right) multiplication by (\d+) is not a D-endomorphism: "
    r"(\w+) not preserved at \((\d+),(\d+)\)$"
)


def _agree(m):
    """Whether validate_dmonoid and the full check accept m alike; every
    associativity or section message must name a tuple where the law
    fails."""
    messages = validate_dmonoid(m)
    mult, ops = m.mult, m.carrier.op_dict()
    for message in messages:
        if found := _ASSOCIATIVITY.match(message):
            x, a, y = map(int, found.groups())
            assert mult[mult[x][a]][y] != mult[x][mult[a][y]], message
        elif found := _SECTION.match(message):
            side, a, name, x, y = found.groups()
            a, x, y, t = int(a), int(x), int(y), ops[name]
            f = mult[a] if side == "left" else tuple(row[a] for row in mult)
            assert f[t[x][y]] != t[f[x]][f[y]], message
    return (messages == []) == (oracle.validate_dmonoid(m) == [])


@pytest.mark.parametrize("pair", MAIN_PAIRS)
def test_light_test_agrees_with_the_full_check_on_single_entry_changes(pair):
    m = dual_generated_monoid(syntactic_lalgebra(pair, [parse_regex("(ab)*")])).base
    for x, row in enumerate(m.mult):
        for y, old in enumerate(row):
            for v in range(m.size):
                if v != old:
                    mult = m.mult[:x] + (row[:y] + (v,) + row[y + 1:],) + m.mult[x + 1:]
                    assert _agree(DMonoid(m.carrier, mult, m.unit)), (x, y, v)


@st.composite
def unital_tables(draw):
    """A table on 1-4 elements with unit 0 and the rest drawn at random, or
    the transformation monoid of 1-3 maps of three points with at most one
    entry changed."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 4))
        cells = iter(draw(st.lists(st.integers(0, n - 1), min_size=(n - 1) ** 2,
                                   max_size=(n - 1) ** 2)))
        mult = [list(range(n))] + [[x] + [next(cells) for _ in range(n - 1)]
                                   for x in range(1, n)]
    else:
        maps = draw(st.lists(st.tuples(*[st.integers(0, 2)] * 3), min_size=1, max_size=3))
        elems, _ = explore((0, 1, 2), maps, lambda t, f: tuple(f[v] for v in t))
        index = {t: i for i, t in enumerate(elems)}
        n = len(elems)
        mult = [[index[tuple(u[v] for v in t)] for u in elems] for t in elems]
        if draw(st.booleans()):
            mult[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(
                st.integers(0, n - 1))
    return make_dmonoid(make_algebra("SET", n, {}), mult, 0)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(unital_tables())
def test_light_test_agrees_with_the_full_check_on_random_tables(m):
    assert _agree(m)


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
