"""One Nerode partition per automaton against the state-by-state route.

predual refines the states of a coalgebra once (langlib._nerode), keeps the
partition on the instance and numbers each state's language off it
(langlib._canonical); the mask closure reads its languages off its own
left-derivative tables, with no refinement.  oracle.minimize is predual's
_minimize as it was, run once per state and per right derivative, and the
oracle's language_of_state, language_of_output and is_local_variety are the
routes built on it.
"""

from collections import Counter

import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from predual import automata, langlib
from predual.automata import (
    dual_automaton,
    generated_local_variety,
    is_local_variety,
    language_of_output,
    languages_of,
    state_output_morphism,
)
from predual.cli import main
from predual.duality import MAIN_PAIRS
from predual.langlib import (
    RegularLanguage,
    _canonical,
    _minimize,
    _nerode,
    closure_under_ops_and_derivs,
    parse_regex,
)
from test_syntactic import CORPUS


@st.composite
def complete_dfas(draw):
    """(alphabet, delta, finals): a complete DFA of 1-12 states over 1-3 letters."""
    n = draw(st.integers(1, 12))
    alphabet = "abc"[: draw(st.integers(1, 3))]
    row = st.tuples(*[st.integers(0, n - 1)] * len(alphabet))
    delta = draw(st.lists(row, min_size=n, max_size=n))
    finals = draw(st.sets(st.integers(0, n - 1)))
    return alphabet, delta, finals


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(complete_dfas())
def test_one_partition_gives_every_states_minimal_automaton(dfa):
    alphabet, delta, finals = dfa
    n = len(delta)
    block = _nerode(delta, finals, range(n))
    for s in range(n):
        want = oracle.minimize(alphabet, n, delta, finals, s)
        assert _canonical(alphabet, delta, block, finals, s) == want
        assert _minimize(alphabet, n, delta, finals, s) == want


@pytest.mark.parametrize("pair", MAIN_PAIRS)
def test_kept_partitions_agree_with_the_state_by_state_route(pair):
    """On the syntactic corpus: the state languages and dual outputs of each
    local variety, its closure's languages, and is_local_variety on it and
    on the subcoalgebra its seed generates, which need not be closed under
    right derivatives."""
    negatives = 0
    for rx, alphabet in CORPUS:
        seed = parse_regex(rx, alphabet)
        q = generated_local_variety(pair, [seed])
        langs = languages_of(q)
        assert langs == oracle.languages_of(q), rx
        closed = closure_under_ops_and_derivs(pair, [seed])
        assert list(closed) == sorted(langs, key=RegularLanguage.sort_key), rx
        assert is_local_variety(q) and oracle.is_local_variety(q), rx
        a = dual_automaton(q)
        for s in range(min(q.states.size, 8)):
            out = state_output_morphism(q, s)
            assert language_of_output(a, out) == oracle.language_of_output(a, out), rx
        sub = oracle.subcoalgebra_of_state(q, langs.index(seed))
        assert languages_of(sub) == oracle.languages_of(sub), rx
        kept = is_local_variety(sub)
        assert kept == oracle.is_local_variety(sub), rx
        negatives += not kept
    assert negatives  # (ab)* is among them


def test_an_empty_alphabet_gives_one_state_per_language():
    for pair in MAIN_PAIRS:
        q = generated_local_variety(pair, [parse_regex("ε", "")])
        assert languages_of(q) == oracle.languages_of(q) and len(set(languages_of(q))) == 2
        assert is_local_variety(q)


@pytest.mark.parametrize("pair", ["JSL0", "VECT2"])
def test_syntactic_refines_each_automaton_once_per_output_table(monkeypatch, capsys, pair):
    """A syntactic call refines the dual of the L-algebra built on the
    syntactic monoid once, by its output, then its local variety once, by
    its output, and once beside each letter's right-derivative view; the
    L-algebra's columns minimize nothing."""
    refined, minimized = Counter(), [0]
    nerode, minimize = langlib._nerode, langlib._minimize

    def count_nerode(delta, finals, states):
        refined[tuple(map(tuple, delta)), frozenset(finals), tuple(states)] += 1
        return nerode(delta, finals, states)

    def count_minimize(*args):
        minimized[0] += 1
        return minimize(*args)

    monkeypatch.setattr(automata, "_nerode", count_nerode)
    monkeypatch.setattr(langlib, "_minimize", count_minimize)
    assert main(["syntactic", "--tag", pair, "--regex", "(ab)*"]) == 0
    assert capsys.readouterr().out.startswith("order ")
    assert minimized[0] == 1  # parse_regex
    # the dual of the L-algebra, the variety, then the variety beside its
    # view under a and under b
    assert len(refined) == 4 and set(refined.values()) == {1}
