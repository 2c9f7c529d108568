"""The closure and exploration kernels against brute-force references.

oracle.naive_closure applies every operation to every argument tuple in
every round; the closure kernel must find the same elements in the same
order, build the same witnesses and return complete operation tables.  The
exploration kernel must reach exactly the reachable states of a DFA and
give each the shortlex-least word that reaches it.
"""

import itertools
import random

import oracle
import pytest
from predual.algebra import (
    CapExceeded,
    closure,
    closure_ops,
    componentwise_fn,
    explore,
    shortlex_words,
    table_fn,
)
from predual.automata import dual_generated_monoid, generated_local_variety
from predual.langlib import free_combine, free_mul, free_word, free_zero, parse_regex
from predual.monoids import dmonoid_closure

PAIR_OF = {"SET": "BA", "POS": "DL01", "JSL0": "JSL0", "VECT2": "VECT2", "SET_STAR": "BR"}

REGEXES = ("(aa)*", "a", "(ab)*", "a*b", "(a|b)*a", "ab|ba", "~(a*)", "b(a|b)*", "(aaa)*", "a&b*|b")


def small_dmonoids(tag, count=4, seed=7):
    """Dual generated D-monoids of a seeded draw of small languages."""
    rng = random.Random(f"{seed}-{tag}")
    for rx in rng.sample(REGEXES, count):
        lang = parse_regex(rx, "ab")
        yield rx, dual_generated_monoid(generated_local_variety(PAIR_OF[tag], [lang]))


def loop_witness(tag, alphabet, names):
    """The witness rule of the former hand-written loops."""

    def on_new(x, k, ws):
        name = names[k]
        if name == "mul":
            return free_mul(*ws)
        if not ws:
            return free_zero(tag, alphabet)
        if len(ws) == 1:
            return free_combine(tag, alphabet, [(ws[0], int(name[4:]))])
        return free_combine(tag, alphabet, [(ws[0], 1), (ws[1], 1)])

    return on_new


def names_of(carrier):
    return ["mul"] + [name for name, _ in carrier.ops]


def test_kernel_matches_the_naive_loop_on_dmonoids_of_every_d_side_tag():
    for tag in PAIR_OF:
        for rx, g in small_dmonoids(tag):
            m, carrier = g.base, g.base.carrier
            # generators alone: multiplication and the D-operations rebuild m
            seeds = {m.unit: free_word(tag, g.alphabet, "")}
            for a in g.alphabet:
                seeds.setdefault(g.gen(a), free_word(tag, g.alphabet, a))
            ops = [(2, table_fn(2, m.mult), False)] + closure_ops(carrier)
            on_new = loop_witness(tag, g.alphabet, names_of(carrier))
            got = closure(seeds, ops, on_new=on_new)
            assert got == oracle.naive_closure(seeds, ops, on_new), (tag, rx)
            assert sorted(got[0]) == list(range(m.size)), (tag, rx)
            # the D-operations alone, witnessed as dmonoid_closure does
            got = dmonoid_closure(seeds, carrier)
            want = oracle.naive_closure(
                seeds, ops[1:], loop_witness(tag, g.alphabet, names_of(carrier)[1:])
            )
            assert got == want, (tag, rx, "D-operations")
            # the monoid acting pointwise on pairs, as in the free monoid of
            # a pseudovariety: one generator sent to (image of a, image of b)
            if m.size <= 4:
                seeds = {(m.unit, m.unit): free_word(tag, "a", "")}
                seeds.setdefault((g.gen("a"), g.gen("b")), free_word(tag, "a", "a"))
                mult = componentwise_fn(2, [m.mult] * 2)
                ops = [(2, mult, False)] + closure_ops([carrier] * 2)
                on_new = loop_witness(tag, "a", names_of(carrier))
                got = closure(seeds, ops, on_new=on_new)
                assert got == oracle.naive_closure(seeds, ops, on_new), (tag, rx, "pointwise")
                got = dmonoid_closure(seeds, [carrier] * 2)
                want = oracle.naive_closure(
                    seeds, ops[1:], loop_witness(tag, "a", names_of(carrier)[1:])
                )
                assert got == want, (tag, rx, "pointwise D-operations")


class Conflict(Exception):
    pass


def _pair_closure(close, ops, value):
    """The pairing closure of divides, recording each new pair found."""
    found = []

    def label(pair, k, ws):
        found.append(pair)
        if value.setdefault(*pair) != pair[1]:
            raise Conflict(pair)

    try:
        result = close(dict.fromkeys(value.items()), ops, on_new=label)
    except Conflict as stop:
        return found, stop.args[0], None
    return found, None, result


def test_divides_pair_closure_stops_where_the_naive_loop_does():
    stopped = completed = 0
    for tag in PAIR_OF:
        monoids = [g for _, g in small_dmonoids(tag, count=3, seed=11)]
        for cand, gen in itertools.product(monoids, repeat=2):
            m, c = gen.base, cand.base
            ops = [(2, componentwise_fn(2, (m.mult, c.mult)), False)]
            ops += closure_ops([m.carrier, c.carrier])
            gens = sorted({e for _, e in cand.gen_images})
            for tuples in itertools.product(range(m.size), repeat=len(gens)):
                value = {m.unit: c.unit}
                if any(value.setdefault(t, v) != v for t, v in zip(tuples, gens)):
                    continue
                got = _pair_closure(closure, ops, dict(value))
                want = _pair_closure(oracle.naive_closure, ops, dict(value))
                assert got == want, (tag, tuples)
                stopped += got[1] is not None
                completed += got[1] is None
    assert stopped and completed


def random_dfas(count=200, seed=5):
    """Seeded complete DFAs: (start, letters in a shuffled order, delta)."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 8)
        letters = rng.sample("abc", rng.randint(1, 3))
        delta = {(s, a): rng.randrange(n) for s in range(n) for a in letters}
        yield rng.randrange(n), "".join(letters), delta


def test_explore_reaches_exactly_the_reachable_states():
    for start, letters, delta in random_dfas():
        states, rows = explore(start, letters, lambda s, a: delta[s, a])
        reachable, stack = {start}, [start]
        while stack:
            s = stack.pop()
            for a in letters:
                if delta[s, a] not in reachable:
                    reachable.add(delta[s, a])
                    stack.append(delta[s, a])
        assert states[0] == start
        assert sorted(states) == sorted(reachable)
        for i, row in enumerate(rows):
            assert [states[j] for j in row] == [delta[states[i], a] for a in letters]


def test_shortlex_words_are_the_first_words_in_shortlex_order():
    for start, letters, delta in random_dfas():
        states, rows = explore(start, letters, lambda s, a: delta[s, a])
        first = {}
        for length in range(len(states)):  # every state is reached in < n letters
            for word in itertools.product(letters, repeat=length):
                s = start
                for a in word:
                    s = delta[s, a]
                first.setdefault(s, "".join(word))
        assert dict(zip(states, shortlex_words(rows, letters))) == first


def test_explore_cap_fires_exactly_above_the_reachable_count():
    for start, letters, delta in random_dfas(count=50, seed=9):
        n = len(explore(start, letters, lambda s, a: delta[s, a])[0])
        explore(start, letters, lambda s, a: delta[s, a], cap=n)
        if n > 1:
            with pytest.raises(CapExceeded, match=f"explore exceeded cap {n - 1}$"):
                explore(start, letters, lambda s, a: delta[s, a], cap=n - 1)
