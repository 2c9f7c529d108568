"""The closure kernel against the naive round-based loops it replaced.

oracle.naive_closure applies every operation to every argument tuple in
every round; the kernel must find the same elements in the same order, build
the same witnesses and return complete operation tables.
"""

import itertools
import random

import oracle
from predual.algebra import closure, closure_ops, componentwise_fn, table_fn
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
            got = dmonoid_closure(seeds, carrier, table_fn(2, m.mult))
            want = oracle.naive_closure(
                seeds, ops, loop_witness(tag, g.alphabet, names_of(carrier))
            )
            assert got == want, (tag, rx)
            assert sorted(got[0]) == list(range(m.size)), (tag, rx)
            # the monoid acting pointwise on pairs, as in the free monoid of
            # a pseudovariety: one generator sent to (image of a, image of b)
            if m.size <= 4:
                seeds = {(m.unit, m.unit): free_word(tag, "a", "")}
                seeds.setdefault((g.gen("a"), g.gen("b")), free_word(tag, "a", "a"))
                mult = componentwise_fn(2, [m.mult] * 2)
                ops = [(2, mult, False)] + closure_ops([carrier] * 2)
                got = dmonoid_closure(seeds, [carrier] * 2, mult)
                want = oracle.naive_closure(
                    seeds, ops, loop_witness(tag, "a", names_of(carrier))
                )
                assert got == want, (tag, rx, "pointwise")


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
