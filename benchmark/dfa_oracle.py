"""The benchmark's own regular-language oracle, independent of predual.

Regexes compile to canonical minimal DFAs by compositional product and
subset constructions (predual uses Brzozowski derivatives instead).  The
syntactic-monoid order of a language is the size of the transition monoid of
the minimal DFA of its reversal, which is the order of the dual generated
D-monoid that ``predual syntactic`` reports for the BA and DL01 pairs.
Nothing here imports predual.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass


class RegexError(ValueError):
    pass


@dataclass(frozen=True)
class DFA:
    """Complete DFA with initial state 0; canonical when built by ``minimize``."""

    alphabet: tuple
    delta: tuple  # delta[state][letter index]
    finals: frozenset

    @property
    def size(self) -> int:
        return len(self.delta)


def _explore(alphabet, start, step, is_final) -> DFA:
    """Subset/product construction over hashable state keys, then minimize."""
    index = {start: 0}
    keys = [start]
    delta = []
    for key in keys:
        row = []
        for i in range(len(alphabet)):
            nxt = step(key, i)
            if nxt not in index:
                index[nxt] = len(keys)
                keys.append(nxt)
            row.append(index[nxt])
        delta.append(tuple(row))
    finals = {index[k] for k in keys if is_final(k)}
    return minimize(alphabet, delta, finals)


def minimize(alphabet, delta, finals) -> DFA:
    """Moore refinement of the states reachable from 0, then BFS renumbering."""
    k = len(alphabet)
    reach = [0]
    seen = {0}
    for s in reach:
        for t in delta[s]:
            if t not in seen:
                seen.add(t)
                reach.append(t)
    block = {s: int(s in finals) for s in reach}
    n_blocks = len(set(block.values()))
    while True:
        sigs = {}
        new_block = {}
        for s in reach:
            sig = (block[s],) + tuple(block[delta[s][i]] for i in range(k))
            new_block[s] = sigs.setdefault(sig, len(sigs))
        block = new_block
        if len(sigs) == n_blocks:
            break
        n_blocks = len(sigs)
    rep = {}
    for s in reach:
        rep.setdefault(block[s], s)
    order = [block[0]]
    number = {block[0]: 0}
    for b in order:
        for i in range(k):
            t = block[delta[rep[b]][i]]
            if t not in number:
                number[t] = len(order)
                order.append(t)
    new_delta = tuple(
        tuple(number[block[delta[rep[b]][i]]] for i in range(k)) for b in order
    )
    new_finals = frozenset(number[b] for b in order if rep[b] in finals)
    return DFA(tuple(alphabet), new_delta, new_finals)


# -- regex syntax: letters, concatenation, | & * ~, parentheses, ε/% and ∅/@.
# Star binds tightest, then ~, then concatenation, then &, then |.

_META = set("()|&*~")
_EMPTY = {"∅", "@"}
_EPS = {"ε", "%"}


def parse(text: str):
    """Regex text -> AST of nested tuples."""
    pos = 0

    def peek():
        return text[pos] if pos < len(text) else None

    def binary(op, sub):
        nonlocal pos
        node = sub()
        while peek() == op:
            pos += 1
            node = (op, node, sub())
        return node

    def union():
        return binary("|", inter)

    def inter():
        return binary("&", concat)

    def concat():
        node = factor()
        while peek() not in (None, "|", "&", ")"):
            node = ("cat", node, factor())
        return node

    def factor():
        nonlocal pos
        if peek() == "~":
            pos += 1
            return ("~", factor())
        node = atom()
        while peek() == "*":
            pos += 1
            node = ("*", node)
        return node

    def atom():
        nonlocal pos
        ch = peek()
        if ch is None:
            raise RegexError(f"unexpected end of {text!r}")
        pos += 1
        if ch == "(":
            node = union()
            if peek() != ")":
                raise RegexError(f"unbalanced parenthesis in {text!r}")
            pos += 1
            return node
        if ch in _EMPTY:
            return ("empty",)
        if ch in _EPS:
            return ("eps",)
        if ch in _META:
            raise RegexError(f"unexpected {ch!r} in {text!r}")
        return ("lit", ch)

    node = union()
    if pos != len(text):
        raise RegexError(f"unexpected {text[pos]!r} in {text!r}")
    return node


def letters_of(node, acc=None) -> set:
    acc = set() if acc is None else acc
    if node[0] == "lit":
        acc.add(node[1])
    for child in node[1:]:
        if isinstance(child, tuple):
            letters_of(child, acc)
    return acc


def _build(node, alphabet) -> DFA:
    kind = node[0]
    k = len(alphabet)
    if kind in ("empty", "eps"):
        # state 0 is the start, state 1 is dead
        return minimize(alphabet, ((1,) * k, (1,) * k), {0} if kind == "eps" else set())
    if kind == "lit":
        i = alphabet.index(node[1])
        delta = (tuple(1 if j == i else 2 for j in range(k)), (2,) * k, (2,) * k)
        return minimize(alphabet, delta, {1})
    if kind == "~":
        d = _build(node[1], alphabet)
        return minimize(alphabet, d.delta, set(range(d.size)) - d.finals)
    if kind in ("|", "&"):
        d1, d2 = _build(node[1], alphabet), _build(node[2], alphabet)
        keep = (lambda x, y: x or y) if kind == "|" else (lambda x, y: x and y)
        return _explore(
            alphabet,
            (0, 0),
            lambda key, i: (d1.delta[key[0]][i], d2.delta[key[1]][i]),
            lambda key: keep(key[0] in d1.finals, key[1] in d2.finals),
        )
    if kind == "cat":
        d1, d2 = _build(node[1], alphabet), _build(node[2], alphabet)

        def with_start(p, states):
            return frozenset(states | {0}) if p in d1.finals else frozenset(states)

        def step(key, i):
            p = d1.delta[key[0]][i]
            return p, with_start(p, {d2.delta[s][i] for s in key[1]})

        return _explore(
            alphabet, (0, with_start(0, set())), step, lambda key: bool(key[1] & d2.finals)
        )
    if kind == "*":
        d = _build(node[1], alphabet)

        def step(key, i):
            nxt = {d.delta[s][i] for s in key[1]}
            if nxt & d.finals:
                nxt.add(0)
            return False, frozenset(nxt)

        return _explore(
            alphabet,
            (True, frozenset({0})),
            step,
            lambda key: key[0] or bool(key[1] & d.finals),
        )
    raise RegexError(f"unknown node {kind!r}")


def compile_regex(text: str, alphabet=None) -> DFA:
    """Canonical minimal DFA; the alphabet defaults to the regex's letters."""
    node = parse(text)
    letters = letters_of(node)
    if alphabet is None:
        alphabet = sorted(letters)
        if not alphabet:
            raise RegexError(f"cannot infer an alphabet for {text!r}")
    alphabet = tuple(alphabet)
    if not letters <= set(alphabet):
        raise RegexError(f"letters of {text!r} are not in {alphabet}")
    return _build(node, alphabet)


def reversal(d: DFA) -> DFA:
    """Minimal DFA of the reversed language (reversed subset construction)."""
    return _explore(
        d.alphabet,
        d.finals,
        lambda s, i: frozenset(q for q in range(d.size) if d.delta[q][i] in s),
        lambda s: 0 in s,
    )


def transformations(d: DFA) -> list:
    """The transition monoid of d: the distinct state maps words induce, identity first."""
    ident = tuple(range(d.size))
    found = [ident]
    seen = {ident}
    for t in found:
        for i in range(len(d.alphabet)):
            u = tuple(d.delta[v][i] for v in t)
            if u not in seen:
                seen.add(u)
                found.append(u)
    return found


def syntactic_order(text: str, alphabet=None) -> int:
    """Order of the syntactic monoid of rev(L), i.e. of the dual D-monoid in BA/DL01."""
    return len(transformations(reversal(compile_regex(text, alphabet))))


# pair -> (binary operations on bitmask languages, whether the full language
# is a constant); BA's variety holds every bitmask
_VARIETY_OPS = {
    "DL01": ((operator.or_, operator.and_), True),
    "JSL0": ((operator.or_,), False),
    "VECT2": ((operator.xor,), False),
    "BR": ((operator.xor, operator.and_), False),
}


def variety_sizes(text: str, alphabet=None) -> dict:
    """Languages in the local variety generated by L, per pair.

    Every language of the variety is a union of syntactic classes, so it is a
    bitmask over the syntactic monoid M.  The two-sided quotients of L are
    closed under quotients already, and quotients commute with the Boolean
    operations, so closing the quotients (and the pair's constants) under the
    pair's binary operations gives the whole variety.  BA's has 2^|M| languages.
    """
    d = compile_regex(text, alphabet)
    monoid = transformations(d)
    n = len(monoid)

    def quotient(u, v):  # {m : u m v in L} as a bitmask
        return sum(1 << k for k, m in enumerate(monoid) if v[m[u[0]]] in d.finals)

    quotients = {quotient(u, v) for u in monoid for v in monoid}
    sizes = {"BA": 2 ** n}
    for pair, (ops, with_full) in _VARIETY_OPS.items():
        found = quotients | {0} | ({(1 << n) - 1} if with_full else set())
        frontier = list(found)
        while frontier:
            new = set()
            for x in frontier:
                for y in found:
                    for op in ops:
                        z = op(x, y)
                        if z not in found:
                            new.add(z)
            found |= new
            frontier = list(new)
        sizes[pair] = len(found)
    return sizes


def dual_monoid_order(text: str, pair: str) -> int:
    """Order of the dual generated D-monoid that ``predual syntactic`` reports.

    BA and DL01: the syntactic monoid of rev(L).  JSL0 and VECT2 are
    self-dual, so the order is the variety's size.  BR: a Boolean ring of
    2^k languages has k atoms, and its dual adds a base point.
    """
    if pair in ("BA", "DL01"):
        return syntactic_order(text)
    size = variety_sizes(text)[pair]
    return size.bit_length() if pair == "BR" else size
