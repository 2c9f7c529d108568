"""Independent oracles for the test suite.

The syntactic-monoid oracle computes the two-sided congruence classes of a
regular language directly on its minimal DFA: words are identified iff they
induce the same transition function, which is exactly context equivalence
(contexts u,v correspond to a reachable state and a distinguishing suffix).
Nothing here touches the duality pipeline.
"""

import itertools

from predual.algebra import FinAlgebra
from predual.automata import Coalgebra
from predual.langlib import RegularLanguage, closure_under_ops_and_derivs, parse_regex


def transition_monoid(l: RegularLanguage):
    """(elements, mult, unit, gen, repr_words) of the syntactic monoid.

    Elements are transition functions of the minimal DFA, discovered
    breadth-first so representative words are shortlex-minimal.
    mult[x][y] = class of (word_x word_y).
    """
    n = l.size
    ident = tuple(range(n))
    elems = {ident: 0}
    words = [""]
    tables = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for t in frontier:
            for i, a in enumerate(l.alphabet):
                u = tuple(l.delta[v][i] for v in t)
                if u not in elems:
                    elems[u] = len(tables)
                    words.append(words[tables.index(t)] + a)
                    tables.append(u)
                    nxt.append(u)
        frontier = nxt
    mult = []
    for t1 in tables:
        row = []
        for t2 in tables:
            composite = tuple(t2[v] for v in t1)  # t1 first, then t2
            row.append(elems[composite])
        mult.append(tuple(row))
    gens = {a: elems[tuple(l.delta[v][i] for v in range(n))] for i, a in enumerate(l.alphabet)}
    return tables, tuple(mult), 0, gens, words


def syntactic_monoid_size(regex, alphabet=None) -> int:
    l = parse_regex(regex, alphabet)
    tables, _, _, _, _ = transition_monoid(l)
    return len(tables)


def context_equivalent(l: RegularLanguage, u: str, v: str, max_len: int) -> bool:
    """Literal bounded-context oracle: u ~ v iff xuy and xvy agree for all
    contexts with |x|,|y| <= max_len."""
    for k1 in range(max_len + 1):
        for x in itertools.product(l.alphabet, repeat=k1):
            x = "".join(x)
            for k2 in range(max_len + 1):
                for y in itertools.product(l.alphabet, repeat=k2):
                    y = "".join(y)
                    if l.accepts(x + u + y) != l.accepts(x + v + y):
                        return False
    return True


def syntactic_preorder(l: RegularLanguage):
    """leq[x][y]: class x <= class y iff every language of the derivative
    closure containing a y-word contains the x-word -- equivalently, for all
    contexts, membership of uyv implies membership of uxv."""
    tables, mult, unit, gens, words = transition_monoid(l)
    n = l.size
    finals = l.finals
    m = len(tables)
    leq = [[True] * m for _ in range(m)]
    for i, ti in enumerate(tables):
        for j, tj in enumerate(tables):
            # x <= y iff for every state q and suffix behavior:
            # (q . y accepts) => (q . x accepts), i.e. L(q.y) subseteq L(q.x)
            for q in range(n):
                if not _state_language_subset(l, tj[q], ti[q]):
                    leq[i][j] = False
                    break
    return tuple(tuple(row) for row in leq), words


def _state_language_subset(l: RegularLanguage, s1: int, s2: int) -> bool:
    """L(s1) subseteq L(s2) via product reachability."""
    seen = {(s1, s2)}
    stack = [(s1, s2)]
    while stack:
        x, y = stack.pop()
        if x in l.finals and y not in l.finals:
            return False
        for i in range(len(l.alphabet)):
            t = (l.delta[x][i], l.delta[y][i])
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return True


# ---------------------------------------------------------------------------
# local varieties by closure, as generated_local_variety once built them


def closure_local_variety(pair, seeds, cap=4096):
    """Reference for generated_local_variety on BA, DL01 and BR: the seeds
    closed under both derivatives and the pair's language operations, the
    coalgebra read off the closure's tables (these pairs need no basis
    encoding).  Its states are the languages in sort-key order."""
    langs = closure_under_ops_and_derivs(pair, seeds, cap)
    states = FinAlgebra(pair, len(langs), tuple(sorted(langs.ops.items())), None)
    out = tuple(1 if l.accepts("") else 0 for l in langs)
    return Coalgebra(
        pair, langs[0].alphabet, states, tuple(sorted(langs.trans.items())), out
    )


# ---------------------------------------------------------------------------
# order-theoretic structure of a finite algebra, by brute force from the tables


def natural_order(a):
    """order[x][y] iff x <= y: x v y = y where there is a join; in a Boolean
    ring, x = y z for some z."""
    n = a.size
    ops = dict(a.ops)
    if "join" in ops:
        join = ops["join"]
        return [[join[x][y] == y for y in range(n)] for x in range(n)]
    mul = ops["mul"]
    return [[any(mul[y][z] == x for z in range(n)) for y in range(n)] for x in range(n)]


def atoms(a):
    """Nonzero x with nothing but zero and x below it, ascending."""
    order, zero = natural_order(a), dict(a.ops)["zero"]
    return [
        x
        for x in range(a.size)
        if x != zero and all(y in (zero, x) for y in range(a.size) if order[y][x])
    ]


def join_irreducibles(a):
    """Nonzero j such that j = x v y only for j in {x, y}, ascending."""
    ops = dict(a.ops)
    join, zero = ops["join"], ops["zero"]
    n = a.size
    return [
        j
        for j in range(n)
        if j != zero
        and all(join[x][y] != j or j in (x, y) for x in range(n) for y in range(n))
    ]


def meets(a):
    """meet[x][y]: the greatest common lower bound, None when there is none."""
    order, n = natural_order(a), a.size
    table = []
    for x in range(n):
        row = []
        for y in range(n):
            lower = [z for z in range(n) if order[z][x] and order[z][y]]
            greatest = [z for z in lower if all(order[w][z] for w in lower)]
            row.append(greatest[0] if greatest else None)
        table.append(tuple(row))
    return tuple(table)


def downsets(a):
    """Down-closed subsets of a POS as bitmasks, ascending, by definition."""
    n, order = a.size, a.order
    return [
        mask
        for mask in range(1 << n)
        if all(
            mask >> y & 1
            for x in range(n)
            if mask >> x & 1
            for y in range(n)
            if order[y][x]
        )
    ]


# ---------------------------------------------------------------------------
# closure by naive rounds, as the hand-written fixpoint loops computed it


def naive_closure(seeds, ops, on_new=None):
    """Reference for predual.algebra.closure, same arguments and result.

    Every round applies every op to every argument tuple (ordered, even for
    a commutative op) of the elements known when the round starts: ops in
    the given order, tuples in lexicographic order of discovery.  The tables
    are filled afterwards by applying each op to every tuple once more.
    """
    elements = list(seeds)
    witnesses = list(seeds.values())
    index = {x: i for i, x in enumerate(elements)}
    while True:
        current = list(elements)
        for k, (arity, fn, _) in enumerate(ops):
            for args in itertools.product(current, repeat=arity):
                x = fn(*args)
                if x not in index:
                    ws = [witnesses[index[y]] for y in args]
                    witnesses.append(on_new(x, k, ws) if on_new else None)
                    index[x] = len(elements)
                    elements.append(x)
        if len(elements) == len(current):
            break
    tables = []
    for arity, fn, _ in ops:
        if arity == 0:
            tables.append(index[fn()])
        elif arity == 1:
            tables.append([index[fn(x)] for x in elements])
        else:
            tables.append([[index[fn(x, y)] for y in elements] for x in elements])
    return elements, witnesses, tables
