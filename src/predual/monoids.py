"""Finite D-monoids: monoids internal to the D-side varieties.

A DMonoid is a carrier FinAlgebra plus a raw multiplication table and unit;
the bimorphism law (every section is a D-endomorphism) is validated, not
enforced by construction, so fault-injection tests stay expressible.  For
JSL0 carriers the bimorphism law is exactly the distributivity of an
idempotent semiring; for SET_STAR the basepoint must be an absorbing zero.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import (
    AlgMorphism,
    CapExceeded,
    FinAlgebra,
    StructureError,
    check_invariant,
    check_morphism,
    closure,
    closure_ops,
    combine_elements,
    componentwise_fn,
    derived,
    explore,
    greedy_generators,
    light_test,
    make_algebra,
    product,
    shortlex_words,
    signature,
    sort_closure,
    standard_basis_perm,
    standardize_vect,
    table_fn,
    table_isomorphism,
    vect_prime,
)
from .langlib import (
    DMonoidMorphismFree,
    FreeElement,
    _rref,
    free_combine,
    free_word,
    make_free_morphism,
    rev_free,
)


@dataclass(frozen=True)
class DMonoid:
    carrier: FinAlgebra
    mult: tuple  # mult[x][y] = x o y
    unit: int

    @property
    def size(self):
        return self.carrier.size

    def mul(self, x, y):
        return self.mult[x][y]


def make_dmonoid(carrier: FinAlgebra, mult, unit: int) -> DMonoid:
    mult = tuple(tuple(row) for row in mult)
    n = carrier.size
    if len(mult) != n or any(len(row) != n for row in mult):
        raise StructureError("multiplication table has wrong shape")
    if not 0 <= unit < n:
        raise StructureError("unit out of range")
    return DMonoid(carrier, mult, unit)


def validate_dmonoid(m: DMonoid) -> list:
    """Monoid axioms + bimorphism law (+ zero absorption for SET_STAR).

    Precondition: m.carrier satisfies the laws of its tag (as
    validate_algebra finds), since the bimorphism law is tested by
    check_morphism.  The unit laws and zero absorption are tested at every
    element; associativity and the bimorphism law only at the elements a
    of a generating set A under multiplication alone, taken greedily in
    element order from the unit (greedy_generators): associativity by
    Light's test, (xa)y = x(ay) for all x, y, and the bimorphism law by
    testing that the left and right multiplications by a are
    D-endomorphisms.  That is O(N^2 |A|) work, not O(N^3), and still a
    full check.  Let S be the set of z with (xz)y = x(zy) for all x, y.  S
    holds the unit e (by the unit laws) and is closed under the table's
    product without assuming associativity: for z, w in S,
    (x(zw))y = ((xz)w)y = (xz)(wy) = x(z(wy)) = x((zw)y).  A is chosen so
    that every element is a left-bracketed product (...((e a1) a2)...) ak
    of elements of A, so A within S makes the table associative.  Then
    L_xy = L_x . L_y and R_xy = R_y . R_x, so left and right
    multiplications that are D-endomorphisms at A are D-endomorphisms
    everywhere: a composite of D-endomorphisms is one.  Each of the 2|A|
    sections is itself tested at the carrier's generators (check_morphism),
    O(N |G|) apiece.  Where a unit law fails, A need not generate, but that
    failure is reported already.
    """
    out = []
    n = m.size
    mult = m.mult
    for x in range(n):
        if mult[m.unit][x] != x or mult[x][m.unit] != x:
            out.append(f"unit law fails at {x}")
    gens = greedy_generators(mult, range(n), (m.unit,))
    bad = light_test(mult, gens)
    if bad:
        out.append("associativity fails at ({},{},{})".format(*bad))
    for a in gens:
        left = AlgMorphism(m.carrier, m.carrier, mult[a])
        right = AlgMorphism(m.carrier, m.carrier, tuple(row[a] for row in mult))
        ok, why = check_morphism(left)
        if not ok:
            out.append(f"left multiplication by {a} is not a D-endomorphism: {why}")
        ok, why = check_morphism(right)
        if not ok:
            out.append(f"right multiplication by {a} is not a D-endomorphism: {why}")
    if m.carrier.tag == "SET_STAR":
        point = m.carrier.op("point")
        for x in range(n):
            if mult[x][point] != point or mult[point][x] != point:
                out.append(f"zero absorption fails at {x}")
    return out


@dataclass(frozen=True)
class GeneratedDMonoid:
    """A Sigma-generated D-monoid with representative free elements."""

    base: DMonoid
    alphabet: tuple
    gen_images: tuple  # tuple of (letter, carrier element)
    reprs: tuple  # tuple of (carrier element, FreeElement), one per element

    def gen(self, letter) -> int:
        for a, e in self.gen_images:
            if a == letter:
                return e
        raise StructureError(f"letter {letter!r} not a generator")


def eval_in_dmonoid(m: DMonoid, gen_images: dict, x: FreeElement) -> int:
    """Evaluate a free element through letter images, using the D-structure."""
    terms = []
    for w, c in x.pairs:
        acc = m.unit
        for ch in w:
            acc = m.mult[acc][gen_images[ch]]
        terms.append((acc, c))
    return combine_elements(m.carrier, terms)


def dagger_free(f: DMonoidMorphismFree) -> DMonoidMorphismFree:
    """rev . f . rev, acting wordwise on generator images, kept on f."""
    return derived(f, "_dagger", _build_dagger_free, f)


def _build_dagger_free(f: DMonoidMorphismFree) -> DMonoidMorphismFree:
    return make_free_morphism(
        f.tag,
        f.source_alphabet,
        f.target_alphabet,
        {b: rev_free(f.image(b)) for b in f.source_alphabet},
    )


def associated_lalgebra(g: GeneratedDMonoid):
    """States = carrier, init = unit, transitions = right multiplication."""
    from .automata import LAlgebra, pair_of_d_tag

    pair = pair_of_d_tag(g.base.carrier.tag)
    trans = {
        a: tuple(g.base.mult[d][g.gen(a)] for d in range(g.base.size))
        for a in g.alphabet
    }
    return LAlgebra(pair, g.alphabet, g.base.carrier, tuple(sorted(trans.items())), g.base.unit)


# ---------------------------------------------------------------------------
# letter-generated sub-D-monoids


def generated_dmonoid(carriers, mult, unit, alphabet, gens, cap=None, stage="generated D-monoid"):
    """The sub-D-monoid that the letter images gens generate inside a product
    of carriers; returns (elements, GeneratedDMonoid).

    Elements are tuples, entry i in carriers[i] (all of one tag); mult(x, y)
    is their product, unit its unit, and gens maps each letter of alphabet
    to its image.  Words are explored from unit by x -> mult(x, gens[a]), so
    each element a word reaches is witnessed by its shortlex-least word;
    these are closed under the D-operations of the carriers, componentwise
    (dmonoid_closure).  Multiplication distributes over the D-operations (the
    bimorphism law), so the closure is closed under mult too.  The elements
    are sorted and the carrier is ordered pointwise; a VECT carrier is put in
    standard form (standardize_vect) and the elements renumbered with it, so
    the table, unit, generators and witnesses follow.  cap bounds the words
    and the closure alike; stage names them in a CapExceeded message.  A
    VECT(p) closure is the span of the words' elements, so it is not built
    when p^rank exceeds cap.
    """
    tag = carriers[0].tag
    alphabet = tuple(alphabet)
    reached, delta = explore(unit, alphabet, lambda x, a: mult(x, gens[a]), cap, stage)
    p = vect_prime(tag)
    if p is not None and cap is not None and p ** _span_rank(carriers, reached, p) > cap:
        raise CapExceeded(f"{stage} exceeded cap {cap}")
    words = zip(reached, shortlex_words(delta, alphabet))
    seeds = {x: free_word(tag, alphabet, w) for x, w in words}
    elements, witnesses, tables = sort_closure(dmonoid_closure(seeds, carriers, cap, stage))
    n = len(elements)
    order = None
    if carriers[0].order is not None:
        order = tuple(
            tuple(all(c.order[x][y] for c, x, y in zip(carriers, t1, t2)) for t2 in elements)
            for t1 in elements
        )
    carrier = make_algebra(tag, n, dict(zip(sorted(signature(tag)), tables)), order)
    if vect_prime(tag) is not None:
        carrier, perm = standardize_vect(carrier)
        old = sorted(range(n), key=perm.__getitem__)
        elements = [elements[i] for i in old]
        witnesses = [witnesses[i] for i in old]
    index = {x: i for i, x in enumerate(elements)}
    try:
        table = [[index[mult(x, y)] for y in elements] for x in elements]
    except KeyError:
        raise StructureError(
            f"{stage}: multiplication does not distribute over the D-operations"
        ) from None
    g = GeneratedDMonoid(
        make_dmonoid(carrier, table, index[unit]),
        alphabet,
        tuple((a, index[gens[a]]) for a in alphabet),
        tuple(enumerate(witnesses)),
    )
    return elements, g


def _span_rank(carriers, elements, p) -> int:
    """The GF(p) rank of elements, tuples over the VECT(p) carriers, each
    entry read in its carrier's standard-basis coordinates
    (standard_basis_perm, computed once per distinct carrier)."""
    perms = {c: standard_basis_perm(c) for c in dict.fromkeys(carriers)}
    digits = [(perms[c], next(k for k in itertools.count() if p**k >= c.size)) for c in carriers]
    vectors = [
        [perm[e] // p**k % p for e, (perm, dim) in zip(x, digits) for k in range(dim)]
        for x in elements
    ]
    return len(_rref(vectors, p)[0])


def dmonoid_closure(seeds: dict, carriers, cap=None, stage="closure"):
    """closure() of seeds, a dict element -> free-element witness, under the
    D-operations of carriers (as in closure_ops).

    A new element's witness is the combination of its arguments' witnesses
    (weighted by k for smulk), the empty combination for a constant.  stage
    names the closure in a CapExceeded message.
    """
    some = next(iter(seeds.values()))
    tag, alphabet = some.tag, some.alphabet
    names = sorted(signature(tag))

    def witness(x, k, ws):
        coeff = int(names[k][4:]) if names[k].startswith("smul") else 1
        return free_combine(tag, alphabet, [(w, coeff) for w in ws])

    return closure(seeds, closure_ops(carriers), cap, witness, stage)


def _compose_tables(first, then):
    return tuple(then[v] for v in first)


def transition_dmonoid(lalg, cap: int = 64):
    """Sub-D-monoid of [A,A] generated by the letter transitions, as
    generated_dmonoid's (endo tables, GeneratedDMonoid).

    The D-operations act pointwise, as in the power algebra; multiplication
    is (f, g) -> g . f and the unit is the identity.
    """
    host = lalg.states
    return generated_dmonoid(
        [host] * host.size, _compose_tables, tuple(range(host.size)), lalg.alphabet,
        dict(lalg.trans), cap, "transition monoid",
    )


def subdirect_product(g1: GeneratedDMonoid, g2: GeneratedDMonoid) -> GeneratedDMonoid:
    """Image of the pairing of two Sigma-generated D-monoids in their product.

    Both projections onto the factors are surjective (the factors are
    Sigma-generated); this is checked during construction.
    """
    if g1.alphabet != g2.alphabet:
        raise StructureError("subdirect product requires a common alphabet")
    if g1.base.carrier.tag != g2.base.carrier.tag:
        raise StructureError("subdirect product requires a common tag")
    m1, m2 = g1.base, g2.base
    elements, g = generated_dmonoid(
        [m1.carrier, m2.carrier], componentwise_fn(2, (m1.mult, m2.mult)), (m1.unit, m2.unit),
        g1.alphabet, {a: (g1.gen(a), g2.gen(a)) for a in g1.alphabet},
    )
    check_invariant(
        {x for x, _ in elements} == set(range(m1.size))
        and {y for _, y in elements} == set(range(m2.size)),
        "a projection of the subdirect product is not surjective",
    )
    return g


# ---------------------------------------------------------------------------
# divisibility


def dmonoid_product(m1: DMonoid, m2: DMonoid):
    """Componentwise product DMonoid; returns (product, encode)."""
    prod, _, _ = product(m1.carrier, m2.carrier)
    n2 = m2.size

    def enc(x, y):
        return x * n2 + y

    mult = tuple(
        tuple(
            enc(m1.mult[x1][y1], m2.mult[x2][y2])
            for y1 in range(m1.size)
            for y2 in range(m2.size)
        )
        for x1 in range(m1.size)
        for x2 in range(m2.size)
    )
    return make_dmonoid(prod, mult, enc(m1.unit, m2.unit)), enc


def dmonoid_powers(m: DMonoid, n_max: int, cap: int = 4096) -> list:
    """[m^1, ..., m^n_max], each the product of the one before with m, ending
    before the first power larger than cap."""
    powers = []
    while len(powers) < n_max and m.size ** (len(powers) + 1) <= cap:
        powers.append(dmonoid_product(powers[-1], m)[0] if powers else m)
    return powers


def minimal_generators(m: DMonoid) -> list:
    """A greedy small generating set (under mult and D-operations)."""
    ops = [(2, table_fn(2, m.mult), False)] + closure_ops(m.carrier)
    gens: list = []
    reached = set(closure({m.unit: None}, ops)[0])
    for x in range(m.size):
        if x not in reached:
            gens.append(x)
            reached = set(closure(dict.fromkeys([m.unit, *gens]), ops)[0])
    return gens


class _Conflict(Exception):
    """Two candidate values met on one element of the power."""


def divides(candidate, generator: DMonoid, n_max: int = 2, cap: int = 4096, powers=None):
    """Is the candidate a quotient of a sub-D-monoid of generator^n, n <= n_max?

    Returns True / False, or None when a cap was exceeded (inconclusive,
    deliberately distinct from False).  The search lifts a generating set of
    the candidate to tuples of the power and closes the pairs (power element,
    candidate value) under multiplication and the D-operations; a closure in
    which no power element gets two values, onto the candidate and
    monotone, is a witness division.  powers, if given, is
    dmonoid_powers(generator, n_max, cap), for callers that test many
    candidates against one generator.
    """
    if isinstance(candidate, GeneratedDMonoid):
        cand = candidate.base
        gens = sorted({e for _, e in candidate.gen_images})
    else:
        cand = candidate
        gens = minimal_generators(cand)
    if cand.carrier.tag != generator.carrier.tag:
        raise StructureError("divides requires equal tags")

    def label(pair, k, ws):
        z, v = pair
        if value.setdefault(z, v) != v:
            raise _Conflict

    if powers is None:
        powers = dmonoid_powers(generator, n_max, cap)
    inconclusive = len(powers) < n_max
    for power in powers:
        if power.size ** len(gens) > 500_000:
            inconclusive = True
            break
        ops = [(2, componentwise_fn(2, (power.mult, cand.mult)), False)]
        ops += closure_ops([power.carrier, cand.carrier])
        for tuples in itertools.product(range(power.size), repeat=len(gens)):
            value = {power.unit: cand.unit}
            if any(value.setdefault(t, g) != g for t, g in zip(tuples, gens)):
                continue
            try:
                closure(dict.fromkeys(value.items()), ops, on_new=label)
            except _Conflict:
                continue
            if set(value.values()) != set(range(cand.size)):
                continue
            if cand.carrier.order is not None:
                ok = all(
                    cand.carrier.order[value[x]][value[y]]
                    for x in value
                    for y in value
                    if power.carrier.order[x][y]
                )
                if not ok:
                    continue
            return True
    return None if inconclusive else False


def are_dmonoids_isomorphic(m1: DMonoid, m2: DMonoid):
    """Isomorphism of D-monoids: carrier iso + mult/unit compatible."""
    if m1.size != m2.size or m1.carrier.tag != m2.carrier.tag:
        return None
    ops1 = [*m1.carrier.sig_ops, (2, m1.mult), (0, m1.unit)]
    ops2 = [*m2.carrier.sig_ops, (2, m2.mult), (0, m2.unit)]
    return table_isomorphism(
        m1.size, ops1, ops2, m1.carrier.order, m2.carrier.order
    )
