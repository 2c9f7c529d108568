"""Independent oracles for the test suite.

The syntactic-monoid oracle computes the two-sided congruence classes of a
regular language directly on its minimal DFA: words are identified iff they
induce the same transition function, which is exactly context equivalence
(contexts u,v correspond to a reachable state and a distinguishing suffix).
That oracle does not touch the duality pipeline.  validate_dmonoid tests the
D-monoid laws on every triple and every section, where predual tests them
on a generating set (Light's test).  closure_under_ops_and_derivs
closes whole languages under DFA products and derivatives, where predual
closes bitmasks over the syntactic monoid, and closure_local_variety reads
the local variety off that closure's tables, validated as an algebra, as
generated_local_variety once did, where predual dualizes the L-algebra
built on the syntactic monoid's quotient columns.  verify_preduality_by_compose
shares the dualization formulas with predual and evaluates the duality laws
on AlgMorphism objects with compose, as verify_preduality once did.
make_free, free_mul, free_combine, eval_language, apply_free and
preimage_language are the per-tag rules predual had before its one
D-combination rule, and _posets_upto tests a candidate poset for
isomorphism against every poset found so far.  minimize refines the states
each start reaches, and language_of_state, language_of_output and
is_local_variety minimize once per state and per right derivative, where
predual refines each automaton once (one Nerode partition) and numbers a
state's language off it.  dual_monoid_entries builds the multiplication
and the representatives of automata.dual_generated_monoid one entry and one
candidate at a time, with combine_elements as predual had it per tag, where
predual combines whole word columns and folds candidates over tables.
build_parser is the argparse parser predual's CLI had before its one
option table (cli.COMMANDS and cli.parse_args).  validate_algebra,
check_morphism and order_matrix_violations test every triple, every pair
and every (i, j, k), where predual tests associativity and distributivity
at generators (Light's test), morphisms at generators and on the covering
relation, and transitivity on bitmask rows.
free_monoid_in_simple_pseudovariety, subdirect_product and
transition_dmonoid are the three constructions predual had before its one
kernel for letter-generated sub-D-monoids (monoids.generated_dmonoid): the
first two close under multiplication and the D-operations at once, and
subdirect_product does so inside the whole product D-monoid.
language_quotient, local_variety_witness, identity_free_morphism,
run_word_co and morphism_from_images are references some tests build on.
"""

import argparse
import itertools

import predual.langlib as langlib

from predual.algebra import (
    AlgMorphism,
    FinAlgebra,
    StructureError,
    all_morphisms,
    closure,
    closure_ops,
    componentwise_fn,
    compose,
    explore,
    identity_morphism,
    make_algebra,
    signature,
    shortlex_words,
    sort_closure,
    standardize_vect,
    subalgebra_on,
    table_fn,
    table_isomorphism,
    vect_prime,
)
from predual.automata import Coalgebra, LAlgebra, run_word, word_table
from predual.cli import (
    cmd_check_laws,
    cmd_deriv,
    cmd_dualize,
    cmd_eilenberg_check,
    cmd_enumerate,
    cmd_localvariety,
    cmd_minimize,
    cmd_preimage,
    cmd_syntactic,
    cmd_varlang,
)
from predual.duality import MAIN_PAIRS, PAIRS, _objects_for, dual_morphism, dual_object, eta
from predual.langlib import (
    DMonoidMorphismFree,
    FreeElement,
    RegularLanguage,
    _shortlex,
    complement,
    empty_language,
    full_language,
    intersection,
    left_deriv,
    make_free_morphism,
    parse_regex,
    right_deriv,
    symmetric_difference,
    union,
)
from predual.monoids import (
    DMonoid,
    GeneratedDMonoid,
    dmonoid_closure,
    dmonoid_product,
    eval_in_dmonoid,
    make_dmonoid,
)


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
# local varieties by closure of language products, as
# closure_under_ops_and_derivs and generated_local_variety once built them


LANGUAGE_OPS = {
    "BA": ("meet", "join", "not", "zero", "one"),
    "DL01": ("meet", "join", "zero", "one"),
    "JSL0": ("join", "zero"),
    "VECT2": ("add", "zero", "smul0", "smul1"),
    "BR": ("add", "mul", "zero"),
}


def language_op(tag: str, op: str, operands) -> RegularLanguage:
    """Apply a C-side algebraic operation to languages (per the tag signature)."""
    if tag not in LANGUAGE_OPS or op not in LANGUAGE_OPS[tag]:
        raise StructureError(f"operation {op!r} is not in the {tag} signature")
    operands = list(operands)
    if op == "join":
        return union(*operands)
    if op == "meet" or (op == "mul" and tag == "BR"):
        return intersection(*operands)
    if op == "not":
        return complement(operands[0])
    if op == "add":
        return symmetric_difference(*operands)
    if op == "smul0":
        return empty_language(operands[0].alphabet)
    if op == "smul1":
        return operands[0]
    if op == "zero":
        return empty_language(operands[0].alphabet)
    return full_language(operands[0].alphabet)  # one


def signature_ops(tag: str, lang: RegularLanguage) -> list:
    """The tag's operations, in signature order, as closure() ops on
    languages over lang's alphabet (constants read the alphabet off lang)."""

    def op(name, arity):
        if arity == 0:
            return lambda: language_op(tag, name, [lang])
        return lambda *operands: language_op(tag, name, operands)

    return [(arity, op(name, arity), True) for name, arity in signature(tag).items()]


def closure_under_ops_and_derivs(tag: str, seeds, cap: int = 4096) -> list:
    """Least set of languages containing seeds, closed under both derivatives
    and the tag's language operations (with constants), as a sorted list."""
    return _language_closure(tag, seeds, cap)[0]


def _language_closure(tag, seeds, cap):
    """(langs, trans, ops): closure_under_ops_and_derivs's languages, with
    the table of each letter's left derivative and of each operation of the
    tag's signature over them."""
    seeds = list(seeds)
    if not seeds:
        raise StructureError("need at least one seed language")
    alphabet = seeds[0].alphabet
    if any(s.alphabet != alphabet for s in seeds):
        raise StructureError("seeds must share an alphabet")
    ops = [(1, lambda l, a=a: left_deriv(l, a), False) for a in alphabet]
    ops += [(1, lambda l, a=a: right_deriv(l, a), False) for a in alphabet]
    ops += signature_ops(tag, seeds[0])
    langs, _, tables = sort_closure(
        closure(dict.fromkeys(seeds), ops, cap, stage="language closure"),
        key=RegularLanguage.sort_key,
    )
    trans = dict(zip(alphabet, tables))
    return langs, trans, dict(zip(signature(tag), tables[2 * len(alphabet):]))


def closure_local_variety(pair, seeds, cap=4096):
    """Reference for generated_local_variety: the seeds closed under both
    derivatives and the pair's language operations, the coalgebra read off
    the closure's tables.  Its states are the languages in sort-key order,
    and for VECT2 then in the standard basis encoding that dual maps read."""
    langs, trans, ops = _language_closure(pair, seeds, cap)
    states = FinAlgebra(pair, len(langs), tuple(sorted(ops.items())), None)
    errors = validate_algebra(states)
    if errors:
        raise StructureError(f"closure is not a valid {pair} algebra: {errors[0]}")
    out = tuple(1 if l.accepts("") else 0 for l in langs)
    if vect_prime(pair) is not None:
        states, perm = standardize_vect(states)
        inv = [0] * len(langs)
        for old, new in enumerate(perm):
            inv[new] = old
        trans = {a: tuple(perm[t[inv[x]]] for x in range(len(langs))) for a, t in trans.items()}
        out = tuple(out[inv[x]] for x in range(len(langs)))
    return Coalgebra(pair, langs[0].alphabet, states, tuple(sorted(trans.items())), out)


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


# ---------------------------------------------------------------------------
# duality laws on AlgMorphism objects, as verify_preduality checked them


def verify_preduality_by_compose(pair: str, max_size: int, dual_morphism_fn=None) -> dict:
    """Reference for predual.duality.verify_preduality, same arguments and
    result: the morphism laws built from AlgMorphism objects and compose.

    Checks: dual objects validate; dual(id) = id; contravariant functoriality;
    double-dual isomorphism (eta) and its naturality; hom-set bijection
    |Hom(Q,R)| = |Hom(R^,Q^)|; faithfulness of dualization.  Returns a report
    dict; report["ok"] is False iff some law has a counterexample, recorded
    with a minimal witness.
    """
    dualize = dual_morphism_fn or dual_morphism
    report = {
        "pair": pair,
        "ok": True,
        "objects": 0,
        "morphisms": 0,
        "compositions": 0,
        "failures": [],
        "hom_counts": [],
    }

    def fail(law, witness):
        report["ok"] = False
        report["failures"].append({"law": law, "witness": witness})

    c_objs = _objects_for(pair, "C", max_size)
    d_side_max = max((dual_object(pair, q).size for q in c_objs), default=0)
    d_objs = _objects_for(pair, "D", min(max_size, max(d_side_max, 1)))
    report["objects"] = len(c_objs) + len(d_objs)

    # double-dual isomorphism + object validity, both sides
    for obj in c_objs + d_objs:
        dual = dual_object(pair, obj)
        if validate_algebra(dual):
            fail("dual-validates", f"dual of {obj.tag} size {obj.size}")
            continue
        e = eta(pair, obj)
        ok, why = check_morphism(e)
        if not ok or len(set(e.table)) != obj.size or e.target.size != obj.size:
            fail("double-dual-iso", f"{obj.tag} size {obj.size}: {why}")

    # morphism-level laws on the C side and between dual objects
    hom_cache = {}
    dual_cache = {}

    def homs(a, b):
        key = (a, b)
        if key not in hom_cache:
            hom_cache[key] = all_morphisms(a, b)
        return hom_cache[key]

    def dual_of(a, b, h):
        key = (a, b, h.table)
        if key not in dual_cache:
            dual_cache[key] = dualize(pair, h)
        return dual_cache[key]

    for q in c_objs:
        ident_dual = dualize(pair, identity_morphism(q))
        if ident_dual.table != tuple(range(ident_dual.source.size)):
            fail("dual-of-identity", f"{q.tag} size {q.size}")
    for q in c_objs:
        for r in c_objs:
            hs = homs(q, r)
            report["morphisms"] += len(hs)
            tables = set()
            for h in hs:
                dh = dual_of(q, r, h)
                ok, why = check_morphism(dh)
                if not ok:
                    fail("dual-is-morphism", f"{q.size}->{r.size}: {why}")
                tables.add(dh.table)
            if len(tables) != len(hs):
                fail("faithfulness", f"{q.size}->{r.size}")
            dcount = len(homs(dual_object(pair, r), dual_object(pair, q)))
            report["hom_counts"].append((q.size, r.size, len(hs), dcount))
            if dcount != len(hs):
                fail(
                    "hom-count",
                    f"|Hom({q.tag}{q.size},{r.tag}{r.size})|={len(hs)} vs dual {dcount}",
                )
            for h in hs:
                ddh = dualize(pair, dual_of(q, r, h))
                lhs = compose(ddh, eta(pair, q))
                rhs = compose(eta(pair, r), h)
                if lhs.table != rhs.table:
                    fail("eta-naturality", f"{q.size}->{r.size} table {h.table}")
                    break
    # contravariant functoriality over composable C-side pairs
    for q in c_objs:
        for r in c_objs:
            hs_qr = homs(q, r)
            if not hs_qr:
                continue
            for s in c_objs:
                hs_rs = homs(r, s)
                for h in hs_qr:
                    dh = dual_of(q, r, h)
                    for g in hs_rs:
                        dg = dual_of(r, s, g)
                        lhs = dual_of(q, s, compose(g, h))
                        rhs = compose(dh, dg)
                        report["compositions"] += 1
                        if lhs.table != rhs.table:
                            fail(
                                "functoriality",
                                f"{q.size}->{r.size}->{s.size}: {h.table},{g.table}",
                            )
                            return report
    return report


def monoid_generators(m: DMonoid) -> tuple:
    """Elements 0..n-1 taken in order, each one that explore() from the
    unit under the elements taken before does not reach, exploring afresh
    after every pick, as predual's validate_dmonoid once chose them."""
    gens: list = []
    for x in range(m.size):
        if x not in explore(m.unit, gens, lambda y, a: m.mult[y][a])[0]:
            gens.append(x)
    return tuple(gens)


def validate_dmonoid(m: DMonoid) -> list:
    """Monoid axioms + bimorphism law (+ zero absorption for SET_STAR)."""
    out = []
    n = m.size
    mult = m.mult
    for x in range(n):
        if mult[m.unit][x] != x or mult[x][m.unit] != x:
            out.append(f"unit law fails at {x}")
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if mult[mult[x][y]][z] != mult[x][mult[y][z]]:
                    out.append(f"associativity fails at ({x},{y},{z})")
                    break
            else:
                continue
            break
    for x in range(n):
        left = AlgMorphism(m.carrier, m.carrier, tuple(mult[x][y] for y in range(n)))
        right = AlgMorphism(m.carrier, m.carrier, tuple(mult[y][x] for y in range(n)))
        ok, why = check_morphism(left)
        if not ok:
            out.append(f"left multiplication by {x} is not a D-endomorphism: {why}")
        ok, why = check_morphism(right)
        if not ok:
            out.append(f"right multiplication by {x} is not a D-endomorphism: {why}")
    if m.carrier.tag == "SET_STAR":
        point = m.carrier.op("point")
        for x in range(n):
            if mult[x][point] != point or mult[point][x] != point:
                out.append(f"zero absorption fails at {x}")
    return out


# ---------------------------------------------------------------------------
# the law checks as predual had them before its generating-set kernel: every
# triple for associativity and distributivity, every pair for morphisms and
# the i, j, k loop for transitivity, copied unchanged


def order_matrix_violations(order) -> list:
    n = len(order)
    out = []
    for i in range(n):
        if not order[i][i]:
            out.append(f"order not reflexive at {i}")
    for i in range(n):
        for j in range(n):
            if i != j and order[i][j] and order[j][i]:
                out.append(f"order not antisymmetric at ({i},{j})")
            for k in range(n):
                if order[i][j] and order[j][k] and not order[i][k]:
                    out.append(f"order not transitive at ({i},{j},{k})")
    return out


def _check_semilattice(n, join, out, name="join"):
    for x in range(n):
        if join[x][x] != x:
            out.append(f"{name} not idempotent at {x}")
    for x in range(n):
        for y in range(n):
            if join[x][y] != join[y][x]:
                out.append(f"{name} not commutative at ({x},{y})")
            for z in range(n):
                if join[join[x][y]][z] != join[x][join[y][z]]:
                    out.append(f"{name} associativity violation at ({x},{y},{z})")
                    return  # one witness is enough per op


def _check_lattice(n, meet, join, out):
    _check_semilattice(n, meet, out, "meet")
    _check_semilattice(n, join, out, "join")
    for x in range(n):
        for y in range(n):
            if join[x][meet[x][y]] != x or meet[x][join[x][y]] != x:
                out.append(f"absorption violation at ({x},{y})")
                return


def _check_distributive(n, meet, join, out):
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if meet[x][join[y][z]] != join[meet[x][y]][meet[x][z]]:
                    out.append(f"distributivity violation at ({x},{y},{z})")
                    return


def validate_algebra(a: FinAlgebra) -> list:
    """Return the list of violated laws of a's equational theory (empty = valid)."""
    out: list = []
    n = a.size
    tag = a.tag
    p = vect_prime(tag)
    if a.order is not None:
        out.extend(order_matrix_violations(a.order))
    if tag in ("SET", "POS", "SET_STAR"):
        return out
    if tag in ("JSL", "JSL0", "JSL01"):
        join = a.op("join")
        _check_semilattice(n, join, out)
        if tag in ("JSL0", "JSL01"):
            zero = a.op("zero")
            for x in range(n):
                if join[x][zero] != x:
                    out.append(f"zero not a unit for join at {x}")
        if tag == "JSL01":
            one = a.op("one")
            for x in range(n):
                if join[x][one] != one:
                    out.append(f"one not absorbing for join at {x}")
        return out
    if tag in ("DL01", "BA"):
        meet, join = a.op("meet"), a.op("join")
        zero, one = a.op("zero"), a.op("one")
        _check_lattice(n, meet, join, out)
        _check_distributive(n, meet, join, out)
        for x in range(n):
            if join[x][zero] != x or meet[x][one] != x:
                out.append(f"bounds are not units at {x}")
        if tag == "BA":
            neg = a.op("not")
            for x in range(n):
                if meet[x][neg[x]] != zero or join[x][neg[x]] != one:
                    out.append(f"complement law violation at {x}")
        return out
    if tag == "BR":
        add, mul, zero = a.op("add"), a.op("mul"), a.op("zero")
        for x in range(n):
            if add[x][zero] != x:
                out.append(f"zero not a unit for add at {x}")
            if add[x][x] != zero:
                out.append(f"characteristic-2 law x+x=0 fails at {x}")
            if mul[x][x] != x:
                out.append(f"idempotence violation x*x=x at {x}")
        for x in range(n):
            for y in range(n):
                if add[x][y] != add[y][x]:
                    out.append(f"add not commutative at ({x},{y})")
                if mul[x][y] != mul[y][x]:
                    out.append(f"mul not commutative at ({x},{y})")
                for z in range(n):
                    if add[add[x][y]][z] != add[x][add[y][z]]:
                        out.append(f"add associativity violation at ({x},{y},{z})")
                        break
                    if mul[mul[x][y]][z] != mul[x][mul[y][z]]:
                        out.append(f"mul associativity violation at ({x},{y},{z})")
                        break
                    if mul[x][add[y][z]] != add[mul[x][y]][mul[x][z]]:
                        out.append(f"distributivity violation at ({x},{y},{z})")
                        break
                else:
                    continue
                break
        if not out:
            # derived view: meet = x*y, join = x+y+xy must form a distributive
            # lattice with bottom `zero` (finite boolean rings seen as lattices)
            join = tuple(
                tuple(add[add[x][y]][mul[x][y]] for y in range(n)) for x in range(n)
            )
            derived: list = []
            _check_lattice(n, mul, join, derived)
            _check_distributive(n, mul, join, derived)
            out.extend(f"derived lattice: {msg}" for msg in derived)
        return out
    if p is not None:
        add, zero = a.op("add"), a.op("zero")
        smul = [a.op(f"smul{k}") for k in range(p)]
        for x in range(n):
            if add[x][zero] != x:
                out.append(f"zero not a unit for add at {x}")
            acc = x
            for _ in range(p - 1):
                acc = add[acc][x]
            if acc != zero:
                out.append(f"characteristic-{p} law fails at {x}")
            if smul[0][x] != zero or smul[1][x] != x:
                out.append(f"scalar tables inconsistent at {x}")
            for k in range(2, p):
                if smul[k][x] != add[x][smul[k - 1][x]]:
                    out.append(f"scalar table smul{k} inconsistent at {x}")
        for x in range(n):
            for y in range(n):
                if add[x][y] != add[y][x]:
                    out.append(f"add not commutative at ({x},{y})")
                for z in range(n):
                    if add[add[x][y]][z] != add[x][add[y][z]]:
                        out.append(f"add associativity violation at ({x},{y},{z})")
                        return out
        return out
    raise StructureError(f"unknown tag {tag}")


def check_morphism(f: AlgMorphism):
    """Return (ok, first counterexample message or None)."""
    a, b, t = f.source, f.target, f.table
    if a.tag != b.tag:
        return False, f"tag mismatch {a.tag} vs {b.tag}"
    if len(t) != a.size:
        return False, "table size mismatch"
    sig = signature(a.tag)
    for name, arity in sorted(sig.items()):
        ta, tb = a.op(name), b.op(name)
        if arity == 0:
            if t[ta] != tb:
                return False, f"{name} not preserved: f({ta})={t[ta]} != {tb}"
        elif arity == 1:
            for x in range(a.size):
                if t[ta[x]] != tb[t[x]]:
                    return False, f"{name} not preserved at {x}"
        else:
            for x in range(a.size):
                for y in range(a.size):
                    if t[ta[x][y]] != tb[t[x]][t[y]]:
                        return False, f"{name} not preserved at ({x},{y})"
    if a.order is not None:
        for x in range(a.size):
            for y in range(a.size):
                if a.order[x][y] and not b.order[t[x]][t[y]]:
                    return False, f"not monotone at ({x},{y})"
    return True, None


# ---------------------------------------------------------------------------
# free D-monoid elements and preimages: predual's per-tag rules as they were
# written before the one D-combination rule of langlib._combination, copied
# unchanged except that a word image is read as img.pairs[0][0] (the
# FreeElement.single_word method is gone)


def make_free(tag: str, alphabet, pairs) -> FreeElement:
    """Canonicalize a list of (word, coeff) pairs into a FreeElement."""
    alphabet = tuple(alphabet)
    p = vect_prime(tag)
    acc = {}
    for w, c in pairs:
        w = str(w)
        if any(ch not in alphabet for ch in w):
            raise StructureError(f"word {w!r} not over alphabet {alphabet}")
        if tag in ("SET", "POS", "SET_STAR", "JSL0"):
            if c != 1:
                raise StructureError("coefficients must be 1 for this tag")
            acc[w] = 1
        elif p is not None:
            acc[w] = (acc.get(w, 0) + c) % p
        else:
            raise StructureError(f"tag {tag} has no free monoid here")
    items = tuple(sorted(((w, c) for w, c in acc.items() if c), key=lambda x: _shortlex(x[0])))
    if tag in ("SET", "POS") and len(items) != 1:
        raise StructureError(f"{tag} elements are single words")
    if tag == "SET_STAR" and len(items) > 1:
        raise StructureError("SET_STAR elements are a word or zero")
    return FreeElement(tag, alphabet, items)


def free_word(tag, alphabet, word) -> FreeElement:
    return make_free(tag, alphabet, [(word, 1)])


def free_zero(tag, alphabet) -> FreeElement:
    if tag in ("SET", "POS"):
        raise StructureError(f"{tag} has no zero element")
    return FreeElement(tag, tuple(alphabet), ())


def free_unit(tag, alphabet) -> FreeElement:
    return free_word(tag, alphabet, "")


def free_mul(x: FreeElement, y: FreeElement) -> FreeElement:
    """Multiplication of the free D-monoid: (weighted) concatenation."""
    if x.tag != y.tag or x.alphabet != y.alphabet:
        raise StructureError("tag/alphabet mismatch")
    p = vect_prime(x.tag)
    acc = {}
    for w1, c1 in x.pairs:
        for w2, c2 in y.pairs:
            w = w1 + w2
            if x.tag == "JSL0":
                acc[w] = 1
            elif p is not None:
                acc[w] = (acc.get(w, 0) + c1 * c2) % p
            else:
                acc[w] = 1
    return make_free(x.tag, x.alphabet, [(w, c) for w, c in acc.items() if c])


def free_combine(tag, alphabet, weighted) -> FreeElement:
    """D-structure combination of free elements: joins / weighted sums."""
    p = vect_prime(tag)
    acc = {}
    for elem, coeff in weighted:
        for w, c in elem.pairs:
            if tag == "JSL0":
                acc[w] = 1
            elif p is not None:
                acc[w] = (acc.get(w, 0) + coeff * c) % p
            else:
                raise StructureError(f"{tag} has no combination structure")
    return make_free(tag, alphabet, [(w, c) for w, c in acc.items() if c])


def eval_language(l: RegularLanguage, x: FreeElement) -> int:
    """The value of the language morphism on a free element.

    SET/POS: membership; JSL0: 1 iff some word lies in the language;
    VECT(p): the GF(p) sum of coefficients of member words; SET_STAR:
    zero evaluates to 0, words to membership.
    """
    if tuple(x.alphabet) != l.alphabet:
        raise StructureError("alphabet mismatch")
    p = vect_prime(x.tag)
    if x.tag in ("SET", "POS", "SET_STAR"):
        return 1 if x.pairs and l.accepts(x.pairs[0][0]) else 0
    if x.tag == "JSL0":
        return 1 if any(l.accepts(w) for w, _ in x.pairs) else 0
    total = 0
    for w, c in x.pairs:
        if l.accepts(w):
            total = (total + c) % p
    return total


def apply_free(f: DMonoidMorphismFree, x: FreeElement) -> FreeElement:
    """The unique multiplicative-and-structural extension applied to x."""
    if x.tag != f.tag or tuple(x.alphabet) != f.source_alphabet:
        raise StructureError("element does not match the morphism source")
    terms = []
    for w, c in x.pairs:
        img = free_unit(f.tag, f.target_alphabet)
        for ch in w:
            img = free_mul(img, f.image(ch))
        terms.append((img, c))
    if f.tag in ("SET", "POS"):
        return terms[0][0]
    if f.tag == "SET_STAR":
        return terms[0][0] if terms else free_zero(f.tag, f.target_alphabet)
    return free_combine(f.tag, f.target_alphabet, terms)


def preimage_language(l: RegularLanguage, f: DMonoidMorphismFree) -> RegularLanguage:
    """{w over the source alphabet : eval_language(l, f*(w)) = 1}.

    Implemented by lifting the automaton of l through f with the transition
    semantics of the tag (word composition, subset tracking for JSL0,
    GF(p) vector tracking for VECT, dead-state absorption for SET_STAR).
    """
    if tuple(f.target_alphabet) != l.alphabet:
        raise StructureError("morphism target does not match language alphabet")
    src = tuple(f.source_alphabet)
    tag = f.tag
    p = vect_prime(tag)

    def run(state, word):
        for ch in word:
            state = l.delta[state][l.letter_index(ch)]
        return state

    if tag in ("SET", "POS"):
        delta = tuple(
            tuple(run(s, f.image(b).pairs[0][0]) for b in src) for s in range(l.size)
        )
        return minimize(src, l.size, delta, set(l.finals), 0)

    if tag == "SET_STAR":
        dead = l.size  # absorbing reject state for zero images
        delta = []
        for s in range(l.size):
            row = []
            for b in src:
                img = f.image(b)
                row.append(dead if img.is_zero() else run(s, img.pairs[0][0]))
            delta.append(tuple(row))
        delta.append(tuple(dead for _ in src))
        return minimize(src, l.size + 1, delta, set(l.finals), 0)

    if tag == "JSL0":

        def subset_step(cur, b):
            return frozenset(run(s, w) for s in cur for w, _ in f.image(b).pairs)

        states, delta = explore(frozenset({0}), src, subset_step)
        finals = {i for i, cur in enumerate(states) if cur & l.finals}
        return minimize(src, len(delta), delta, finals, 0)

    # VECT(p): state = coefficient vector over the DFA states
    mats = {}
    for b in src:
        mat = [[0] * l.size for _ in range(l.size)]
        for w, c in f.image(b).pairs:
            for s in range(l.size):
                mat[s][run(s, w)] = (mat[s][run(s, w)] + c) % p
        mats[b] = mat

    def vector_step(cur, b):
        mat = mats[b]
        nxt = [0] * l.size
        for s, coeff in enumerate(cur):
            if coeff:
                for t in range(l.size):
                    if mat[s][t]:
                        nxt[t] = (nxt[t] + coeff * mat[s][t]) % p
        return tuple(nxt)

    start = tuple(1 if s == 0 else 0 for s in range(l.size))
    states, delta = explore(start, src, vector_step, 4096, "preimage vector states")
    finals = {i for i, cur in enumerate(states) if sum(cur[s] for s in l.finals) % p == 1}
    return minimize(src, len(delta), delta, finals, 0)


# ---------------------------------------------------------------------------
# algebra._posets_upto as it was: the isomorphism test against every poset
# found so far, without an invariant to narrow the candidates


def _posets_upto(n: int):
    """All posets on {0..n-1} whose order refines the index order, up to iso.

    Every finite poset has a linear extension, so these representatives are
    exhaustive up to isomorphism.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    found = []
    for mask in range(1 << len(pairs)):
        rel = [[i == j for j in range(n)] for i in range(n)]
        for b, (i, j) in enumerate(pairs):
            if mask >> b & 1:
                rel[i][j] = True
        ok = True
        for i in range(n):
            for j in range(i + 1, n):
                if not rel[i][j]:
                    continue
                for k in range(j + 1, n):
                    if rel[j][k] and not rel[i][k]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            continue
        matrix = tuple(tuple(row) for row in rel)
        if not any(
            table_isomorphism(n, [], [], matrix, other) is not None for other in found
        ):
            found.append(matrix)
    return tuple(found)


# ---------------------------------------------------------------------------
# languages state by state: predual's _minimize and per-state routes as they
# were before one Nerode partition per automaton


def minimize(alphabet, n, delta, finals, initial):
    """Trim + Moore partition refinement + canonical BFS renumbering."""
    k = len(alphabet)
    # reachable
    reach = [initial]
    seen = {initial}
    for s in reach:
        for i in range(k):
            t = delta[s][i]
            if t not in seen:
                seen.add(t)
                reach.append(t)
    # refine: classes only split, so a stable class count means a fixed point
    block = {s: int(s in finals) for s in reach}
    while True:
        sig = {
            s: (block[s],) + tuple(block[delta[s][i]] for i in range(k)) for s in reach
        }
        classes = {}
        new_block = {}
        for s in reach:
            key = sig[s]
            if key not in classes:
                classes[key] = len(classes)
            new_block[s] = classes[key]
        if len(classes) == len(set(block.values())):
            block = new_block
            break
        block = new_block
    # representatives per class
    rep = {}
    for s in reach:
        rep.setdefault(block[s], s)
    # canonical BFS from the initial class
    order = [block[initial]]
    index = {block[initial]: 0}
    for c in order:
        s = rep[c]
        for i in range(k):
            t = block[delta[s][i]]
            if t not in index:
                index[t] = len(order)
                order.append(t)
    size = len(order)
    new_delta = tuple(
        tuple(index[block[delta[rep[c]][i]]] for i in range(k)) for c in order
    )
    new_finals = frozenset(index[c] for c in order if rep[c] in finals)
    return RegularLanguage(tuple(alphabet), size, new_delta, new_finals)


def language_of_state(q: Coalgebra, state: int) -> RegularLanguage:
    """Minimal automaton of {w : out(gamma_w(state)) = 1} (structure forgotten)."""
    delta = [
        tuple(q.tr(a)[s] for a in q.alphabet) for s in range(q.states.size)
    ]
    finals = {s for s in range(q.states.size) if q.out[s] == 1}
    return minimize(q.alphabet, len(delta), delta, finals, state)


def language_of_output(a: LAlgebra, out) -> RegularLanguage:
    """Minimal automaton of {w : out(alpha_w(init)) = 1}."""
    delta = [
        tuple(a.tr(x)[s] for x in a.alphabet) for s in range(a.states.size)
    ]
    finals = {s for s in range(a.states.size) if out[s] == 1}
    return minimize(a.alphabet, len(delta), delta, finals, a.init)


def languages_of(q: Coalgebra):
    return [language_of_state(q, s) for s in range(q.states.size)]


def right_derivative(l: RegularLanguage, a) -> RegularLanguage:
    """{w : wa in L}, predual's right_deriv on minimize."""
    i = l.letter_index(a)
    finals = {s for s in range(l.size) if l.delta[s][i] in l.finals}
    return minimize(l.alphabet, l.size, l.delta, finals, 0)


def local_variety_witness(q: Coalgebra):
    """First (state language, letter) whose right derivative is missing."""
    langs = set(languages_of(q))
    for l in sorted(langs, key=RegularLanguage.sort_key):
        for a in q.alphabet:
            if right_derivative(l, a) not in langs:
                return l, a
    return None


def is_local_variety(q: Coalgebra) -> bool:
    """Whether q's states accept pairwise distinct languages, closed under
    right derivatives; StructureError when they are not distinct."""
    if len(set(languages_of(q))) < q.states.size:
        raise StructureError("is_local_variety requires a subcoalgebra of rho")
    return local_variety_witness(q) is None


def subcoalgebra_of_state(q: Coalgebra, state: int) -> Coalgebra:
    """The least subcoalgebra of q holding state: its carrier is closed under
    q's C-operations and transitions, so its languages are closed under left
    derivatives and the operations, but not always under right derivatives."""
    ops = closure_ops(q.states) + [(1, t.__getitem__, False) for _, t in q.trans]
    sub, inclusion = subalgebra_on(q.states, closure({state: None}, ops)[0])
    index = {e: i for i, e in enumerate(inclusion.table)}
    trans = tuple((a, tuple(index[t[e]] for e in inclusion.table)) for a, t in q.trans)
    return Coalgebra(q.pair, q.alphabet, sub, trans, tuple(q.out[e] for e in inclusion.table))


def language_quotient(q: Coalgebra):
    """Factorize the semantic map of a coalgebra through its language classes.

    States accepting equal languages are merged; returns (epi table, quotient
    coalgebra).
    """
    langs = languages_of(q)
    classes = []
    epi = []
    for l in langs:
        if l not in classes:
            classes.append(l)
        epi.append(classes.index(l))
    n = len(classes)
    rep = [epi.index(i) for i in range(n)]
    sig = signature(q.states.tag)
    ops = {}
    for name, arity in sig.items():
        t = q.states.op(name)
        if arity == 0:
            ops[name] = epi[t]
        elif arity == 1:
            ops[name] = tuple(epi[t[rep[i]]] for i in range(n))
        else:
            ops[name] = tuple(
                tuple(epi[t[rep[i]][rep[j]]] for j in range(n)) for i in range(n)
            )
    states = FinAlgebra(q.states.tag, n, tuple(sorted(ops.items())), None)
    errors = validate_algebra(states)
    if errors:
        raise StructureError(f"language quotient is not a valid algebra: {errors[0]}")
    trans = {a: tuple(epi[q.tr(a)[rep[i]]] for i in range(n)) for a in q.alphabet}
    out = tuple(q.out[rep[i]] for i in range(n))
    quotient = Coalgebra(
        q.pair, q.alphabet, states,
        tuple(sorted((a, t) for a, t in trans.items())), out,
    )
    return tuple(epi), quotient


def run_word_co(q: Coalgebra, word) -> AlgMorphism:
    """gamma_w as a composite endomorphism table."""
    return AlgMorphism(q.states, q.states, word_table(q, word))


def morphism_from_images(tag: str, source_alphabet, images: dict):
    """The unique multiplicative extension of letter images.

    Images into a free D-monoid (FreeElements) produce a DMonoidMorphismFree;
    images into a DMonoid (given as (monoid, {letter: element})) produce an
    evaluation callable FreeElement -> element.
    """
    if isinstance(images, tuple):
        monoid, gen_map = images
        return lambda x: eval_in_dmonoid(monoid, gen_map, x)
    some = next(iter(images.values()))
    return make_free_morphism(tag, source_alphabet, some.alphabet, images)


def identity_free_morphism(tag, alphabet) -> DMonoidMorphismFree:
    return make_free_morphism(
        tag, alphabet, alphabet, {a: free_word(tag, alphabet, a) for a in alphabet}
    )


# ---------------------------------------------------------------------------
# the dual generated D-monoid entry by entry: predual's construction before
# it was read off tables, copied unchanged except that it returns its table
# and representatives and skips the checks


def combine_elements(a: FinAlgebra, weighted) -> int:
    """Evaluate a formal combination [(element, coeff), ...] in the algebra.

    SET/POS expect exactly one pair; JSL0/JSL fold joins; VECT(p) folds
    weighted sums; SET_STAR treats the empty combination as the basepoint.
    """
    tag = a.tag
    p = vect_prime(tag)
    items = list(weighted)
    if tag in ("SET", "POS"):
        if len(items) != 1 or items[0][1] != 1:
            raise StructureError(f"{tag} elements are single points")
        return items[0][0]
    if tag == "SET_STAR":
        if not items:
            return a.op("point")
        if len(items) != 1 or items[0][1] != 1:
            raise StructureError("SET_STAR combinations have at most one point")
        return items[0][0]
    if tag in ("JSL0", "JSL01"):
        join = a.op("join")
        acc = a.op("zero")
        for x, c in items:
            if c != 1:
                raise StructureError("semilattice coefficients must be 1")
            acc = join[acc][x]
        return acc
    if tag == "JSL":
        if not items:
            raise StructureError("JSL has no empty joins")
        join = a.op("join")
        acc = items[0][0]
        for x, _ in items[1:]:
            acc = join[acc][x]
        return acc
    if p is not None:
        add = a.op("add")
        acc = a.op("zero")
        for x, c in items:
            acc = add[acc][a.op(f"smul{c % p}")[x]]
        return acc
    raise StructureError(f"tag {tag} has no combination structure")


def eval_free(a: LAlgebra, x: FreeElement) -> int:
    return combine_elements(a.states, [(run_word(a, w), c) for w, c in x.pairs])


def dual_monoid_entries(a: LAlgebra):
    """(mult, reprs) of the dual generated D-monoid of a: a word_table per
    representative word and one combine_elements call per entry."""
    tag = a.states.tag
    alphabet = a.alphabet
    n = a.states.size
    states, delta = explore(a.init, alphabet, lambda s, letter: a.tr(letter)[s])
    reprs = {
        s: free_word(tag, alphabet, w)
        for s, w in zip(states, shortlex_words(delta, alphabet))
    }
    if len(reprs) < n:
        elements, witnesses, _ = dmonoid_closure(reprs, a.states)
        reprs = dict(zip(elements, witnesses))
    minimize_reprs(a, reprs)
    column = {w: word_table(a, w) for w in {w for fe in reprs.values() for w, _ in fe.pairs}}
    mult = tuple(
        tuple(
            combine_elements(a.states, [(column[w][x], c) for w, c in reprs[y].pairs])
            for y in range(n)
        )
        for x in range(n)
    )
    return mult, tuple(sorted(reprs.items()))


def minimize_reprs(a: LAlgebra, reprs: dict):
    """Replace representatives by shortlex-minimal combinations of word reps:
    one FreeElement made and evaluated per candidate."""
    tag = a.states.tag
    if tag in ("SET", "POS"):
        return
    words = sorted(
        {w for fe in reprs.values() for w, _ in fe.pairs}, key=lambda w: (len(w), w)
    )
    if tag == "SET_STAR":
        candidates = [free_zero(tag, a.alphabet)] + [
            free_word(tag, a.alphabet, w) for w in words
        ]
    else:
        if len(words) > 12:
            return  # candidate pool too large; keep constructed reps
        p = vect_prime(tag)
        candidates = [free_zero(tag, a.alphabet)]
        coeffs = range(1, (p or 2))
        pool = []
        for r in range(1, len(words) + 1):
            for combo in itertools.combinations(words, r):
                if p is None or p == 2:
                    pool.append([(w, 1) for w in combo])
                else:
                    for cs in itertools.product(coeffs, repeat=r):
                        pool.append(list(zip(combo, cs)))
        candidates += [make_free(tag, a.alphabet, pairs) for pairs in pool]
    candidates.sort(key=FreeElement.sort_key)
    best = {}
    for fe in candidates:
        elem = eval_free(a, fe)
        if elem not in best:
            best[elem] = fe
    for elem in reprs:
        if elem in best:
            reprs[elem] = best[elem]


def build_parser():
    p = argparse.ArgumentParser(
        prog="predual",
        description="finite duality-based algebraic automata lab",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, language=False):
        sp.add_argument("--json", action="store_true", help="canonical JSON on stdout")
        sp.add_argument("--dot", action="store_true", help="DOT graph on stdout")
        if language:
            sp.add_argument("--regex", help="regex input")
            sp.add_argument("--alphabet", help="explicit alphabet letters")
            sp.add_argument("--in", dest="infile", help="language document path")

    sp = sub.add_parser("enumerate", help="enumerate algebras up to isomorphism")
    sp.add_argument("--tag", required=True)
    sp.add_argument("--size", type=int, required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_enumerate)

    sp = sub.add_parser("dualize", help="dualize an algebra or morphism document")
    sp.add_argument("--pair", required=True, choices=PAIRS)
    sp.add_argument("--in", dest="infile")
    sp.add_argument("--check", action="store_true", help="run verify_preduality")
    sp.add_argument("--max-size", type=int, default=4)
    add_common(sp)
    sp.set_defaults(fn=cmd_dualize)

    sp = sub.add_parser("minimize", help="canonical minimal automaton of a language")
    add_common(sp, language=True)
    sp.set_defaults(fn=cmd_minimize)

    sp = sub.add_parser("deriv", help="left or right derivative of a language")
    sp.add_argument("--side", choices=("left", "right"), required=True)
    sp.add_argument("--letter", required=True)
    add_common(sp, language=True)
    sp.set_defaults(fn=cmd_deriv)

    sp = sub.add_parser("localvariety", help="closure of seeds into a local variety")
    sp.add_argument("--tag", required=True, choices=MAIN_PAIRS)
    sp.add_argument("--seeds", help="JSON file with a list of regexes")
    sp.add_argument("--regex", help="single seed regex")
    sp.add_argument("--alphabet")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--dot", action="store_true")
    sp.set_defaults(fn=cmd_localvariety)

    sp = sub.add_parser("syntactic", help="dual generated D-monoid of a language")
    sp.add_argument("--tag", required=True, choices=MAIN_PAIRS)
    sp.add_argument("--regex", required=True)
    sp.add_argument("--alphabet")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_syntactic)

    sp = sub.add_parser("preimage", help="preimage of a language or automaton")
    sp.add_argument("--map", required=True, help="free-morphism document path")
    sp.add_argument("--automaton", help="coalgebra or L-algebra document path")
    sp.add_argument("--side", choices=("C", "D"), help="expected automaton side")
    add_common(sp, language=True)
    sp.set_defaults(fn=cmd_preimage)

    sp = sub.add_parser("varlang", help="languages of a simple pseudovariety")
    sp.add_argument("--monoid", required=True, help="dmonoid document path")
    sp.add_argument("--alphabet", required=True)
    sp.add_argument("--pair", required=True, choices=MAIN_PAIRS)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_varlang)

    sp = sub.add_parser("eilenberg-check", help="bounded Eilenberg correspondence")
    sp.add_argument("--monoid", required=True)
    sp.add_argument("--samples", required=True, help="JSON list of sample regexes")
    sp.add_argument("--pair", default="BA", choices=MAIN_PAIRS)
    sp.add_argument("--nmax", type=int, default=2)
    sp.set_defaults(fn=cmd_eilenberg_check)

    sp = sub.add_parser("check-laws", help="run the reversal/preimage law battery")
    sp.add_argument("--laws", help="comma-separated law names")
    sp.add_argument("--pairs", help="comma-separated pair tags")
    sp.add_argument("--corpus", help="JSON corpus file {pairs, seeds:{alphabet:[regex]}}")
    sp.add_argument("--max-states", type=int, help="cap corpus variety sizes")
    sp.set_defaults(fn=cmd_check_laws)

    return p


def _closure_with_mult(seeds: dict, carriers, mult, cap=None, stage="closure"):
    """closure() of seeds, a dict element -> free-element witness, under mult
    and then the D-operations of carriers, a new element witnessed by the
    product or the combination of its arguments' witnesses."""
    some = next(iter(seeds.values()))
    tag, alphabet = some.tag, some.alphabet
    names = ["mul"] + sorted(signature(tag))

    def witness(x, k, ws):
        name = names[k]
        if name == "mul":
            return langlib.free_mul(*ws)
        coeff = int(name[4:]) if name.startswith("smul") else 1
        return langlib.free_combine(tag, alphabet, [(w, coeff) for w in ws])

    return closure(seeds, [(2, mult, False)] + closure_ops(carriers), cap, witness, stage)


def free_monoid_in_simple_pseudovariety(d: DMonoid, sigma) -> GeneratedDMonoid:
    """The free Sigma-generated D-monoid of the pseudovariety of d, closed
    from the unit and the letter images under multiplication and the
    D-operations at once inside d^(maps Sigma -> |d|)."""
    sigma = tuple(sigma)
    assignments = list(itertools.product(range(d.size), repeat=len(sigma)))
    width = len(assignments)
    gen_images = {a: tuple(u[i] for u in assignments) for i, a in enumerate(sigma)}
    tag = d.carrier.tag
    unit = (d.unit,) * width
    seeds = {unit: langlib.free_word(tag, sigma, "")}
    for a in sigma:
        seeds.setdefault(gen_images[a], langlib.free_word(tag, sigma, a))
    elements, witnesses, tables = sort_closure(
        _closure_with_mult(
            seeds, [d.carrier] * width, componentwise_fn(2, [d.mult] * width),
            cap=512, stage="free monoid",
        )
    )
    index = {t: i for i, t in enumerate(elements)}
    order = None
    if d.carrier.order is not None:
        order = tuple(
            tuple(all(d.carrier.order[x][y] for x, y in zip(t1, t2)) for t2 in elements)
            for t1 in elements
        )
    ops = dict(zip(sorted(signature(tag)), tables[1:]))
    carrier = make_algebra(tag, len(elements), ops, order)
    perm = tuple(range(len(elements)))
    if vect_prime(tag) is not None:
        carrier, perm = standardize_vect(carrier)
    mult = [[None] * len(elements) for _ in elements]
    for i, row in enumerate(tables[0]):
        for j, k in enumerate(row):
            mult[perm[i]][perm[j]] = perm[k]
    base = make_dmonoid(carrier, mult, perm[index[unit]])
    return GeneratedDMonoid(
        base,
        sigma,
        tuple((a, perm[index[gen_images[a]]]) for a in sigma),
        tuple(sorted((perm[i], w) for i, w in enumerate(witnesses))),
    )


def subdirect_product(g1: GeneratedDMonoid, g2: GeneratedDMonoid) -> GeneratedDMonoid:
    """The image of the pairing of g1 and g2, closed from the unit and the
    letter images inside the whole product D-monoid (dmonoid_product).  The
    carrier goes through subalgebra_on, which puts a VECT carrier in standard
    form, while the table, unit and generators keep the sorted numbering."""
    prod, enc = dmonoid_product(g1.base, g2.base)
    tag, alphabet = prod.carrier.tag, g1.alphabet
    gen_images = {a: enc(g1.gen(a), g2.gen(a)) for a in alphabet}
    seeds = {prod.unit: langlib.free_word(tag, alphabet, "")}
    for a in alphabet:
        seeds.setdefault(gen_images[a], langlib.free_word(tag, alphabet, a))
    elems, witnesses, tables = sort_closure(
        _closure_with_mult(seeds, prod.carrier, table_fn(2, prod.mult))
    )
    sub, _ = subalgebra_on(prod.carrier, elems)
    index = {e: i for i, e in enumerate(elems)}
    return GeneratedDMonoid(
        make_dmonoid(sub, tables[0], index[prod.unit]),
        alphabet,
        tuple((a, index[gen_images[a]]) for a in alphabet),
        tuple(enumerate(witnesses)),
    )


def transition_dmonoid(lalg, cap: int = 64):
    """(elements, monoid, gen_images) of the sub-D-monoid of [A,A] that the
    letter transitions generate: words explored from the identity, closed
    under the pointwise D-operations, sorted, with no VECT standard form."""
    host = lalg.states
    n = host.size
    tag = host.tag
    alphabet = lalg.alphabet
    ident = tuple(range(n))
    trans = dict(lalg.trans)
    reached, delta = explore(
        ident, alphabet, lambda t, a: tuple(trans[a][v] for v in t), cap, "transition monoid",
    )
    witness = {
        t: langlib.free_word(tag, alphabet, w)
        for t, w in zip(reached, shortlex_words(delta, alphabet))
    }
    elements, _, tables = sort_closure(
        dmonoid_closure(witness, [host] * n, cap=cap, stage="transition monoid")
    )
    index = {t: i for i, t in enumerate(elements)}
    horder = None
    if host.order is not None:
        horder = tuple(
            tuple(all(host.order[x][y] for x, y in zip(t1, t2)) for t2 in elements)
            for t1 in elements
        )
    carrier = make_algebra(tag, len(elements), dict(zip(sorted(signature(tag)), tables)), horder)
    mult = tuple(
        tuple(index[tuple(t2[v] for v in t1)] for t2 in elements) for t1 in elements
    )
    gen_images = tuple((a, index[trans[a]]) for a in alphabet)
    return elements, make_dmonoid(carrier, mult, index[ident]), gen_images
