"""The six predual pairs: dualization of finite objects and morphisms.

Pairs are named by their C-side tag:

    BA     <->  SET        (Birkhoff, discrete case: Stone duality)
    DL01   <->  POS        (Birkhoff: join-irreducibles / down-sets)
    BR     <->  SET_STAR   (Birkhoff, pointed case)
    JSL0   <->  JSL0       (self-dual: opposite semilattice)
    VECTp  <->  VECTp      (dual space, fixed standard basis)
    JSL01  <->  JSL        (drop the top / adjoin a bottom and reverse)

BA, DL01 and BR are one construction, finite Birkhoff duality.  The points
of a C-side algebra are its join-irreducibles (in BA and BR, its atoms) in
the algebra's order; the dual of a D-side object is the lattice of its
down-closed subsets, each C-side operation read as a set operation.  SET
and SET_STAR carry the discrete order, so every subset is down-closed: that
is Stone duality.  The pointed case puts a basepoint in front of the points
and keeps only the subsets that avoid it.

Dual objects reuse ascending carrier-index order for points and ascending
bitmask order for down-sets, so dualization is deterministic and
serializable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, partial

from .algebra import (
    AlgMorphism,
    FinAlgebra,
    StructureError,
    all_morphisms,
    check_morphism,
    closure,
    combine_elements,
    derived,
    enumerate_algebras,
    free_algebra,
    identity_morphism,
    make_algebra,
    relabel_algebra,
    signature,
    validate_algebra,
    vect_prime,
)

PAIR_D_SIDE = {
    "BA": "SET",
    "DL01": "POS",
    "JSL0": "JSL0",
    "VECT2": "VECT2",
    "VECT3": "VECT3",
    "VECT5": "VECT5",
    "BR": "SET_STAR",
    "JSL01": "JSL",
}

PAIRS = tuple(sorted(PAIR_D_SIDE))
MAIN_PAIRS = ("BA", "DL01", "JSL0", "VECT2", "BR")


def c_tag(pair: str) -> str:
    if pair not in PAIR_D_SIDE:
        raise StructureError(f"unknown pair {pair!r}")
    return pair


def d_tag(pair: str) -> str:
    return PAIR_D_SIDE[c_tag(pair)]


def side_of(pair: str, tag: str) -> str:
    """Which side of the pair a tag lives on ("C", "D", or "SELF")."""
    c, d = c_tag(pair), d_tag(pair)
    if c == d:
        return "SELF" if tag == c else _bad_side(pair, tag)
    if tag == c:
        return "C"
    if tag == d:
        return "D"
    return _bad_side(pair, tag)


def _bad_side(pair, tag):
    raise StructureError(f"tag {tag} does not belong to pair {pair}")


# ---------------------------------------------------------------------------
# finite Birkhoff duality: points and down-sets

# the Birkhoff pairs, with the number of basepoints in front of the points
_BASEPOINTS = {"BA": 0, "DL01": 0, "BR": 1}
BIRKHOFF_PAIRS = tuple(_BASEPOINTS)

# each operation as an operation on the subsets (bitmasks) of a set whose
# full subset is top: the down-sets of a Birkhoff dual, in langlib the
# languages of a local variety as sets of syntactic-monoid elements, and in
# automata (D-side operations) the sets of quotients that hold an element
SET_OPS = {
    "meet": lambda top, x, y: x & y,
    "mul": lambda top, x, y: x & y,
    "join": lambda top, x, y: x | y,
    "add": lambda top, x, y: x ^ y,
    "not": lambda top, x: top ^ x,
    "zero": lambda top: 0,
    "one": lambda top: top,
    "smul0": lambda top, x: 0,
    "smul1": lambda top, x: x,
    "point": lambda top: 0,
}


def set_ops(tag: str, top: int) -> list:
    """The tag's operations, in signature order, as closure() ops on subsets of top."""
    return [(arity, partial(SET_OPS[name], top), True) for name, arity in signature(tag).items()]


def _points(a: FinAlgebra) -> tuple:
    """The join-irreducibles of a C-side algebra, ascending.

    A BR has no join operation; its join-irreducibles are its atoms."""
    return a.atoms if a.tag == "BR" else a.join_irreducibles


def downset_index(p: FinAlgebra) -> dict:
    """Down-set bitmask -> its index in the dual of a D-side object.

    The down-sets are taken in ascending order, in a SET_STAR only those that
    avoid the point.  The map is built once and kept on the instance."""
    def build():
        avoid = 1 << p.op("point") if p.tag == "SET_STAR" else 0
        return {m: i for i, m in enumerate(m for m in p.downsets if not m & avoid)}
    return derived(p, "_downset_index", build)


# ---------------------------------------------------------------------------
# dual objects


def dual_object(pair: str, a: FinAlgebra) -> FinAlgebra:
    """The dual finite algebra on the other side of the pair.

    Each tag belongs to exactly one pair, so the dual depends on a alone: it
    is built once and kept on the instance.
    """
    side = side_of(pair, a.tag)
    if vect_prime(a.tag) is not None:
        return a  # [Q, GF(p)] with the standard basis is Q itself
    return derived(a, "_dual", _build_dual, pair, side, a)


def _build_dual(pair: str, side: str, a: FinAlgebra) -> FinAlgebra:
    if pair in _BASEPOINTS and side == "C":
        # the points in the algebra's order; SET_STAR puts a basepoint first
        pts, leq, d = _points(a), a.leq, d_tag(pair)
        if d == "POS":
            order = tuple(tuple(leq[x][y] for y in pts) for x in pts)
            return make_algebra(d, len(pts), {}, order)
        return free_algebra(d, pts)[0]  # atoms are pairwise incomparable

    if pair in _BASEPOINTS:
        # the down-set lattice, each C-side operation read as a set operation
        index = downset_index(a)
        _, _, tables = closure(dict.fromkeys(index), set_ops(pair, max(index)))
        return make_algebra(pair, len(index), dict(zip(signature(pair), tables)))

    if pair == "JSL0":
        join = a.op("join")
        top = 0
        for x in a.carrier():
            top = join[top][x]
        return make_algebra("JSL0", a.size, {"join": a.meets, "zero": top})

    if pair == "JSL01":
        if side == "C":
            one = a.op("one")
            rest = [x for x in a.carrier() if x != one]
            index = {x: i for i, x in enumerate(rest)}
            meet = a.meets
            table = tuple(tuple(index[meet[x][y]] for y in rest) for x in rest)
            return make_algebra("JSL", len(rest), {"join": table})
        # JSL side: adjoin a new bottom, then reverse the order
        n = a.size
        join = a.op("join")
        new = n  # the adjoined element; becomes the top of the JSL01
        table = tuple(
            tuple(new if m is None else m for m in row) + (new,) for row in a.meets
        ) + ((new,) * (n + 1),)
        if n == 0:
            zero = new
        else:
            zero = 0
            for x in range(n):
                zero = join[zero][x]
        return make_algebra("JSL01", n + 1, {"join": table, "zero": zero, "one": new})

    raise StructureError(f"unsupported pair {pair}")


# ---------------------------------------------------------------------------
# dual morphisms


def _join_of(a: FinAlgebra, elems, empty):
    join = a.op("join")
    acc = empty
    for x in elems:
        acc = join[acc][x]
    return acc


def _vect_matrix(h: AlgMorphism, p: int):
    """Matrix of a linear map w.r.t. standard bases (columns = basis images)."""
    src_dim = 0
    while p**src_dim < h.source.size:
        src_dim += 1
    tgt_dim = 0
    while p**tgt_dim < h.target.size:
        tgt_dim += 1
    cols = []
    for i in range(src_dim):
        img = h.table[p**i]
        cols.append([(img // p**j) % p for j in range(tgt_dim)])
    return cols, src_dim, tgt_dim


def _vect_table_from_matrix(cols, src_dim, tgt_dim, p):
    """Table of the linear map sending digit vectors through the column list."""
    table = []
    for x in range(p**src_dim):
        digits = [(x // p**i) % p for i in range(src_dim)]
        out = [0] * tgt_dim
        for i, d in enumerate(digits):
            for j in range(tgt_dim):
                out[j] = (out[j] + d * cols[i][j]) % p
        table.append(sum(v * p**j for j, v in enumerate(out)))
    return tuple(table)


def dual_morphism(pair: str, h: AlgMorphism) -> AlgMorphism:
    """Contravariant dual of a morphism, by the pair's formula; kept on its source."""
    key = pair, h.target, h.table
    return derived(h.source, "_dual_morphisms", _build_dual_morphism, pair, h, key=key)


def _build_dual_morphism(pair: str, h: AlgMorphism) -> AlgMorphism:
    q, r = h.source, h.target
    side = side_of(pair, q.tag)
    dq, dr = dual_object(pair, q), dual_object(pair, r)
    p = vect_prime(q.tag)

    if p is not None:
        cols, sd, td = _vect_matrix(h, p)
        transposed = [[cols[i][j] for i in range(sd)] for j in range(td)]
        table = _vect_table_from_matrix(transposed, td, sd, p)
        return AlgMorphism(dr, dq, table)

    if pair in _BASEPOINTS and side == "C":
        # a point r goes to the point meet { q : h(q) >= r }, and in BR to the
        # basepoint when h(q) >= r for no q
        base, pts_q, leq_q, leq_r = _BASEPOINTS[pair], _points(q), q.leq, r.leq
        table = [0] * base
        for rr in _points(r):
            above = [x for x in q.carrier() if leq_r[rr][h.table[x]]]
            if not above:
                table.append(0)
                continue
            least = above[0]  # h preserves meets, so the meet lies in above
            for x in above[1:]:
                if leq_q[x][least]:
                    least = x
            table.append(base + pts_q.index(least))
        return AlgMorphism(dr, dq, tuple(table))

    if pair in _BASEPOINTS:
        # the dual of g: X -> Y is preimage on down-sets
        index_q = downset_index(q)
        table = []
        for mask in downset_index(r):
            pre = 0
            for x in q.carrier():
                if mask >> h.table[x] & 1:
                    pre |= 1 << x
            table.append(index_q[pre])
        return AlgMorphism(dr, dq, tuple(table))

    if pair == "JSL0":
        # hat h(r) = join { q : h(q) <= r }, join formed in the source
        zero_q, leq_r = q.op("zero"), r.leq
        table = []
        for rr in r.carrier():
            below = [x for x in q.carrier() if leq_r[h.table[x]][rr]]
            table.append(_join_of(q, below, zero_q))
        return AlgMorphism(dr, dq, tuple(table))

    if pair == "JSL01" and side == "C":
        # hat h(r) = join { q : h(q) <= r }; h preserves the top, so the
        # join stays strictly below it
        one_q = q.op("one")
        rest_q = [x for x in q.carrier() if x != one_q]
        rest_r = [x for x in r.carrier() if x != r.op("one")]
        zero_q, leq_r = q.op("zero"), r.leq
        table = []
        for rr in rest_r:
            below = [x for x in q.carrier() if leq_r[h.table[x]][rr]]
            val = _join_of(q, below, zero_q)
            table.append(rest_q.index(val))
        return AlgMorphism(dr, dq, tuple(table))

    if pair == "JSL01" and side == "D":
        # fullness construction: h(q) = meet { r : q <= gbar(r) } in the duals
        # g: P1 -> P2 dualizes to a JSL01 morphism dual(P2) -> dual(P1)
        d1, d2 = dq, dr  # dual(P1), dual(P2): JSL01 algebras
        top1, top2 = d1.op("one"), d2.op("one")

        def gbar(x):
            return top2 if x == top1 else h.table[x]

        meet1, leq2 = d1.meets, d2.leq
        table = []
        for x in d2.carrier():
            above = [rr for rr in d1.carrier() if leq2[x][gbar(rr)]]
            acc = above[0]
            for z in above[1:]:
                acc = meet1[acc][z]
            table.append(acc)
        return AlgMorphism(dr, dq, tuple(table))

    raise StructureError(f"unsupported pair/side for dual_morphism: {pair}")


# ---------------------------------------------------------------------------
# canonical double-dual isomorphism


def eta(pair: str, a: FinAlgebra) -> AlgMorphism:
    """Canonical isomorphism a -> dual(dual(a)), kept on the instance."""
    return derived(a, "_eta", _build_eta, pair, side_of(pair, a.tag), a)


def _build_eta(pair: str, side: str, a: FinAlgebra) -> AlgMorphism:
    d = dual_object(pair, a)
    dd = dual_object(pair, d)
    p = vect_prime(a.tag)

    if p is not None or pair == "JSL0":
        return AlgMorphism(a, dd, tuple(range(a.size)))
    if pair in _BASEPOINTS and side == "C":
        # x goes to the down-set of the points below it
        base, pts, leq, index = _BASEPOINTS[pair], _points(a), a.leq, downset_index(d)
        table = []
        for x in a.carrier():
            mask = 0
            for i, j in enumerate(pts):
                if leq[j][x]:
                    mask |= 1 << (base + i)
            table.append(index[mask])
        return AlgMorphism(a, dd, tuple(table))
    if pair in _BASEPOINTS:
        # x goes to the point that is its principal down-set; the point of a
        # SET_STAR, whose down-set is not in the dual, goes to the basepoint
        base, pts, leq, index = _BASEPOINTS[pair], _points(d), a.leq, downset_index(a)
        table = []
        for x in a.carrier():
            down = 0
            for y in a.carrier():
                if leq[y][x]:
                    down |= 1 << y
            table.append(base + pts.index(index[down]) if down in index else 0)
        return AlgMorphism(a, dd, tuple(table))
    if pair == "JSL01" and side == "C":
        one = a.op("one")
        rest = [x for x in a.carrier() if x != one]
        table = []
        for x in a.carrier():
            table.append(len(rest) if x == one else rest.index(x))
        return AlgMorphism(a, dd, tuple(table))
    if pair == "JSL01" and side == "D":
        # dual(dual(P)) drops the adjoined top again: identity on indices
        return AlgMorphism(a, dd, tuple(range(a.size)))
    raise StructureError(f"unsupported pair {pair}")


# ---------------------------------------------------------------------------
# canonical constants


@dataclass(frozen=True)
class ConstantsBundle:
    """The paper's fixed constants for a pair, in semantic labeling.

    O_C and O_D carriers use {0,1} with 1 = "accept" (for BR's O_D the
    basepoint is index 0, identified with 0 in O_C).  one_D equals
    dual_object(O_C) on the nose; O_D is dual_object(one_C) relabeled so
    that index 1 is the element hit by the dual of 1_{O_C}.
    """

    pair: str
    one_C: FinAlgebra
    O_C: FinAlgebra
    one_D: FinAlgebra
    O_D: FinAlgebra
    gen_one_C: int
    gen_one_D: int
    one_out_C: int
    one_out_D: int
    ident: tuple
    out_one_C: AlgMorphism  # the morphism 1_C -> O_C choosing 1
    relabel_OD: tuple  # dual_object(one_C) index -> O_D index


@lru_cache(maxsize=None)
def canonical_constants(pair: str) -> ConstantsBundle:
    """The fixed constant choices of the pair's table, derived.

    O_C is the two-element algebra (VECTp: GF(p), which is also one_C).
    one_C, the free algebra on one generator, is the algebra of its size
    whose elements ``_selector_table`` lists as terms in the generator; the
    generator is the term that evaluates to v at every v of O_C.  one_D is
    dual_object(O_C); its generator is the least element no constant names.
    """
    tag = c_tag(pair)
    o_c = enumerate_algebras(tag, vect_prime(tag) or 2)[0]
    selectors = [_selector_table(pair, o_c, v) for v in o_c.carrier()]
    one_c = enumerate_algebras(tag, len(selectors[1]))[0]
    gen_c = next(
        x for x in one_c.carrier() if all(sel[x] == v for v, sel in enumerate(selectors))
    )
    out_one = AlgMorphism(one_c, o_c, selectors[1])

    one_d = dual_object(pair, o_c)
    named = {table for arity, table in one_d.sig_ops if arity == 0}
    gen_d = min(x for x in one_d.carrier() if x not in named)

    raw_od = dual_object(pair, one_c)
    pos = dual_morphism(pair, out_one).table[gen_d]
    if raw_od.size == 2:
        perm = (0, 1) if pos == 1 else (1, 0)
    else:
        perm = tuple(range(raw_od.size))  # VECT(p) with p > 2: keep raw labels
    o_d = relabel_algebra(raw_od, perm)
    one_out_d = perm[pos]

    ident = tuple(range(o_c.size)) if o_c.size == o_d.size else None
    return ConstantsBundle(
        pair=pair,
        one_C=one_c,
        O_C=o_c,
        one_D=one_d,
        O_D=o_d,
        gen_one_C=gen_c,
        gen_one_D=gen_d,
        one_out_C=1,
        one_out_D=one_out_d,
        ident=ident,
        out_one_C=out_one,
        relabel_OD=perm,
    )


def _selector_table(pair: str, states: FinAlgebra, elem: int) -> tuple:
    """The elements of 1_C, as terms in its generator, evaluated at elem."""
    if pair == "BA":
        return (states.op("zero"), states.op("not")[elem], elem, states.op("one"))
    if pair in ("DL01", "JSL01"):
        return (states.op("zero"), elem, states.op("one"))
    if pair in ("JSL0", "BR"):
        return (states.op("zero"), elem)
    p = vect_prime(c_tag(pair))
    if p is not None:
        return tuple(states.op(f"smul{k}")[elem] for k in range(p))
    raise StructureError(pair)


def one_c_selector(pair: str, states: FinAlgebra, elem: int) -> AlgMorphism:
    """The unique C-morphism 1_C -> states sending the generator to elem."""
    one_c = canonical_constants(pair).one_C
    return AlgMorphism(one_c, states, _selector_table(pair, states, elem))


def init_selector_table(pair: str, states: FinAlgebra, init: int) -> AlgMorphism:
    """The unique D-morphism one_D -> states sending the generator to init.

    Each element of one_D is c * generator for one coefficient c (the empty
    combination where a constant names the element) and goes to c * init.
    """
    bundle = canonical_constants(pair)
    one_d, gen = bundle.one_D, bundle.gen_one_D
    coeff = {
        combine_elements(one_d, [(gen, c)]): c for c in range(1, vect_prime(pair) or 2)
    }
    table = tuple(
        combine_elements(states, [(init, coeff[y])] if y in coeff else [])
        for y in one_d.carrier()
    )
    return AlgMorphism(one_d, states, table)


def state_output(pair: str, states: FinAlgebra, elem: int) -> tuple:
    """Dual of a state selector: the output table dual(states) -> O_D, kept
    on states by (pair, elem)."""
    return derived(states, "_state_outputs", _state_output, pair, states, elem, key=(pair, elem))


def _state_output(pair: str, states: FinAlgebra, elem: int) -> tuple:
    bundle = canonical_constants(pair)
    sel = one_c_selector(pair, states, elem)
    # not kept on the cached 1_C, which would then keep every states algebra alive
    dual_sel = _build_dual_morphism(pair, sel)
    return tuple(bundle.relabel_OD[v] for v in dual_sel.table)


def out_from_dual_init(pair: str, states_d: FinAlgebra, init: int) -> tuple:
    """gamma_out of the dual coalgebra, from an L-algebra initial state; kept
    on states_d by (pair, init)."""
    return derived(
        states_d, "_init_outputs", _out_from_dual_init, pair, states_d, init, key=(pair, init)
    )


def _out_from_dual_init(pair: str, states_d: FinAlgebra, init: int) -> tuple:
    bundle = canonical_constants(pair)
    sel = init_selector_table(pair, states_d, init)
    # not kept on the cached 1_D, as in state_output
    dual_sel = _build_dual_morphism(pair, sel)
    e = eta(pair, bundle.O_C)
    inv = [0] * bundle.O_C.size
    for x, v in enumerate(e.table):
        inv[v] = x
    return tuple(inv[v] for v in dual_sel.table)


# ---------------------------------------------------------------------------
# law verification


def _objects_for(pair: str, side: str, max_size: int):
    tag = c_tag(pair) if side == "C" else d_tag(pair)
    p = vect_prime(tag)
    sizes: list = []
    if tag in ("BA", "BR"):
        sizes = [s for s in (1, 2, 4, 8) if s <= max_size]
    elif p is not None:
        sizes = [p**d for d in range(0, 4) if p**d <= max_size]
    elif tag == "JSL":
        sizes = list(range(0, max_size + 1))
    else:
        sizes = list(range(1, max_size + 1))
    out = []
    for n in sizes:
        out.extend(enumerate_algebras(tag, n))
    return out


def _translation(table) -> bytes:
    """The 256-byte table that bytes.translate reads a table through:
    t.translate(_translation(g)) is g o t for a table t into g's domain."""
    return bytes(table).ljust(256, b"\0")


class _DualTables(dict):
    """Hom table -> dual table, both bytes; fill(table) dualizes a table not
    yet in it and stores its dual."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, table):
        self.fill(table)
        return self[table]


def verify_preduality(pair: str, max_size: int, dual_morphism_fn=None) -> dict:
    """Machine-check the pair's duality laws on all objects up to max_size.

    Checks: dual objects validate; dual(id) = id; contravariant functoriality;
    double-dual isomorphism (eta) and its naturality; hom-set bijection
    |Hom(Q,R)| = |Hom(R^,Q^)|; faithfulness of dualization.  Returns a report
    dict; report["ok"] is False iff some law has a counterexample, recorded
    with a minimal witness.

    The morphism laws run on byte tables (every object _objects_for yields
    has at most 125 elements), so composing and comparing run in C: g o h
    is h.translate(_translation(g)).  Homs are searched once per ordered
    pair of objects (both sides share the search), each hom is dualized
    once into them (not kept on its source) and each eta computed once.
    Functoriality, dual(g o h) = dual(h) o dual(g), is checked for one h
    against all g: Hom(q_j, q_k) at once: the duals of the composites,
    joined in the order of the g, against the joined duals of Hom(q_j, q_k)
    translated by dual(h).  Equal sides count |Hom(q_j, q_k)| compositions;
    otherwise the first unequal slice names the g, and the count stops at
    it, as one g at a time would.  A composite outside the searched
    Hom(q_i, q_k) is dualized when met.  A dual whose ends do not meet the
    other duals', or whose table is no map between its ends, raises
    StructureError("morphisms not composable").
    """
    dualize = dual_morphism_fn or _build_dual_morphism
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
        # check_morphism tests at generators, which needs a lawful target;
        # one equal to the enumerated object is
        broken = [] if e.target == obj else validate_algebra(e.target)
        ok, why = (False, f"double dual: {broken[0]}") if broken else check_morphism(e)
        if not ok or len(set(e.table)) != obj.size or e.target.size != obj.size:
            fail("double-dual-iso", f"{obj.tag} size {obj.size}: {why}")

    # morphism-level laws on the C side and between dual objects, on bytes:
    # per ordered pair (i, j) the homs, their duals, and what the
    # functoriality batch reads of them
    hom_cache, arrows, duals, ends = {}, {}, {}, {}
    afters, runs, dual_afters = {}, {}, {}

    def homs(a, b):
        if (a, b) not in hom_cache:
            hom_cache[a, b] = [bytes(h.table) for h in all_morphisms(a, b)]
        return hom_cache[a, b]

    def dual_of(i, j, table):
        d = dualize(pair, AlgMorphism(c_objs[i], c_objs[j], tuple(table)))
        # the duals of all homs into (out of) an object start (end) at one
        # object, so that dual(h) o dual(g) is defined
        if (
            ends.setdefault(j, d.source) != d.source
            or ends.setdefault(i, d.target) != d.target
            or len(d.table) != d.source.size
            or max(d.table, default=-1) >= d.target.size
        ):
            raise StructureError("morphisms not composable")
        duals[i, j][table] = bytes(d.table)
        return d

    for q in c_objs:
        ident_dual = dualize(pair, identity_morphism(q))
        if ident_dual.table != tuple(range(ident_dual.source.size)):
            fail("dual-of-identity", f"{q.tag} size {q.size}")
    for (i, q), (j, r) in itertools.product(enumerate(c_objs), repeat=2):
        d_ij = duals[i, j] = _DualTables(partial(dual_of, i, j))
        hom_ij = arrows[i, j] = homs(q, r)
        hs = [(h, dual_of(i, j, h)) for h in hom_ij]
        afters[i, j] = [_translation(h) for h in hom_ij]
        runs[i, j] = b"".join([d_ij[h] for h in hom_ij])
        dual_afters[i, j] = [_translation(d_ij[h]) for h in hom_ij]
        report["morphisms"] += len(hs)
        for _, dh in hs:
            ok, why = check_morphism(dh)
            if not ok:
                fail("dual-is-morphism", f"{q.size}->{r.size}: {why}")
        if len({d_ij[h] for h in hom_ij}) != len(hs):
            fail("faithfulness", f"{q.size}->{r.size}")
        dcount = len(homs(dual_object(pair, r), dual_object(pair, q)))
        report["hom_counts"].append((q.size, r.size, len(hs), dcount))
        if dcount != len(hs):
            fail(
                "hom-count",
                f"|Hom({q.tag}{q.size},{r.tag}{r.size})|={len(hs)} vs dual {dcount}",
            )
        eta_q, eta_r = eta(pair, q), _translation(eta(pair, r).table)
        from_q = bytes(eta_q.table)
        for h, dh in hs:
            ddh = dualize(pair, dh)
            if ddh.source != eta_q.target:
                raise StructureError("morphisms not composable")
            # ddh o eta_q = eta_r o h
            if from_q.translate(_translation(ddh.table)) != h.translate(eta_r):
                fail("eta-naturality", f"{q.size}->{r.size} table {tuple(h)}")
                break
    # contravariant functoriality over composable C-side pairs:
    # dual(g o h) = dual(h) o dual(g), for one h and every g at once
    for i, j, k in itertools.product(range(len(c_objs)), repeat=3):
        d_ik, after, run = duals[i, k], afters[j, k], runs[j, k]
        for h, after_dh in zip(arrows[i, j], dual_afters[i, j]):
            lhs = b"".join([d_ik[h.translate(g)] for g in after])
            rhs = run.translate(after_dh)
            if lhs == rhs:
                report["compositions"] += len(after)
                continue
            width = len(rhs) // len(after)
            first = next(
                t for t in range(len(after))
                if lhs[t * width:(t + 1) * width] != rhs[t * width:(t + 1) * width]
            )
            report["compositions"] += first + 1
            sizes = "->".join(str(c_objs[x].size) for x in (i, j, k))
            fail("functoriality", f"{sizes}: {tuple(h)},{tuple(arrows[j, k][first])}")
            return report
    return report
