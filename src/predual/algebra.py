"""Finite (ordered) universal algebra over the eight carrier varieties.

Carriers are index sets {0..n-1}; all structure is given by tables.  Supported
tags and signatures:

    SET       ()                      plain finite sets
    SET_STAR  (point,)                pointed sets, point is a constant
    POS       ()                      finite posets (order matrix required)
    BA        (meet, join, not, zero, one)
    DL01      (meet, join, zero, one)
    JSL0      (join, zero)
    JSL       (join,)                 join-semilattices, no constants
    JSL01     (join, zero, one)
    VECTp     (add, zero, smul0..smul{p-1})   vector spaces over GF(p)

The order matrix is stored only for POS; for lattice-like tags the order is
derived from the operation tables, once per instance (``FinAlgebra.leq``),
and SET and SET_STAR are discretely ordered.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from operator import getitem, itemgetter


class StructureError(ValueError):
    """Malformed table shapes or signatures (distinct from law violations)."""


class BoundExceeded(ValueError):
    """A size or enumeration bound declared by the API was exceeded."""


class CapExceeded(RuntimeError):
    """A configurable closure/search cap was hit; result is inconclusive."""


class InternalInvariantError(RuntimeError):
    """Two computations of one fact disagree: a fault in the program, not
    in its input.  Raised explicitly, so the cross-checks run under -O."""


def check_invariant(holds: bool, message: str) -> None:
    if not holds:
        raise InternalInvariantError(message)


VECT_PRIMES = (2, 3, 5)


def vect_tag(p: int) -> str:
    if p not in VECT_PRIMES:
        raise StructureError(f"unsupported field GF({p}); primes {VECT_PRIMES}")
    return f"VECT{p}"


def vect_prime(tag: str):
    """Return p for a VECTp tag, otherwise None."""
    if tag.startswith("VECT"):
        p = int(tag[4:])
        if p not in VECT_PRIMES:
            raise StructureError(f"unsupported tag {tag}")
        return p
    return None


def signature(tag: str) -> dict:
    """Operation name -> arity for the tag's fixed signature."""
    p = vect_prime(tag)
    if p is not None:
        sig = {"add": 2, "zero": 0}
        sig.update({f"smul{k}": 1 for k in range(p)})
        return sig
    try:
        return dict(_SIGNATURES[tag])
    except KeyError:
        raise StructureError(f"unknown variety tag {tag!r}") from None


_SIGNATURES = {
    "SET": {},
    "POS": {},
    "SET_STAR": {"point": 0},
    "JSL": {"join": 2},
    "JSL0": {"join": 2, "zero": 0},
    "JSL01": {"join": 2, "zero": 0, "one": 0},
    "DL01": {"meet": 2, "join": 2, "zero": 0, "one": 0},
    "BA": {"meet": 2, "join": 2, "not": 1, "zero": 0, "one": 0},
    "BR": {"add": 2, "mul": 2, "zero": 0},
}

ALL_TAGS = tuple(sorted(_SIGNATURES)) + tuple(vect_tag(p) for p in VECT_PRIMES)


def is_ordered_tag(tag: str) -> bool:
    return tag == "POS"


class KeepsDerived:
    """Pickles only the fields: a value kept on the instance stays in its process."""

    def __getstate__(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


def derived(obj, name: str, build, *args, key=None):
    """build(*args), kept on obj under name, or under key in the dict kept under name."""
    memo, slot = (vars(obj), name) if key is None else (vars(obj).setdefault(name, {}), key)
    if slot not in memo:
        memo[slot] = build(*args)
    return memo[slot]


@dataclass(frozen=True)
class FinAlgebra(KeepsDerived):
    """Finite algebra: tag, carrier {0..size-1}, op tables, optional order.

    Derived structure is computed on first use and kept on the instance:
    ``sig_ops`` (the tables with their arities), ``leq`` (the order matrix),
    ``atoms``, ``join_irreducibles``, ``meets``, ``downsets``, the hash, the
    generators of each binary operation and the covering relation of the
    order (``generators``, ``covers``, which the law checks read), and
    from ``duality`` the dual, down-set index, eta, duals of morphisms out
    of it and the output tables of the duals of its element selectors.
    None of it takes part in equality, hashing, ``repr``, pickling or
    serialized documents, which see only the four fields.
    """

    tag: str
    size: int
    ops: tuple  # sorted tuple of (name, table); tables are ints / nested tuples
    order: tuple | None = None  # full boolean matrix, order[i][j] iff i <= j

    def op(self, name: str):
        for key, table in self.ops:
            if key == name:
                return table
        raise KeyError(name)

    def op_dict(self) -> dict:
        return dict(self.ops)

    def carrier(self):
        return range(self.size)

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.tag, self.size, self.ops, self.order))

    @cached_property
    def sig_ops(self) -> tuple:
        """The (arity, table) pairs of the operations, in sorted name order."""
        sig = signature(self.tag)
        return tuple((sig[name], table) for name, table in self.ops)

    @cached_property
    def leq(self) -> tuple:
        """The natural order, leq[x][y] iff x <= y (POS: the stored matrix;
        SET, SET_STAR: the discrete order)."""
        tag, n = self.tag, self.size
        if tag == "POS":
            return self.order
        if tag in ("SET", "SET_STAR"):
            return tuple(tuple(x == y for y in range(n)) for x in range(n))
        if tag in ("JSL", "JSL0", "JSL01"):
            join = self.op("join")
            return tuple(tuple(join[x][y] == y for y in range(n)) for x in range(n))
        if tag in ("DL01", "BA", "BR"):
            meet = self.op("mul" if tag == "BR" else "meet")
            return tuple(tuple(meet[x][y] == x for y in range(n)) for x in range(n))
        raise StructureError(f"tag {tag} has no derived order")

    @cached_property
    def atoms(self) -> tuple:
        """Minimal nonzero elements in the induced order, ascending."""
        zero, leq = self.op("zero"), self.leq
        nonzero = [x for x in self.carrier() if x != zero]
        return tuple(
            x for x in nonzero if not any(leq[y][x] for y in nonzero if y != x)
        )

    @cached_property
    def join_irreducibles(self) -> tuple:
        """Nonzero j with j = x v y implying j in {x, y}, ascending.

        Equivalently, the join of the elements strictly below j is not j.
        """
        zero, join, leq = self.op("zero"), self.op("join"), self.leq
        out = []
        for j in self.carrier():
            below = zero
            for x in self.carrier():
                if x != j and leq[x][j]:
                    below = join[below][x]
            if below != j:
                out.append(j)
        return tuple(out)

    @cached_property
    def meets(self) -> tuple:
        """Meet table of a finite join-semilattice: the join of the common
        lower bounds, or None where there is none (JSL without zero)."""
        leq = self.leq
        down = [
            sum(1 << z for z in self.carrier() if leq[z][x]) for x in self.carrier()
        ]
        by_down = {mask: x for x, mask in enumerate(down)}
        return tuple(tuple(by_down.get(dx & dy) for dy in down) for dx in down)

    @cached_property
    def downsets(self) -> tuple:
        """The down-closed subsets as bitmasks, ascending (SET, SET_STAR: all
        subsets)."""
        return tuple(sorted(downset_masks(self.leq)))


def downset_masks(leq, limit=None) -> list:
    """The down-closed subsets of the order leq[x][y] (x <= y) as bitmasks.

    The elements are decided along a linear extension, so that an element
    can join once everything below it has, and every branch ends in a
    down-set: the work is linear in the number found, not in 2^n.  With a
    limit the search stops once more than limit are found.
    """
    n = len(leq)
    below = [sum(1 << y for y in range(n) if y != x and leq[y][x]) for x in range(n)]
    extension = sorted(range(n), key=lambda x: bin(below[x]).count("1"))
    found, stack = [], [(0, 0)]
    while stack and (limit is None or len(found) <= limit):
        k, mask = stack.pop()
        if k == n:
            found.append(mask)
            continue
        x = extension[k]
        stack.append((k + 1, mask))
        if below[x] & ~mask == 0:
            stack.append((k + 1, mask | 1 << x))
    return found


def _freeze_table(table, arity, size):
    if arity == 0:
        if not isinstance(table, int) or not (0 <= table < size):
            raise StructureError(f"constant out of range: {table!r}")
        return table
    if arity == 1:
        table = tuple(table)
        if len(table) != size or any(not (0 <= v < size) for v in table):
            raise StructureError("unary table has wrong shape")
        return table
    if arity == 2:
        table = tuple(tuple(row) for row in table)
        if len(table) != size or any(
            len(row) != size or any(not (0 <= v < size) for v in row) for row in table
        ):
            raise StructureError("binary table has wrong shape")
        return table
    raise StructureError(f"unsupported arity {arity}")


def make_algebra(tag: str, size: int, ops: dict, order=None) -> FinAlgebra:
    """Build a FinAlgebra, checking shapes against the tag's signature."""
    sig = signature(tag)
    if size < 0 or (size == 0 and any(ar == 0 for ar in sig.values())):
        raise StructureError("empty carrier requires a constant-free signature")
    if set(ops) != set(sig):
        raise StructureError(
            f"tag {tag} expects ops {sorted(sig)}, got {sorted(ops)}"
        )
    frozen = tuple(
        sorted((name, _freeze_table(ops[name], sig[name], size)) for name in ops)
    )
    if order is not None:
        if not is_ordered_tag(tag):
            raise StructureError(f"order matrix is only stored for POS, not {tag}")
        order = tuple(tuple(bool(v) for v in row) for row in order)
        if len(order) != size or any(len(row) != size for row in order):
            raise StructureError("order matrix has wrong shape")
    elif is_ordered_tag(tag):
        raise StructureError("POS algebras require an order matrix")
    return FinAlgebra(tag, size, frozen, order)


# ---------------------------------------------------------------------------
# law validation


def greedy_generators(table, candidates, start=()) -> tuple:
    """The candidates, in the given order, that the ones taken before do not
    reach: a candidate is taken unless it lies in the least set that holds
    start and the candidates taken so far and is closed under x -> x g,
    that is table[x][g], for every g taken.

    The reached set grows with each candidate taken, never recomputed: the
    elements reached before are stepped by the new generator, and every
    element reached after by each generator, so each element is stepped
    once by each generator, O(N |G|) lookups in all.
    """
    gens: list = []
    reached = set(start)
    elements = list(start)
    for g in candidates:
        if g in reached:
            continue
        gens.append(g)
        old = len(elements)
        reached.add(g)
        elements.append(g)
        for x in elements[:old]:
            y = table[x][g]
            if y not in reached:
                reached.add(y)
                elements.append(y)
        i = old
        while i < len(elements):
            row = table[elements[i]]
            for h in gens:
                y = row[h]
                if y not in reached:
                    reached.add(y)
                    elements.append(y)
            i += 1
    return tuple(gens)


def _gather(indices):
    """The function row -> tuple(row[i] for i in indices), as one C call."""
    if len(indices) == 1:
        i = indices[0]
        return lambda row: (row[i],)
    return itemgetter(*indices) if indices else lambda row: ()


def light_test(table, gens):
    """Light's associativity test at gens: the first (x, g, y) with
    (x g) y != x (g y) and g in gens, or None."""
    columns = [(g, _gather(table[g])) for g in gens]
    for x, row in enumerate(table):
        for g, times_g in columns:
            x_gy = times_g(row)
            xg_y = table[row[g]]
            if xg_y != x_gy:
                return x, g, next(y for y, v in enumerate(x_gy) if xg_y[y] != v)
    return None


def generators(a: FinAlgebra, name: str) -> tuple:
    """Greedy generators of a's binary operation name, kept on a."""
    return derived(a, "_generators", _op_generators, a.op(name), key=name)


def _generator_rows(a: FinAlgebra, name: str) -> tuple:
    """(g, u -> (u[g x] for every x)) for each generator g of a's binary
    operation name, kept on a."""
    return derived(a, "_generator_rows", _build_generator_rows, a, name, key=name)


def _build_generator_rows(a: FinAlgebra, name: str) -> tuple:
    table = a.op(name)
    return tuple((g, _gather(table[g])) for g in generators(a, name))


def _op_generators(table) -> tuple:
    """greedy_generators over the elements taken by ascending count of z
    with x z = x, then by index: under a join that is the size of x's
    down-set, under a meet of its up-set, so an element comes after the
    elements it is a join (meet) of, and a valid semilattice gets its
    irreducible elements and its bottom (top) as generators."""
    n = len(table)
    return greedy_generators(table, sorted(range(n), key=lambda x: table[x].count(x)))


def covers(a: FinAlgebra) -> tuple:
    """covers(a)[x]: the y that cover x in a's order (x < y, nothing between),
    ascending; kept on a."""
    return derived(a, "_covers", _build_covers, a.leq)


def _build_covers(leq) -> tuple:
    above = [sum(1 << y for y, v in enumerate(row) if v and y != x) for x, row in enumerate(leq)]
    out = []
    for mask in above:
        beyond = 0
        for y in _bits(mask):
            beyond |= above[y]
        out.append(tuple(_bits(mask & ~beyond)))
    return tuple(out)


def _bits(mask):
    """The indices of mask's set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def order_matrix_violations(order) -> list:
    """Reflexivity at every i, antisymmetry at every pair and transitivity
    at every (i, j, k), each violation named, in (i, j, k) order.  For
    i <= j transitivity says that the up-set of j lies in the up-set of i,
    one test of bitmask rows per pair."""
    n = len(order)
    out = [f"order not reflexive at {i}" for i in range(n) if not order[i][i]]
    up = [sum(1 << k for k, v in enumerate(row) if v) for row in order]
    for i in range(n):
        for j in range(n):
            if not order[i][j]:
                continue
            if i != j and order[j][i]:
                out.append(f"order not antisymmetric at ({i},{j})")
            out.extend(f"order not transitive at ({i},{j},{k})" for k in _bits(up[j] & ~up[i]))
    return out


def _check_commutative(table, out, name):
    for x, (row, column) in enumerate(zip(table, zip(*table))):
        if row != column:
            out.extend(
                f"{name} not commutative at ({x},{y})"
                for y, (u, v) in enumerate(zip(row, column)) if u != v
            )


def _check_associative(table, gens, out, name):
    bad = light_test(table, gens)
    if bad:
        out.append("{} associativity violation at ({},{},{})".format(name, *bad))


def _check_semilattice(table, gens, out, name="join"):
    for x, row in enumerate(table):
        if row[x] != x:
            out.append(f"{name} not idempotent at {x}")
    _check_commutative(table, out, name)
    _check_associative(table, gens, out, name)


def _check_lattice(meet, join, meet_gens, join_gens, out):
    """The semilattice laws of meet and join, at their generators, and
    absorption at every pair."""
    _check_semilattice(meet, meet_gens, out, "meet")
    _check_semilattice(join, join_gens, out, "join")
    for x, (meet_x, join_x) in enumerate(zip(meet, join)):
        same = (x,) * len(join)
        if _gather(meet_x)(join_x) != same or _gather(join_x)(meet_x) != same:
            y = next(
                y for y in range(len(join)) if join_x[meet_x[y]] != x or meet_x[join_x[y]] != x
            )
            out.append(f"absorption violation at ({x},{y})")
            return


def _check_distributive(mul, add, gens, out):
    """x*(y+g) = x*y + x*g for every x, y and each g in gens, the first
    failure named; * is mul and + is add."""
    columns = tuple(zip(*add))
    for x, row in enumerate(mul):
        for g in gens:
            x_yg = _gather(columns[g])(row)
            xy_xg = _gather(row)(columns[row[g]])
            if x_yg != xy_xg:
                y = next(y for y, (u, v) in enumerate(zip(x_yg, xy_xg)) if u != v)
                out.append(f"distributivity violation at ({x},{y},{g})")
                return


def validate_algebra(a: FinAlgebra) -> list:
    """Return the list of violated laws of a's equational theory (empty = valid).

    Idempotence, commutativity, units, absorption, complements, the
    characteristic and the scalar laws are tested at every element or pair;
    the order matrix of a POS by order_matrix_violations.  Associativity
    and distributivity are tested at generators, O(N^2 |G|) work where
    testing every triple is O(N^3), and the test stays complete:

    - Associativity of each binary operation, written xy, by Light's test
      at G = generators(a, name): (xg)y = x(gy) for every x, y and each g in
      G.  Let S be the set of z with (xz)y = x(zy) for all x, y.  S is
      closed under the operation without assuming it associative: for z,
      w in S and any x, y,
          (x(zw))y = ((xz)w)y = (xz)(wy) = x(z(wy)) = x((zw)y),
      by w in S, w in S, z in S and w in S again.  greedy_generators takes
      G so that every element is reached from G by steps x -> xg, g in G:
      every element is a product of elements of S, so lies in S, and the
      operation is associative.  BR's derived join x + y + xy is tested
      the same way at its own generators.
    - Distributivity x*(y+z) = x*y + x*z, with * the meet and + the join
      (BR: mul and add), at the generators g of +: x*(y+g) = x*y + x*g for
      every x and y.  For fixed x let T be the set of z with
      x*(y+z) = x*y + x*z for all y.  Once + is associative (tested above,
      its failure reported otherwise), T is closed under +: for z, w in T,
          x*(y+(z+w)) = x*((y+z)+w) = x*(y+z) + x*w = (x*y + x*z) + x*w
                      = x*y + (x*z + x*w) = x*y + x*(z+w),
      the last step by w in T at y = z.  T holds the generators of +, so
      every element.

    Each message names one failing tuple of the law it tests; associativity
    and distributivity name their first failure at generators, one per
    law.
    """
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
        _check_semilattice(join, generators(a, "join"), out)
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
        join_gens = generators(a, "join")
        _check_lattice(meet, join, generators(a, "meet"), join_gens, out)
        _check_distributive(meet, join, join_gens, out)
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
        _check_commutative(add, out, "add")
        _check_commutative(mul, out, "mul")
        add_gens, mul_gens = generators(a, "add"), generators(a, "mul")
        _check_associative(add, add_gens, out, "add")
        _check_associative(mul, mul_gens, out, "mul")
        _check_distributive(mul, add, add_gens, out)
        if not out:
            # derived view: meet = x*y, join = x+y+xy must form a distributive
            # lattice with bottom `zero` (finite boolean rings seen as lattices)
            join = tuple(
                tuple(add[add[x][y]][mul[x][y]] for y in range(n)) for x in range(n)
            )
            join_gens = _op_generators(join)
            derived: list = []
            _check_lattice(mul, join, mul_gens, join_gens, derived)
            _check_distributive(mul, join, join_gens, derived)
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
        _check_commutative(add, out, "add")
        _check_associative(add, generators(a, "add"), out, "add")
        return out
    raise StructureError(f"unknown tag {tag}")


# ---------------------------------------------------------------------------
# morphisms


@dataclass(frozen=True)
class AlgMorphism:
    source: FinAlgebra
    target: FinAlgebra
    table: tuple

    def __call__(self, x: int) -> int:
        return self.table[x]


def make_morphism(source: FinAlgebra, target: FinAlgebra, table) -> AlgMorphism:
    table = tuple(table)
    if len(table) != source.size or any(not (0 <= v < target.size) for v in table):
        raise StructureError("morphism table has wrong shape")
    return AlgMorphism(source, target, table)


def identity_morphism(a: FinAlgebra) -> AlgMorphism:
    return AlgMorphism(a, a, tuple(range(a.size)))


def compose(g: AlgMorphism, f: AlgMorphism) -> AlgMorphism:
    """g after f."""
    if f.target != g.source:
        raise StructureError("morphisms not composable")
    return AlgMorphism(f.source, g.target, tuple(g.table[v] for v in f.table))


def check_morphism(f: AlgMorphism):
    """Return (ok, first counterexample message or None).

    Precondition: f.source and f.target satisfy the laws of their tag (as
    validate_algebra finds).  Under it the test below is exactly the test
    of every operation at every argument tuple and of monotonicity at every
    pair, at O(N |G|) cost rather than O(N^2):

    - Constants are tested once, unary operations at every element.
    - A binary operation, written xy, is tested at f(xg) = f(x)f(g) for
      every x and each g in G = generators(f.source, name).  For the set T
      of z with f(xz) = f(x)f(z) for all x, and z, w in T,
          f(x(zw)) = f((xz)w) = f(xz)f(w) = (f(x)f(z))f(w)
                   = f(x)(f(z)f(w)) = f(x)f(zw),
      by associativity in the source and in the target.  T is closed under
      the operation and holds G, which generates the source, so T holds
      every element.  Every binary operation of the supported signatures is
      commutative, so f(xg) is read off the row of g, and a failing pair
      is named with its smaller element first.
    - Monotonicity is tested on the covering relation of the source order
      (covers): in a finite poset x <= y is a chain of covers, each kept by
      f, and the target order is transitive.
    """
    a, b, t = f.source, f.target, f.table
    if a.tag != b.tag:
        return False, f"tag mismatch {a.tag} vs {b.tag}"
    if len(t) != a.size:
        return False, "table size mismatch"
    at_images = _gather(t)
    for (name, ta), (arity, _), (_, tb) in zip(a.ops, a.sig_ops, b.ops):
        if arity == 0:
            if t[ta] != tb:
                return False, f"{name} not preserved: f({ta})={t[ta]} != {tb}"
        elif arity == 1:
            if _gather(ta)(t) != at_images(tb):
                x = next(x for x in range(a.size) if t[ta[x]] != tb[t[x]])
                return False, f"{name} not preserved at {x}"
        else:
            for g, times_g in _generator_rows(a, name):
                row = tb[t[g]]
                if times_g(t) != at_images(row):
                    x = next(x for x in range(a.size) if t[ta[g][x]] != row[t[x]])
                    return False, f"{name} not preserved at ({min(x, g)},{max(x, g)})"
    if a.order is not None:
        for x, above in enumerate(covers(a)):
            for y in above:
                if not b.order[t[x]][t[y]]:
                    return False, f"not monotone at ({x},{y})"
    return True, None


# ---------------------------------------------------------------------------
# products, subalgebras, factorization


def product(a: FinAlgebra, b: FinAlgebra):
    """Componentwise product; returns (product, proj1, proj2)."""
    if a.tag != b.tag:
        raise StructureError("product requires equal tags")
    n, m = a.size, b.size
    size = n * m

    def enc(i, j):
        return i * m + j

    sig = signature(a.tag)
    ops = {}
    for name, arity in sig.items():
        ta, tb = a.op(name), b.op(name)
        if arity == 0:
            ops[name] = enc(ta, tb)
        elif arity == 1:
            ops[name] = tuple(enc(ta[x // m], tb[x % m]) for x in range(size))
        else:
            ops[name] = tuple(
                tuple(enc(ta[x // m][y // m], tb[x % m][y % m]) for y in range(size))
                for x in range(size)
            )
    order = None
    if a.order is not None:
        order = tuple(
            tuple(
                a.order[x // m][y // m] and b.order[x % m][y % m]
                for y in range(size)
            )
            for x in range(size)
        )
    prod = make_algebra(a.tag, size, ops, order)
    p1 = AlgMorphism(prod, a, tuple(x // m for x in range(size)))
    p2 = AlgMorphism(prod, b, tuple(x % m for x in range(size)))
    return prod, p1, p2


def pairing(f: AlgMorphism, g: AlgMorphism, prod: FinAlgebra) -> AlgMorphism:
    """<f,g> into the product of f.target and g.target."""
    if f.source != g.source:
        raise StructureError("pairing requires a common source")
    m = g.target.size
    return AlgMorphism(
        f.source, prod, tuple(f.table[x] * m + g.table[x] for x in range(f.source.size))
    )


def subalgebra_on(a: FinAlgebra, subset) -> tuple:
    """Algebra induced on an op-closed subset; returns (sub, inclusion).

    VECT carriers are re-encoded into the standard basis form (subspaces of a
    standard space are not index-aligned), so dualization stays valid.
    """
    elems = sorted(subset)
    index = {e: i for i, e in enumerate(elems)}
    sig = signature(a.tag)
    ops = {}
    for name, arity in sig.items():
        t = a.op(name)
        if arity == 0:
            ops[name] = index[t]
        elif arity == 1:
            ops[name] = tuple(index[t[e]] for e in elems)
        else:
            ops[name] = tuple(tuple(index[t[e][f]] for f in elems) for e in elems)
    order = None
    if a.order is not None:
        order = tuple(tuple(a.order[e][f] for f in elems) for e in elems)
    sub = make_algebra(a.tag, len(elems), ops, order)
    inclusion_table = list(elems)
    if vect_prime(a.tag) is not None:
        sub, perm = standardize_vect(sub)
        relocated = [None] * len(elems)
        for old, new in enumerate(perm):
            relocated[new] = inclusion_table[old]
        inclusion_table = relocated
    return sub, AlgMorphism(sub, a, tuple(inclusion_table))


def generated_subalgebra(a: FinAlgebra, seeds) -> AlgMorphism:
    """Inclusion of the smallest subalgebra containing seeds (and constants)."""
    elements, _, _ = closure(dict.fromkeys(seeds), closure_ops(a))
    _, inclusion = subalgebra_on(a, elements)
    return inclusion


# ---------------------------------------------------------------------------
# the closure kernel


def closure(seeds, ops, cap=None, on_new=None, stage="closure"):
    """Least superset of the seeds closed under ops, with every op's table.

    seeds maps each seed element to its witness; ops is a sequence of
    (arity, fn, commutative) with arity 0, 1 or 2 and fn acting on elements.
    Evaluation is semi-naive, by rounds: the first round applies every op to
    the seeds (constants included), each later round only to the argument
    tuples that hold an element found in the round before, and a commutative
    op only to pairs (x, y) with x found no later than y.  Within a round ops
    go in the given order and tuples in lexicographic order of discovery, so
    each element is first produced by the tuple that a naive loop over all
    tuples of every round meets first.

    on_new(x, k, ws), if given, is called when ops[k] first yields x, with ws
    the witnesses of the arguments, and returns the witness of x; to stop the
    closure it raises, and the exception propagates.  CapExceeded is raised
    once more than cap elements are known; its message names the stage.

    Returns (elements, witnesses, tables): elements in discovery order and
    tables[k] the table of ops[k] over element indices, an index for a
    constant, a list for a unary op and a list of rows for a binary one.
    """
    elements = list(seeds)
    witnesses = list(seeds.values())
    index = {x: i for i, x in enumerate(elements)}
    tables = [None if arity == 0 else [] for arity, _, _ in ops]

    def add(x, k, args):
        w = on_new(x, k, [witnesses[a] for a in args]) if on_new else None
        i = index[x] = len(elements)
        elements.append(x)
        witnesses.append(w)
        if cap is not None and i >= cap:
            raise CapExceeded(f"{stage} exceeded cap {cap}")
        return i

    old, first = 0, True
    while first or old < len(elements):
        n = len(elements)
        for k, (arity, fn, commutative) in enumerate(ops):
            table = tables[k]
            if arity == 0:
                if first:
                    x = fn()
                    tables[k] = index[x] if x in index else add(x, k, ())
            elif arity == 1:
                for i in range(old, n):
                    x = fn(elements[i])
                    r = index.get(x)
                    table.append(add(x, k, (i,)) if r is None else r)
            else:
                for row in table:
                    row.extend([None] * (n - old))
                table.extend([None] * n for _ in range(old, n))
                for i in range(n):
                    x, row = elements[i], table[i]
                    for j in range(old if i < old else i if commutative else 0, n):
                        y = fn(x, elements[j])
                        r = index.get(y)
                        row[j] = r = add(y, k, (i, j)) if r is None else r
                        if commutative:
                            table[j][i] = r
        old, first = n, False
    return elements, witnesses, tables


def explore(start, letters, step, cap=None, stage="explore"):
    """The states reachable from start under step, breadth-first.

    Each state is stepped by every letter, in the given order, before the
    next state is taken up, so states are numbered in discovery order and
    the first path found to each state is shortlex-least.  CapExceeded is
    raised once more than cap states are known; its message names the stage.

    Returns (states, delta) with delta[i][k] the index of
    step(states[i], letters[k]).
    """
    states = [start]
    index = {start: 0}
    delta = []
    for x in states:
        row = []
        for letter in letters:
            y = step(x, letter)
            j = index.get(y)
            if j is None:
                j = index[y] = len(states)
                states.append(y)
                if cap is not None and j >= cap:
                    raise CapExceeded(f"{stage} exceeded cap {cap}")
            row.append(j)
        delta.append(tuple(row))
    return states, delta


def shortlex_words(delta, letters) -> list:
    """The shortlex-least word reaching each state of an explore() result."""
    return along_shortlex_words(delta, letters, "", lambda word, letter: word + letter)


def along_shortlex_words(delta, letters, first, step) -> list:
    """A value for each state of an explore() result, built along its
    shortlex-least word: first for the start state, and the first (state i,
    letter) that reaches a new state gives it step(value of i, letter)."""
    values = [first] + [None] * (len(delta) - 1)
    for i, row in enumerate(delta):
        for letter, j in zip(letters, row):
            if values[j] is None:
                values[j] = step(values[i], letter)
    return values


def sort_closure(closed, key=None):
    """A closure() result with its elements sorted (by key, if given) and its
    tables over the sorted order."""
    elements, witnesses, tables = closed
    key = key or (lambda x: x)
    order = sorted(range(len(elements)), key=lambda i: key(elements[i]))
    pos = [0] * len(order)
    for new, old in enumerate(order):
        pos[old] = new

    def relabel(t):
        if isinstance(t, int):
            return pos[t]
        if isinstance(t[0], int):
            return tuple(pos[t[i]] for i in order)
        return tuple(tuple(pos[t[i][j]] for j in order) for i in order)

    return (
        [elements[i] for i in order],
        [witnesses[i] for i in order],
        [relabel(t) for t in tables],
    )


def table_fn(arity, table):
    """An operation table as a closure() op function on carrier elements."""
    if arity == 0:
        return lambda: table
    if arity == 1:
        return table.__getitem__
    return lambda x, y: table[x][y]


def componentwise_fn(arity, tables):
    """Operation tables as a closure() op function on tuples, tables[i]
    acting on entry i."""
    if arity == 0:
        constant = tuple(tables)
        return lambda: constant
    if arity == 1:
        return lambda x: tuple(map(getitem, tables, x))
    return lambda x, y: tuple(map(getitem, map(getitem, tables, x), y))


def closure_ops(algebras) -> list:
    """The operations of a signature, sorted by name, as closure() ops: on
    the elements of one algebra, or componentwise on tuples when algebras is
    a list of algebras of one tag (entry i in algebras[i]).  Every binary
    operation of the supported signatures is commutative."""
    if isinstance(algebras, FinAlgebra):
        return [(arity, table_fn(arity, table), True) for arity, table in algebras.sig_ops]
    return [
        (column[0][0], componentwise_fn(column[0][0], [t for _, t in column]), True)
        for column in zip(*(a.sig_ops for a in algebras))
    ]


@dataclass(frozen=True)
class FactorizationPair:
    epi: AlgMorphism
    mono: AlgMorphism


def factorize(f: AlgMorphism) -> FactorizationPair:
    """Surjection-onto-image followed by an (order-embedding) inclusion.

    The image carries the order induced from the target, which realizes the
    (epi, strong mono) factorization system for ordered tags.
    """
    image = sorted(set(f.table))
    img_alg, mono = subalgebra_on(f.target, image)
    index = {e: i for i, e in enumerate(image)}
    epi = AlgMorphism(f.source, img_alg, tuple(index[v] for v in f.table))
    return FactorizationPair(epi, mono)


# ---------------------------------------------------------------------------
# free algebras on the D side


def free_algebra(tag: str, names) -> tuple:
    """Free D-side algebra on a finite set; returns (algebra, injection table).

    injection[i] is the carrier index of the i-th generator.
    """
    names = list(names)
    k = len(names)
    p = vect_prime(tag)
    if tag == "SET":
        return make_algebra("SET", k, {}), tuple(range(k))
    if tag == "POS":
        order = tuple(tuple(i == j for j in range(k)) for i in range(k))
        return make_algebra("POS", k, {}, order), tuple(range(k))
    if tag == "SET_STAR":
        return make_algebra("SET_STAR", k + 1, {"point": 0}), tuple(range(1, k + 1))
    if tag == "JSL0":
        size = 1 << k
        join = tuple(tuple(x | y for y in range(size)) for x in range(size))
        alg = make_algebra("JSL0", size, {"join": join, "zero": 0})
        return alg, tuple(1 << i for i in range(k))
    if p is not None:
        size = p**k

        def digits(x):
            return [(x // p**i) % p for i in range(k)]

        def enc(ds):
            return sum(d * p**i for i, d in enumerate(ds))

        add = tuple(
            tuple(enc([(u + v) % p for u, v in zip(digits(x), digits(y))]) for y in range(size))
            for x in range(size)
        )
        ops = {"add": add, "zero": 0}
        for c in range(p):
            ops[f"smul{c}"] = tuple(enc([(c * d) % p for d in digits(x)]) for x in range(size))
        alg = make_algebra(tag, size, ops)
        return alg, tuple(p**i for i in range(k))
    raise StructureError(f"free algebras are not provided for tag {tag}")


def relabel_algebra(a: FinAlgebra, perm) -> FinAlgebra:
    """Apply a carrier permutation (old index -> new index) to all structure."""
    inv = [0] * a.size
    for old, new in enumerate(perm):
        inv[new] = old
    ops = {}
    for name, arity in signature(a.tag).items():
        t = a.op(name)
        if arity == 0:
            ops[name] = perm[t]
        elif arity == 1:
            ops[name] = tuple(perm[t[inv[x]]] for x in range(a.size))
        else:
            ops[name] = tuple(
                tuple(perm[t[inv[x]][inv[y]]] for y in range(a.size))
                for x in range(a.size)
            )
    order = None
    if a.order is not None:
        order = tuple(
            tuple(a.order[inv[x]][inv[y]] for y in range(a.size))
            for x in range(a.size)
        )
    return make_algebra(a.tag, a.size, ops, order)


def standardize_vect(a: FinAlgebra):
    """Relabel a VECT(p) algebra into the standard base-p coordinate encoding.

    Dual maps are transposed matrices w.r.t. the standard basis, so every
    VECT carrier that will be dualized must use index = sum(c_i * p^i) over a
    fixed basis.  Returns (standardized algebra, permutation old -> new).
    """
    perm = standard_basis_perm(a)
    return relabel_algebra(a, perm), perm


def standard_basis_perm(a: FinAlgebra, scan=None) -> tuple:
    """standardize_vect's permutation old -> new.  The basis is taken
    greedily along scan (default: the carrier in index order), each element
    that the ones taken before do not span."""
    p = vect_prime(a.tag)
    if p is None:
        raise StructureError("standardize_vect expects a VECT tag")
    zero = a.op("zero")
    add = a.op("add")
    smul = [a.op(f"smul{k}") for k in range(p)]
    basis = []
    span = {zero}
    for x in a.carrier() if scan is None else scan:
        if x not in span:
            basis.append(x)
            span = {zero}
            for elem in _span_elements(add, smul, basis, zero, p):
                span.add(elem)
    perm = [None] * a.size
    dim = len(basis)
    for code in range(p**dim):
        acc = zero
        for i in range(dim):
            c = (code // p**i) % p
            acc = add[acc][smul[c][basis[i]]]
        if perm[acc] is not None:
            raise StructureError("VECT carrier is not a free GF(p) module")
        perm[acc] = code
    if any(v is None for v in perm):
        raise StructureError("VECT basis does not span the carrier")
    return tuple(perm)


def _span_elements(add, smul, basis, zero, p):
    elems = [zero]
    for b in basis:
        elems = [add[e][smul[k][b]] for e in elems for k in range(p)]
    return elems


# ---------------------------------------------------------------------------
# element combination: evaluating a formal D-combination in a carrier


def combine_elements(a: FinAlgebra, weighted) -> int:
    """Evaluate a formal combination [(element, coeff), ...] in the algebra:
    combine_columns on one-entry columns."""
    return combine_columns(a, [((x,), c) for x, c in weighted], 1)[0]


def combine_columns(a: FinAlgebra, weighted, n: int) -> tuple:
    """Evaluate a formal combination [(column, coeff), ...] of n-entry
    columns of elements entry by entry: entry i of the result combines the
    entries i of the columns.

    SET/POS expect exactly one pair; JSL0/JSL fold joins; VECT(p) folds
    weighted sums; SET_STAR treats the empty combination as the basepoint.
    """
    tag = a.tag
    p = vect_prime(tag)
    items = list(weighted)
    if tag in ("SET", "POS"):
        if len(items) != 1 or items[0][1] != 1:
            raise StructureError(f"{tag} elements are single points")
        return tuple(items[0][0])
    if tag == "SET_STAR":
        if not items:
            return (a.op("point"),) * n
        if len(items) != 1 or items[0][1] != 1:
            raise StructureError("SET_STAR combinations have at most one point")
        return tuple(items[0][0])
    if tag in ("JSL0", "JSL01"):
        join = a.op("join")
        acc = (a.op("zero"),) * n
        for column, c in items:
            if c != 1:
                raise StructureError("semilattice coefficients must be 1")
            acc = tuple([join[u][v] for u, v in zip(acc, column)])
        return acc
    if tag == "JSL":
        if not items:
            raise StructureError("JSL has no empty joins")
        join = a.op("join")
        acc = tuple(items[0][0])
        for column, _ in items[1:]:
            acc = tuple([join[u][v] for u, v in zip(acc, column)])
        return acc
    if p is not None:
        add = a.op("add")
        acc = (a.op("zero"),) * n
        for column, c in items:
            smul = a.op(f"smul{c % p}")
            acc = tuple([add[u][smul[v]] for u, v in zip(acc, column)])
        return acc
    raise StructureError(f"tag {tag} has no combination structure")


# ---------------------------------------------------------------------------
# morphism enumeration / isomorphism search


def _search_maps(
    src_ops, dst_ops, n, m, src_order, dst_order, bijective, fixed=None, allowed=None
):
    """Backtracking enumeration of structure-preserving tables with forcing.

    src_ops/dst_ops: lists of (arity, table) pairs, matched positionally.
    Yields tuples of length n with values < m.  Forced values are propagated
    eagerly (all op applications with fully assigned arguments pin results).
    allowed(x, v) may veto individual assignments.
    """
    table = [None] * n
    used = [False] * m

    def assign(x, v, trail):
        if table[x] is not None:
            return table[x] == v
        if bijective and used[v]:
            return False
        if allowed is not None and not allowed(x, v):
            return False
        table[x] = v
        if bijective:
            used[v] = True
        trail.append(x)
        return True

    def undo(trail):
        for x in reversed(trail):
            if bijective:
                used[table[x]] = False
            table[x] = None
        trail.clear()

    def propagate(trail):
        changed = True
        while changed:
            changed = False
            for (ar, ts), (_, td) in zip(src_ops, dst_ops):
                if ar == 0:
                    before = table[ts]
                    if not assign(ts, td, trail):
                        return False
                    changed = changed or before is None
                elif ar == 1:
                    for x in range(n):
                        if table[x] is None:
                            continue
                        r, img = ts[x], td[table[x]]
                        if table[r] is None:
                            if not assign(r, img, trail):
                                return False
                            changed = True
                        elif table[r] != img:
                            return False
                else:
                    for x in range(n):
                        if table[x] is None:
                            continue
                        row = ts[x]
                        drow = td[table[x]]
                        for y in range(n):
                            if table[y] is None:
                                continue
                            r, img = row[y], drow[table[y]]
                            if table[r] is None:
                                if not assign(r, img, trail):
                                    return False
                                changed = True
                            elif table[r] != img:
                                return False
        if src_order is not None:
            for x in range(n):
                if table[x] is None:
                    continue
                for y in range(n):
                    if table[y] is None:
                        continue
                    if src_order[x][y] and not dst_order[table[x]][table[y]]:
                        return False
        return True

    def rec():
        try:
            x = table.index(None)
        except ValueError:
            yield tuple(table)
            return
        for v in range(m):
            if bijective and used[v]:
                continue
            trail = []
            if assign(x, v, trail) and propagate(trail):
                yield from rec()
            undo(trail)

    root = []
    ok = True
    if fixed:
        for k, v in fixed.items():
            if not assign(k, v, root):
                ok = False
                break
    if ok and propagate(root):
        yield from rec()
    undo(root)


def all_morphisms(a: FinAlgebra, b: FinAlgebra, fixed=None) -> list:
    """All homomorphisms a -> b (monotone for ordered tags), in ascending
    (lexicographic) order of their tables.

    _search_maps yields exactly these tables, so none is checked again.  It
    yields a table once it is full, after the propagate that followed the
    last assignment returned True.  That propagate repeats its sweep until
    one sweep assigns nothing, so its last sweep ran on the full table: it
    compared the image of every constant, of every unary operation at every
    element and of every binary operation at every pair with the table's
    value there, and then tested monotonicity at every pair.
    """
    if a.tag != b.tag:
        return []
    return [
        AlgMorphism(a, b, table)
        for table in _search_maps(
            a.sig_ops, b.sig_ops, a.size, b.size, a.order, b.order, False, fixed
        )
    ]


def table_isomorphism(n, ops_a, ops_b, order_a=None, order_b=None):
    """Bijection {0..n-1} -> {0..n-1} preserving matched op tables and order.

    ops_a/ops_b: lists of (arity, table), matched positionally.
    Returns a table or None.  The search has compared every operation at
    every argument of each table it yields (as all_morphisms proves), so
    only the order is checked here: the search tests that the table is
    monotone, and an isomorphism must reflect the order too.
    """
    for table in _search_maps(ops_a, ops_b, n, n, order_a, order_b, True):
        if order_a is None or all(
            order_a[x][y] == order_b[table[x]][table[y]]
            for x in range(n)
            for y in range(n)
        ):
            return table
    return None


def are_isomorphic(a: FinAlgebra, b: FinAlgebra, max_size: int = 12):
    """Witness isomorphism between finite algebras, or None (brute force)."""
    if a.tag != b.tag or a.size != b.size:
        return None
    if a.size > max_size:
        raise BoundExceeded(f"isomorphism search bounded at {max_size} elements")
    table = table_isomorphism(a.size, a.sig_ops, b.sig_ops, a.order, b.order)
    if table is None:
        return None
    return AlgMorphism(a, b, table)


# ---------------------------------------------------------------------------
# bounded enumeration up to isomorphism


@lru_cache(maxsize=None)
def _posets_upto(n: int):
    """All posets on {0..n-1} whose order refines the index order, up to iso.

    Every finite poset has a linear extension, so these representatives are
    exhaustive up to isomorphism.  A candidate is tested for isomorphism only
    against the posets found with the same sorted (down-set size, up-set
    size) pairs of its elements, an isomorphism invariant.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    found = []
    by_invariant = {}
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
        invariant = tuple(sorted((sum(row[x] for row in rel), sum(rel[x])) for x in range(n)))
        same = by_invariant.setdefault(invariant, [])
        if not any(
            table_isomorphism(n, [], [], matrix, other) is not None for other in same
        ):
            same.append(matrix)
            found.append(matrix)
    return tuple(found)


def _poset_joins(order, n):
    """Binary join table from an order matrix, or None if some join is missing."""
    join = [[None] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            ubs = [z for z in range(n) if order[x][z] and order[y][z]]
            least = [z for z in ubs if all(order[z][w] for w in ubs)]
            if len(least) != 1:
                return None
            join[x][y] = least[0]
    return tuple(tuple(row) for row in join)


def _poset_meets(order, n):
    rev = tuple(tuple(order[j][i] for j in range(n)) for i in range(n))
    return _poset_joins(rev, n)


def _powerset_ba(k: int) -> FinAlgebra:
    size = 1 << k
    full = size - 1
    return make_algebra(
        "BA",
        size,
        {
            "meet": tuple(tuple(x & y for y in range(size)) for x in range(size)),
            "join": tuple(tuple(x | y for y in range(size)) for x in range(size)),
            "not": tuple(full ^ x for x in range(size)),
            "zero": 0,
            "one": full,
        },
    )


def _powerset_br(k: int) -> FinAlgebra:
    size = 1 << k
    return make_algebra(
        "BR",
        size,
        {
            "add": tuple(tuple(x ^ y for y in range(size)) for x in range(size)),
            "mul": tuple(tuple(x & y for y in range(size)) for x in range(size)),
            "zero": 0,
        },
    )


def enumerate_algebras(tag: str, n: int) -> list:
    """All algebras of the tag with exactly n elements, up to isomorphism."""
    p = vect_prime(tag)
    if n < 0:
        raise StructureError(f"no {tag} algebra has negative size {n}")
    if tag in ("JSL0", "DL01", "POS", "JSL", "JSL01"):
        if n > 6:
            raise BoundExceeded(f"{tag} enumeration bounded at size 6")
    if tag == "SET":
        return [make_algebra("SET", n, {})]
    if tag == "SET_STAR":
        return [make_algebra("SET_STAR", n, {"point": 0})] if n else []
    if tag == "POS":
        return [make_algebra("POS", n, {}, order) for order in _posets_upto(n)]
    if tag == "JSL":
        if n == 0:
            return [make_algebra("JSL", 0, {"join": ()})]
        out = []
        for order in _posets_upto(n):
            join = _poset_joins(order, n)
            if join is not None:
                out.append(make_algebra("JSL", n, {"join": join}))
        return out
    if tag in ("JSL0", "JSL01"):
        out = []
        for order in _posets_upto(n):
            join = _poset_joins(order, n)
            if join is None:
                continue
            bottoms = [z for z in range(n) if all(order[z][w] for w in range(n))]
            if not bottoms:
                continue
            ops = {"join": join, "zero": bottoms[0]}
            if tag == "JSL01":
                tops = [z for z in range(n) if all(order[w][z] for w in range(n))]
                if not tops:
                    continue
                ops["one"] = tops[0]
            out.append(make_algebra(tag, n, ops))
        return out
    if tag == "DL01":
        out = []
        for order in _posets_upto(n):
            join = _poset_joins(order, n)
            meet = _poset_meets(order, n)
            if join is None or meet is None:
                continue
            bottoms = [z for z in range(n) if all(order[z][w] for w in range(n))]
            tops = [z for z in range(n) if all(order[w][z] for w in range(n))]
            if not bottoms or not tops:
                continue
            alg = make_algebra(
                "DL01", n,
                {"meet": meet, "join": join, "zero": bottoms[0], "one": tops[0]},
            )
            if not validate_algebra(alg):
                out.append(alg)
        return out
    if tag in ("BA", "BR"):
        if n not in (1, 2, 4, 8, 16):
            raise BoundExceeded("BA/BR sizes restricted to powers of two up to 16")
        k = n.bit_length() - 1
        return [_powerset_ba(k) if tag == "BA" else _powerset_br(k)]
    if p is not None:
        dim = 0
        size = 1
        while size < n:
            size *= p
            dim += 1
        if size != n or dim > 3:
            raise BoundExceeded(f"VECT{p} sizes are p^dim with dim <= 3")
        alg, _ = free_algebra(tag, [f"e{i}" for i in range(dim)])
        return [alg]
    raise StructureError(f"unknown tag {tag}")
