import itertools
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from predual import algebra
from predual.algebra import (
    ALL_TAGS,
    AlgMorphism,
    BoundExceeded,
    FinAlgebra,
    InternalInvariantError,
    StructureError,
    _posets_upto,
    all_morphisms,
    bound_table,
    are_isomorphic,
    check_morphism,
    combine_elements,
    compose,
    enumerate_algebras,
    factorize,
    free_algebra,
    generated_subalgebra,
    generators,
    identity_morphism,
    make_algebra,
    make_morphism,
    mask_preimage,
    order_matrix_violations,
    pairing,
    product,
    relabel_algebra,
    set_algebra,
    signature,
    table_isomorphism,
    validate_algebra,
)
from predual.duality import _objects_for, dual_morphism, dual_object, eta
from predual.serialize import dumps


def two_chain_jsl0():
    return make_algebra("JSL0", 2, {"join": ((0, 1), (1, 1)), "zero": 0})


def two_element_ba():
    return make_algebra(
        "BA",
        2,
        {
            "meet": ((0, 0), (0, 1)),
            "join": ((0, 1), (1, 1)),
            "not": (1, 0),
            "zero": 0,
            "one": 1,
        },
    )


def chain_jsl0(n):
    join = tuple(tuple(max(x, y) for y in range(n)) for x in range(n))
    return make_algebra("JSL0", n, {"join": join, "zero": 0})


def test_two_element_ba_is_valid():
    assert validate_algebra(two_element_ba()) == []


def test_br_idempotence_violation_is_reported():
    add = ((0, 1), (1, 0))
    mul = ((0, 0), (0, 0))  # 1*1 = 0 breaks x*x = x
    alg = make_algebra("BR", 2, {"add": add, "mul": mul, "zero": 0})
    assert any("idempotence" in msg for msg in validate_algebra(alg))


def test_jsl0_associativity_violation_carries_witness():
    # perturb one entry of the valid 3-chain join table
    join = [[max(x, y) for y in range(3)] for x in range(3)]
    join[1][2] = 1
    alg = make_algebra("JSL0", 3, {"join": join, "zero": 0})
    msgs = validate_algebra(alg)
    assert any("associativity violation at (" in m or "commutative" in m for m in msgs)


def test_malformed_tables_raise_structural_error():
    with pytest.raises(StructureError):
        make_algebra("JSL0", 3, {"join": ((0, 1), (1, 1)), "zero": 0})
    with pytest.raises(StructureError):
        make_algebra("JSL0", 2, {"join": ((0, 1), (1, 1))})
    with pytest.raises(StructureError):
        make_algebra("SET", 2, {}, order=((1, 0), (0, 1)))


def test_check_morphism_identity_and_violations():
    ba = two_element_ba()
    ok, _ = check_morphism(identity_morphism(ba))
    assert ok
    const_top = make_morphism(ba, ba, (1, 1))
    ok, reason = check_morphism(const_top)
    assert not ok and reason is not None
    swap = make_morphism(two_chain_jsl0(), two_chain_jsl0(), (1, 0))
    ok, reason = check_morphism(swap)
    assert not ok and reason is not None


def test_product_of_two_element_bas_is_free_ba_on_one_generator():
    ba = two_element_ba()
    prod, p1, p2 = product(ba, ba)
    assert prod.size == 4
    assert validate_algebra(prod) == []
    assert check_morphism(p1)[0] and check_morphism(p2)[0]
    free = enumerate_algebras("BA", 4)[0]
    assert are_isomorphic(prod, free) is not None


def test_product_with_terminal_is_isomorphic():
    a = chain_jsl0(3)
    one = make_algebra("JSL0", 1, {"join": ((0,),), "zero": 0})
    prod, _, _ = product(a, one)
    assert are_isomorphic(prod, a) is not None


def test_product_of_chains_in_pos_is_grid():
    chain = make_algebra("POS", 2, {}, ((1, 1), (0, 1)))
    grid, _, _ = product(chain, chain)
    # 2x2 grid: bottom, two incomparable middles, top
    incomparable = sum(
        1
        for x in range(4)
        for y in range(4)
        if x != y and not grid.order[x][y] and not grid.order[y][x]
    )
    assert incomparable == 2


def test_generated_subalgebra_full_seed_is_identity():
    a = chain_jsl0(3)
    inc = generated_subalgebra(a, range(3))
    assert inc.table == (0, 1, 2)


def test_generated_subalgebra_ba_atom():
    ba = enumerate_algebras("BA", 4)[0]  # powerset on 2 atoms
    inc = generated_subalgebra(ba, {1})  # one atom
    # atom, complement, bottom, top
    assert inc.source.size == 4


def test_generated_subalgebra_vect2_span():
    v2, basis = free_algebra("VECT2", ["x", "y"])
    inc = generated_subalgebra(v2, {basis[0]})
    assert inc.source.size == 2
    assert set(inc.table) == {0, basis[0]}


def test_factorize_injective_and_surjective_edges():
    a = chain_jsl0(3)
    f = identity_morphism(a)
    pair = factorize(f)
    assert pair.epi.table == (0, 1, 2) and pair.mono.table == (0, 1, 2)
    assert compose(pair.mono, pair.epi).table == f.table


def test_factorize_three_chain_collapse():
    three = chain_jsl0(3)
    two = chain_jsl0(2)
    f = make_morphism(three, two, (0, 1, 1))
    assert check_morphism(f)[0]
    pair = factorize(f)
    assert pair.epi.target.size == 2
    assert pair.mono.table == (0, 1)
    assert compose(pair.mono, pair.epi).table == f.table


def test_free_jsl0_on_one_generator_is_two_chain():
    alg, inj = free_algebra("JSL0", ["a"])
    assert alg.size == 2 and inj == (1,)
    assert are_isomorphic(alg, chain_jsl0(2)) is not None


def test_free_vect2_on_two_generators():
    alg, inj = free_algebra("VECT2", ["a", "b"])
    assert alg.size == 4
    assert alg.op("add")[inj[0]][inj[1]] == 3


def test_free_set_star_adds_basepoint():
    alg, inj = free_algebra("SET_STAR", ["a"])
    assert alg.size == 2
    assert alg.op("point") == 0 and inj == (1,)


def test_enumerate_ba_4_is_unique():
    assert len(enumerate_algebras("BA", 4)) == 1


def test_enumerate_jsl0_3_is_the_chain():
    # oracle: brute force over all idempotent commutative associative tables
    # with identity 0 on {0,1,2} yields exactly one class, the 3-chain
    # (any join making two elements "comparable to a top" is a relabeled chain)
    algs = enumerate_algebras("JSL0", 3)
    assert len(algs) == 1
    assert are_isomorphic(algs[0], chain_jsl0(3)) is not None


def test_enumerate_set_2_unique():
    assert len(enumerate_algebras("SET", 2)) == 1


def test_enumerate_bounds():
    with pytest.raises(BoundExceeded):
        enumerate_algebras("JSL0", 7)
    with pytest.raises(BoundExceeded):
        enumerate_algebras("BA", 6)


# the powerset tables of each set algebra over {0..k-1}, written out as
# bitwise operations on the subsets 0..2^k-1 with top the full set
POWERSET_OPS = {
    "BA": lambda top, r: {
        "meet": tuple(tuple(x & y for y in r) for x in r),
        "join": tuple(tuple(x | y for y in r) for x in r),
        "not": tuple(top ^ x for x in r), "zero": 0, "one": top,
    },
    "BR": lambda top, r: {
        "add": tuple(tuple(x ^ y for y in r) for x in r),
        "mul": tuple(tuple(x & y for y in r) for x in r), "zero": 0,
    },
    "JSL0": lambda top, r: {"join": tuple(tuple(x | y for y in r) for x in r), "zero": 0},
}


@pytest.mark.parametrize("tag", sorted(POWERSET_OPS))
def test_set_algebra_gives_the_bitwise_powerset_tables(tag):
    for k in range(5):
        n = 1 << k
        expected = make_algebra(tag, n, POWERSET_OPS[tag](n - 1, range(n)))
        assert set_algebra(tag, range(n), n - 1) == expected
        if tag == "JSL0":
            assert free_algebra("JSL0", [f"x{i}" for i in range(k)])[0] == expected
        else:
            assert enumerate_algebras(tag, n) == [expected]


def test_set_algebra_numbers_the_closed_masks_in_the_given_order(monkeypatch):
    # the tables are read off the masks, with no closure: masks that are
    # not closed, or not distinct, are a fault of the caller
    monkeypatch.setattr(algebra, "closure", lambda *args, **kw: pytest.fail("closure called"))
    elements = [1, 2, 3, 0]
    join = tuple(tuple(elements.index(x | y) for y in elements) for x in elements)
    assert set_algebra("JSL0", elements, 3) == make_algebra("JSL0", 4, {"join": join, "zero": 3})
    for masks in ([1, 2], [1, 2, 3], [0, 0]):
        with pytest.raises(InternalInvariantError, match="not the elements of a JSL0 set algebra"):
            set_algebra("JSL0", masks, 3)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 70).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.integers(0, n - 1), max_size=80),
    st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=8),
)))
def test_mask_preimage_equals_the_scan_of_every_target_bit(case):
    # sparse and dense masks: the preimage of the complement is the
    # complement of the preimage
    n, table, masks = case
    top = (1 << n) - 1
    preimage, scan = mask_preimage(table, n), oracle.mask_preimage_by_scan(table, n)
    for mask in masks + [0, top] + [top ^ mask for mask in masks]:
        assert preimage(mask) == scan(mask)


def test_bound_table_is_the_brute_force_lub_and_glb_on_every_poset():
    def bounds(leq, x, y, n):  # least upper bound in leq, or None
        upper = [z for z in range(n) if leq[x][z] and leq[y][z]]
        least = [z for z in upper if all(leq[z][w] for w in upper)]
        return least[0] if least else None

    missing = 0
    for n in range(7):
        for order in _posets_upto(n):
            above = tuple(zip(*order))  # the transpose: greatest lower bounds
            for leq, table in ((order, bound_table(order)), (above, bound_table(zip(*order)))):
                expected = tuple(tuple(bounds(leq, x, y, n) for y in range(n)) for x in range(n))
                assert table == expected, order
                missing += sum(row.count(None) for row in expected)
    assert missing > 0


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_relabel_algebra_by_a_permutation_and_back_is_the_identity(tag):
    moved = 0
    for a in _algebras_up_to(tag, 8 if tag in ("BA", "BR", "VECT2") else 5):
        n = a.size
        perm = tuple((3 * x + 1) % n for x in range(n)) if n % 3 else tuple(range(n))[::-1]
        inverse = tuple(perm.index(x) for x in range(n))
        b = relabel_algebra(a, perm)
        assert oracle.check_morphism(AlgMorphism(a, b, perm))[0]
        if a.order is not None:
            pairs = itertools.product(range(n), repeat=2)
            assert all(a.order[x][y] == b.order[perm[x]][perm[y]] for x, y in pairs)
        assert relabel_algebra(b, inverse) == a
        moved += b != a
    assert moved > 0 or tag == "SET"


def test_are_isomorphic_examples():
    a = chain_jsl0(3)
    assert are_isomorphic(a, a).table == (0, 1, 2)
    # two presentations of the 4-element BA with atoms swapped
    ba = enumerate_algebras("BA", 4)[0]
    perm = (0, 2, 1, 3)
    ops = {}
    for name, arity in (("meet", 2), ("join", 2)):
        t = ba.op(name)
        ops[name] = tuple(
            tuple(perm[t[perm.index(x)][perm.index(y)]] for y in range(4))
            for x in range(4)
        )
    ops["not"] = tuple(perm[ba.op("not")[perm.index(x)]] for x in range(4))
    ops["zero"] = perm[ba.op("zero")]
    ops["one"] = perm[ba.op("one")]
    relabeled = make_algebra("BA", 4, ops)
    assert are_isomorphic(ba, relabeled) is not None
    # chain vs non-chain semilattice: distinct comparability graphs
    chain4 = chain_jsl0(4)
    diamond = next(
        x for x in enumerate_algebras("JSL0", 4) if are_isomorphic(x, chain4) is None
    )
    assert are_isomorphic(chain4, diamond) is None


def test_all_morphisms_matches_direct_count_for_sets():
    s2 = make_algebra("SET", 2, {})
    s3 = make_algebra("SET", 3, {})
    assert len(all_morphisms(s2, s3)) == 9


def _algebras_up_to(tag, most):
    """The tag's enumerated algebras of at most `most` elements, by size."""
    out = []
    for n in range(most + 1):
        try:
            out += enumerate_algebras(tag, n)
        except BoundExceeded:  # BA, BR and VECTp sizes are powers
            pass
    return out


# targets have at most 8 elements, fewer for the tags enumerated from
# posets, so that the test takes about 1 s: with their targets of 5 and 6
# elements (5 to 318 algebras of each size, 6^4 maps into one from a
# 4-element source) a tag took 0.3-6 s
_MOST_TARGET_ELEMENTS = {"POS": 4, "JSL": 4, "DL01": 5, "JSL0": 5, "JSL01": 5}


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_all_morphisms_is_every_map_that_keeps_the_laws(tag):
    for a in _algebras_up_to(tag, 4):
        for b in _algebras_up_to(tag, _MOST_TARGET_ELEMENTS.get(tag, 8)):
            expected = [
                t
                for t in itertools.product(range(b.size), repeat=a.size)
                if oracle.check_morphism(AlgMorphism(a, b, t))[0]
            ]
            assert [h.table for h in all_morphisms(a, b)] == expected


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_table_isomorphism_is_the_first_bijection_that_keeps_the_laws_and_the_order(tag):
    # the search's tables are not checked again, so its result must be the
    # first permutation the N^2 reference accepts that also reflects the order
    found = 0
    for a in _algebras_up_to(tag, 4):
        n = a.size
        flipped = relabel_algebra(a, tuple(reversed(range(n))))
        for b in [x for x in _algebras_up_to(tag, 4) if x.size == n] + [flipped]:
            expected = next(
                (
                    t
                    for t in itertools.permutations(range(n))
                    if oracle.check_morphism(AlgMorphism(a, b, t))[0]
                    and (a.order is None or all(
                        a.order[x][y] == b.order[t[x]][t[y]] for x in range(n) for y in range(n)
                    ))
                ),
                None,
            )
            assert table_isomorphism(n, a.sig_ops, b.sig_ops, a.order, b.order) == expected
            found += expected is not None
    assert found > 0


# criterion 1's bounds, and VECT3 at 9 elements
_DUALITY_LAW_BOUNDS = {"BA": 8, "BR": 8, "JSL0": 5, "JSL01": 5, "DL01": 5, "VECT2": 8, "VECT3": 9}


@pytest.mark.parametrize("pair", sorted(_DUALITY_LAW_BOUNDS))
def test_all_morphisms_gives_the_sweep_search_tables_on_the_duality_objects(pair):
    # the same tables in the same order as the search that sweeps every
    # operation to a fixpoint after each assignment, for every ordered pair
    # of objects on each side; the D side stops where verify_preduality
    # stops it, at the largest dual of a C-side object (SET has 8^8 maps
    # from its 8-element object to itself)
    most = _DUALITY_LAW_BOUNDS[pair]
    c_objs = _objects_for(pair, "C", most)
    d_most = min(most, max(dual_object(pair, q).size for q in c_objs))
    for objs in (c_objs, _objects_for(pair, "D", d_most)):
        for a, b in itertools.product(objs, repeat=2):
            expected = list(oracle.search_maps_by_sweeps(
                a.sig_ops, b.sig_ops, a.size, b.size, a.order, b.order, False
            ))
            assert [h.table for h in all_morphisms(a, b)] == expected


def test_combine_elements():
    v2, basis = free_algebra("VECT2", ["a", "b"])
    assert combine_elements(v2, [(basis[0], 1), (basis[1], 1)]) == 3
    assert combine_elements(v2, []) == 0
    j = chain_jsl0(3)
    assert combine_elements(j, [(1, 1), (2, 1)]) == 2
    assert combine_elements(j, []) == 0
    star, inj = free_algebra("SET_STAR", ["a"])
    assert combine_elements(star, []) == 0
    assert combine_elements(star, [(inj[0], 1)]) == inj[0]


# -- bounded structural invariants --------------------------------------------


def _small_d_algebras():
    for tag, n_max in (("JSL0", 4), ("SET", 3), ("POS", 3)):
        for n in range(1, n_max + 1):
            yield from enumerate_algebras(tag, n)


def test_factorize_recomposes_for_enumerated_morphisms():
    algs = [a for a in _small_d_algebras() if a.size <= 4]
    for a in algs:
        for b in algs:
            if a.tag != b.tag:
                continue
            for f in all_morphisms(a, b):
                pair = factorize(f)
                assert compose(pair.mono, pair.epi).table == f.table
                assert len(set(pair.epi.table)) == pair.epi.target.size
                assert len(set(pair.mono.table)) == pair.mono.source.size


def test_pairing_commutes_with_projections():
    a = chain_jsl0(2)
    b = chain_jsl0(3)
    prod, p1, p2 = product(a, b)
    x = chain_jsl0(2)
    for f in all_morphisms(x, a):
        for g in all_morphisms(x, b):
            h = pairing(f, g, prod)
            assert check_morphism(h)[0]
            assert compose(p1, h).table == f.table
            assert compose(p2, h).table == g.table


def test_free_algebra_universal_property_bounded():
    # for every enumerated D-algebra of size <= 4 and map from X (|X| <= 2),
    # exactly one morphism from the free algebra extends it
    for tag in ("JSL0", "SET"):
        targets = [x for n in range(1, 5) for x in enumerate_algebras(tag, n)]
        for k in (1, 2):
            free, inj = free_algebra(tag, [f"x{i}" for i in range(k)])
            for target in targets:
                for images in itertools.product(range(target.size), repeat=k):
                    extensions = [
                        f
                        for f in all_morphisms(free, target)
                        if all(f.table[inj[i]] == images[i] for i in range(k))
                    ]
                    assert len(extensions) == 1


def test_enumerated_algebras_validate_and_are_pairwise_noniso():
    for tag, n in (("JSL0", 4), ("POS", 4), ("DL01", 5), ("BA", 8), ("BR", 4)):
        algs = enumerate_algebras(tag, n)
        assert algs == enumerate_algebras(tag, n)  # stable across runs
        for a in algs:
            assert validate_algebra(a) == []
        for i, a in enumerate(algs):
            for b in algs[i + 1 :]:
                assert are_isomorphic(a, b) is None


def _fresh_copy(a):
    return make_algebra(a.tag, a.size, a.op_dict(), a.order)


@pytest.mark.parametrize(
    "pair,a",
    [
        ("BA", enumerate_algebras("BA", 8)[0]),
        ("DL01", enumerate_algebras("DL01", 5)[-1]),
        ("JSL01", enumerate_algebras("JSL01", 5)[-1]),
        ("BR", enumerate_algebras("BR", 4)[0]),
        ("DL01", enumerate_algebras("POS", 4)[-1]),
    ],
)
def test_cached_structure_stays_out_of_equality_hash_and_documents(pair, a):
    fresh = _fresh_copy(a)
    doc, text = dumps(a), repr(a)
    a.leq
    sig = signature(a.tag)
    assert a.sig_ops == tuple((sig[name], a.op(name)) for name in sorted(sig))
    if a.tag == "POS":
        a.downsets
    elif pair in ("BA", "BR"):
        a.atoms
    if pair != "BR" and a.tag != "POS":
        a.meets, a.join_irreducibles
    dual_object(pair, a)
    assert eta(pair, a) is eta(pair, a)
    identity = identity_morphism(a)
    assert dual_morphism(pair, identity) is dual_morphism(pair, identity_morphism(a))
    assert validate_algebra(a) == [] and check_morphism(identity) == (True, None)
    kept = {"_covers"} if a.tag == "POS" else {"_generators", "_generator_rows"}
    assert {"_dual", "_eta", "_dual_morphisms"} | kept <= set(vars(a))
    assert a == fresh and fresh == a
    assert hash(a) == hash(fresh)
    assert dumps(a) == doc == dumps(fresh)
    assert repr(a) == text == repr(fresh)
    restored = pickle.loads(pickle.dumps(a))
    assert set(vars(restored)) == {"tag", "size", "ops", "order"}
    assert restored == a and hash(restored) == hash(a) and repr(restored) == text


def _orderly_algebras():
    for tag, sizes in (("JSL0", range(1, 6)), ("JSL01", range(1, 6)), ("DL01", range(1, 6)),
                       ("BA", (1, 2, 4, 8)), ("BR", (1, 2, 4, 8))):
        for n in sizes:
            yield from enumerate_algebras(tag, n)


def test_cached_order_atoms_irreducibles_and_meets_match_brute_force():
    for a in _orderly_algebras():
        assert [list(row) for row in a.leq] == oracle.natural_order(a)
        if a.tag in ("BA", "BR"):
            assert list(a.atoms) == oracle.atoms(a)
        if a.tag != "BR":
            assert list(a.join_irreducibles) == oracle.join_irreducibles(a)
            assert a.meets == oracle.meets(a)
        if a.tag in ("BA", "DL01"):
            assert a.meets == a.op("meet")
    for n in range(1, 6):
        for a in enumerate_algebras("POS", n):
            assert list(a.downsets) == oracle.downsets(a)


def test_semilattice_generators_are_the_irreducibles_and_the_bound():
    for a in _orderly_algebras():
        if a.tag != "BR":
            join_irreducibles = set(a.join_irreducibles) | {a.op("zero")}
            assert set(generators(a, "join")) == join_irreducibles, a
        if a.tag in ("BA", "DL01"):
            meet = a.op("meet")
            meet_irreducibles = {
                x for x in a.carrier()
                if not any(meet[y][z] == x for y in a.carrier() for z in a.carrier()
                           if x not in (y, z))
            }
            assert set(generators(a, "meet")) == meet_irreducibles, a


def test_posets_up_to_isomorphism_keep_the_pairwise_search_order():
    for n in range(1, 6):
        assert _posets_upto(n) == oracle._posets_upto(n), n


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_a_negative_size_is_one_structure_error_for_every_tag(tag):
    with pytest.raises(StructureError, match=f"^no {tag} algebra has negative size -1$"):
        enumerate_algebras(tag, -1)


# ---------------------------------------------------------------------------
# laws at generators against the full check (oracle.validate_algebra and
# oracle.check_morphism test every triple and every pair)

_TRIPLE = re.compile(
    r"^(?:derived lattice: )?(\w+ associativity|distributivity) violation at \((\d+),(\d+),(\d+)\)$"
)
_PAIR = re.compile(r"^(\w+) not preserved at \((\d+),(\d+)\)$|^not monotone at \((\d+),(\d+)\)$")


def _derived_join(a):
    add, mul = a.op("add"), a.op("mul")
    return tuple(tuple(add[add[x][y]][mul[x][y]] for y in range(a.size)) for x in range(a.size))


def _law_fails_at(a, message) -> bool:
    """Whether the law of an associativity or distributivity message fails
    at the triple it names; True for the laws tested at every element."""
    found = _TRIPLE.match(message)
    if not found:
        return True
    law, x, y, z = found.group(1), *map(int, found.groups()[1:])
    if law.endswith("associativity"):
        name = law.split()[0]
        t = _derived_join(a) if message.startswith("derived") and name == "join" else a.op(name)
        return t[t[x][y]][z] != t[x][t[y][z]]
    if a.tag == "BR":
        mul, add = a.op("mul"), (_derived_join(a) if message.startswith("derived") else a.op("add"))
    else:
        mul, add = a.op("meet"), a.op("join")
    return mul[x][add[y][z]] != add[mul[x][y]][mul[x][z]]


def _preserved_fails_at(f, message) -> bool:
    found = _PAIR.match(message)
    if not found:
        return True
    t = f.table
    if found.group(1):
        name, x, y = found.group(1), int(found.group(2)), int(found.group(3))
        sa, sb = f.source.op(name), f.target.op(name)
        return t[sa[x][y]] != sb[t[x]][t[y]]
    x, y = int(found.group(4)), int(found.group(5))
    return f.source.order[x][y] and not f.target.order[t[x]][t[y]]


def _single_entry_changes(a):
    """Every algebra that differs from a in one entry of one table, or of
    the order matrix of a POS.  Every binary operation of a is commutative,
    so an entry (x, y) changes together with (y, x): a change left
    unmirrored breaks commutativity, which is tested at every pair, and
    would never reach the laws tested at generators."""
    ops = dict(a.ops)
    for name, table in a.ops:
        for key, old in _entries(table):
            for v in range(a.size):
                if v != old:
                    changed = dict(ops, **{name: _put(table, key, v)})
                    yield FinAlgebra(a.tag, a.size, tuple(sorted(changed.items())), a.order)
    if a.order is not None:
        for x, y in itertools.product(range(a.size), repeat=2):
            order = [list(row) for row in a.order]
            order[x][y] = not order[x][y]
            yield FinAlgebra(a.tag, a.size, a.ops, tuple(map(tuple, order)))


def _entries(table):
    if isinstance(table, int):
        yield (), table
    elif table and isinstance(table[0], tuple):
        for x, row in enumerate(table):
            for y, v in enumerate(row[x:], x):
                yield (x, y), v
    else:
        for x, v in enumerate(table):
            yield (x,), v


def _put(table, key, v):
    if not key:
        return v
    if len(key) == 1:
        return table[: key[0]] + (v,) + table[key[0] + 1:]
    rows = [list(row) for row in table]
    x, y = key
    rows[x][y] = rows[y][x] = v
    return tuple(map(tuple, rows))


def _lattices(n):
    """The lattices of n elements as DL01 tables, M3 and N5 among them at 5."""
    return [
        make_algebra("DL01", n, {"join": a.op("join"), "meet": a.meets, "zero": a.op("zero"),
                                 "one": a.op("one")})
        for a in enumerate_algebras("JSL01", n)
    ]


AGREEMENT_ALGEBRAS = {
    "JSL0": [a for n in (4, 5) for a in enumerate_algebras("JSL0", n)],
    "DL01": enumerate_algebras("DL01", 4) + _lattices(5),
    "POS": enumerate_algebras("POS", 3) + enumerate_algebras("POS", 4),
    "BA": enumerate_algebras("BA", 8),
    "BR": enumerate_algebras("BR", 8),
    "VECT2": enumerate_algebras("VECT2", 8),
}


@pytest.mark.parametrize("tag", sorted(AGREEMENT_ALGEBRAS))
def test_laws_at_generators_accept_what_the_full_check_accepts(tag):
    at_generators = 0
    for a in AGREEMENT_ALGEBRAS[tag]:
        for b in [a, *_single_entry_changes(a)]:
            messages = validate_algebra(b)
            assert (messages == []) == (oracle.validate_algebra(b) == []), (b, messages)
            assert all(_law_fails_at(b, m) for m in messages), messages
            at_generators += bool(messages) and all(_TRIPLE.match(m) for m in messages)
            if b.order is not None:
                assert order_matrix_violations(b.order) == oracle.order_matrix_violations(b.order)
    # some changes break only the laws tested at generators
    assert at_generators > 0 or tag == "POS"


SMALL_ALGEBRAS = {
    "JSL0": enumerate_algebras("JSL0", 3) + enumerate_algebras("JSL0", 4),
    "DL01": enumerate_algebras("DL01", 3) + enumerate_algebras("DL01", 4),
    "POS": enumerate_algebras("POS", 3),
    **{tag: enumerate_algebras(tag, 2) + enumerate_algebras(tag, 4)
       for tag in ("BA", "BR", "VECT2")},
}


def _maps(tag):
    """Single-entry changes of the homs between the last three agreement
    algebras of the tag, and every map between its small algebras."""
    for a, b in itertools.product(AGREEMENT_ALGEBRAS[tag][-3:], repeat=2):
        for h in all_morphisms(a, b):
            for x, v in itertools.product(range(a.size), range(b.size)):
                yield AlgMorphism(a, b, h.table[:x] + (v,) + h.table[x + 1:])
    for a, b in itertools.product(SMALL_ALGEBRAS[tag], repeat=2):
        for table in itertools.product(range(b.size), repeat=a.size):
            yield AlgMorphism(a, b, table)


@pytest.mark.parametrize("tag", sorted(AGREEMENT_ALGEBRAS))
def test_morphisms_at_generators_accept_what_the_full_check_accepts(tag):
    maps = rejected = 0
    for f in _maps(tag):
        ok, why = check_morphism(f)
        assert ok == oracle.check_morphism(f)[0], (f, why)
        assert ok or _preserved_fails_at(f, why), why
        maps, rejected = maps + 1, rejected + (not ok)
    assert maps > rejected > 0


BA2 = {"meet": ((0, 0), (0, 1)), "join": ((0, 1), (1, 1)), "not": (1, 0), "zero": 0, "one": 1}


@pytest.mark.parametrize(
    "name, table, message",
    [
        ("not", (1, 2), "unary table has wrong shape"),
        ("not", (-1, 0), "unary table has wrong shape"),
        ("not", (1,), "unary table has wrong shape"),
        ("not", (1, float("nan")), "unary table has wrong shape"),
        ("not", (float("nan"), 1), "unary table has wrong shape"),
        ("not", (1, float("inf")), "unary table has wrong shape"),
        ("meet", ((0, 0), (0, 2)), "binary table has wrong shape"),
        ("meet", ((0, 0), (-1, 1)), "binary table has wrong shape"),
        ("meet", ((0, 0), (0,)), "binary table has wrong shape"),
        ("meet", ((0, 0), (0, 1), (0, 1)), "binary table has wrong shape"),
        ("meet", ((0, 0), (float("nan"), 1)), "binary table has wrong shape"),
        ("zero", 2, "constant out of range: 2"),
    ],
)
def test_make_algebra_checks_each_entry_range(name, table, message):
    with pytest.raises(StructureError, match=f"^{re.escape(message)}$"):
        make_algebra("BA", 2, {**BA2, name: table})


def test_an_empty_table_is_in_range():
    # the carrier of size 0 has no entry to take a min or max of
    assert algebra._freeze_table([], 1, 0) == ()
    assert algebra._freeze_table([], 2, 0) == ()
    assert make_algebra("BA", 2, BA2).op("not") == (1, 0)
