import dataclasses

import pytest

import oracle
from predual import algebra, duality
from predual.algebra import (
    AlgMorphism,
    StructureError,
    all_morphisms,
    are_isomorphic,
    check_morphism,
    enumerate_algebras,
    free_algebra,
    identity_morphism,
    make_algebra,
    make_morphism,
    validate_algebra,
)
from predual.duality import (
    MAIN_PAIRS,
    canonical_constants,
    dual_morphism,
    dual_object,
    eta,
    side_of,
    verify_preduality,
)


def two_chain_jsl0():
    return make_algebra("JSL0", 2, {"join": ((0, 1), (1, 1)), "zero": 0})


def four_element_br():
    # powerset ring on 2 atoms: {0, a, b, 1}
    return enumerate_algebras("BR", 4)[0]


def test_dual_of_four_element_ba_is_two_element_set():
    ba = enumerate_algebras("BA", 4)[0]
    d = dual_object("BA", ba)
    assert d.tag == "SET" and d.size == 2


def test_dual_of_jsl0_chain_is_reversed_chain():
    chain = two_chain_jsl0()
    d = dual_object("JSL0", chain)
    # opposite semilattice: join becomes meet (min), zero becomes the old top
    assert d.op("join")[0][1] == 0
    assert d.op("zero") == 1
    assert validate_algebra(d) == []


def test_dual_of_four_element_br_is_three_point_pointed_set():
    br = four_element_br()
    assert br.atoms == (1, 2)
    d = dual_object("BR", br)
    assert d.tag == "SET_STAR" and d.size == 3


def test_dual_morphism_of_identity_is_identity():
    ba = enumerate_algebras("BA", 4)[0]
    d = dual_morphism("BA", identity_morphism(ba))
    assert d.table == (0, 1)


def test_dual_of_ba_inclusion_collapses_atoms():
    # inclusion of the 2-element BA into the 4-element BA (0,1 -> bottom,top)
    two = enumerate_algebras("BA", 2)[0]
    four = enumerate_algebras("BA", 4)[0]
    inc = make_morphism(two, four, (0, 3))
    assert check_morphism(inc)[0]
    d = dual_morphism("BA", inc)
    # both atoms of the 4-element BA map to the unique atom of 2
    assert d.table == (0, 0)


def test_dual_of_br_morphism_uses_star_branch():
    # h from the 4-element ring to the 2-element ring, h(a)=1, h(b)=0
    four = four_element_br()
    two = enumerate_algebras("BR", 2)[0]
    h = make_morphism(four, two, (0, 1, 0, 1))
    assert check_morphism(h)[0]
    d = dual_morphism("BR", h)
    # dual sends the atom 1 of the 2-ring to a (index 1), star to star
    assert d.table[0] == 0
    assert d.table[1] == 1


def test_br_star_branch_triggers_exactly_when_nothing_above():
    for n in (2, 4, 8):
        for m in (2, 4):
            rings = enumerate_algebras("BR", n)
            targets = enumerate_algebras("BR", m)
            for q in rings:
                for r in targets:
                    for h in all_morphisms(q, r):
                        d = dual_morphism("BR", h)
                        ats_r = r.atoms
                        for i, rr in enumerate(ats_r):
                            above = [
                                x
                                for x in range(q.size)
                                if r.op("mul")[rr][h.table[x]] == rr
                            ]
                            assert (d.table[i + 1] == 0) == (not above)


def test_canonical_constants_ba():
    b = canonical_constants("BA")
    assert b.one_C.size == 4 and b.O_C.size == 2
    assert b.one_D.size == 1 and b.O_D.size == 2
    assert b.one_out_D == 1
    assert b.ident == (0, 1)


def test_canonical_constants_vect2():
    b = canonical_constants("VECT2")
    assert b.one_C == b.O_C
    assert b.one_C.size == 2
    assert b.one_out_D == 1


def test_canonical_constants_br_star_is_zero():
    b = canonical_constants("BR")
    assert b.O_D.tag == "SET_STAR"
    assert b.O_D.op("point") == 0  # star identified with 0 in O_C
    assert b.one_out_D == 1


def test_canonical_constants_dl01_zero_is_top():
    b = canonical_constants("DL01")
    # O_D is the 2-chain in which "0" (the reject output) is the top element
    assert b.O_D.tag == "POS"
    assert b.one_out_D == 1
    assert b.O_D.order[1][0] and not b.O_D.order[0][1]


def test_canonical_constants_jsl0_semantic_labels():
    b = canonical_constants("JSL0")
    # evaluation semantics: join = or, zero = reject
    assert b.O_D.op("join")[0][1] == 1
    assert b.O_D.op("zero") == 0


@pytest.mark.parametrize("pair", MAIN_PAIRS + ("JSL01",))
def test_bundle_duals_match_stored_constants(pair):
    b = canonical_constants(pair)
    assert dual_object(pair, b.O_C) == b.one_D
    raw = dual_object(pair, b.one_C)
    assert are_isomorphic(raw, b.O_D) is not None or raw.tag in ("SET", "POS", "SET_STAR", "JSL")
    # the dual of 1_{O_C} corresponds to the element 1 of O_D
    pos = dual_morphism(pair, b.out_one_C).table[b.gen_one_D]
    assert b.relabel_OD[pos] == b.one_out_D


@pytest.mark.parametrize("pair,sizes", [("BA", (1, 2, 4, 8)), ("DL01", range(1, 6)),
                                        ("BR", (1, 2, 4, 8))])
def test_birkhoff_dual_is_hom_into_o_c(pair, sizes):
    # element i of the dual is x -> [points[i] <= x] (BR: element 0 is the
    # zero map), the dual is all of Hom(Q, O_C), and dualizing a morphism is
    # precomposition; verify_preduality cannot see a relabelling of the dual
    o_c = canonical_constants(pair).O_C
    algs = [q for n in sizes for q in enumerate_algebras(pair, n)]
    named = {}
    for q in algs:
        order = oracle.natural_order(q)
        points = oracle.join_irreducibles(q) if pair == "DL01" else oracle.atoms(q)
        homs = [tuple(int(order[p][x]) for x in q.carrier()) for p in points]
        if pair == "BR":
            homs.insert(0, (0,) * q.size)
        assert len(homs) == len(set(homs)) == dual_object(pair, q).size
        assert set(homs) == {f.table for f in all_morphisms(q, o_c)}
        named[q] = homs
    for q in algs:
        for r in algs:
            for h in all_morphisms(q, r):
                d = dual_morphism(pair, h)
                for j, f in enumerate(named[r]):
                    assert named[q][d.table[j]] == tuple(f[y] for y in h.table)


@pytest.mark.parametrize(
    "pair,max_size",
    [("BA", 8), ("DL01", 5), ("JSL0", 4), ("VECT2", 4), ("BR", 8), ("JSL01", 4)],
)
def test_verify_preduality_passes(pair, max_size):
    report = verify_preduality(pair, max_size)
    assert report["ok"], report["failures"][:3]
    assert report["morphisms"] > 0


def corrupted(pair, h):
    d = dual_morphism(pair, h)
    if d.source.size >= 2 and len(set(d.table)) >= 2:
        t = list(d.table)
        t[0], t[1] = t[1], t[0]
        return AlgMorphism(d.source, d.target, tuple(t))
    return d


def moved_source(side):
    """A dualizer whose duals of the side's morphisms start at a copy of the
    right object with one more, unused operation, so they no longer compose;
    the copy is checked and dualized as the object is."""

    def dualize(pair, h):
        d = dual_morphism(pair, h)
        if side_of(pair, h.source.tag) != side:
            return d
        copy = dataclasses.replace(d.source, ops=d.source.ops + (("unused", 0),))
        return AlgMorphism(copy, d.target, d.table)

    return dualize


def test_verify_preduality_detects_corruption():
    report = verify_preduality("BA", 4, dual_morphism_fn=corrupted)
    assert not report["ok"]
    assert any(f["law"] for f in report["failures"])
    assert all("witness" in f for f in report["failures"])


@pytest.mark.parametrize(
    "pair,max_size",
    [("BA", 8), ("BR", 8), ("JSL0", 4), ("JSL01", 4), ("DL01", 4), ("VECT2", 4)],
)
def test_verify_preduality_matches_the_compose_route(pair, max_size):
    # the whole report: counts, hom counts, witnesses and their order
    assert verify_preduality(pair, max_size) == oracle.verify_preduality_by_compose(
        pair, max_size
    )


def test_a_double_dual_that_breaks_its_laws_fails_double_dual_iso(monkeypatch):
    # the double-dual test's eta of the 8-element BA goes into a copy whose
    # join is changed at one pair of elements that are no join generators:
    # the identity passes the test at generators, so only validating the
    # double dual finds the fault; later calls (naturality) get the real eta
    broken = []

    def broken_eta(pair, obj):
        if obj.tag != "BA" or obj.size != 8 or broken:
            return eta(pair, obj)
        broken.append(obj)
        gens = algebra.generators(obj, "join")
        x, y = [z for z in obj.carrier() if z not in gens][:2]
        join = [list(row) for row in obj.op("join")]
        join[x][y] = join[y][x] = x
        target = make_algebra("BA", 8, dict(obj.op_dict(), join=join))
        return AlgMorphism(obj, target, tuple(obj.carrier()))

    monkeypatch.setattr(duality, "eta", broken_eta)
    failures = verify_preduality("BA", 8)["failures"]
    assert [f["law"] for f in failures] == ["double-dual-iso"]
    assert failures[0]["witness"].startswith("BA size 8: double dual: ")


# each stops at a functoriality failure, after 77, 152, 92 and 36 compositions
@pytest.mark.parametrize("pair,max_size", [("BA", 8), ("JSL0", 4), ("JSL01", 4), ("VECT2", 4)])
def test_corrupted_duals_fail_as_on_the_compose_route(pair, max_size):
    report = verify_preduality(pair, max_size, dual_morphism_fn=corrupted)
    assert report == oracle.verify_preduality_by_compose(
        pair, max_size, dual_morphism_fn=corrupted
    )
    assert report["failures"][-1]["law"] == "functoriality"


# C: the duals of homs meet at no one object (dual(h) o dual(g) undefined);
# D: a double dual does not start where eta ends (ddh o eta undefined)
@pytest.mark.parametrize("side", ["C", "D"])
@pytest.mark.parametrize("route", [verify_preduality, oracle.verify_preduality_by_compose])
def test_duals_that_do_not_compose_raise(route, side):
    with pytest.raises(StructureError, match="^morphisms not composable$"):
        route("BR", 4, dual_morphism_fn=moved_source(side))


def test_jsl0_dual_morphisms_are_meet_preserving_pointwise():
    # hat h is well-defined and meet-preserving, pointwise
    algs = [a for n in (1, 2, 3, 4) for a in enumerate_algebras("JSL0", n)]
    for q in algs:
        for r in algs:
            for h in all_morphisms(q, r):
                d = dual_morphism("JSL0", h)
                ok, why = check_morphism(d)
                assert ok, why


def test_double_dual_eta_is_natural_iso_on_both_sides():
    for pair, max_size in (("BA", 4), ("JSL0", 3), ("BR", 4), ("JSL01", 3)):
        report = verify_preduality(pair, max_size)
        assert report["ok"]


def test_jsl01_pair_is_full_up_to_size_5():
    report = verify_preduality("JSL01", 5)
    assert report["ok"], report["failures"][:3]
    # fullness = hom-count equality + faithfulness, both part of the report
    assert all(c == d for (_, _, c, d) in report["hom_counts"])


def test_eta_identity_for_self_dual_pairs():
    v, _ = free_algebra("VECT2", ["x", "y"])
    assert eta("VECT2", v).table == tuple(range(4))
    j = two_chain_jsl0()
    assert eta("JSL0", j).table == (0, 1)


def test_join_irreducibles_of_chain():
    join = tuple(tuple(max(x, y) for y in range(3)) for x in range(3))
    meet = tuple(tuple(min(x, y) for y in range(3)) for x in range(3))
    dl = make_algebra("DL01", 3, {"meet": meet, "join": join, "zero": 0, "one": 2})
    assert dl.join_irreducibles == (1, 2)
    d = dual_object("DL01", dl)
    assert d.size == 2 and d.order[0][1]


@pytest.mark.parametrize("pair,wrong", [("BA", "BR"), ("BA", "DL01"), ("JSL0", "JSL01")])
def test_dual_object_checks_the_pair_after_caching(pair, wrong):
    a = canonical_constants(pair).O_C
    dual_object(pair, a)
    with pytest.raises(StructureError):
        dual_object(wrong, a)
