import itertools

import oracle
import pytest

from predual import monoids
from predual.algebra import (
    AlgMorphism,
    CapExceeded,
    are_isomorphic,
    free_algebra,
    make_algebra,
    relabel_algebra,
    standardize_vect,
)
from predual.automata import (
    dual_automaton,
    dual_automaton_inv,
    dual_generated_monoid,
    generated_local_variety,
    languages_of,
    make_lalgebra,
    run_word,
    syntactic_lalgebra,
)
from predual.langlib import (
    apply_free,
    free_word,
    free_zero,
    full_language,
    make_free,
    make_free_morphism,
    parse_regex,
    rev_free,
    union,
)
from predual.monoids import (
    GeneratedDMonoid,
    associated_lalgebra,
    are_dmonoids_isomorphic,
    dagger_free,
    divides,
    eval_in_dmonoid,
    dmonoid_product,
    make_dmonoid,
    minimal_generators,
    subdirect_product,
    transition_dmonoid,
    validate_dmonoid,
)
from predual.varieties import free_monoid_in_simple_pseudovariety

from oracle import morphism_from_images
from test_acceptance import _generators_for
from test_syntactic import CORPUS

FIVE_PAIRS = ("BA", "DL01", "JSL0", "VECT2", "BR")


def z2_group():
    carrier = make_algebra("SET", 2, {})
    return make_dmonoid(carrier, ((0, 1), (1, 0)), 0)


def trivial_monoid():
    return make_dmonoid(make_algebra("SET", 1, {}), ((0,),), 0)


def z3_group():
    carrier = make_algebra("SET", 3, {})
    mult = tuple(tuple((x + y) % 3 for y in range(3)) for x in range(3))
    return make_dmonoid(carrier, mult, 0)


def three_with_zero():
    # {1, x, 0} with x*x = 0 and 0 absorbing
    carrier = make_algebra("SET", 3, {})
    mult = ((0, 1, 2), (1, 2, 2), (2, 2, 2))
    return make_dmonoid(carrier, mult, 0)


def test_vect2_addition_monoid_fails_the_bimorphism_check():
    # carrier GF(2) with multiplication = addition: the section x -> 1 + x
    # sends 0 to 1, so it is not linear; the table check must report it
    carrier, _ = free_algebra("VECT2", ["x"])
    m = make_dmonoid(carrier, ((0, 1), (1, 0)), 0)
    msgs = validate_dmonoid(m)
    assert any("not a D-endomorphism" in msg for msg in msgs)
    # GF(2) with field multiplication is the valid 2-element VECT2-monoid
    field = make_dmonoid(carrier, ((0, 0), (0, 1)), 1)
    assert validate_dmonoid(field) == []


def test_jsl0_meet_monoid_is_an_idempotent_semiring():
    chain = make_algebra("JSL0", 2, {"join": ((0, 1), (1, 1)), "zero": 0})
    m = make_dmonoid(chain, ((0, 0), (0, 1)), 1)  # mult = meet, unit = top
    assert validate_dmonoid(m) == []


def test_set_star_zero_absorption_violation_reported():
    carrier, _ = free_algebra("SET_STAR", ["x"])
    bad = make_dmonoid(carrier, ((0, 1), (1, 1)), 1)  # x*point = x, not point
    msgs = validate_dmonoid(bad)
    assert any("absorption" in m for m in msgs)


def test_morphism_from_images_identity_and_concatenation():
    ident = morphism_from_images("SET", "ab", {
        "a": free_word("SET", "ab", "a"), "b": free_word("SET", "ab", "b")})
    w = free_word("SET", "ab", "abab")
    assert apply_free(ident, w) == w
    f = morphism_from_images("JSL0", "b", {
        "b": make_free("JSL0", "a", [("a", 1), ("aa", 1)])})
    bb = free_word("JSL0", "b", "bb")
    assert apply_free(f, bb) == make_free("JSL0", "a", [("aa", 1), ("aaa", 1), ("aaaa", 1)])


def test_morphism_into_dmonoid_is_multiplicative():
    m = z2_group()
    ev = morphism_from_images("SET", "ab", (m, {"a": 1, "b": 1}))
    assert ev(free_word("SET", "ab", "")) == 0
    assert ev(free_word("SET", "ab", "ab")) == 0
    assert ev(free_word("SET", "ab", "aba")) == 1
    for u in ["", "a", "ab", "ba", "aab"]:
        for v in ["", "b", "abb"]:
            x = free_word("SET", "ab", u)
            y = free_word("SET", "ab", v)
            from predual.langlib import free_mul

            assert ev(free_mul(x, y)) == m.mul(ev(x), ev(y))


def test_dagger():
    f = make_free_morphism("SET", "b", "ab", {"b": free_word("SET", "ab", "ab")})
    assert dagger_free(f).image("b") == free_word("SET", "ab", "ba")
    g = make_free_morphism("SET", "b", "ab", {"b": free_word("SET", "ab", "aba")})
    assert dagger_free(g) == g
    assert dagger_free(dagger_free(f)) == f


def test_associated_lalgebra_of_z2():
    g = GeneratedDMonoid(
        z2_group(), ("a",), (("a", 1),),
        ((0, free_word("SET", "a", "")), (1, free_word("SET", "a", "a"))),
    )
    a = associated_lalgebra(g)
    assert a.states.size == 2 and a.init == 0
    assert a.tr("a") == (1, 0)
    unit_only = GeneratedDMonoid(
        trivial_monoid(), ("a",), (("a", 0),), ((0, free_word("SET", "a", "")),)
    )
    assert associated_lalgebra(unit_only).states.size == 1


def test_transition_dmonoid_identity_and_cycle():
    states = make_algebra("SET", 3, {})
    ident = make_lalgebra("BA", "a", states, {"a": (0, 1, 2)}, 0)
    _, g = transition_dmonoid(ident)
    assert g.base.size == 1
    cyc = make_lalgebra("BA", "a", make_algebra("SET", 2, {}), {"a": (1, 0)}, 0)
    _, g = transition_dmonoid(cyc)
    assert g.base.size == 2
    assert validate_dmonoid(g.base) == []


def test_transition_dmonoid_jsl0_closes_under_joins():
    chain = make_algebra("JSL0", 3, {
        "join": tuple(tuple(max(x, y) for y in range(3)) for x in range(3)),
        "zero": 0})
    a = make_lalgebra(
        "JSL0", "ab", chain, {"a": (0, 0, 2), "b": (0, 1, 1)}, 0
    )
    elements, _ = transition_dmonoid(a)
    tables = set(elements)
    ta, tb = (0, 0, 2), (0, 1, 1)
    joined = tuple(max(x, y) for x, y in zip(ta, tb))
    assert joined in tables  # pointwise join of the two letter actions


def test_transition_dmonoid_of_associated_lalgebra_is_the_monoid():
    q = generated_local_variety("BA", [parse_regex("(ab)*")])
    g = dual_generated_monoid(q)
    _, t = transition_dmonoid(associated_lalgebra(g))
    assert are_dmonoids_isomorphic(t.base, g.base) is not None


def _first_dmonoid_isomorphism(m1, m2):
    """The first permutation, in lexicographic order, that keeps the unit,
    the multiplication and the carrier's operations and order, and reflects
    the order."""
    n, o1, o2 = m1.size, m1.carrier.order, m2.carrier.order
    return next(
        (
            t
            for t in itertools.permutations(range(n))
            if t[m1.unit] == m2.unit
            and all(t[m1.mult[x][y]] == m2.mult[t[x]][t[y]] for x in range(n) for y in range(n))
            and oracle.check_morphism(AlgMorphism(m1.carrier, m2.carrier, t))[0]
            and (o1 is None or all(
                o1[x][y] == o2[t[x]][t[y]] for x in range(n) for y in range(n)
            ))
        ),
        None,
    )


def _relabel_dmonoid(m, perm):
    inv = sorted(range(m.size), key=perm.__getitem__)
    mult = tuple(
        tuple(perm[m.mult[inv[x]][inv[y]]] for y in range(m.size)) for x in range(m.size)
    )
    return make_dmonoid(relabel_algebra(m.carrier, perm), mult, perm[m.unit])


def _opposite(m):
    return make_dmonoid(m.carrier, tuple(zip(*m.mult)), m.unit)


def _dmonoid_pairs():
    # a left-zero band with unit 0 against the chain 0 < 1 < 2 under max: the
    # identity keeps every product but 1 * 2 (1 against 2), and the search
    # assigns its first factor before its second
    s3 = make_algebra("SET", 3, {})
    yield (
        make_dmonoid(s3, ((0, 1, 2), (1, 1, 1), (2, 2, 2)), 0),
        make_dmonoid(s3, ((0, 1, 2), (1, 1, 2), (2, 2, 2)), 0),
    )
    # the two-element semilattice against Z2: the identity keeps every
    # product but 1 * 1
    s2 = make_algebra("SET", 2, {})
    yield make_dmonoid(s2, ((0, 1), (1, 1)), 0), z2_group()
    # transition D-monoids of small languages over {a, b}, none commutative,
    # against relabelled copies and their opposites
    for pair in FIVE_PAIRS:
        for regex in ("(a|b)*a", "a(a|b)*", "a*b*", "a*b", "ab*", "b*a"):
            _, g = transition_dmonoid(syntactic_lalgebra(pair, [parse_regex(regex, "ab")]))
            m = g.base
            flip = tuple(reversed(range(m.size)))
            for other in (m, _opposite(m)):
                yield m, other
                yield m, _relabel_dmonoid(other, flip)


def test_dmonoid_isomorphism_is_the_first_bijection_that_keeps_every_product():
    # are_dmonoids_isomorphic is table_isomorphism on the carrier's
    # operations, the multiplication and the unit, so the search must read
    # each product at (x, y), at (y, x) and at (x, x)
    found = []
    for m, other in _dmonoid_pairs():
        expected = _first_dmonoid_isomorphism(m, other)
        assert are_dmonoids_isomorphic(m, other) == expected
        found.append(expected is not None)
    assert any(found) and not all(found)


def test_rev_free_is_an_antimorphism():
    from predual.langlib import free_mul

    xs = [
        make_free("JSL0", "ab", [("ab", 1)]),
        make_free("JSL0", "ab", [("a", 1), ("ba", 1)]),
        make_free("JSL0", "ab", [("", 1)]),
    ]
    for x in xs:
        for y in xs:
            assert rev_free(free_mul(x, y)) == free_mul(rev_free(y), rev_free(x))


def test_subdirect_product_diagonal_and_mixed_orders():
    q2 = generated_local_variety("BA", [parse_regex("(aa)*")])
    q3 = generated_local_variety("BA", [parse_regex("(aaa)*")])
    g2 = dual_generated_monoid(q2)
    g3 = dual_generated_monoid(q3)
    diag = subdirect_product(g2, g2)
    assert diag.base.size == 2
    assert are_dmonoids_isomorphic(diag.base, g2.base) is not None
    mixed = subdirect_product(g2, g3)
    assert mixed.base.size == 6
    assert validate_dmonoid(mixed.base) == []
    # pairing with the trivial monoid is isomorphic to the other factor
    t = dual_generated_monoid(generated_local_variety("BA", [full_language("a")]))
    with_triv = subdirect_product(g3, t)
    assert are_dmonoids_isomorphic(with_triv.base, g3.base) is not None


def test_subdirect_dual_variety_is_the_join():
    # the dual local variety of the subdirect product is the closure of the
    # union of the two factors' language sets
    q2 = generated_local_variety("BA", [parse_regex("(aa)*")])
    q3 = generated_local_variety("BA", [parse_regex("(aaa)*")])
    g = subdirect_product(dual_generated_monoid(q2), dual_generated_monoid(q3))
    joint = dual_automaton_inv(associated_lalgebra(g))
    expected = generated_local_variety(
        "BA", [parse_regex("(aa)*"), parse_regex("(aaa)*")]
    )
    assert set(languages_of(joint)) == set(languages_of(expected))


def _divides_oracle(candidate, generator, n_max):
    """Brute force: enumerate every sub-D-monoid of every power and every
    surjective structure-preserving map onto the candidate."""
    import itertools

    from predual.algebra import signature
    from predual.monoids import dmonoid_powers

    sig = signature(candidate.carrier.tag)
    for power in dmonoid_powers(generator, n_max):
        carrier = list(range(power.size))
        # closed subsets containing the unit (and constants)
        for mask in range(1 << power.size):
            subset = [x for x in carrier if mask >> x & 1]
            if power.unit not in subset:
                continue
            sset = set(subset)
            if any(power.mult[x][y] not in sset for x in subset for y in subset):
                continue
            closed = True
            for name, arity in sig.items():
                op = power.carrier.op(name)
                if arity == 0 and op not in sset:
                    closed = False
                elif arity == 1 and any(op[x] not in sset for x in subset):
                    closed = False
                elif arity == 2 and any(
                    op[x][y] not in sset for x in subset for y in subset
                ):
                    closed = False
            if not closed:
                continue
            for images in itertools.product(range(candidate.size), repeat=len(subset)):
                phi = dict(zip(subset, images))
                if set(images) != set(range(candidate.size)):
                    continue
                if phi[power.unit] != candidate.unit:
                    continue
                if any(
                    phi[power.mult[x][y]] != candidate.mult[phi[x]][phi[y]]
                    for x in subset
                    for y in subset
                ):
                    continue
                ok = True
                for name, arity in sig.items():
                    op_p = power.carrier.op(name)
                    op_c = candidate.carrier.op(name)
                    if arity == 0:
                        ok = ok and phi[op_p] == op_c
                    elif arity == 1:
                        ok = ok and all(phi[op_p[x]] == op_c[phi[x]] for x in subset)
                    else:
                        ok = ok and all(
                            phi[op_p[x][y]] == op_c[phi[x]][phi[y]]
                            for x in subset
                            for y in subset
                        )
                if ok and candidate.carrier.order is not None:
                    ok = all(
                        candidate.carrier.order[phi[x]][phi[y]]
                        for x in subset
                        for y in subset
                        if power.carrier.order[x][y]
                    )
                if ok:
                    return True
    return False


def test_divides_agrees_with_brute_force_oracle():
    chain = make_algebra("JSL0", 2, {"join": ((0, 1), (1, 1)), "zero": 0})
    meet_semiring = make_dmonoid(chain, ((0, 0), (0, 1)), 1)
    small = [z2_group(), trivial_monoid(), three_with_zero(), z3_group()]
    for cand in small:
        for gen in small:
            if cand.size * gen.size > 9:
                continue
            got = divides(cand, gen, 2)
            want = _divides_oracle(cand, gen, 2)
            assert got == want, (cand.size, gen.size, got, want)
    # a JSL0-tagged case: the meet semiring divides itself, the trivial one
    triv_jsl = make_dmonoid(
        make_algebra("JSL0", 1, {"join": ((0,),), "zero": 0}), ((0,),), 0
    )
    assert divides(triv_jsl, meet_semiring, 1) is True
    assert divides(meet_semiring, meet_semiring, 1) is True
    assert divides(meet_semiring, triv_jsl, 2) is False


def test_divides_basics():
    assert divides(trivial_monoid(), z2_group(), 1) is True
    assert divides(z2_group(), z2_group(), 1) is True
    assert divides(z3_group(), z2_group(), 2) is False
    assert divides(z2_group(), z3_group(), 2) is False
    assert divides(three_with_zero(), three_with_zero(), 1) is True


def test_divides_subdirect_is_below_product():
    q2 = generated_local_variety("BA", [parse_regex("(aa)*")])
    q3 = generated_local_variety("BA", [parse_regex("(aaa)*")])
    g = subdirect_product(dual_generated_monoid(q2), dual_generated_monoid(q3))
    six, _ = dmonoid_product(z2_group(), z3_group())
    assert divides(g, six, 1) is True


def test_minimal_generators():
    assert minimal_generators(z3_group()) == [1]
    gens = minimal_generators(three_with_zero())
    assert gens == [1]  # x generates: x*x = 0


def test_eval_in_dmonoid_uses_d_structure():
    chain = make_algebra("JSL0", 2, {"join": ((0, 1), (1, 1)), "zero": 0})
    m = make_dmonoid(chain, ((0, 0), (0, 1)), 1)
    x = make_free("JSL0", "a", [("", 1), ("a", 1)])  # eps join a
    assert eval_in_dmonoid(m, {"a": 0}, x) == 1  # join(unit, 0) = join(1,0) = 1


def test_run_map_composes_with_free_morphisms():
    # e_{A^f} = e_A . f on free elements built from short words
    from predual.preimage import algebra_preimage

    q = generated_local_variety("BA", [parse_regex("(ab)*")])
    a = dual_automaton(q)
    f = make_free_morphism("SET", "c", "ab", {"c": free_word("SET", "ab", "ab")})
    af = algebra_preimage(a, f)
    import itertools

    for k in range(5):
        for tup in itertools.product("c", repeat=k):
            w = "".join(tup)
            from predual.automata import eval_free

            assert run_word(af, w) == eval_free(a, apply_free(f, free_word("SET", "c", w)))


# -- the generated-sub-D-monoid kernel against the constructions it replaced


def _outcome(build, *args):
    """build(*args), or the message of the CapExceeded it raises."""
    try:
        return build(*args)
    except CapExceeded as e:
        return str(e)


def assert_shortlex_witnesses(g):
    """Every representative evaluates to its element, and an element a word
    of at most five letters reaches is witnessed by the shortlex-least one."""
    tag, gens = g.base.carrier.tag, dict(g.gen_images)
    first = {}
    for k in range(6):
        for letters in itertools.product(g.alphabet, repeat=k):
            w = "".join(letters)
            first.setdefault(eval_in_dmonoid(g.base, gens, free_word(tag, g.alphabet, w)), w)
    for e, fe in g.reprs:
        assert eval_in_dmonoid(g.base, gens, fe) == e
        if e in first:
            assert fe == free_word(tag, g.alphabet, first[e]), (e, fe)


@pytest.mark.parametrize("pair", FIVE_PAIRS)
def test_free_monoids_of_criterion_6_generators_match_the_closure_with_multiplication(pair):
    for name, d in _generators_for(pair).items():
        for sigma in ("a", "ab"):
            new = _outcome(free_monoid_in_simple_pseudovariety, d, sigma)
            old = _outcome(oracle.free_monoid_in_simple_pseudovariety, d, sigma)
            if isinstance(old, str):
                assert new == old == "free monoid exceeded cap 512", (name, sigma)
                continue
            assert (new.base, new.gen_images) == (old.base, old.gen_images), (name, sigma)
            assert_shortlex_witnesses(new)


def test_free_monoid_of_a_vect2_generator_off_standard_form_is_put_in_standard_form():
    # the field GF(2) with its zero at index 1: the sorted tuples of its
    # powers are not numbered in the standard encoding dualization needs
    dim1, _ = free_algebra("VECT2", ["x"])
    field = make_dmonoid(relabel_algebra(dim1, (1, 0)), ((0, 1), (1, 1)), 0)
    for sigma in ("a", "ab"):
        new = free_monoid_in_simple_pseudovariety(field, sigma)
        old = oracle.free_monoid_in_simple_pseudovariety(field, sigma)
        assert (new.base, new.gen_images) == (old.base, old.gen_images)
        assert standardize_vect(new.base.carrier)[1] == tuple(range(new.base.size))
        assert validate_dmonoid(new.base) == []
        assert_shortlex_witnesses(new)


def test_a_vect_span_of_rank_r_has_p_to_the_r_elements_and_is_capped_before_closing(monkeypatch):
    """A VECT(p) sub-D-monoid is the span of its words' elements.  On
    criterion 6's VECT2 generators (and GF(2) off standard form) over {a}
    and {a, b}, 2^rank is the closure's size wherever the closure stays
    under the cap, each rank reading one standard basis per call.  The
    dual numbers over {a, b} (rank 12, so 4,096 elements) raise the cap's
    message without closing anything (the parent built 513 elements)."""
    ranks, sizes, perms = [], [], []
    span_rank, closure, basis_perm = monoids._span_rank, monoids.closure, monoids.standard_basis_perm

    def record_rank(*args):
        ranks.append(span_rank(*args))
        return ranks[-1]

    def record_closure(*args, **kwargs):
        result = closure(*args, **kwargs)
        sizes.append(len(result[0]))
        return result

    def record_perm(a):
        perms.append(a)
        return basis_perm(a)

    monkeypatch.setattr(monoids, "_span_rank", record_rank)
    monkeypatch.setattr(monoids, "closure", record_closure)
    monkeypatch.setattr(monoids, "standard_basis_perm", record_perm)
    dim1, _ = free_algebra("VECT2", ["x"])
    generators = {
        **_generators_for("VECT2"),
        "gf2-off-standard": make_dmonoid(relabel_algebra(dim1, (1, 0)), ((0, 1), (1, 1)), 0),
    }
    for name, d in generators.items():
        for sigma in ("a", "ab"):
            ranks.clear(), sizes.clear(), perms.clear()
            outcome = _outcome(free_monoid_in_simple_pseudovariety, d, sigma)
            assert perms == [d.carrier], (name, sigma)
            if (name, sigma) == ("dual-numbers", "ab"):
                assert outcome == "free monoid exceeded cap 512"
                assert ranks == [12] and sizes == []
            else:
                assert sizes == [2 ** ranks[0]] == [outcome.base.size], (name, sigma)


@pytest.mark.parametrize("pair", FIVE_PAIRS)
def test_subdirect_products_of_syntactic_monoids_match_the_full_product(pair):
    for alphabet in ("a", "ab"):
        gs = [
            dual_generated_monoid(syntactic_lalgebra(pair, [parse_regex(rx, alphabet)]))
            for rx, al in CORPUS if al == alphabet
        ][:5]
        for g1, g2 in itertools.combinations(gs, 2):
            new, old = subdirect_product(g1, g2), oracle.subdirect_product(g1, g2)
            assert (new.base, new.gen_images) == (old.base, old.gen_images)
            assert validate_dmonoid(new.base) == []
            assert_shortlex_witnesses(new)


@pytest.mark.parametrize("pair", FIVE_PAIRS)
def test_transition_dmonoids_of_syntactic_lalgebras_match_the_former_construction(pair):
    for rx, alphabet in CORPUS:
        a = syntactic_lalgebra(pair, [parse_regex(rx, alphabet)])
        new, old = _outcome(transition_dmonoid, a), _outcome(oracle.transition_dmonoid, a)
        if isinstance(old, str):
            assert new == old, rx
            continue
        (elements, g), (old_elements, old_monoid, old_gens) = new, old
        assert (elements, g.base, g.gen_images) == (old_elements, old_monoid, old_gens), rx
        assert_shortlex_witnesses(g)
