import dataclasses
import itertools
import pickle

import pytest

from predual.algebra import (
    AlgMorphism,
    StructureError,
    are_isomorphic,
    enumerate_algebras,
    make_algebra,
    relabel_algebra,
    validate_algebra,
)
from predual.automata import (
    Coalgebra,
    LAlgebra,
    coalgebra_coproduct,
    dual_automaton,
    dual_automaton_inv,
    dual_generated_monoid,
    enumerate_coalgebras,
    eval_free,
    find_coalgebra_hom,
    generated_local_variety,
    is_local_variety,
    is_subcoalgebra_of_rho,
    language_of_output,
    language_of_state,
    languages_of,
    make_coalgebra,
    make_lalgebra,
    relabel_double_dual,
    right_derivative_view,
    run_word,
    shift_initial,
    shift_initial_co,
    state_output_morphism,
)
from predual.langlib import (
    empty_language,
    free_word,
    free_zero,
    full_language,
    make_free,
    parse_regex,
    reversal,
    right_deriv,
)
from predual.monoids import (
    associated_lalgebra,
    are_dmonoids_isomorphic,
    validate_dmonoid,
)
from predual.serialize import dumps, loads

import oracle
from oracle import language_quotient, local_variety_witness, run_word_co, transition_monoid


def ba_parity():
    """BA local variety of (aa)*: languages {0, (aa)*, a(aa)*, a*}."""
    return generated_local_variety("BA", [parse_regex("(aa)*")])


def two_state_cycle_lalgebra():
    states = make_algebra("SET", 2, {})
    return make_lalgebra("BA", "a", states, {"a": (1, 0)}, 0)


def test_generated_local_variety_parity_has_four_states():
    q = ba_parity()
    assert q.states.size == 4
    assert set(languages_of(q)) == {
        empty_language("a"),
        parse_regex("(aa)*"),
        parse_regex("a(aa)*"),
        parse_regex("a*"),
    }


def test_coalgebra_and_lalgebra_keep_their_fields_and_never_compare_equal():
    assert [f.name for f in dataclasses.fields(Coalgebra)] == [
        "pair", "alphabet", "states", "trans", "out"]
    assert [f.name for f in dataclasses.fields(LAlgebra)] == [
        "pair", "alphabet", "states", "trans", "init"]
    a = two_state_cycle_lalgebra()
    twin = Coalgebra(a.pair, a.alphabet, a.states, a.trans, a.init)
    assert twin != a and a != twin
    assert LAlgebra(*(getattr(a, f.name) for f in dataclasses.fields(a))) == a


BA4 = enumerate_algebras("BA", 4)[0]
SET2 = make_algebra("SET", 2, {})
# a VECT2 plane whose zero is element 1: off the standard basis encoding
OFF_VECT = relabel_algebra(enumerate_algebras("VECT2", 4)[0], [1, 0, 2, 3])


@pytest.mark.parametrize(
    "make, args, message",
    [
        (make_coalgebra, ("BA", "a", SET2, {"a": (0, 1)}, (0, 1)),
         "states must be BA for pair BA"),
        (make_lalgebra, ("BA", "a", BA4, {"a": (0, 1, 2, 3)}, 0),
         "states must be SET for pair BA"),
        (make_coalgebra, ("BA", "a", BA4, {"a": (0, 0, 0, 0)}, (0, 0, 1, 1)),
         "transition 'a': not not preserved at 0"),
        (make_lalgebra,
         ("BR", "a", make_algebra("SET_STAR", 2, {"point": 0}), {"a": (1, 0)}, 5),
         "transition 'a': point not preserved: f(0)=1 != 0; initial state out of range"),
        (make_coalgebra, ("BA", "ab", BA4, {"a": (0, 1, 2, 3), "b": (0, 1, 2, 9)}, (0, 1, 7, 1)),
         "transition 'b': not a map from 4 to 4 elements; "
         "output: not a map from 4 to 2 elements"),
        (make_coalgebra, ("VECT2", "a", OFF_VECT, {"a": (0, 1, 2, 3)}, (0, 1, 1, 0)),
         "states: VECT states must use the standard basis encoding"),
        (make_lalgebra, ("VECT2", "a", OFF_VECT, {"a": (0, 1, 2, 3)}, 0),
         "states: VECT states must use the standard basis encoding"),
        (make_coalgebra, ("BA", "a", BA4, {"a": (0, 1, 2, 3)}, (0, 1, 1, 1)),
         "output: meet not preserved at (1,2)"),
        (make_lalgebra, ("BA", "a", SET2, {"a": (1, 0)}, 2), "initial state out of range"),
        (make_lalgebra, ("BA", "a", SET2, {"a": (1, 0)}, True), "initial state out of range"),
    ],
)
def test_make_names_every_broken_law(make, args, message):
    with pytest.raises(StructureError) as e:
        make(*args)
    assert str(e.value) == message


def test_dual_of_one_state_ba_coalgebra():
    states = make_algebra(
        "BA",
        2,
        {"meet": ((0, 0), (0, 1)), "join": ((0, 1), (1, 1)), "not": (1, 0),
         "zero": 0, "one": 1},
    )
    q = make_coalgebra("BA", "a", states, {"a": (0, 1)}, (0, 1))
    a = dual_automaton(q)
    assert a.states.size == 1 and a.init == 0


def test_dual_of_parity_variety_is_two_state_dfa():
    q = ba_parity()
    a = dual_automaton(q)
    assert a.states.tag == "SET" and a.states.size == 2
    # the initial state is the atom below the accepting ultrafilter, and the
    # a-transition swaps the two atoms (per the meet-of-successors formula)
    t = a.tr("a")
    assert t[0] != t[1] and t[t[a.init]] == a.init
    # language of the dual automaton with the (aa)*-state output = reversal
    s = languages_of(q).index(parse_regex("(aa)*"))
    out = state_output_morphism(q, s)
    assert language_of_output(a, out) == parse_regex("(aa)*")


def test_dual_roundtrip_is_isomorphic_via_eta():
    chain3 = make_algebra(
        "JSL0", 3, {"join": tuple(tuple(max(x, y) for y in range(3)) for x in range(3)), "zero": 0}
    )
    q = make_coalgebra("JSL0", "a", chain3, {"a": (0, 1, 2)}, (0, 0, 1))
    back = relabel_double_dual(q.pair, q.states, dual_automaton_inv(dual_automaton(q)))
    assert back == q


def test_run_word_composition_order():
    a = two_state_cycle_lalgebra()
    assert run_word(a, "") == 0
    assert run_word(a, "a") == 1
    assert run_word(a, "aa") == 0
    q = ba_parity()
    gw = run_word_co(q, "a")
    assert gw.table == q.tr("a")


def test_language_of_state_examples():
    q = ba_parity()
    langs = languages_of(q)
    even = langs.index(parse_regex("(aa)*"))
    assert language_of_state(q, even) == parse_regex("(aa)*")
    # constant-0 output accepts nothing (the zero map is a JSL0 morphism)
    chain = make_algebra("JSL0", 2, {"join": ((0, 1), (1, 1)), "zero": 0})
    dead = make_coalgebra("JSL0", "a", chain, {"a": (0, 1)}, (0, 0))
    for s in range(2):
        assert language_of_state(dead, s) == empty_language("a")


def test_language_of_output_cycle():
    a = two_state_cycle_lalgebra()
    assert language_of_output(a, (1, 0)) == parse_regex("(aa)*")
    assert language_of_output(a, (0, 0)) == empty_language("a")


def test_right_derivative_view():
    q = ba_parity()
    ident = make_coalgebra(
        "BA", "a", q.states, {"a": tuple(range(4))}, q.out
    )
    assert right_derivative_view(ident, "a") == ident
    qa = right_derivative_view(q, "a")
    langs = languages_of(q)
    for s in range(q.states.size):
        assert language_of_state(qa, s) == right_deriv(langs[s], "a")
    qab = right_derivative_view(right_derivative_view(q, "a"), "a")
    for s in range(q.states.size):
        assert language_of_state(qab, s) == right_deriv(right_deriv(langs[s], "a"), "a")


def test_shift_initial():
    a = two_state_cycle_lalgebra()
    eps = free_word("SET", "a", "")
    assert shift_initial(a, eps) == a
    sh = shift_initial(a, free_word("SET", "a", "a"))
    assert sh.init == 1
    q = ba_parity()
    qx = shift_initial_co(q, free_word("SET", "a", "a"))
    assert qx.trans == q.trans
    # Q_a coincides with the right-derivative view at a single letter
    assert qx.out == right_derivative_view(q, "a").out


def test_is_subcoalgebra_of_rho():
    q = ba_parity()
    assert is_subcoalgebra_of_rho(q)
    # "one-state" BA coalgebra (2-element BA, one atom): accepts everything
    one = make_coalgebra(
        "BA", "a",
        make_algebra("BA", 2, {"meet": ((0, 0), (0, 1)), "join": ((0, 1), (1, 1)),
                               "not": (1, 0), "zero": 0, "one": 1}),
        {"a": (0, 1)},
        (0, 1),
    )
    assert is_subcoalgebra_of_rho(one)
    assert language_of_state(one, 1) == full_language("a")
    # duplicate-language coalgebra: product-style two copies
    dup_states = make_algebra(
        "BA", 4,
        {"meet": tuple(tuple(x & y for y in range(4)) for x in range(4)),
         "join": tuple(tuple(x | y for y in range(4)) for x in range(4)),
         "not": tuple(3 ^ x for x in range(4)), "zero": 0, "one": 3},
    )
    dup = make_coalgebra("BA", "a", dup_states, {"a": tuple(range(4))}, (0, 1, 0, 1))
    assert not is_subcoalgebra_of_rho(dup)
    assert language_of_state(dup, 1) == language_of_state(dup, 3)


def test_is_local_variety_positive():
    assert is_local_variety(ba_parity())
    q2 = generated_local_variety("BA", [parse_regex("(ab)*")])
    assert is_local_variety(q2)


def test_is_local_variety_negative_with_witness():
    # left-derivative closure of b(ab)* is a subcoalgebra but lacks (ab)*a
    from predual.langlib import left_deriv, union

    seeds = [parse_regex("b(ab)*")]
    langs = {seeds[0]}
    frontier = [seeds[0]]
    while frontier:
        l = frontier.pop()
        for a in "ab":
            d = left_deriv(l, a)
            if d not in langs:
                langs.add(d)
                frontier.append(d)
    # close under BA operations (complement/union/intersection), not right derivs
    from predual.langlib import complement, intersection

    changed = True
    while changed:
        changed = False
        for l1 in list(langs):
            for l2 in list(langs):
                for cand in (union(l1, l2), intersection(l1, l2)):
                    if cand not in langs:
                        langs.add(cand)
                        changed = True
            c = complement(l1)
            if c not in langs:
                langs.add(c)
                changed = True
    ordered = sorted(langs, key=lambda l: l.sort_key())
    index = {l: i for i, l in enumerate(ordered)}
    n = len(ordered)
    ops = {
        "meet": tuple(tuple(index[intersection(x, y)] for y in ordered) for x in ordered),
        "join": tuple(tuple(index[union(x, y)] for y in ordered) for x in ordered),
        "not": tuple(index[complement(x)] for x in ordered),
        "zero": index[empty_language("ab")],
        "one": index[full_language("ab")],
    }
    states = make_algebra("BA", n, ops)
    q = make_coalgebra(
        "BA", "ab", states,
        {a: tuple(index[left_deriv(l, a)] for l in ordered) for a in "ab"},
        tuple(1 if l.accepts("") else 0 for l in ordered),
    )
    assert is_subcoalgebra_of_rho(q)
    assert not is_local_variety(q)
    witness = local_variety_witness(q)
    assert witness is not None
    lang, letter = witness
    assert right_deriv(lang, letter) not in set(ordered)
    # the missing right derivative: (ab)* under b is (ab)*a
    assert right_deriv(parse_regex("(ab)*"), "b") == parse_regex("(ab)*a")
    assert parse_regex("(ab)*a") not in set(ordered)


def test_dual_generated_monoid_of_parity_is_z2():
    g = dual_generated_monoid(ba_parity())
    assert g.base.size == 2
    assert validate_dmonoid(g.base) == []
    x = g.gen("a")
    assert g.base.mul(x, x) == g.base.unit


def test_dual_generated_monoid_of_ab_star_is_order_six():
    q = generated_local_variety("BA", [parse_regex("(ab)*")])
    g = dual_generated_monoid(q)
    assert g.base.size == 6
    # oracle: transition monoid of the minimal DFA (two-sided congruence)
    tables, mult, unit, gens, words = transition_monoid(parse_regex("(ab)*"))
    assert len(tables) == 6
    oracle_carrier = make_algebra("SET", 6, {})
    from predual.monoids import make_dmonoid

    oracle = make_dmonoid(oracle_carrier, mult, unit)
    assert are_dmonoids_isomorphic(g.base, oracle) is not None


def test_dual_generated_monoid_jsl0_star():
    q = generated_local_variety("JSL0", [parse_regex("a*")])
    g = dual_generated_monoid(q)
    assert validate_dmonoid(g.base) == []


def test_dual_generated_monoid_spot_values_per_pair():
    # frozen orders of the dual generated D-monoids across the pairs:
    # BR adjoins an absorbing zero (the image of the free monoid's zero);
    # JSL0 yields the syntactic semiring (joins of word classes)
    expected = {
        ("BR", "(aa)*"): 3,   # the order-2 group plus zero
        ("BR", "(ab)*"): 6,   # {1, a, b, ab, ba, 0}: the zero is already there
        ("JSL0", "(aa)*"): 4,  # {e(0), e(eps), e(a), e(eps) v e(a)}
        ("VECT2", "(aa)*"): 4,  # the group algebra GF(2)[Z2]
    }
    for (pair, rx), order in expected.items():
        q = generated_local_variety(pair, [parse_regex(rx)])
        g = dual_generated_monoid(q)
        assert g.base.size == order, (pair, rx, g.base.size)
        assert validate_dmonoid(g.base) == []


def test_dl01_dual_order_of_a_star_over_two_letters():
    # the b-class is an absorbing zero whose principal filter is smallest, so
    # it sits on top of the dual order; the unit sits strictly below it
    q = generated_local_variety("DL01", [parse_regex("a*", "ab")])
    g = dual_generated_monoid(q)
    a = dual_automaton(q)
    unit, zero = run_word(a, ""), run_word(a, "b")
    assert g.base.size == 2
    assert g.base.carrier.order[unit][zero]
    assert not g.base.carrier.order[zero][unit]


def test_kernel_of_representatives_matches_oracle():
    # The dual L-algebra accepts reversals (the reversal lemma), so the kernel
    # of the representative map is exactly the two-sided syntactic congruence
    # of the reversed language, checked against the independent oracle.
    for rx in ["(aa)*", "(ab)*", "a*b*", "(a|b)*a"]:
        l = parse_regex(rx)
        q = generated_local_variety("BA", [l])
        a = dual_automaton(q)
        word_pool = [
            "".join(t) for k in range(5) for t in itertools.product(l.alphabet, repeat=k)
        ]

        def oracle_class(w):
            t = tuple(range(l.size))
            for ch in w:
                i = l.alphabet.index(ch)
                t = tuple(l.delta[v][i] for v in t)
            return t

        for u in word_pool:
            for v in word_pool:
                same_dual = run_word(a, u) == run_word(a, v)
                same_oracle = oracle_class(u[::-1]) == oracle_class(v[::-1])
                assert same_dual == same_oracle, (rx, u, v)


def test_reversal_law_on_small_coalgebras():
    # exact: for every enumerated coalgebra (small carriers, |Sigma| <= 2) and
    # every state, the dual output accepts the reversal of the state language
    checked = 0
    for pair, max_states, alphabet, limit in (
        ("BA", 2, "ab", 60),
        ("JSL0", 3, "ab", 120),
        ("VECT2", 4, "a", 120),
        ("BR", 2, "ab", 60),
        ("DL01", 3, "a", 120),
    ):
        for q in enumerate_coalgebras(pair, alphabet, max_states, limit=limit):
            a = dual_automaton(q)
            for s in range(q.states.size):
                lhs = language_of_output(a, state_output_morphism(q, s))
                rhs = reversal(language_of_state(q, s))
                assert lhs == rhs, (pair, q, s)
                checked += 1
    assert checked > 200


def test_rqcmon_criteria_agree_on_enumerated_coalgebras():
    # is_subcoalgebra_of_rho asserts agreement of its two criteria internally
    seen = 0
    for pair, max_states, alphabet, limit in (
        ("BA", 4, "a", 80),
        ("BA", 4, "ab", 80),
        ("JSL0", 3, "a", 120),
        ("BR", 4, "a", 80),
        ("VECT2", 4, "a", 120),
    ):
        for q in enumerate_coalgebras(pair, alphabet, max_states, limit=limit):
            is_subcoalgebra_of_rho(q)
            seen += 1
    assert seen > 150


def test_p_right_criteria_agree_on_local_variety_candidates():
    # is_local_variety asserts agreement of its two criteria internally
    for rx, pair in (
        ("(aa)*", "BA"),
        ("(ab)*", "JSL0"),
        ("(aa)*", "VECT2"),
        ("a*", "DL01"),
        ("(ab)*", "BR"),
    ):
        q = generated_local_variety(pair, [parse_regex(rx)])
        assert is_local_variety(q)


def test_associated_lalgebra_roundtrip():
    q = ba_parity()
    g = dual_generated_monoid(q)
    assert associated_lalgebra(g) == dual_automaton(q)


def test_local_eilenberg_chain_quotient():
    # trivial variety inside the parity variety: dual monoids are related by a
    # surjective monoid quotient
    q1 = generated_local_variety("BA", [full_language("a")])
    q2 = ba_parity()
    g1 = dual_generated_monoid(q1)
    g2 = dual_generated_monoid(q2)
    assert g1.base.size == 1 and g2.base.size == 2
    # the generator-respecting map g2 -> g1 collapsing everything is a quotient
    table = [0] * g2.base.size
    for x in range(g2.base.size):
        for y in range(g2.base.size):
            assert table[g2.base.mul(x, y)] == g1.base.mul(table[x], table[y])


def test_coalgebra_coproduct_in_ba():
    q1 = ba_parity()
    q2 = generated_local_variety("BA", [full_language("a")])
    cop = coalgebra_coproduct(q1, q2)
    # dual of coproduct = product of duals: 2 * 1 atoms -> 2^2 BA elements
    assert cop.states.size == 4


def test_language_quotient_merges_equal_languages():
    dup_states = make_algebra(
        "BA", 4,
        {"meet": tuple(tuple(x & y for y in range(4)) for x in range(4)),
         "join": tuple(tuple(x | y for y in range(4)) for x in range(4)),
         "not": tuple(3 ^ x for x in range(4)), "zero": 0, "one": 3},
    )
    dup = make_coalgebra("BA", "a", dup_states, {"a": tuple(range(4))}, (0, 1, 0, 1))
    assert not is_subcoalgebra_of_rho(dup)
    epi, quotient = language_quotient(dup)
    assert quotient.states.size == 2
    assert is_subcoalgebra_of_rho(quotient)
    for s in range(4):
        assert language_of_state(dup, s) == language_of_state(quotient, epi[s])


def test_output_value_view():
    from predual.langlib import eval_language

    q = generated_local_variety("JSL0", [parse_regex("(aa)*")])
    a = dual_automaton(q)
    out = state_output_morphism(q, languages_of(q).index(parse_regex("(aa)*")))
    lang = language_of_output(a, out)
    for pairs in ([("aa", 1)], [("a", 1), ("aa", 1)], []):
        x = make_free("JSL0", "a", pairs)
        # the output as a D-morphism on the free D-monoid: out . e_A
        assert out[eval_free(a, x)] == eval_language(lang, x)


def test_eval_free_jsl0():
    q = generated_local_variety("JSL0", [parse_regex("(aa)*")])
    a = dual_automaton(q)
    x = make_free("JSL0", "a", [("a", 1), ("aa", 1)])
    joined = eval_free(a, x)
    j = a.states.op("join")
    assert joined == j[run_word(a, "a")][run_word(a, "aa")]


@pytest.mark.parametrize("pair", ["BA", "DL01", "JSL0", "VECT2", "BR"])
def test_cached_dual_automaton_stays_out_of_equality_hash_and_documents(pair):
    q = generated_local_variety(pair, [parse_regex("(a|b)*a")])
    fresh = loads(dumps(q))
    doc, text = dumps(q), repr(q)
    a = dual_automaton(q)
    assert dual_automaton(q) is a and dual_automaton_inv(a) is dual_automaton_inv(a)
    assert "_dual" in vars(q) and "_dual" in vars(a)
    assert q == fresh and fresh == q and hash(q) == hash(fresh)
    assert dumps(q) == doc == dumps(fresh) and repr(q) == text
    for m, fields in ((q, {"pair", "alphabet", "states", "trans", "out"}),
                      (a, {"pair", "alphabet", "states", "trans", "init"})):
        restored = pickle.loads(pickle.dumps(m))
        assert set(vars(restored)) == fields
        assert restored == m and hash(restored) == hash(m) and repr(restored) == repr(m)


def _coalgebra_homs(src, dst):
    """Every coalgebra homomorphism src -> dst in lexicographic order: the
    outputs and letters checked entry by entry, the C-algebra operations by
    the N^2 reference check."""
    n = src.states.size
    for t in itertools.product(range(dst.states.size), repeat=n):
        if any(dst.out[t[x]] != src.out[x] for x in range(n)) or any(
            t[src.tr(a)[x]] != dst.tr(a)[t[x]] for a in src.alphabet for x in range(n)
        ):
            continue
        if oracle.check_morphism(AlgMorphism(src.states, dst.states, t))[0]:
            yield t


@pytest.mark.parametrize(
    "pair, max_states", [("BA", 4), ("DL01", 3), ("JSL0", 3), ("VECT2", 4), ("BR", 4)]
)
def test_coalgebra_hom_search_returns_the_first_hom_of_the_full_checks(pair, max_states):
    qs = list(enumerate_coalgebras(pair, "ab", max_states))
    sample = qs[:: max(1, len(qs) // 12)]
    found = 0
    for src, dst in itertools.product(sample, repeat=2):
        expected = next(_coalgebra_homs(src, dst), None)
        assert find_coalgebra_hom(src, dst) == expected, (src, dst)
        found += expected is not None
    assert found > 0
