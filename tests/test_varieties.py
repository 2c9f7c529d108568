import pytest

from predual.algebra import StructureError, free_algebra, make_algebra
from predual.automata import (
    dual_generated_monoid,
    generated_local_variety,
    languages_of,
)
from predual.langlib import empty_language, full_language, parse_regex
from predual.monoids import (
    are_dmonoids_isomorphic,
    divides,
    make_dmonoid,
    validate_dmonoid,
)
from predual.varieties import (
    check_eilenberg_simple,
    check_simvargen,
    free_monoid_in_simple_pseudovariety,
    languages_of_simple_pseudovariety,
    recognized_languages,
    representative_morphisms,
    simple_variety_languages,
)


def z2_group():
    return make_dmonoid(make_algebra("SET", 2, {}), ((0, 1), (1, 0)), 0)


def trivial_monoid():
    return make_dmonoid(make_algebra("SET", 1, {}), ((0,),), 0)


def three_with_zero():
    return make_dmonoid(make_algebra("SET", 3, {}), ((0, 1, 2), (1, 2, 2), (2, 2, 2)), 0)


def test_simple_variety_languages_relabels_parity():
    q = generated_local_variety("BA", [parse_regex("(aa)*")])
    v = simple_variety_languages(q, "b")
    assert set(languages_of(v)) == {
        empty_language("b"),
        parse_regex("(bb)*", "b"),
        parse_regex("b(bb)*", "b"),
        parse_regex("b*", "b"),
    }


def test_simple_variety_of_trivial_generator():
    q = generated_local_variety("BA", [empty_language("a")])
    v = simple_variety_languages(q, "b")
    assert set(languages_of(v)) == {empty_language("b"), full_language("b")}


def test_simple_variety_contains_generator_at_own_alphabet():
    q = generated_local_variety("BA", [parse_regex("(aa)*")])
    v = simple_variety_languages(q, "a")
    assert set(languages_of(q)) <= set(languages_of(v))


def test_representative_morphisms_cover_transition_monoid():
    q = generated_local_variety("BA", [parse_regex("(aa)*")])
    fs = representative_morphisms(q, "b")
    assert len(fs) == 2  # order-2 transition monoid


def test_preimage_independent_of_representative_choice():
    # words with equal transition-monoid action yield identical preimages
    from predual.langlib import free_word, make_free_morphism
    from predual.preimage import coalgebra_preimage

    q = generated_local_variety("BA", [parse_regex("(aa)*")])
    for w1, w2 in (("a", "aaa"), ("", "aa"), ("aa", "aaaa")):
        f1 = make_free_morphism("SET", "b", "a", {"b": free_word("SET", "a", w1)})
        f2 = make_free_morphism("SET", "b", "a", {"b": free_word("SET", "a", w2)})
        assert coalgebra_preimage(q, f1) == coalgebra_preimage(q, f2)


def test_free_monoid_z2_on_one_generator():
    g = free_monoid_in_simple_pseudovariety(z2_group(), "a")
    assert g.base.size == 2
    assert validate_dmonoid(g.base) == []
    x = g.gen("a")
    assert g.base.mul(x, x) == g.base.unit


def test_free_monoid_trivial():
    g = free_monoid_in_simple_pseudovariety(trivial_monoid(), "a")
    assert g.base.size == 1


def test_free_monoid_three_with_zero():
    g = free_monoid_in_simple_pseudovariety(three_with_zero(), "a")
    assert g.base.size == 3
    x = g.gen("a")
    z = g.base.mul(x, x)
    assert g.base.mul(z, x) == z  # absorbing zero reached at x^2


def test_free_monoid_z2_on_two_generators_is_klein_four():
    g = free_monoid_in_simple_pseudovariety(z2_group(), "ab")
    assert g.base.size == 4
    a, b = g.gen("a"), g.gen("b")
    assert g.base.mul(a, a) == g.base.unit
    assert g.base.mul(a, b) == g.base.mul(b, a)


def test_free_monoid_of_a_table_that_leaves_the_d_closure_is_a_structure_error():
    # the D-closure of the words is closed under a multiplication that
    # distributes over join; this one does not (nor is it associative)
    chain = make_algebra(
        "JSL0", 3, {"join": tuple(tuple(max(x, y) for y in range(3)) for x in range(3)), "zero": 0}
    )
    bad = make_dmonoid(chain, ((0, 2, 0), (0, 1, 1), (0, 1, 2)), 2)
    with pytest.raises(StructureError, match="does not distribute over the D-operations"):
        free_monoid_in_simple_pseudovariety(bad, "a")


def test_languages_of_simple_pseudovariety_z2_parity():
    v = languages_of_simple_pseudovariety(z2_group(), "a", "BA")
    assert set(languages_of(v)) == {
        empty_language("a"),
        parse_regex("(aa)*"),
        parse_regex("a(aa)*"),
        parse_regex("a*"),
    }


def test_languages_of_simple_pseudovariety_trivial():
    v = languages_of_simple_pseudovariety(trivial_monoid(), "a", "BA")
    assert set(languages_of(v)) == {empty_language("a"), full_language("a")}


def test_languages_of_simple_pseudovariety_z2_two_letters():
    # boolean combinations of the two letter-count parities: 16 languages
    v = languages_of_simple_pseudovariety(z2_group(), "ab", "BA")
    assert len(languages_of(v)) == 16
    even_a = parse_regex("(b|ab*a)*", "ab")  # even number of a's
    assert even_a in set(languages_of(v))


def test_pfin_dual_monoid_matches_free_monoid():
    free = free_monoid_in_simple_pseudovariety(z2_group(), "a")
    v = languages_of_simple_pseudovariety(z2_group(), "a", "BA")
    g = dual_generated_monoid(v)
    assert are_dmonoids_isomorphic(g.base, free.base) is not None


def test_recognized_languages_count_z2():
    free = free_monoid_in_simple_pseudovariety(z2_group(), "a")
    langs = recognized_languages(free, "BA")
    assert len(langs) == 4


def test_check_eilenberg_spot_values():
    report = check_eilenberg_simple(
        z2_group(), "BA", ["(aa)*", "(ab)*", "a*"], n_max=2
    )
    assert report["mismatches"] == [] and report["inconclusive"] == []
    # and the underlying verdicts are the expected ones
    q_parity = generated_local_variety("BA", [parse_regex("(aa)*")])
    assert divides(dual_generated_monoid(q_parity), z2_group(), 2) is True
    q_ab = generated_local_variety("BA", [parse_regex("(ab)*")])
    assert divides(dual_generated_monoid(q_ab), z2_group(), 2) is False
    report_triv = check_eilenberg_simple(
        trivial_monoid(), "BA", ["(a|b)*", ("∅", "a")], 2
    )
    assert report_triv["mismatches"] == []


def test_v_at_freeness_bounded():
    # every D-monoid dividing the generator receives a unique factorization of
    # any generator assignment through the free monoid of the variety
    free = free_monoid_in_simple_pseudovariety(z2_group(), "a")
    m = z2_group()
    assert divides(m, z2_group(), 1) is True
    from predual.monoids import eval_in_dmonoid
    from predual.langlib import free_word

    for image in range(m.size):
        # the induced morphism from the free monoid: e(w) -> value of w in m
        seen = {}
        ok = True
        for elem, fe in free.reprs:
            value = eval_in_dmonoid(m, {"a": image}, fe)
            if elem in seen and seen[elem] != value:
                ok = False
            seen[elem] = value
        assert ok  # well-defined factorization through the free monoid


def test_monotonicity_of_language_sets():
    small = languages_of_simple_pseudovariety(z2_group(), "a", "BA")
    from predual.monoids import dmonoid_product

    prod, _ = dmonoid_product(z2_group(), trivial_monoid())
    bigger = languages_of_simple_pseudovariety(prod, "a", "BA")
    assert set(languages_of(small)) <= set(languages_of(bigger))


def test_recognizes_language_agrees_with_variety_membership():
    from predual.varieties import recognizes_language

    for d, pair in ((z2_group(), "BA"), (three_with_zero(), "BA")):
        free = free_monoid_in_simple_pseudovariety(d, "a")
        v = set(languages_of(languages_of_simple_pseudovariety(d, "a", pair)))
        for rx in ["(aa)*", "a*", "a", "aa", "(aaa)*", "aa*"]:
            lang = parse_regex(rx)
            assert recognizes_language(free, pair, lang) == (lang in v), (rx,)


def test_check_simvargen_parity_roundtrip():
    q = generated_local_variety("BA", [parse_regex("(aa)*")])
    report = check_simvargen("BA", q, "a", "ab")
    assert report["ok"]


def test_check_simvargen_trivial_family():
    q = generated_local_variety("BA", [empty_language("a")])
    report = check_simvargen("BA", q, "a", "ab")
    assert report["ok"]


def test_check_simvargen_detects_truncated_family():
    family = [parse_regex("(aa)*"), parse_regex("a*")]  # not closed: no empty
    report = check_simvargen("BA", family, "a", "ab")
    assert not report["ok"]
    assert report["gap"]
