import itertools
import pickle
import random

import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import identity_free_morphism, language_op

from predual.algebra import CapExceeded, StructureError, signature, vect_prime
from predual.langlib import (
    DMonoidMorphismFree,
    RegexSyntaxError,
    apply_free,
    closure_under_ops_and_derivs,
    complement,
    empty_language,
    eval_language,
    free_combine,
    free_mul,
    free_word,
    free_zero,
    full_language,
    intersection,
    language_to_regex,
    left_deriv,
    make_free,
    make_free_morphism,
    make_series,
    minimize_series,
    parse_regex,
    preimage_language,
    rev_free,
    reversal,
    right_deriv,
    series_of_language,
    series_preimage,
    symmetric_difference,
    union,
)
from predual.monoids import dagger_free
from predual.serialize import dumps


def words_upto(alphabet, n):
    for k in range(n + 1):
        for tup in itertools.product(alphabet, repeat=k):
            yield "".join(tup)


def test_parse_ab_star_is_three_states():
    l = parse_regex("(ab)*")
    assert l.alphabet == ("a", "b") and l.size == 3
    assert l.accepts("") and l.accepts("abab") and not l.accepts("aba")


def test_parse_complement_of_empty_is_full():
    l = parse_regex("~∅", alphabet="ab")
    assert l.size == 1 and l.accepts("") and l.accepts("ba")


def test_parse_aa_star_two_states():
    l = parse_regex("(aa)*")
    assert l.size == 2
    assert l.accepts("aa") and not l.accepts("a")


def test_parse_errors_are_positional():
    with pytest.raises(RegexSyntaxError) as e:
        parse_regex("(ab")
    assert e.value.pos == 0
    with pytest.raises(RegexSyntaxError) as e:
        parse_regex("a|*b")
    assert e.value.pos == 2
    with pytest.raises(RegexSyntaxError) as e:
        parse_regex("a(b|c)*", "ab")
    assert e.value.pos == 4


def test_equivalent_regexes_share_canonical_form():
    pairs = [
        ("(a|b)*", "~∅"),
        ("a(ba)*", "(ab)*a"),
        ("(aa)*|a(aa)*", "a*"),
        ("~(~a&~b)", "a|b"),
        ("(a|b)(a|b)*", "(a|b)*(a|b)"),
    ]
    for x, y in pairs:
        assert parse_regex(x, "ab") == parse_regex(y, "ab")


def test_derivative_examples():
    ab = parse_regex("(ab)*")
    assert left_deriv(ab, "a") == parse_regex("b(ab)*")
    assert right_deriv(ab, "a") == empty_language("ab")
    assert right_deriv(ab, "b") == parse_regex("(ab)*a")
    full = full_language("ab")
    assert left_deriv(full, "a") == full


def test_derivative_membership_law():
    corpus = ["(ab)*", "(aa)*", "a*b*", "(a|b)*a", "ab", "∅"]
    for rx in corpus:
        l = parse_regex(rx, "ab")
        for a in "ab":
            dl = left_deriv(l, a)
            dr = right_deriv(l, a)
            for w in words_upto("ab", 6):
                assert dl.accepts(w) == l.accepts(a + w)
                assert dr.accepts(w) == l.accepts(w + a)


def test_right_deriv_agrees_with_reversal_route():
    for rx in ["(ab)*", "(aa|bb)*", "a*b*"]:
        l = parse_regex(rx, "ab")
        for a in "ab":
            via_rev = reversal(left_deriv(reversal(l), a))
            assert right_deriv(l, a) == via_rev


def test_language_ops():
    l = parse_regex("(ab)*")
    assert symmetric_difference(l, l) == empty_language("ab")
    aa = parse_regex("(aa)*")
    odd = parse_regex("a(aa)*")
    assert union(aa, odd) == parse_regex("a*")
    assert complement(empty_language("ab")) == full_language("ab")
    assert language_op("BA", "join", [aa, odd]) == parse_regex("a*")
    with pytest.raises(StructureError):
        language_op("JSL0", "not", [l])


def test_eval_language_per_tag():
    aa = parse_regex("(aa)*")
    x = make_free("JSL0", "a", [("a", 1), ("aa", 1)])
    assert eval_language(aa, x) == 1
    y = make_free("VECT2", "a", [("", 1), ("aa", 1)])
    assert eval_language(aa, y) == 0  # two member words, even
    z = free_zero("SET_STAR", "a")
    assert eval_language(aa, z) == 0
    w = free_word("SET", "a", "aa")
    assert eval_language(aa, w) == 1


def test_reversal_and_rev_free():
    assert reversal(parse_regex("(ab)*")) == parse_regex("(ba)*")
    x = make_free("JSL0", "ab", [("ab", 1), ("a", 1)])
    assert rev_free(x) == make_free("JSL0", "ab", [("ba", 1), ("a", 1)])
    for rx in ["(ab)*", "a*b*", "(a|b)*a"]:
        l = parse_regex(rx, "ab")
        assert reversal(reversal(l)) == l


def test_free_mul_examples():
    a = make_free("JSL0", "a", [("a", 1)])
    ea = make_free("JSL0", "a", [("", 1), ("a", 1)])
    assert free_mul(a, ea) == make_free("JSL0", "a", [("a", 1), ("aa", 1)])
    v = make_free("VECT2", "a", [("", 1), ("a", 1)])
    assert free_mul(v, v) == make_free("VECT2", "a", [("", 1), ("aa", 1)])
    z = free_zero("SET_STAR", "a")
    w = free_word("SET_STAR", "a", "a")
    assert free_mul(z, w) == z and free_mul(w, z) == z


def test_preimage_set_tag():
    f = make_free_morphism(
        "SET", "b", "ab", {"b": free_word("SET", "ab", "ab")}
    )
    assert preimage_language(parse_regex("(ab)*"), f) == parse_regex("b*", "b")


def test_preimage_jsl0_tag():
    f = make_free_morphism(
        "JSL0", "b", "a", {"b": make_free("JSL0", "a", [("a", 1), ("aa", 1)])}
    )
    assert preimage_language(parse_regex("(aa)*"), f) == parse_regex("b*", "b")


def test_preimage_set_star_zero_image():
    f = make_free_morphism("SET_STAR", "b", "a", {"b": free_zero("SET_STAR", "a")})
    aa = parse_regex("(aa)*")
    assert preimage_language(aa, f) == parse_regex("ε", "b")
    a_odd = parse_regex("a(aa)*")
    assert preimage_language(a_odd, f) == empty_language("b")


def test_preimage_agrees_with_wordwise_eval():
    corpus = {
        "SET": [("b", "ab", {"b": ("ab",)}), ("bc", "ab", {"b": ("a",), "c": ("ba",)})],
        "JSL0": [("b", "a", {"b": ("a", "aa")}), ("bc", "ab", {"b": ("a",), "c": ("b", "ab")})],
        "VECT2": [("b", "a", {"b": ("", "a")}), ("bc", "ab", {"b": ("a",), "c": ("b", "ab")})],
        "SET_STAR": [("bc", "ab", {"b": ("ab",), "c": ()})],
    }
    langs = ["(ab)*", "(aa)*", "a*b*", "(a|b)*a"]
    for tag, fs in corpus.items():
        for src, tgt, images in fs:
            f = make_free_morphism(
                tag,
                src,
                tgt,
                {
                    b: (
                        make_free(tag, tgt, [(w, 1) for w in ws])
                        if (ws or tag not in ("SET_STAR",))
                        else free_zero(tag, tgt)
                    )
                    for b, ws in images.items()
                },
            )
            for rx in langs:
                try:
                    l = parse_regex(rx, tgt)
                except RegexSyntaxError:
                    continue  # regex letters outside this target alphabet
                pre = preimage_language(l, f)
                for w in words_upto(src, 6):
                    x = free_word(tag, src, w)
                    assert pre.accepts(w) == (eval_language(l, apply_free(f, x)) == 1), (
                        tag, rx, w,
                    )


D_TAGS = ("SET", "POS", "SET_STAR", "JSL0", "VECT2", "VECT3", "VECT5")


def _regexes(alphabet, depth):
    """Regexes over alphabet of nesting depth at most depth."""
    if depth == 0:
        return st.sampled_from(list(alphabet) + ["ε", "∅"])
    sub = _regexes(alphabet, depth - 1)
    return st.one_of(
        sub,
        st.builds("({}{})".format, sub, sub),
        st.builds("({}|{})".format, sub, sub),
        st.builds("({})*".format, sub),
        st.builds("~({})".format, sub),
    )


@st.composite
def _free_morphisms(draw):
    """(tag, target alphabet, pair lists of the images, morphism): one
    random free D-monoid morphism, with images given as (word, coefficient)
    lists that make_free has to canonicalize (repeated words, coefficients
    summing to zero)."""
    tag = draw(st.sampled_from(D_TAGS))
    source = draw(st.sampled_from(["b", "bc"]))
    target = draw(st.sampled_from(["a", "ab"]))
    p = vect_prime(tag)
    size = {"SET": (1, 1), "POS": (1, 1), "SET_STAR": (0, 1)}.get(tag, (0, 3))
    coefficient = st.integers(1, p - 1) if p else st.just(1)
    pair = st.tuples(st.text(target, max_size=3), coefficient)
    images = {b: draw(st.lists(pair, min_size=size[0], max_size=size[1])) for b in source}
    f = make_free_morphism(
        tag, source, target, {b: make_free(tag, target, ps) for b, ps in images.items()}
    )
    return tag, target, images, f


def _outcome(fn, *args):
    try:
        return fn(*args)
    except CapExceeded as e:
        return str(e)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_free_morphisms(), st.data())
def test_free_elements_and_preimages_agree_with_the_per_tag_rules(morphism, data):
    tag, target, images, f = morphism
    l = parse_regex(data.draw(_regexes(target, 2)), target)
    for b, fe in f.images:
        assert fe == oracle.make_free(tag, target, images[b])
        assert eval_language(l, fe) == oracle.eval_language(l, fe)
        for _, ge in f.images:
            assert free_mul(fe, ge) == oracle.free_mul(fe, ge)
    if tag not in ("SET", "POS", "SET_STAR"):  # JSL0 joins, VECT(p) weighs
        weighted = [(fe, k + 2 if vect_prime(tag) else 1) for k, (_, fe) in enumerate(f.images)]
        assert free_combine(tag, target, weighted) == oracle.free_combine(tag, target, weighted)
    dagger = dagger_free(f)
    assert dagger is dagger_free(f)
    assert dagger == make_free_morphism(
        tag, f.source_alphabet, target, {b: rev_free(fe) for b, fe in f.images}
    )
    for b, fe in dagger.images:
        assert fe == oracle.make_free(tag, target, [(w[::-1], c) for w, c in images[b]])
    pre = _outcome(preimage_language, l, f)
    assert pre == _outcome(oracle.preimage_language, l, f)
    for w in words_upto(f.source_alphabet, 5):
        x = free_word(tag, f.source_alphabet, w)
        fx = apply_free(f, x)
        assert fx == oracle.apply_free(f, x)
        value = eval_language(l, fx)
        assert value == oracle.eval_language(l, fx)
        if not isinstance(pre, str):
            assert pre.accepts(w) == (value == 1), (tag, w)


@pytest.mark.parametrize(
    "tag, pairs, message",
    [("XX", [("a", 1)], "tag XX has no free monoid here"),
     ("JSL0", [("a", 2)], "coefficients must be 1 for this tag")],
)
def test_a_single_pair_is_still_validated(tag, pairs, message):
    with pytest.raises(StructureError, match=message):
        make_free(tag, "a", pairs)


def test_a_single_pair_is_canonical_with_coefficient_one():
    assert make_free("VECT2", "a", [("a", 3)]).pairs == (("a", 1),)
    assert make_free("VECT3", "a", [("a", 3)]).pairs == ()
    assert make_free("JSL0", "ab", [("ba", 1)]).pairs == (("ba", 1),)


def test_apply_free_multiplicativity():
    f = make_free_morphism(
        "JSL0", "b", "a", {"b": make_free("JSL0", "a", [("a", 1), ("aa", 1)])}
    )
    bb = free_word("JSL0", "b", "bb")
    assert apply_free(f, bb) == make_free(
        "JSL0", "a", [("aa", 1), ("aaa", 1), ("aaaa", 1)]
    )
    ident = identity_free_morphism("SET", "ab")
    w = free_word("SET", "ab", "abba")
    assert apply_free(ident, w) == w


def test_closure_ba_of_even_a():
    langs = closure_under_ops_and_derivs("BA", [parse_regex("(aa)*")])
    assert len(langs) == 4
    expected = {
        parse_regex("(aa)*"),
        parse_regex("a(aa)*"),
        parse_regex("a*"),
        empty_language("a"),
    }
    assert set(langs) == expected


def test_closure_tables_match_the_language_operations():
    for tag in ("BA", "DL01", "JSL0", "VECT2", "BR"):
        langs = closure_under_ops_and_derivs(tag, [parse_regex("a*b")])
        index = {l: i for i, l in enumerate(langs)}
        for name, arity in signature(tag).items():
            if arity == 0:
                want = index[language_op(tag, name, langs[:1])]
            elif arity == 1:
                want = tuple(index[language_op(tag, name, [l])] for l in langs)
            else:
                want = tuple(
                    tuple(index[language_op(tag, name, [l1, l2])] for l2 in langs)
                    for l1 in langs
                )
            assert langs.ops[name] == want, (tag, name)
        for a in langs[0].alphabet:
            assert langs.trans[a] == tuple(index[left_deriv(l, a)] for l in langs)


def test_closure_jsl0_of_empty_is_singleton():
    langs = closure_under_ops_and_derivs("JSL0", [empty_language("a")])
    assert langs == [empty_language("a")]


def test_closure_vect2_is_a_gf2_span():
    langs = closure_under_ops_and_derivs("VECT2", [parse_regex("(aa)*")])
    assert len(langs) == 4  # dimension 2: span of (aa)* and a(aa)*
    assert parse_regex("a*") in set(langs)
    # power of two and xor-closed
    for l1 in langs:
        for l2 in langs:
            assert symmetric_difference(l1, l2) in set(langs)


def test_language_to_regex_roundtrip():
    for rx in ["(ab)*", "(aa)*", "a*b*", "(a|b)*a", "∅", "ε"]:
        l = parse_regex(rx, "ab")
        assert parse_regex(language_to_regex(l), "ab") == l


# -- series ------------------------------------------------------------------


def test_series_characteristic_values():
    aa = parse_regex("(aa)*")
    s = series_of_language(aa, 2)
    assert s.dim == 2
    for w in words_upto("a", 8):
        assert s.value(w) == (1 if aa.accepts(w) else 0)


def test_series_minimization_preserves_values():
    rng = random.Random(7)
    for p in (2, 3):
        for _ in range(10):
            dim = rng.randint(1, 4)
            alphabet = "ab"
            mats = {
                a: [[rng.randrange(p) for _ in range(dim)] for _ in range(dim)]
                for a in alphabet
            }
            init = [rng.randrange(p) for _ in range(dim)]
            out = [rng.randrange(p) for _ in range(dim)]
            s = make_series(p, alphabet, init, mats, out)
            m = minimize_series(s)
            assert m.dim <= s.dim
            for w in words_upto(alphabet, 2 * dim):
                assert s.value(w) == m.value(w), (p, w)


def test_series_preimage_identity_substitution():
    aa = parse_regex("(aa)*")
    s = series_of_language(aa, 2)
    f = make_free_morphism("VECT2", "b", "a", {"b": free_word("VECT2", "a", "a")})
    pre = series_preimage(s, f)
    for n in range(9):
        assert pre.value("b" * n) == s.value("a" * n)


def test_series_preimage_binomial_parities():
    # f(b) = eps + a: value on b^n is sum_k C(n,k) * [k even] mod 2
    aa = parse_regex("(aa)*")
    s = series_of_language(aa, 2)
    f = make_free_morphism(
        "VECT2", "b", "a", {"b": make_free("VECT2", "a", [("", 1), ("a", 1)])}
    )
    pre = series_preimage(s, f)
    import math

    for n in range(9):
        expected = sum(math.comb(n, k) for k in range(0, n + 1, 2)) % 2
        assert pre.value("b" * n) == expected


def test_series_preimage_matches_sum_formula():
    # beta'(w) = sum_v f*(w)(v) * beta(v), evaluated by brute force
    rng = random.Random(11)
    for p in (2, 3):
        tag = f"VECT{p}"
        dim = 3
        mats = {
            "a": [[rng.randrange(p) for _ in range(dim)] for _ in range(dim)],
            "b": [[rng.randrange(p) for _ in range(dim)] for _ in range(dim)],
        }
        s = make_series(
            p,
            "ab",
            [rng.randrange(p) for _ in range(dim)],
            mats,
            [rng.randrange(p) for _ in range(dim)],
        )
        f = make_free_morphism(
            tag,
            "c",
            "ab",
            {"c": make_free(tag, "ab", [("a", 1), ("b", p - 1), ("ab", 1)])},
        )
        pre = series_preimage(s, f)
        for n in range(0, 9):
            w = "c" * n
            img = free_word(tag, "c", w)
            fx = apply_free(f, img)
            brute = sum(c * s.value(v) for v, c in fx.pairs) % p
            assert pre.value(w) == brute


def test_zero_series_preimage_is_zero():
    s = make_series(2, "a", [0], {"a": [[1]]}, [0])
    f = make_free_morphism("VECT2", "b", "a", {"b": free_word("VECT2", "a", "aa")})
    pre = series_preimage(s, f)
    assert all(pre.value("b" * n) == 0 for n in range(6))


def test_cached_free_images_stay_out_of_equality_hash_and_documents():
    images = {"b": make_free("VECT2", "ab", [("a", 1), ("ab", 1)]),
              "c": free_word("VECT2", "ab", "b")}
    f = make_free_morphism("VECT2", "bc", "ab", images)
    fresh = make_free_morphism("VECT2", "bc", "ab", dict(images))
    doc, text = dumps(f), repr(f)
    x = make_free("VECT2", "bc", [("bc", 1), ("c", 1)])
    assert apply_free(f, x) is apply_free(f, make_free("VECT2", "bc", [("c", 1), ("bc", 1)]))
    assert dagger_free(f) is dagger_free(f)
    assert {"_applied", "_word_images", "_dagger"} <= set(vars(f))
    assert f == fresh and hash(f) == hash(fresh)
    assert dumps(f) == doc == dumps(fresh) and repr(f) == text
    restored = pickle.loads(pickle.dumps(f))
    assert set(vars(restored)) == {"tag", "source_alphabet", "target_alphabet", "images"}
    assert restored == f and hash(restored) == hash(f)
