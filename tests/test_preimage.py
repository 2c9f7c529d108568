import dataclasses
import pickle
from collections import Counter

import oracle
import pytest

from predual import automata, duality, langlib, preimage
from predual.algebra import make_algebra
from predual.automata import (
    dual_automaton,
    dual_automaton_inv,
    generated_local_variety,
    language_of_state,
    make_lalgebra,
)
from predual.langlib import (
    free_word,
    free_zero,
    make_free,
    make_free_morphism,
    parse_regex,
    preimage_language,
)
from predual.monoids import dagger_free
from predual.preimage import (
    SEED_REGEXES,
    algebra_preimage,
    alpha_x,
    check_preimage_laws,
    check_tpre_family,
    LAWS,
    coalgebra_preimage,
    default_corpus,
    default_morphisms,
)
from predual.duality import d_tag
from predual.serialize import dumps, loads

from oracle import identity_free_morphism, run_word_co


def two_cycle_set_lalgebra():
    return make_lalgebra("BA", "a", make_algebra("SET", 2, {}), {"a": (1, 0)}, 0)


def test_alpha_x_epsilon_is_identity():
    a = two_cycle_set_lalgebra()
    assert alpha_x(a, free_word("SET", "a", "")) == (0, 1)


def test_alpha_x_word_composition_order():
    states = make_algebra("SET", 3, {})
    a = make_lalgebra(
        "BA", "ab", states, {"a": (1, 2, 0), "b": (0, 0, 0)}, 0
    )
    t = alpha_x(a, free_word("SET", "ab", "ab"))
    # alpha_ab = alpha_b . alpha_a
    ta, tb = (1, 2, 0), (0, 0, 0)
    assert t == tuple(tb[ta[s]] for s in range(3))


def test_alpha_x_jsl0_join_of_actions():
    chain = make_algebra("JSL0", 3, {
        "join": tuple(tuple(max(x, y) for y in range(3)) for x in range(3)),
        "zero": 0})
    a = make_lalgebra("JSL0", "ab", chain, {"a": (0, 0, 2), "b": (0, 1, 1)}, 0)
    x = make_free("JSL0", "ab", [("a", 1), ("b", 1)])
    t = alpha_x(a, x)
    assert t == tuple(max(u, v) for u, v in zip((0, 0, 2), (0, 1, 1)))


def test_algebra_preimage_identity():
    a = two_cycle_set_lalgebra()
    assert algebra_preimage(a, identity_free_morphism("SET", "a")) == a


def test_algebra_preimage_square_of_swap():
    a = two_cycle_set_lalgebra()
    f = make_free_morphism("SET", "b", "a", {"b": free_word("SET", "a", "aa")})
    assert algebra_preimage(a, f).tr("b") == (0, 1)


def test_algebra_preimage_set_star_zero():
    star = make_algebra("SET_STAR", 3, {"point": 0})
    a = make_lalgebra("BR", "a", star, {"a": (0, 2, 1)}, 1)
    f = make_free_morphism("SET_STAR", "b", "a", {"b": free_zero("SET_STAR", "a")})
    assert algebra_preimage(a, f).tr("b") == (0, 0, 0)


def test_coalgebra_preimage_matches_letter_substitution():
    # f = Psi of a letter substitution: transitions become gamma_{h(b)}
    q = generated_local_variety("BA", [parse_regex("(ab)*")])
    f = make_free_morphism(
        "SET", "xy", "ab",
        {"x": free_word("SET", "ab", "b"), "y": free_word("SET", "ab", "a")},
    )
    qf = coalgebra_preimage(q, f)
    assert qf.tr("x") == q.tr("b") and qf.tr("y") == q.tr("a")
    assert qf.out == q.out


def test_coalgebra_preimage_word_image_composes():
    # gamma^f_b = gamma_{f(b)} = gamma_b . gamma_a for f(b') = ab
    q = generated_local_variety("BA", [parse_regex("(ab)*")])
    f = make_free_morphism("SET", "c", "ab", {"c": free_word("SET", "ab", "ab")})
    qf = coalgebra_preimage(q, f)
    composed = run_word_co(q, "ab").table
    assert qf.tr("c") == composed
    # spot value: the (ab)*-state of Q^f accepts c*
    s = [language_of_state(q, i) for i in range(q.states.size)].index(
        parse_regex("(ab)*")
    )
    assert language_of_state(qf, s) == parse_regex("c*", "c")


def test_coalgebra_preimage_jsl0_pointwise_join():
    q = generated_local_variety("JSL0", [parse_regex("(aa)*")])
    f = make_free_morphism(
        "JSL0", "b", "a", {"b": make_free("JSL0", "a", [("a", 1), ("aa", 1)])}
    )
    qf = coalgebra_preimage(q, f)
    ga = q.tr("a")
    gaa = run_word_co(q, "aa").table
    join = q.states.op("join")
    assert qf.tr("b") == tuple(join[x][y] for x, y in zip(ga, gaa))


def test_coalgebra_preimage_br_zero_is_zero_map():
    q = generated_local_variety("BR", [parse_regex("(ab)*")])
    f = make_free_morphism(
        "SET_STAR", "c", "ab", {"c": free_zero("SET_STAR", "ab")}
    )
    qf = coalgebra_preimage(q, f)
    zero = q.states.op("zero")
    assert qf.tr("c") == tuple(zero for _ in range(q.states.size))


def test_coalgebra_preimage_functorial_identities():
    q = generated_local_variety("BA", [parse_regex("(aa)*")])
    ident = identity_free_morphism("SET", "a")
    assert coalgebra_preimage(q, ident) == q


def test_lrev_spot_value_palindromic():
    q = generated_local_variety("BA", [parse_regex("(aa)*")])
    from predual.automata import language_of_output, state_output_morphism

    s = [language_of_state(q, i) for i in range(q.states.size)].index(
        parse_regex("(aa)*")
    )
    a = dual_automaton(q)
    assert language_of_output(a, state_output_morphism(q, s)) == parse_regex("(aa)*")


def test_tpre_families():
    for pair in ("BA", "JSL0"):
        result = check_tpre_family(pair)
        assert result["checked"] > 0
        assert result["witness"] is None


def test_check_preimage_laws_smoke():
    # small corpus: two varieties per pair, a few morphisms
    corpus = default_corpus(pairs=("BA", "JSL0"))
    for pair in corpus:
        corpus[pair]["varieties"] = corpus[pair]["varieties"][:6]
    report = check_preimage_laws(corpus, state_cap=6)
    for law, entry in report.items():
        assert entry["status"] == "holds", (law, entry["witness"])
        assert entry["checked"] > 0, law


LAW_SEEDS = {"a": ["(aa)*", "a*", "a"], "ab": ["(a|b)*a"]}


@pytest.mark.parametrize("pair", ["JSL0", "DL01", "VECT2"])
def test_law_battery_dualizes_each_morphism_and_automaton_once(monkeypatch, pair):
    """The battery dualizes each morphism once per source algebra instance,
    target and table, and each coalgebra instance once, however often it
    asks (the parent built 3,928 dual morphisms on the three corpora).
    Selectors out of the pair's cached 1_C and 1_D are dualized once per
    states instance and element: their output tables are kept on the states
    algebra, not on the constants, which would then keep every states
    algebra alive."""
    kept_alive, morphisms, selectors, coalgebras = [], Counter(), Counter(), []
    build_morphism = duality._build_dual_morphism
    build_automaton = automata._build_dual_automaton
    bundle = duality.canonical_constants(pair)

    def count_morphism(pair, h):
        kept_alive.append(h)  # so no two algebras share an id
        if h.source is bundle.one_C or h.source is bundle.one_D:
            selectors[id(h.source), id(h.target), h.table] += 1
        else:
            morphisms[id(h.source), h.target, h.table] += 1
        return build_morphism(pair, h)

    def count_automaton(q):
        coalgebras.append(q)
        return build_automaton(q)

    monkeypatch.setattr(duality, "_build_dual_morphism", count_morphism)
    monkeypatch.setattr(automata, "_build_dual_automaton", count_automaton)
    corpus = {pair: {
        "varieties": [(rx, generated_local_variety(pair, [parse_regex(rx, alphabet)]))
                      for alphabet, rxs in LAW_SEEDS.items() for rx in rxs],
        "morphisms": default_morphisms(d_tag(pair)),
    }}
    report = check_preimage_laws(corpus)
    assert all(entry["status"] == "holds" for entry in report.values())
    assert morphisms and set(morphisms.values()) == {1}
    assert selectors and set(selectors.values()) == {1}
    for constant in (bundle.one_C, bundle.one_D):
        kept = vars(constant).get("_dual_morphisms", {})
        assert {target for _, target, _ in kept} <= {bundle.O_C}
    assert coalgebras and len({id(q) for q in coalgebras}) == len(coalgebras)


def test_law_battery_builds_each_word_image_and_dagger_once(monkeypatch):
    """On the JSL0 law corpus each product that apply_free makes is the image
    of a new (morphism instance, word): a word's image is kept on the
    morphism and extends the kept image of its longest proper prefix (the
    parent multiplied every word out from the unit for each new element).
    Daggers are kept on the morphism too, and tpre reads the corpus's own
    morphisms instead of building default_morphisms again."""
    kept_alive, words, products, rebuilt = [], set(), [], []
    build_apply, mul, defaults = langlib._build_apply_free, langlib.free_mul, default_morphisms

    def record_apply(f, x):
        kept_alive.append(f)  # so no two morphisms share an id
        words.update((id(f), w[:i]) for w, _ in x.pairs for i in range(1, len(w) + 1))
        return build_apply(f, x)

    def count_mul(x, y):
        products.append((x, y))
        return mul(x, y)

    def count_defaults(tag):
        rebuilt.append(tag)
        return defaults(tag)

    monkeypatch.setattr(langlib, "_build_apply_free", record_apply)
    monkeypatch.setattr(langlib, "free_mul", count_mul)
    monkeypatch.setattr(preimage, "default_morphisms", count_defaults)
    corpus = {"JSL0": {
        "varieties": [(rx, generated_local_variety("JSL0", [parse_regex(rx, alphabet)]))
                      for alphabet, rxs in LAW_SEEDS.items() for rx in rxs],
        "morphisms": defaults("JSL0"),
    }}
    report = check_preimage_laws(corpus)
    assert all(entry["status"] == "holds" for entry in report.values())
    assert report["tpre"]["checked"] > 0 and not rebuilt
    assert words and len(products) == len(words)
    for f in corpus["JSL0"]["morphisms"]:
        assert dagger_free(f) is dagger_free(f)


@pytest.mark.parametrize("pair", ["BA", "DL01", "JSL0", "VECT2", "BR"])
def test_kept_transitions_are_shared_on_the_carrier_and_stay_out_of_documents(pair):
    """Dual, reindexed and relabelled transitions are kept on the state
    algebra by value: equal but distinct automata on one carrier get the
    identical tuple, and the carrier's equality, hash, document and pickle
    still see only its four fields."""
    q = generated_local_variety(pair, [parse_regex("(a|b)*a")])
    a = dual_automaton(q)
    f = default_morphisms(d_tag(pair))[5]  # a morphism into {a, b}
    twins = [
        dataclasses.replace(a, trans=tuple((x, tuple(list(t))) for x, t in a.trans))
        for _ in range(2)
    ]
    assert twins[0] == twins[1] == a and twins[0].trans is not twins[1].trans
    duals = [dual_automaton_inv(t) for t in twins]
    assert duals[0] is not duals[1] and duals[0].trans is duals[1].trans
    reindexed = [algebra_preimage(t, f) for t in twins]
    assert reindexed[0] is not reindexed[1] and reindexed[0].trans is reindexed[1].trans
    qfs = [coalgebra_preimage(q, f), coalgebra_preimage(dataclasses.replace(q), f)]
    assert qfs[0] == qfs[1] and qfs[0] is not qfs[1] and qfs[0].trans is qfs[1].trans
    assert {"_dual_trans", "_relabelled_trans"} <= set(vars(q.states))
    assert {"_dual_trans", "_preimage_trans"} <= set(vars(a.states))
    for states in (q.states, a.states):
        fresh = loads(dumps(states))
        assert states == fresh and fresh == states and hash(states) == hash(fresh)
        assert dumps(states) == dumps(fresh) and repr(states) == repr(fresh)
        restored = pickle.loads(pickle.dumps(states))
        assert set(vars(restored)) == {"tag", "size", "ops", "order"}
        assert restored == states and hash(restored) == hash(states)


def _law_corpus(pair):
    return {pair: {
        "varieties": [(rx, generated_local_variety(pair, [parse_regex(rx, alphabet)]))
                      for alphabet, rxs in LAW_SEEDS.items() for rx in rxs],
        "morphisms": default_morphisms(d_tag(pair)),
    }}


def test_the_transition_law_runs_once_per_morphism_and_still_fails(monkeypatch):
    """lempre's transition law, f(x b) = f(x) f(b) on short words x, does
    not involve the variety: it runs once per morphism, at the first
    variety f applies to.  A wrong word image still fails it, with the
    witness of the first (f, x, b) and the counts of a clean run."""
    clean = check_preimage_laws(_law_corpus("JSL0"))
    morphisms = default_morphisms("JSL0")
    alphabets = {"".join(q.alphabet) for _, q in _law_corpus("JSL0")["JSL0"]["varieties"]}
    instances = sum(
        len(preimage._short_words(f.source_alphabet, 4)) * len(f.source_alphabet)
        for f in morphisms if "".join(f.target_alphabet) in alphabets
    )
    apply, mul, products = preimage.apply_free, preimage.free_mul, []

    def wrong(f, x):
        # the image of bb is given as the image of b
        if x.pairs == (("bb", 1),):
            x = free_word(x.tag, x.alphabet, "b")
        return apply(f, x)

    def count_mul(x, y):
        products.append((x, y))
        return mul(x, y)

    monkeypatch.setattr(preimage, "apply_free", wrong)
    monkeypatch.setattr(preimage, "free_mul", count_mul)
    report = check_preimage_laws(_law_corpus("JSL0"))
    assert report["lempre"]["status"] == "fails"
    # the first morphism, b -> a, maps into the first variety's alphabet
    assert report["lempre"]["witness"] == ("transition-hom", "JSL0", morphisms[0].images, "b", "b")
    assert {law: e["checked"] for law, e in report.items()} == {
        law: e["checked"] for law, e in clean.items()
    }
    assert len(products) == 2 * instances  # x b and f(x) f(b), once per instance


# the check counts of a clean battery on _law_corpus(pair)
LAW_COUNTS = {
    "JSL0": {"lrev": 14, "cpre": 70, "proppre": 70, "lempre": 257, "qfprops": 2, "frcom": 80, "tpre": 6},
    "DL01": {"lrev": 15, "cpre": 68, "proppre": 68, "lempre": 252, "qfprops": 7, "frcom": 54, "tpre": 5},
    "VECT2": {"lrev": 18, "cpre": 90, "proppre": 90, "lempre": 257, "qfprops": 2, "frcom": 80, "tpre": 6},
}


def test_the_battery_builds_each_law_input_once_per_distinct_value(monkeypatch):
    """Within one battery Q^f, L . f, Q_x and the free elements of short
    words are each built once per pair for each distinct value of their
    arguments (the parent built them 325, 659, 428 and 1,766 times on these
    three corpora), and tpre reads (aa)* over {a} from the corpus instead
    of building its variety again."""
    calls = {name: Counter() for name in
             ("coalgebra_preimage", "preimage_language", "shift_initial_co", "free_word")}
    varieties = []

    def counted(name):
        build = getattr(preimage, name)

        def count(*args):
            calls[name][args] += 1
            return build(*args)
        return count

    def record_variety(pair, langs):
        varieties.append((pair, *langs))
        return generated_local_variety(pair, langs)

    corpus = {pair: _law_corpus(pair)[pair] for pair in LAW_COUNTS}
    for name in calls:
        monkeypatch.setattr(preimage, name, counted(name))
    monkeypatch.setattr(preimage, "generated_local_variety", record_variety)
    report = check_preimage_laws(corpus)
    assert all(entry["status"] == "holds" for entry in report.values())
    for pair in LAW_COUNTS:
        single = check_preimage_laws({pair: corpus[pair]})
        assert {law: e["checked"] for law, e in single.items()} == LAW_COUNTS[pair]
    for name, counter in calls.items():
        assert counter and set(counter.values()) == {2}, name  # once per battery
    assert {name: len(counter) for name, counter in calls.items()} == {
        "coalgebra_preimage": 148, "preimage_language": 371,
        "shift_initial_co": 275, "free_word": 206,
    }
    assert len(varieties) == 2 * 3 * len(LAW_COUNTS)  # (bb)*, ∅ over {b} and (ab)*
    assert all(langs[1] != parse_regex("(aa)*", "a") for langs in varieties)


def _stand_in(pair, index):
    """A morphism of the same alphabets as default_morphisms(tag)[index],
    with other images: the next default morphism, or for the swap of a
    and b the identity."""
    tag = d_tag(pair)
    return identity_free_morphism(tag, "ab") if index == 9 else default_morphisms(tag)[index + 1]


# (pair, construction, index of the morphism read wrongly, the failing
# laws' witnesses with m the morphism's images and g those of the
# composition's second morphism), as the battery gave them before it kept
# its inputs in a table
LAW_FAULTS = (
    ("JSL0", "preimage_language", 0, lambda m, g: {
        "cpre": ("JSL0", "(aa)*", m, 2),
        "proppre": ("JSL0", "(aa)*", m, 2),
        "tpre": ("JSL0", None, m),
    }),
    ("JSL0", "coalgebra_preimage", 9, lambda m, g: {
        "proppre": ("JSL0", "(a|b)*a", m, 2),
        "qfprops": ("composition", "JSL0", "(a|b)*a", m, g),
        "frcom": ("JSL0", "(a|b)*a", m, (("a", 1),)),
    }),
    ("DL01", "preimage_language", 3, lambda m, g: {
        "cpre": ("DL01", "(a|b)*a", m, 2),
        "proppre": ("DL01", "(a|b)*a", m, 2),
    }),
    ("DL01", "coalgebra_preimage", 9, lambda m, g: {
        "proppre": ("DL01", "(a|b)*a", m, 2),
        "qfprops": ("composition", "DL01", "(a|b)*a", m, g),
        "frcom": ("DL01", "(a|b)*a", m, (("a", 1),)),
    }),
    ("VECT2", "preimage_language", 9, lambda m, g: {
        "cpre": ("VECT2", "(a|b)*a", m, 2),
        "proppre": ("VECT2", "(a|b)*a", m, 2),
    }),
    ("VECT2", "coalgebra_preimage", 9, lambda m, g: {
        "proppre": ("VECT2", "(a|b)*a", m, 2),
        "qfprops": ("composition", "VECT2", "(a|b)*a", m, g),
        "frcom": ("VECT2", "(a|b)*a", m, (("a", 1),)),
    }),
)


@pytest.mark.parametrize("pair, name, index, witnesses", LAW_FAULTS,
                         ids=[f"{p}-{n}-{i}" for p, n, i, _ in LAW_FAULTS])
def test_a_fault_in_one_morphism_still_fails_its_laws(monkeypatch, pair, name, index, witnesses):
    """L . f or Q^f built along a wrong morphism for one f (every value
    equal to f, the composition's included) fails the laws that read it,
    with the witnesses and check counts the battery gave before it built
    each input once: the table returns an earlier result only for equal
    arguments, so a fault reaches every law it reached before."""
    morphisms = default_morphisms(d_tag(pair))
    bad, stand_in, build = morphisms[index], _stand_in(pair, index), getattr(preimage, name)
    monkeypatch.setattr(preimage, name, lambda x, f: build(x, stand_in if f == bad else f))
    report = check_preimage_laws(_law_corpus(pair))
    second = morphisms[4 if pair in ("JSL0", "VECT2") else 3].images  # the first g into {a, b}
    expected = witnesses(bad.images, second)
    assert {law: e["witness"] for law, e in report.items() if e["status"] == "fails"} == expected
    assert all(report[law]["status"] == "holds" for law in LAWS if law not in expected)
    assert {law: e["checked"] for law, e in report.items()} == LAW_COUNTS[pair]


def test_a_state_cap_of_zero_samples_no_state():
    """state_cap=0 runs the laws that read no sampled state and checks
    none of lrev, cpre and proppre (it divided by zero before)."""
    report = check_preimage_laws(_law_corpus("JSL0"), state_cap=0)
    assert {law: e["checked"] for law, e in report.items()} == {
        **LAW_COUNTS["JSL0"], "lrev": 0, "cpre": 0, "proppre": 0,
    }
    assert all(entry["status"] == "holds" for entry in report.values())
    assert preimage._sample_states(_law_corpus("JSL0")["JSL0"]["varieties"][0][1], 0) == []


PREIMAGE_SWEEP = SEED_REGEXES + ("(a|b)*abb", "(ab|ba)*", "a*b*", "(aab)*")


def test_preimage_lift_agrees_with_the_per_tag_lifts_on_every_default_morphism():
    """The integer-state lift against the per-tag lifts it replaced, on
    every D-side tag's default morphisms and every sweep regex over their
    target alphabet."""
    calls = 0
    for tag in ("SET", "POS", "SET_STAR", "JSL0", "VECT2"):
        for f in default_morphisms(tag):
            target = "".join(f.target_alphabet)
            for rx in PREIMAGE_SWEEP:
                if {ch for ch in rx if ch.isalpha()} - {"ε"} <= set(target):
                    l = parse_regex(rx, target)
                    assert preimage_language(l, f) == oracle.preimage_language(l, f), (
                        tag, f.images, rx,
                    )
                    calls += 1
    assert calls == 848
