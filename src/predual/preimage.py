"""The preimage calculus: reindexing automata along free D-monoid morphisms.

alpha_x extends the word action of an L-algebra to all free-monoid elements;
A^f reindexes an L-algebra along f by alpha_{f(b)}; Q^f reindexes a finite
coalgebra through its dual, conjugating f by reversal.  check_preimage_laws
runs the whole battery of exact laws over a corpus of local varieties and
free morphisms.
"""

from __future__ import annotations

import itertools

from .algebra import (
    AlgMorphism,
    CapExceeded,
    InternalInvariantError,
    StructureError,
    check_morphism,
    combine_columns,
    derived,
)
from .automata import (
    Coalgebra,
    LAlgebra,
    coalgebra_coproduct,
    dual_automaton,
    dual_automaton_inv,
    eval_free,
    find_coalgebra_hom,
    generated_local_variety,
    language_of_output,
    language_of_state,
    languages_of,
    lalgebra_product,
    relabel_double_dual,
    run_word,
    shift_initial_co,
    state_output_morphism,
    word_table,
)
from .duality import d_tag
from .langlib import (
    DMonoidMorphismFree,
    FreeElement,
    apply_free,
    compose_free,
    free_mul,
    free_word,
    free_zero,
    make_free,
    make_free_morphism,
    parse_regex,
    preimage_language,
    reversal,
)
from .monoids import dagger_free


def alpha_x(a: LAlgebra, x: FreeElement):
    """The endomorphism alpha_x: words compose, payloads combine pointwise."""
    if x.tag != d_tag(a.pair) or tuple(x.alphabet) != a.alphabet:
        raise StructureError("free element does not match the automaton")
    return combine_columns(
        a.states, [(word_table(a, w), c) for w, c in x.pairs], a.states.size
    )


def algebra_preimage(a: LAlgebra, f: DMonoidMorphismFree) -> LAlgebra:
    """A^f: same states and initial state, transitions alpha_{f(b)}.

    The transitions depend on a's pair, states and transitions and on f
    alone, so they are kept on a.states by (pair, trans, f): equal
    L-algebras on one carrier are reindexed along f once, and the
    cross-check that each alpha_{f(b)} is an endomorphism (raising
    InternalInvariantError) runs once per distinct value.
    """
    if tuple(f.target_alphabet) != a.alphabet or f.tag != d_tag(a.pair):
        raise StructureError("morphism does not match the automaton")
    trans = derived(a.states, "_preimage_trans", _preimage_trans, a, f, key=(a.pair, a.trans, f))
    return LAlgebra(a.pair, tuple(f.source_alphabet), a.states, trans, a.init)


def _preimage_trans(a: LAlgebra, f: DMonoidMorphismFree) -> tuple:
    trans = {b: alpha_x(a, f.image(b)) for b in f.source_alphabet}
    for b, t in trans.items():
        ok, why = check_morphism(AlgMorphism(a.states, a.states, t))
        if not ok:
            raise InternalInvariantError(f"alpha_x left the endomorphisms at {b!r}: {why}")
    return tuple(sorted(trans.items()))


def coalgebra_preimage(q: Coalgebra, f: DMonoidMorphismFree) -> Coalgebra:
    """Q^f, defined through the dual: dual(Q^f) = dual(Q)^(f dagger)."""
    shifted = algebra_preimage(dual_automaton(q), dagger_free(f))
    return relabel_double_dual(q.pair, q.states, dual_automaton_inv(shifted))


# ---------------------------------------------------------------------------
# the default corpus


SEED_REGEXES = (
    "(aa)*", "a*", "∅", "ε", "a", "aa*", "(aaa)*", "aa",
    "(ab)*", "(ba)*", "b*", "(a|b)*", "(a|b)*a", "b(ab)*",
    "ab", "(a|b)(a|b)", "a(ba)*", "ba", "~(a(a|b)*)", "(a|b)*b(a|b)*",
)


def default_seed_languages():
    """Seed regexes grouped by alphabet (single letters stay over {a})."""
    groups = {}
    for rx in SEED_REGEXES:
        letters = {ch for ch in rx if ch.isalpha()}
        alphabet = "".join(sorted(letters)) or "a"
        groups.setdefault(alphabet, []).append(rx)
    return groups


def default_morphisms(tag: str):
    """Ten presentation morphisms per D-side tag, targeting {a} and {a,b}."""
    if tag in ("SET", "POS"):
        data = [
            ("b", "a", {"b": ("a",)}),
            ("b", "a", {"b": ("aa",)}),
            ("b", "a", {"b": ("",)}),
            ("b", "ab", {"b": ("ab",)}),
            ("b", "ab", {"b": ("ba",)}),
            ("c", "ab", {"c": ("a",)}),
            ("bc", "ab", {"b": ("a",), "c": ("b",)}),
            ("bc", "ab", {"b": ("ab",), "c": ("b",)}),
            ("bc", "a", {"b": ("aa",), "c": ("",)}),
            ("ab", "ab", {"a": ("b",), "b": ("a",)}),
        ]
    elif tag in ("JSL0", "VECT2"):
        data = [
            ("b", "a", {"b": ("a",)}),
            ("b", "a", {"b": ("a", "aa")}),
            ("b", "a", {"b": ("", "a")}),
            ("b", "a", {"b": ()}),
            ("b", "ab", {"b": ("ab",)}),
            ("b", "ab", {"b": ("a", "b")}),
            ("bc", "ab", {"b": ("a",), "c": ("b", "ab")}),
            ("bc", "ab", {"b": ("a", "b"), "c": ("",)}),
            ("bc", "a", {"b": ("a",), "c": ("aa",)}),
            ("ab", "ab", {"a": ("b",), "b": ("a",)}),
        ]
    elif tag == "SET_STAR":
        data = [
            ("b", "a", {"b": ("a",)}),
            ("b", "a", {"b": ()}),
            ("b", "a", {"b": ("aa",)}),
            ("b", "ab", {"b": ("ab",)}),
            ("b", "ab", {"b": ()}),
            ("bc", "ab", {"b": ("a",), "c": ("b",)}),
            ("bc", "ab", {"b": ("ab",), "c": ()}),
            ("bc", "a", {"b": (), "c": ("a",)}),
            ("ab", "ab", {"a": ("b",), "b": ("a",)}),
            ("b", "ab", {"b": ("",)}),
        ]
    else:
        raise StructureError(f"no default morphisms for tag {tag}")

    def image(alphabet, words):
        if not words:
            return free_zero(tag, alphabet)
        return make_free(tag, alphabet, [(w, 1) for w in words])

    return [
        make_free_morphism(tag, src, tgt, {b: image(tgt, ws) for b, ws in images.items()})
        for src, tgt, images in data
    ]


def default_corpus(pairs=("BA", "DL01", "JSL0", "VECT2", "BR")):
    """Local varieties per pair (built from the seed regexes) plus morphisms."""
    corpus = {}
    for pair in pairs:
        varieties = []
        for alphabet, regexes in default_seed_languages().items():
            for rx in regexes:
                lang = parse_regex(rx, alphabet)
                try:
                    q = generated_local_variety(pair, [lang])
                except CapExceeded:
                    continue
                varieties.append((rx, q))
        corpus[pair] = {
            "varieties": varieties,
            "morphisms": default_morphisms(d_tag(pair)),
        }
    return corpus


# ---------------------------------------------------------------------------
# the law battery


def _sample_states(q: Coalgebra, cap: int):
    """At most cap states of q, evenly spaced from state 0."""
    if q.states.size <= cap:
        return list(range(q.states.size))
    if cap <= 0:
        return []
    step = q.states.size // cap
    return list(range(0, q.states.size, step))[:cap]


LAWS = ("lrev", "cpre", "proppre", "lempre", "qfprops", "frcom", "tpre")


def _once(table: dict, build, *args):
    """build(*args), or the result of an earlier call of build on equal
    arguments, kept in table (a law battery keeps one table per pair)."""
    key = (build, *args)
    if key not in table:
        table[key] = build(*args)
    return table[key]


def check_preimage_laws(corpus=None, state_cap: int = 12) -> dict:
    """Exact verification of the reversal/preimage law battery on a corpus.

    Laws: lrev (dual outputs accept reversals), cpre (outputs of A^f accept
    preimages), proppre (states of Q^f accept preimages), lempre (the free
    morphism is a transition homomorphism; homomorphisms survive reindexing;
    run maps compose with f), qfprops (preimage respects composition and
    coproducts), frcom (initial-state shifts exchange with preimages), tpre
    (a family is preimage-closed iff the preimage maps are homomorphisms).
    All comparisons are equalities of canonical automata or raw tables; a
    counterexample fails the law with a witness.

    Each side of a law is built by its own construction.  Q^f, L . f, Q_x
    and the free elements of short words are built once per pair for each
    distinct value of their arguments: a table local to the pair returns the
    earlier result when a construction is called again on equal arguments.
    """
    if corpus is None:
        corpus = default_corpus()
    report = {law: {"status": "holds", "checked": 0, "witness": None} for law in LAWS}

    def fail(law, witness):
        report[law]["status"] = "fails"
        if report[law]["witness"] is None:
            report[law]["witness"] = witness

    for pair, data in corpus.items():
        tag = d_tag(pair)
        table = {}  # (construction, arguments) -> result, for this pair
        hom_checked = set()  # the morphisms whose transition law has been checked
        for rx, q in data["varieties"]:
            a = dual_automaton(q)
            states = _sample_states(q, state_cap)

            # lrev: dual outputs accept reversals
            for s in states:
                lhs = language_of_output(a, state_output_morphism(q, s))
                rhs = reversal(language_of_state(q, s))
                report["lrev"]["checked"] += 1
                if lhs != rhs:
                    fail("lrev", (pair, rx, s))

            for f in data["morphisms"]:
                if tuple(f.target_alphabet) != q.alphabet:
                    continue

                # cpre: outputs of A^f accept preimages
                af = algebra_preimage(a, f)
                for s in states:
                    out = state_output_morphism(q, s)
                    lhs = language_of_output(af, out)
                    rhs = _once(table, preimage_language, language_of_output(a, out), f)
                    report["cpre"]["checked"] += 1
                    if lhs != rhs:
                        fail("cpre", (pair, rx, f.images, s))

                # proppre: states of Q^f accept preimages
                qf = _once(table, coalgebra_preimage, q, f)
                for s in states:
                    lhs = language_of_state(qf, s)
                    rhs = _once(table, preimage_language, language_of_state(q, s), f)
                    report["proppre"]["checked"] += 1
                    if lhs != rhs:
                        fail("proppre", (pair, rx, f.images, s))

                # lempre: f is a transition homomorphism into (Psi Sigma*)^f
                # (checked on short words), and the run maps satisfy
                # e_{A^f} = e_A . f.  The first law and its witness do not
                # involve q: it is checked at the first variety f applies to.
                letters = () if f in hom_checked else f.source_alphabet
                hom_checked.add(f)
                words, samples = _once(table, _free_elements, tag, f.source_alphabet)
                for w, x in words.items():
                    fx = apply_free(f, x)
                    report["lempre"]["checked"] += 1
                    if run_word(af, w) != eval_free(a, fx):
                        fail("lempre", ("run-map", pair, rx, f.images, w))
                    for b in letters:
                        lhs = apply_free(f, free_mul(x, words[b]))
                        rhs = free_mul(fx, f.image(b))
                        if lhs != rhs:
                            fail("lempre", ("transition-hom", pair, f.images, w, b))

                # frcom: (Q^f)_x = (Q_{fx})^f
                for x in samples:
                    lhs = _once(table, shift_initial_co, qf, x)
                    qfx = _once(table, shift_initial_co, q, apply_free(f, x))
                    rhs = _once(table, coalgebra_preimage, qfx, f)
                    report["frcom"]["checked"] += 1
                    if lhs != rhs:
                        fail("frcom", (pair, rx, f.images, x.pairs))

            # qfprops, composition part: (Q^f)^g = Q^{f . g}
            for f in data["morphisms"]:
                if tuple(f.target_alphabet) != q.alphabet:
                    continue
                for g in data["morphisms"]:
                    if g.target_alphabet != f.source_alphabet:
                        continue
                    lhs = _once(table, coalgebra_preimage, _once(table, coalgebra_preimage, q, f), g)
                    rhs = _once(table, coalgebra_preimage, q, compose_free(f, g))
                    report["qfprops"]["checked"] += 1
                    if lhs != rhs:
                        fail("qfprops", ("composition", pair, rx, f.images, g.images))
                    break

        # lempre (homomorphisms survive reindexing) and the coproduct part of
        # qfprops
        small = [
            (rx, q) for rx, q in data["varieties"]
            if dual_automaton(q).states.size <= 3
        ]
        for i, (rx1, q1) in enumerate(small[:4]):
            for rx2, q2 in small[i : i + 2]:
                if q1.alphabet != q2.alphabet:
                    continue
                for f in data["morphisms"]:
                    if tuple(f.target_alphabet) != q1.alphabet:
                        continue
                    cop = coalgebra_coproduct(q1, q2)
                    lhs = _once(table, coalgebra_preimage, cop, f)
                    rhs_pair = coalgebra_coproduct(
                        _once(table, coalgebra_preimage, q1, f),
                        _once(table, coalgebra_preimage, q2, f),
                    )
                    report["qfprops"]["checked"] += 1
                    if lhs != rhs_pair:
                        fail("qfprops", ("coproduct", pair, rx1, rx2, f.images))
                    # lem:pre(b): product projections are L-homs of preimages
                    a1, a2 = dual_automaton(q1), dual_automaton(q2)
                    prod = lalgebra_product(a1, a2)
                    n2 = a2.states.size
                    proj = tuple(s // n2 for s in range(prod.states.size))
                    fd = dagger_free(f)
                    pf = algebra_preimage(prod, fd)
                    af1 = algebra_preimage(a1, fd)
                    report["lempre"]["checked"] += 1
                    if not _is_lalgebra_hom(pf, af1, proj):
                        fail("lempre", ("reindexed-hom", pair, rx1, rx2, f.images))
                    break

        # tpre: preimage-closure of a family iff coalgebra homs exist
        families = _tpre_families(pair, data["varieties"])
        tpre = _check_tpre_family(pair, data["morphisms"], families, table)
        report["tpre"]["checked"] += tpre["checked"]
        if tpre["witness"] is not None:
            fail("tpre", tpre["witness"])
    return report


def _short_words(alphabet, n):
    out = []
    for k in range(n + 1):
        for t in itertools.product(alphabet, repeat=k):
            out.append("".join(t))
    return out


def _free_elements(tag, alphabet):
    """(words, samples): lempre's words, the free element of each word of
    length at most 4 in shortlex order, and frcom's sample free elements,
    the words ε, a and a z (a and z the first and last letters) and, where
    the tag has them, a + a z and zero."""
    words = {w: free_word(tag, alphabet, w) for w in _short_words(alphabet, 4)}
    w2 = alphabet[0] + alphabet[-1]
    samples = [words[""], words[alphabet[0]], words[w2]]
    if tag in ("JSL0", "VECT2"):
        samples.append(make_free(tag, alphabet, [(alphabet[0], 1), (w2, 1)]))
    if tag == "SET_STAR":
        samples.append(free_zero(tag, alphabet))
    return words, samples


def _is_lalgebra_hom(src: LAlgebra, dst: LAlgebra, table) -> bool:
    ok, _ = check_morphism(AlgMorphism(src.states, dst.states, table))
    if not ok:
        return False
    if table[src.init] != dst.init:
        return False
    for b in src.alphabet:
        ts, td = src.tr(b), dst.tr(b)
        if any(table[ts[s]] != td[table[s]] for s in range(src.states.size)):
            return False
    return True


def check_tpre_family(pair: str, data=None, families=None) -> dict:
    """T:pre on finite family data: {V Sigma} is closed under preimages iff for
    each f (of data["morphisms"], or default_morphisms) the languages {L . f}
    all lie in V Delta; positively, the language-preimage map is exhibited as
    a coalgebra homomorphism."""
    morphisms = default_morphisms(d_tag(pair)) if data is None else data["morphisms"]
    if families is None:
        families = _tpre_families(pair, ())
    return _check_tpre_family(pair, morphisms, families, {})


def _tpre_families(pair: str, varieties):
    """tpre's default (family, kind) list: the preimage-closed family of
    (aa)* over {a} and (bb)* over {b}, and the open family of (ab)* over
    {a,b} and the empty language over {b}.  A variety that varieties, a
    list of (seed regex, variety), holds for the same seed over the same
    alphabet is read from it, not built again."""
    known = {(rx, q.alphabet): q for rx, q in varieties}

    def variety(rx, alphabet):
        q = known.get((rx, tuple(alphabet)))
        return generated_local_variety(pair, [parse_regex(rx, alphabet)]) if q is None else q

    return [
        ({"a": variety("(aa)*", "a"), "b": variety("(bb)*", "b")}, None),
        ({"ab": variety("(ab)*", "ab"), "b": variety("∅", "b")}, "open"),
    ]


def _check_tpre_family(pair: str, morphisms, families, table: dict) -> dict:
    """check_tpre_family, building L . f and Q^f through the battery's table."""
    result = {"checked": 0, "witness": None}
    for family, kind in families:
        for f in morphisms:
            src = "".join(f.source_alphabet)
            tgt = "".join(f.target_alphabet)
            if src not in family or tgt not in family:
                continue
            v_sigma = family[tgt]
            v_delta = family[src]
            delta_langs = set(languages_of(v_delta))
            preimages = [
                _once(table, preimage_language, l, f) for l in languages_of(v_sigma)
            ]
            closed = all(p in delta_langs for p in preimages)
            qf = _once(table, coalgebra_preimage, v_sigma, f)
            hom = find_coalgebra_hom(qf, v_delta) if v_delta.states.size <= 8 else None
            hom_exists = hom is not None
            if v_delta.states.size <= 8:
                result["checked"] += 1
                if closed != hom_exists:
                    result["witness"] = (pair, kind, f.images)
                if closed and hom is not None:
                    # the homomorphism is the language-preimage map
                    langs_qf = [language_of_state(qf, s) for s in range(qf.states.size)]
                    langs_vd = [
                        language_of_state(v_delta, s) for s in range(v_delta.states.size)
                    ]
                    for s in range(qf.states.size):
                        if langs_vd[hom[s]] != langs_qf[s]:
                            result["witness"] = (pair, kind, f.images, "hom-mismatch", s)
    return result
