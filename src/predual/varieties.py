"""Desk-scale simple varieties and bounded Eilenberg-correspondence checks.

A simple variety of languages is generated by one alphabet component; a
simple pseudovariety of D-monoids is generated by one finite D-monoid.  Both
sides are represented by their generators plus bounded membership procedures,
never materialized as classes.
"""

from __future__ import annotations

import itertools

from .algebra import (
    CapExceeded,
    StructureError,
    all_morphisms,
    check_invariant,
    closure,
    closure_ops,
    componentwise_fn,
    explore,
)
from .automata import (
    Coalgebra,
    dual_automaton,
    dual_automaton_inv,
    dual_generated_monoid,
    generated_local_variety,
    is_local_variety,
    language_of_output,
    languages_of,
    syntactic_lalgebra,
)
from .duality import canonical_constants, d_tag, set_ops
from .langlib import (
    RegularLanguage,
    make_free_morphism,
    parse_regex,
    rev_free,
    syntactic_masks,
)
from .monoids import (
    DMonoid,
    GeneratedDMonoid,
    are_dmonoids_isomorphic,
    associated_lalgebra,
    divides,
    dmonoid_powers,
    generated_dmonoid,
    transition_dmonoid,
)
from .preimage import coalgebra_preimage


def representative_morphisms(q: Coalgebra, delta):
    """Morphisms f: free(Delta) -> free(Sigma) up to equal preimage Q^f.

    Q^f depends only on the transition-monoid element of each (reversed)
    letter image, and there are finitely many of those; letting images range
    over witnesses of the dual transition monoid is exhaustive.
    """
    delta = tuple(delta)
    if len(delta) > 3:
        raise CapExceeded("representative enumeration bounded at |Delta| <= 3")
    a = dual_automaton(q)
    _, g = transition_dmonoid(a)
    tag = a.states.tag
    images = [rev_free(w) for _, w in g.reprs]
    out = []
    for combo in itertools.product(images, repeat=len(delta)):
        out.append(
            make_free_morphism(
                tag, delta, q.alphabet, {b: fe for b, fe in zip(delta, combo)}
            )
        )
    return out


def simple_variety_languages(q: Coalgebra, delta, cap: int = 4096) -> Coalgebra:
    """The Delta-component of the simple variety generated by q.

    Collects the state languages of all representative preimages Q^f, closes
    under the C-side operations and both derivatives, and checks that the
    derivative closure adds nothing beyond the algebraic closure.
    """
    if not is_local_variety(q):
        raise StructureError("generator must be a local variety")
    collected = set()
    for f in representative_morphisms(q, delta):
        qf = coalgebra_preimage(q, f)
        collected.update(languages_of(qf))
    seeds = sorted(collected, key=RegularLanguage.sort_key)
    variety = generated_local_variety(q.pair, seeds, cap)
    # property check: the algebraic closure of the collected languages is
    # already closed under both derivatives
    algebraic = _algebraic_closure(q.pair, seeds, cap)
    check_invariant(variety.states.size == len(algebraic), "derivative closure added languages")
    return variety


def _algebraic_closure(tag, seeds, cap):
    """The seeds closed under the tag's operations alone, as bitmasks over
    their syntactic monoid (langlib.syntactic_masks), each operation read as
    its set operation (duality.SET_OPS).  generated_local_variety builds the
    variety from its dual instead, so the two counts are independent."""
    left, _, masks, _ = syntactic_masks(seeds, cap, "algebraic closure")
    elements, _, _ = closure(
        dict.fromkeys(masks), set_ops(tag, (1 << len(left)) - 1), cap, stage="algebraic closure"
    )
    return elements


def free_monoid_in_simple_pseudovariety(d: DMonoid, sigma) -> GeneratedDMonoid:
    """The free Sigma-generated D-monoid inside the pseudovariety of d.

    Realized as the image of the induced map into d^(maps Sigma -> |d|):
    the generator a goes to the tuple (u(a))_u, and generated_dmonoid closes
    the images inside the power without materializing it.
    """
    sigma = tuple(sigma)
    if d.size > 4 or len(sigma) > 2:
        raise CapExceeded("free-monoid construction bounded at |D| <= 4, |Sigma| <= 2")
    assignments = list(itertools.product(range(d.size), repeat=len(sigma)))
    width = len(assignments)
    _, free = generated_dmonoid(
        [d.carrier] * width, componentwise_fn(2, [d.mult] * width), (d.unit,) * width, sigma,
        {a: tuple(u[i] for u in assignments) for i, a in enumerate(sigma)},
        cap=512, stage="free monoid",
    )
    return free


def recognized_languages(g: GeneratedDMonoid, pair: str, output_cap: int = 4096):
    """All languages recognized by the monoid via some output morphism."""
    a = associated_lalgebra(g)
    bundle = canonical_constants(pair)
    outs = all_morphisms(a.states, bundle.O_D)
    if len(outs) > output_cap:
        raise CapExceeded("too many output morphisms")
    return sorted(
        {language_of_output(a, out.table) for out in outs},
        key=RegularLanguage.sort_key,
    )


def languages_of_simple_pseudovariety(d: DMonoid, sigma, pair: str, cap: int = 4096) -> Coalgebra:
    """The Sigma-languages of the simple pseudovariety generated by d.

    Returns the local variety of all languages recognized by the free monoid
    of the pseudovariety; checks that it agrees with the dual coalgebra of that
    free monoid (language sets coincide) and that its dual monoid is
    isomorphic to the free monoid.
    """
    if d.carrier.tag != d_tag(pair):
        raise StructureError(f"generator must be a {d_tag(pair)}-monoid")
    free = free_monoid_in_simple_pseudovariety(d, sigma)
    langs = recognized_languages(free, pair)
    variety = generated_local_variety(pair, langs, cap)
    dual_coalg = dual_automaton_inv(associated_lalgebra(free))
    check_invariant(
        set(languages_of(variety)) == set(languages_of(dual_coalg)),
        "recognized languages differ from the dual coalgebra's state languages",
    )
    g = dual_generated_monoid(variety)
    check_invariant(
        are_dmonoids_isomorphic(g.base, free.base) is not None,
        "dual monoid of the language variety differs from the free monoid",
    )
    return variety


def recognizes_language(free: GeneratedDMonoid, pair: str, lang: RegularLanguage) -> bool:
    """Does the monoid recognize the language through its canonical quotient?

    L is recognized via e iff the language morphism factors through e as a
    D-morphism, iff the image of the pairing <e, L> in F x O_D is the graph
    of a function (single-valued over the first component).  The image is the
    closure of the word pairs under the componentwise D-operations.
    """
    a = associated_lalgebra(free)
    if tuple(lang.alphabet) != a.alphabet:
        raise StructureError("alphabet mismatch")
    bundle = canonical_constants(pair)
    o_d = bundle.O_D
    # word pairs by BFS over (monoid element, DFA state)
    tables = [a.tr(letter) for letter in a.alphabet]
    reached, _ = explore(
        (a.init, 0),
        range(len(tables)),
        lambda ms, i: (tables[i][ms[0]], lang.delta[ms[1]][i]),
    )
    pairs = dict.fromkeys((m, 1 if s in lang.finals else 0) for m, s in reached)
    # close under the D-operations, componentwise
    elements, _, _ = closure(pairs, closure_ops([a.states, o_d]))
    values = {}
    for m, v in elements:
        if values.setdefault(m, v) != v:
            return False
    if a.states.order is not None:
        # ordered case: the induced output must also be monotone
        for m1, v1 in values.items():
            for m2, v2 in values.items():
                if a.states.order[m1][m2] and not o_d.order[v1][v2]:
                    return False
    return True


def check_eilenberg_simple(d: DMonoid, pair: str, sample_regexes, n_max: int = 2) -> dict:
    """Membership in the language variety iff division of the generator.

    The language side asks whether the free monoid of the pseudovariety
    recognizes L (equivalently, L lies in languages_of_simple_pseudovariety);
    the monoid side runs the bounded division search on the dual generated
    monoid of L's syntactic L-algebra, against powers of d built once.  Cap
    overruns on either side mark the sample inconclusive, never as a pass.
    """
    report = {"pair": pair, "checked": 0, "mismatches": [], "inconclusive": []}
    free_cache = {}
    powers = dmonoid_powers(d, n_max)
    for rx in sample_regexes:
        if isinstance(rx, tuple):
            rx, alphabet = rx
            lang = parse_regex(rx, alphabet)
        else:
            lang = parse_regex(rx)
        sigma = "".join(lang.alphabet)
        report["checked"] += 1
        if sigma not in free_cache:
            try:
                free_cache[sigma] = free_monoid_in_simple_pseudovariety(d, sigma)
            except CapExceeded:
                free_cache[sigma] = None
        if free_cache[sigma] is None:
            report["inconclusive"].append(rx)
            continue
        member = recognizes_language(free_cache[sigma], pair, lang)
        s = dual_generated_monoid(syntactic_lalgebra(pair, [lang]))
        verdict = divides(s, d, n_max, powers=powers)
        if verdict is None:
            report["inconclusive"].append(rx)
        elif verdict != member:
            report["mismatches"].append((rx, member, verdict))
    return report


def check_simvargen(pair: str, generator, sigma, delta) -> dict:
    """The simple variety is generated by any alphabet at least as large.

    Regenerates the variety from its own Delta-component and compares the
    Sigma-components.  generator may be a local-variety Coalgebra or a raw
    list of languages (non-closed families are reported as gaps).
    """
    if isinstance(generator, Coalgebra):
        q = generator
        family = set(languages_of(q))
    else:
        family = set(generator)
        q = generated_local_variety(pair, sorted(family, key=RegularLanguage.sort_key))
        if set(languages_of(q)) != family:
            return {
                "ok": False,
                "gap": sorted(
                    set(languages_of(q)) - family, key=RegularLanguage.sort_key
                ),
                "reason": "family is not closed; regeneration added languages",
            }
    if len(delta) < len(sigma):
        raise StructureError("need |Delta| >= |Sigma|")
    v_delta = simple_variety_languages(q, delta)
    regenerated = simple_variety_languages(v_delta, sigma)
    direct = simple_variety_languages(q, sigma)
    ok = set(languages_of(regenerated)) == set(languages_of(direct))
    return {"ok": ok, "gap": None if ok else "component mismatch", "reason": None}
