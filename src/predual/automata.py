"""Enriched deterministic automata and their dual equivalence.

A Coalgebra is a deterministic automaton in the C-side variety: a state
algebra, per-letter algebraic transition endomorphisms, and an output
morphism to O_C (no initial state).  An LAlgebra is the D-side counterpart:
transitions plus an initial state, no outputs.  Dualization exchanges the
two, sending the output morphism to the initial-state selector.

Both are one record, _Automaton(pair, alphabet, states, trans), owning tr:
a Coalgebra adds ``out``, an LAlgebra ``init``, and each equals only its own
kind.  Their construction, validation, dual transitions and documents are
written once, given what differs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import (
    AlgMorphism,
    CapExceeded,
    FinAlgebra,
    KeepsDerived,
    StructureError,
    _search_maps,
    all_morphisms,
    along_shortlex_words,
    check_invariant,
    check_morphism,
    closure,
    closure_ops,
    combine_columns,
    combine_elements,
    derived,
    downset_masks,
    explore,
    make_algebra,
    product,
    relabel_algebra,
    shortlex_words,
    signature,
    standard_basis_perm,
    validate_algebra,
    vect_prime,
)
from .duality import (
    BIRKHOFF_PAIRS,
    PAIR_D_SIDE,
    _objects_for,
    c_tag,
    canonical_constants,
    d_tag,
    dual_morphism,
    dual_object,
    eta,
    out_from_dual_init,
    set_ops,
    state_output,
)
from .langlib import (
    FreeElement,
    RegularLanguage,
    _canonical,
    _nerode,
    free_word,
    free_zero,
    make_free,
    mask_preimage,
    rev_free,
    syntactic_masks,
)
from .monoids import (
    GeneratedDMonoid,
    associated_lalgebra,
    dmonoid_closure,
    make_dmonoid,
    validate_dmonoid,
)


def pair_of_d_tag(tag: str) -> str:
    for pair, d in PAIR_D_SIDE.items():
        if d == tag:
            return pair
    raise StructureError(f"no pair has D-side tag {tag}")


@dataclass(frozen=True)
class _Automaton(KeepsDerived):
    """What a coalgebra and an L-algebra share: the pair, the alphabet, the
    state algebra and one transition endomorphism per letter.  Each kind
    adds one last field and compares equal only to its own kind."""

    pair: str
    alphabet: tuple
    states: FinAlgebra
    trans: tuple  # sorted tuple of (letter, endo table)

    def tr(self, letter):
        for a, t in self.trans:
            if a == letter:
                return t
        raise StructureError(f"letter {letter!r} not in alphabet")


@dataclass(frozen=True)
class Coalgebra(_Automaton):
    out: tuple  # table into O_C (accepting value is 1)


@dataclass(frozen=True)
class LAlgebra(_Automaton):
    init: int


def make_coalgebra(pair, alphabet, states, trans: dict, out) -> Coalgebra:
    return _make(Coalgebra, c_tag(pair), _output_errors, pair, alphabet, states, trans, tuple(out))


def make_lalgebra(pair, alphabet, states, trans: dict, init: int) -> LAlgebra:
    return _make(LAlgebra, d_tag(pair), _init_errors, pair, alphabet, states, trans, init)


def _make(cls, tag, last_errors, pair, alphabet, states, trans, last):
    """cls(pair, alphabet, states, sorted trans, last); StructureError unless
    states has the tag and no law breaks (_automaton_errors)."""
    alphabet = tuple(alphabet)
    if states.tag != tag:
        raise StructureError(f"states must be {tag} for pair {pair}")
    m = cls(pair, alphabet, states, tuple(sorted((a, tuple(trans[a])) for a in alphabet)), last)
    errors = _automaton_errors(m, last_errors)
    if errors:
        raise StructureError("; ".join(errors))
    return m


def _automaton_errors(m, last_errors) -> list:
    """The laws the coalgebra or L-algebra m breaks: its states' if any
    break, else its transitions' and then last_errors(m), its last field's."""
    states = m.states
    errs = validate_algebra(states)
    if vect_prime(states.tag) is not None:
        if standard_basis_perm(states) != tuple(range(states.size)):
            errs = errs + ["VECT states must use the standard basis encoding"]
    if errs:
        return [f"states: {e}" for e in errs]
    maps = [(f"transition {a!r}", states, m.tr(a)) for a in m.alphabet]
    return _morphism_errors(states, maps) + last_errors(m)


def _output_errors(q: Coalgebra) -> list:
    return _morphism_errors(q.states, [("output", canonical_constants(q.pair).O_C, q.out)])


def _init_errors(a: LAlgebra) -> list:
    if type(a.init) is int and 0 <= a.init < a.states.size:
        return []
    return ["initial state out of range"]


def _morphism_errors(source: FinAlgebra, maps) -> list:
    """The failure, if any, of each (name, target, table) to be a morphism
    from source; a table must first send every element to an element."""
    out = []
    for name, target, table in maps:
        if len(table) != source.size or not all(
            type(v) is int and 0 <= v < target.size for v in table
        ):
            out.append(f"{name}: not a map from {source.size} to {target.size} elements")
            continue
        ok, why = check_morphism(AlgMorphism(source, target, table))
        if not ok:
            out.append(f"{name}: {why}")
    return out


# ---------------------------------------------------------------------------
# duality of automata


def dual_automaton(q: Coalgebra) -> LAlgebra:
    """(Q, gamma) -> (Q^, gamma^): the output morphism dualizes to the initial
    state selector.  The dual is kept on the instance."""
    return derived(q, "_dual", _build_dual_automaton, q)


def _build_dual_automaton(q: Coalgebra) -> LAlgebra:
    bundle = canonical_constants(q.pair)
    out_m = AlgMorphism(q.states, bundle.O_C, q.out)
    return LAlgebra(
        q.pair, q.alphabet, dual_object(q.pair, q.states), _dual_trans(q),
        dual_morphism(q.pair, out_m).table[bundle.gen_one_D],
    )


def dual_automaton_inv(a: LAlgebra) -> Coalgebra:
    """(A, alpha) -> its dual coalgebra; the initial-state selector dualizes
    to the output morphism.  The dual is kept on the instance."""
    return derived(a, "_dual", _build_dual_automaton_inv, a)


def _build_dual_automaton_inv(a: LAlgebra) -> Coalgebra:
    return Coalgebra(
        a.pair, a.alphabet, dual_object(a.pair, a.states), _dual_trans(a),
        out_from_dual_init(a.pair, a.states, a.init),
    )


def _dual_trans(m) -> tuple:
    """The dual transitions of the coalgebra or L-algebra m, sorted by letter.

    They depend on m's pair, states and transitions alone, so they are kept
    on m.states by (pair, trans): equal automata on one carrier share them.
    """
    return derived(m.states, "_dual_trans", _build_dual_trans, m, key=(m.pair, m.trans))


def _build_dual_trans(m) -> tuple:
    return tuple(
        (a, dual_morphism(m.pair, AlgMorphism(m.states, m.states, t)).table) for a, t in m.trans
    )


def relabel_double_dual(pair: str, states: FinAlgebra, qdd: Coalgebra) -> Coalgebra:
    """Transport a coalgebra on dual(dual(states)) back onto the carrier.

    The transported transitions are kept on states by (pair, qdd.states,
    qdd.trans), everything besides states they depend on.
    """
    e = eta(pair, states).table
    trans = derived(
        states, "_relabelled_trans", _relabel_trans, e, qdd.trans,
        key=(pair, qdd.states, qdd.trans),
    )
    return Coalgebra(pair, qdd.alphabet, states, trans, tuple(map(qdd.out.__getitem__, e)))


def _relabel_trans(e, trans) -> tuple:
    """Each table of trans conjugated by the bijection e: x -> inv[t[e[x]]]."""
    inv = [0] * len(e)
    for x, v in enumerate(e):
        inv[v] = x
    return tuple((a, tuple(inv[t[v]] for v in e)) for a, t in trans)


# ---------------------------------------------------------------------------
# running words, languages


def run_word(a: LAlgebra, word) -> int:
    """e_A(word): apply the first letter first (alpha_w = alpha_an ... alpha_a1)."""
    s = a.init
    for ch in word:
        s = a.tr(ch)[s]
    return s


def word_table(m, word) -> tuple:
    """The state each state of the coalgebra or L-algebra m reaches on word,
    its letters applied first to last: the table of gamma_w or alpha_w."""
    table = tuple(range(m.states.size))
    for letter in word:
        table = tuple(map(m.tr(letter).__getitem__, table))
    return table


def eval_free(a: LAlgebra, x: FreeElement) -> int:
    """e_A on a free element: combine word runs with the D-structure."""
    if tuple(x.alphabet) != a.alphabet:
        raise StructureError("alphabet mismatch")
    return combine_elements(
        a.states, [(run_word(a, w), c) for w, c in x.pairs]
    )


def _refined(m, out):
    """(delta, finals, block) for the coalgebra or L-algebra m under the
    output table out: delta[s] the states s reaches on each letter, finals
    the states out sends to 1, block the Nerode partition of all states."""
    tables, states = [m.tr(a) for a in m.alphabet], range(m.states.size)
    delta = derived(m, "_delta", lambda: tuple(tuple(t[s] for t in tables) for s in states))
    finals = {s for s, v in enumerate(out) if v == 1}
    return delta, finals, _nerode(delta, finals, states)


def _partition(q: Coalgebra):
    """_refined(q, q.out), kept on q."""
    return derived(q, "_nerode", _refined, q, q.out)


def language_of_state(q: Coalgebra, state: int) -> RegularLanguage:
    """Minimal automaton of {w : out(gamma_w(state)) = 1} (structure forgotten).

    q's states are refined once, by their output, and each state's language
    is numbered off that partition once; both are kept on q.
    """
    return derived(q, "_languages", _language_of_state, q, state, key=state)


def _language_of_state(q: Coalgebra, state: int) -> RegularLanguage:
    delta, finals, block = _partition(q)
    return _canonical(q.alphabet, delta, block, finals, state)


def languages_of(q: Coalgebra) -> list:
    """The language of each state of q, in state order."""
    return [language_of_state(q, s) for s in range(q.states.size)]


def language_of_output(a: LAlgebra, out) -> RegularLanguage:
    """Minimal automaton of {w : out(alpha_w(init)) = 1}, from one Nerode
    partition of a's states under out; kept on a by out."""
    return derived(a, "_languages", _language_of_output, a, out, key=out)


def _language_of_output(a: LAlgebra, out) -> RegularLanguage:
    delta, finals, block = _refined(a, out)
    return _canonical(a.alphabet, delta, block, finals, a.init)


def state_output_morphism(q: Coalgebra, state: int) -> tuple:
    """Dual of a state selector: output table on the dual L-algebra."""
    return state_output(q.pair, q.states, state)


def right_derivative_view(q: Coalgebra, a) -> Coalgebra:
    """Same states and transitions; output becomes out . gamma_a."""
    step = q.tr(a)
    return Coalgebra(
        q.pair, q.alphabet, q.states, q.trans,
        tuple(q.out[step[s]] for s in range(q.states.size)),
    )


def shift_initial(a: LAlgebra, x: FreeElement) -> LAlgebra:
    """Same transitions, initial state e_A(x)."""
    return LAlgebra(a.pair, a.alphabet, a.states, a.trans, eval_free(a, x))


def shift_initial_co(q: Coalgebra, x: FreeElement) -> Coalgebra:
    """Q_x, defined through the dual: dual(Q_x) = dual(Q) with init e(rev x)."""
    shifted = shift_initial(dual_automaton(q), rev_free(x))
    qx = relabel_double_dual(q.pair, q.states, dual_automaton_inv(shifted))
    check_invariant(qx.trans == q.trans, "shifting the initial state changed the transitions")
    return qx


# ---------------------------------------------------------------------------
# coalgebra homomorphisms (bounded search)


def find_coalgebra_hom(src: Coalgebra, dst: Coalgebra):
    """A T_Sigma-coalgebra homomorphism src -> dst, or None (exhaustive).

    The table must be a C-algebra morphism, commute with every letter, and
    satisfy dst.out o h = src.out.  Transitions act as unary operations, so
    the generic forced-propagation search of _search_maps applies, and the
    first table it yields is returned unchecked: as all_morphisms proves,
    the search has compared every operation, the letters among them, at
    every argument of the full table and tested it monotone, and every
    entry passed the output test when it was assigned.
    """
    if src.pair != dst.pair or src.alphabet != dst.alphabet:
        raise StructureError("mismatched automata")
    src_ops = [*src.states.sig_ops, *((1, src.tr(a)) for a in src.alphabet)]
    dst_ops = [*dst.states.sig_ops, *((1, dst.tr(a)) for a in src.alphabet)]
    found = _search_maps(
        src_ops, dst_ops, src.states.size, dst.states.size,
        src.states.order, dst.states.order, False, None,
        lambda x, v: dst.out[v] == src.out[x],
    )
    return next(found, None)


# ---------------------------------------------------------------------------
# subcoalgebras of the rational fixpoint, local varieties


HOM_SEARCH_BOUND = 8


def _rho_languages(q: Coalgebra) -> bool:
    """Whether q's states accept the languages of a subcoalgebra of rho.

    Computes both criteria and checks that they agree: (i) all states accept
    pairwise distinct languages, read off q's kept Nerode partition, whose
    classes must all be singletons; (ii) the dual L-algebra is reachable
    (word images generate the carrier under the D-operations).
    """
    crit_langs = len(set(_partition(q)[2].values())) == q.states.size

    a = dual_automaton(q)
    seen, _ = explore(a.init, a.alphabet, lambda s, letter: a.tr(letter)[s])
    crit_reach = len(closure(dict.fromkeys(seen), closure_ops(a.states))[0]) == a.states.size

    check_invariant(crit_langs == crit_reach, "rho-subcoalgebra criteria disagree")
    return crit_langs


def is_subcoalgebra_of_rho(q: Coalgebra) -> bool:
    """True iff q embeds in the coalgebra of all regular languages (both
    criteria of _rho_languages, checked against each other)."""
    return _rho_languages(q)


def is_local_variety(q: Coalgebra) -> bool:
    """True iff q (a subcoalgebra of rho) is closed under right derivatives.

    Criterion (i): every right derivative of a state language is again a state
    language.  The state s of right_derivative_view(q, a) accepts the right
    derivative by a of s's language, so (i) holds iff, in one Nerode
    partition of q beside each view, every class that holds a state of the
    view holds a state of q.  Criterion (ii), checked for carriers up to
    HOM_SEARCH_BOUND: a coalgebra homomorphism (Q)_a -> Q exists for every
    letter.  Both are computed and must agree.
    """
    if not _rho_languages(q):
        raise StructureError("is_local_variety requires a subcoalgebra of rho")
    views = [right_derivative_view(q, a) for a in q.alphabet]
    n = q.states.size
    delta, finals, _ = _partition(q)
    # q beside a view: the view's state s is state n + s
    beside = delta + tuple(tuple(n + t for t in row) for row in delta)

    def derivatives_kept(view):
        view_finals = {n + s for s, v in enumerate(view.out) if v == 1}
        block = _nerode(beside, finals | view_finals, range(2 * n))
        return {block[n + s] for s in range(n)} <= {block[s] for s in range(n)}

    crit_langs = all(map(derivatives_kept, views))
    if n <= HOM_SEARCH_BOUND:
        crit_hom = all(find_coalgebra_hom(view, q) is not None for view in views)
        check_invariant(crit_langs == crit_hom, "local-variety criteria disagree")
    return crit_langs


def generated_local_variety(pair: str, seeds, cap: int = 4096) -> Coalgebra:
    """Least local variety containing the seed languages, as a coalgebra.

    Its states are its languages in sort-key order with the pair's C-side
    structure, transitions are left derivatives and the output is acceptance
    of the empty word; VECT2 states then take the standard basis encoding,
    which dual maps read.  For every pair it is the dual coalgebra of the
    syntactic L-algebra as _column_lalgebra builds it, renumbered.  The
    languages of its states, read off the coalgebra's kept Nerode
    partition, must be pairwise distinct, the first criterion of
    is_subcoalgebra_of_rho.  CapExceeded is raised above cap languages,
    before the dual is taken: by _column_lalgebra for JSL0 and VECT2, one
    language per column, and here for a Birkhoff pair, one per down-set of
    the points.
    """
    a = _column_lalgebra(pair, seeds, cap)
    if pair in BIRKHOFF_PAIRS:  # one language per down-set of the points
        base = int(d_tag(pair) == "SET_STAR")
        if len(downset_masks([row[base:] for row in a.states.leq[base:]], cap)) > cap:
            raise CapExceeded(f"local variety exceeded cap {cap}")
    q = dual_automaton_inv(a)
    distinct = len(set(_partition(q)[2].values())) == q.states.size
    check_invariant(distinct, "two states of the dual coalgebra accept one language")
    langs = languages_of(q)
    order = sorted(range(len(langs)), key=lambda s: langs[s].sort_key())
    if vect_prime(q.states.tag) is not None:
        # standardize_vect of the states in language order
        order = sorted(order, key=standard_basis_perm(q.states, order).__getitem__)
    return _reordered(q, order)


def _reordered(m, order):
    """The coalgebra or L-algebra m with its states renumbered, order[x]
    becoming x."""
    perm = [0] * len(order)
    for new, old in enumerate(order):
        perm[old] = new
    states, trans = relabel_algebra(m.states, perm), _relabel_trans(order, m.trans)
    if isinstance(m, LAlgebra):
        return LAlgebra(m.pair, m.alphabet, states, trans, perm[m.init])
    return Coalgebra(m.pair, m.alphabet, states, trans, tuple(map(m.out.__getitem__, order)))


# ---------------------------------------------------------------------------
# the syntactic L-algebra: the dual of a local variety, built on its monoid

SYNTACTIC_CAP = 512


def syntactic_lalgebra(pair: str, seeds) -> LAlgebra:
    """The dual L-algebra of the local variety generated by the seeds.

    For the Birkhoff pairs BA, DL01 and BR it is _column_lalgebra's, built on
    the syntactic monoid under SYNTACTIC_CAP and labelled as dual_object
    labels the points of the variety.  For JSL0 and VECT2 it is the dual of
    generated_local_variety, which is built from the same L-algebra and
    checked as a local variety, so that its carrier is labelled by the
    variety's languages.
    """
    if pair in BIRKHOFF_PAIRS:
        return _column_lalgebra(pair, seeds, SYNTACTIC_CAP)
    q = generated_local_variety(pair, seeds)
    if not is_local_variety(q):
        raise StructureError("the closure of the seeds is not a local variety")
    return dual_automaton(q)


def _column_lalgebra(pair, seeds, cap):
    """The syntactic L-algebra of the seeds, the dual of their local
    variety, built on their syntactic monoid M for every pair: the
    syntactic D-monoid is the transition D-monoid of the minimal automaton
    (Adamek, Milius and Urbat).

    M is Syn(L) for one seed, the subdirect product of the seeds' syntactic
    monoids for several (langlib.syntactic_masks).  The quotients
    q_i = u^-1 L v^-1 of the seeds are sets of elements, and the column of
    m is Q(m) = {i : m in q_i}, a bitmask, distinct for distinct elements.
    The carrier is the closure of the columns under the letters and the
    D-side operations as set operations (duality.set_ops): JSL0's union
    gives Polak's syntactic semiring, VECT2's sum Reutenauer's syntactic
    algebra, and the tables satisfy the laws by construction, masks closed
    under union with the empty mask being a JSL0 and masks closed under sum
    a GF(2) subspace.  A letter a acts by bit i of a s = bit j of s, where
    q_j = a^-1 q_i, a preimage, which preserves union, sum and the empty
    mask, and sends Q(m) to Q([a] m).  init is the unit's column, so a word
    is read as the class of its reversal.  Carriers are numbered as
    dual_object numbers the points of the variety, by their languages' sort
    keys: BA ranks a column by the language of its element, DL01 a column c
    by that of its up-set {n : Q(n) contains c} and orders columns by
    reverse inclusion, BR ranks as BA behind the basepoint, the empty
    column; JSL0 keeps closure order and VECT2 takes the standard basis.

    M is explored and the columns closed under cap, which only JSL0 and
    VECT2 add to, one language of their variety per column; the stage is
    the syntactic monoid for a Birkhoff pair, else the language closure.
    """
    seeds = list(seeds)
    tag = d_tag(pair)
    birkhoff = pair in BIRKHOFF_PAIRS
    stage = "syntactic monoid" if birkhoff else "language closure"
    left, derivatives, masks, language = syntactic_masks(seeds, cap, stage)
    alphabet = seeds[0].alphabet
    quotients, _, lefts = closure(dict.fromkeys(masks), derivatives)  # the u^-1 L v^-1
    elements = range(len(left))
    columns = [sum(1 << i for i, q in enumerate(quotients) if q >> m & 1) for m in elements]
    element = {c: m for m, c in enumerate(columns)}
    check_invariant(len(element) == len(columns), "two monoid elements lie in the same quotients")

    def letter(i):
        preimage = mask_preimage(lefts[i])

        def act(s):  # a column's image is read off left
            m = element.get(s)
            return preimage(s) if m is None else columns[left[m][i]]

        return 1, act, False

    ops = [letter(i) for i in range(len(alphabet))] + set_ops(tag, (1 << len(quotients)) - 1)
    base, first = int(tag == "SET_STAR"), columns
    if birkhoff:  # the closure adds no column, so it starts from them in rank order
        if tag == "POS":
            key = [sum(1 << n for n in elements if columns[n] & c == c) for c in columns]
        else:
            key = [1 << m for m in elements]
        langs = {columns[m]: language(key[m]) for m in elements if columns[m] or not base}
        first = [0] * base + sorted(langs, key=lambda c: langs[c].sort_key())
    closed, _, tables = closure(dict.fromkeys(first), ops, cap, stage=stage)
    structure = dict(zip(signature(tag), tables[len(alphabet):]))
    order = [[c & d == d for d in closed] for c in closed] if tag == "POS" else None
    carrier = make_algebra(tag, len(closed), structure, order)
    trans = tuple(sorted(zip(alphabet, map(tuple, tables))))
    a = LAlgebra(pair, alphabet, carrier, trans, closed.index(columns[0]))
    if vect_prime(tag) is not None:
        # dual maps read matrices off the standard basis encoding
        a = _reordered(a, sorted(carrier.carrier(), key=standard_basis_perm(carrier).__getitem__))
    return a


# ---------------------------------------------------------------------------
# the dual Sigma-generated D-monoid


def dual_generated_monoid(a) -> GeneratedDMonoid:
    """The Sigma-generated D-monoid whose associated L-algebra is a.

    a is an L-algebra such as syntactic_lalgebra's; a local variety given as
    a coalgebra is checked and dualized first.  The carrier is a's states;
    the unit is e(eps) = init, the multiplication is defined on
    representatives via e(x) o e(y) = e(x * y).  Word representatives are
    shortlex-minimal (breadth-first); elements not reachable by words alone
    (possible outside SET/POS) get canonical D-combinations of word
    representatives.  StructureError is raised unless the carrier is
    generated by words and D-operations, the table passes validate_dmonoid
    and its associated L-algebra is a.

    The table is built column by column.  The column of a word w is alpha_w
    as a table, x -> e(x * w); each explored word's column is read off its
    breadth-first parent's, column(w a) = alpha_a . column(w), one lookup
    per entry.  Every alpha_w is a D-morphism, so e(x * y) is the
    D-combination, with the coefficients of y's representative, of the
    entries x of its words' columns: column y of the table is that
    combination of whole columns (combine_columns), and the table is its
    transpose.
    """
    if isinstance(a, Coalgebra):
        if not is_local_variety(a):
            raise StructureError("dual_generated_monoid requires a local variety")
        a = dual_automaton(a)
    tag = a.states.tag
    alphabet = a.alphabet
    n = a.states.size
    # breadth-first word reachability gives shortlex-minimal word representatives
    states, delta = explore(a.init, alphabet, lambda s, letter: a.tr(letter)[s])
    words = shortlex_words(delta, alphabet)
    columns = along_shortlex_words(
        delta, [a.tr(letter) for letter in alphabet], tuple(range(n)),
        lambda column, t: tuple(map(t.__getitem__, column)),
    )
    reprs = {s: free_word(tag, alphabet, w) for s, w in zip(states, words)}
    if len(reprs) < n:
        elements, witnesses, _ = dmonoid_closure(reprs, a.states)
        reprs = dict(zip(elements, witnesses))
    if len(reprs) < n:
        raise StructureError("carrier not generated by words and D-operations")
    _minimize_reprs(a, reprs, dict(zip(words, states)))
    column_of = dict(zip(words, columns))
    mult = tuple(zip(*(
        combine_columns(a.states, [(column_of[w], c) for w, c in reprs[y].pairs], n)
        for y in range(n)
    )))
    base = make_dmonoid(a.states, mult, a.init)
    problems = validate_dmonoid(base)
    if problems:
        raise StructureError(f"dual monoid fails validation: {problems[0]}")
    gens = tuple((letter, run_word(a, letter)) for letter in alphabet)
    g = GeneratedDMonoid(base, alphabet, gens, tuple(sorted(reprs.items())))
    if associated_lalgebra(g) != a:
        raise StructureError("associated L-algebra differs from the input")
    return g


def _minimize_reprs(a: LAlgebra, reprs: dict, state_of: dict):
    """Replace representatives by shortlex-minimal combinations of word reps.

    The candidates are the zero and the canonical combinations of the
    representatives' words, in FreeElement.sort_key order (SET_STAR: the
    zero and single words; no candidates above 12 words); each element
    takes the first candidate that evaluates to it.  state_of maps each
    word to the state it reaches, so a candidate is evaluated by folding
    the carrier's tables over its terms in order, as combine_elements does;
    a FreeElement is made only for a candidate that is kept.
    """
    tag = a.states.tag
    if tag in ("SET", "POS"):
        return
    words = sorted(
        {w for fe in reprs.values() for w, _ in fe.pairs}, key=lambda w: (len(w), w)
    )
    zero = a.states.op("point" if tag == "SET_STAR" else "zero")  # the empty combination
    best = {zero: free_zero(tag, a.alphabet)}
    if tag == "SET_STAR":
        for w in words:
            if state_of[w] not in best:
                best[state_of[w]] = free_word(tag, a.alphabet, w)
    elif len(words) > 12:
        return  # candidate pool too large; keep constructed reps
    else:
        p = vect_prime(tag)
        plus = a.states.op("join" if p is None else "add")
        scale = {c: a.states.op(f"smul{c}") if p else range(a.states.size)
                 for c in range(1, p or 2)}

        def extend(acc, start, left, pairs):
            """Keep the first candidate of each value among pairs followed by
            left more terms on the words from start on, in sort order; False
            once every element has one."""
            for i in range(start, len(words) - left + 1):
                w = words[i]
                for c, table in scale.items():
                    value, more = plus[acc][table[state_of[w]]], pairs + ((w, c),)
                    if left > 1:
                        if not extend(value, i + 1, left - 1, more):
                            return False
                    elif value not in best:
                        best[value] = make_free(tag, a.alphabet, more)
                        if len(best) == a.states.size:
                            return False
            return True

        for r in range(1, len(words) + 1):
            if len(best) == a.states.size or not extend(zero, 0, r, ()):
                break
    for elem in reprs:
        if elem in best:
            reprs[elem] = best[elem]


# ---------------------------------------------------------------------------
# products of L-algebras / coproducts of coalgebras


def lalgebra_product(a1: LAlgebra, a2: LAlgebra) -> LAlgebra:
    if a1.pair != a2.pair or a1.alphabet != a2.alphabet:
        raise StructureError("mismatched automata")
    prod, _, _ = product(a1.states, a2.states)
    n2 = a2.states.size
    trans = {
        x: tuple(
            a1.tr(x)[s // n2] * n2 + a2.tr(x)[s % n2] for s in range(prod.size)
        )
        for x in a1.alphabet
    }
    return LAlgebra(
        a1.pair, a1.alphabet, prod,
        tuple(sorted((x, t) for x, t in trans.items())),
        a1.init * n2 + a2.init,
    )


def coalgebra_coproduct(q1: Coalgebra, q2: Coalgebra) -> Coalgebra:
    """Coproduct in the C-side category, computed through the duality."""
    return dual_automaton_inv(lalgebra_product(dual_automaton(q1), dual_automaton(q2)))


# ---------------------------------------------------------------------------
# bounded enumeration of coalgebras (fuel for the law suites)


def enumerate_coalgebras(pair, alphabet, max_states, limit=None):
    """All valid coalgebras of the pair with small carriers, deterministically.

    Yields coalgebras whose states algebra is one of the pair's C-side
    algebras up to max_states (duality._objects_for), transitions range over
    all endomorphisms and outputs over all morphisms to O_C.  limit caps the
    total count (deterministic prefix).
    """
    bundle = canonical_constants(pair)
    alphabet = tuple(alphabet)
    count = 0
    for states in _objects_for(pair, "C", max_states):
        endos = [f.table for f in all_morphisms(states, states)]
        outs = [f.table for f in all_morphisms(states, bundle.O_C)]
        for combo in itertools.product(endos, repeat=len(alphabet)):
            for out in outs:
                yield Coalgebra(pair, alphabet, states, tuple(sorted(zip(alphabet, combo))), out)
                count += 1
                if limit is not None and count >= limit:
                    return
