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
    _renumber,
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
    inverse_perm,
    make_algebra,
    mask_preimage,
    product,
    set_algebra,
    set_ops,
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
    state_output,
)
from .langlib import (
    FreeElement,
    RegularLanguage,
    _canonical,
    _nerode,
    element_languages,
    free_word,
    free_zero,
    make_free,
    mask_languages,
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
    inv = inverse_perm(e)
    return tuple((a, _renumber(t, e, inv)) for a, t in trans)


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
    every argument of the full table, each argument tuple when the last of
    its arguments left the queue, which is drained before a table is
    yielded, and tested it monotone, and every entry passed the output
    test when it was assigned.
    """
    if src.pair != dst.pair or src.alphabet != dst.alphabet:
        raise StructureError("mismatched automata")
    src_ops = [*src.states.sig_ops, *((1, src.tr(a)) for a in src.alphabet)]
    dst_ops = [*dst.states.sig_ops, *((1, dst.tr(a)) for a in src.alphabet)]
    found = _search_maps(
        src_ops, dst_ops, src.states.size, dst.states.size,
        src.states.order, dst.states.order, False,
        lambda x, v: dst.out[v] == src.out[x],
    )
    return next(found, None)


# ---------------------------------------------------------------------------
# subcoalgebras of the rational fixpoint, local varieties


HOM_SEARCH_BOUND = 8


def is_subcoalgebra_of_rho(q: Coalgebra) -> bool:
    """True iff q embeds in the coalgebra of all regular languages.

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
    if not is_subcoalgebra_of_rho(q):
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
    which dual maps read.  It is the dual of _column_lalgebra's L-algebra, a
    local variety by that construction and not checked as one.  JSL0 and
    VECT2 take that dual, already in this order, and its states' languages,
    read off its kept Nerode partition, must be pairwise distinct.  For a
    Birkhoff pair a down-set of the points accepts the OR of its points'
    masks over M, by Birkhoff duality a lattice isomorphism onto the
    variety: the points' languages are its join-irreducibles (BA and BR
    {w : [w] = m}; DL01, after Pin, the up-set {n : Q(n) contains Q(m)},
    held by every down-set that holds m, so 1 << m gives the same OR) and
    each language is the join of those below it.  The masks, in
    _language_order, are the states and their set algebra, read off the
    masks, closed under the set operations as the down-sets are, the carrier.
    CapExceeded is raised above cap languages, one per column for JSL0 and
    VECT2 (by _column_lalgebra) and one per down-set for a Birkhoff pair.
    """
    a, points, derivatives = _column_lalgebra(pair, seeds, cap)
    if points is None:
        q = dual_automaton_inv(a)
        distinct = len(set(_partition(q)[2].values())) == q.states.size
        check_invariant(distinct, "two states of the dual coalgebra accept one language")
        return q
    base = int(d_tag(pair) == "SET_STAR")
    downsets = downset_masks([row[base:] for row in a.states.leq[base:]], cap)
    if len(downsets) > cap:
        raise CapExceeded(f"local variety exceeded cap {cap}")
    ks = [sum(1 << m for i, m in enumerate(points) if d >> i & 1) for d in downsets]
    order, delta = _language_order(a.alphabet, derivatives, ks)
    pos, masks = inverse_perm(order), [ks[x] for x in order]
    states = set_algebra(pair, masks, max(masks))
    trans = sorted((c, tuple(pos[delta[x][i]] for x in order)) for i, c in enumerate(a.alphabet))
    return Coalgebra(pair, a.alphabet, states, tuple(trans), tuple(k & 1 for k in masks))


# ---------------------------------------------------------------------------
# the syntactic L-algebra: the dual of a local variety, built on its monoid

SYNTACTIC_CAP = 512


def syntactic_lalgebra(pair: str, seeds) -> LAlgebra:
    """The dual L-algebra of the local variety generated by the seeds:
    _column_lalgebra's, built on their syntactic monoid, its carrier
    labelled as dual_object labels the points of the variety for BA, DL01
    and BR and by the variety's languages for JSL0 and VECT2.  It is not
    checked as a local variety: it is one by construction.  Its cap is
    SYNTACTIC_CAP for a Birkhoff pair and generated_local_variety's, 4096
    languages, for JSL0 and VECT2.
    """
    return _column_lalgebra(pair, seeds, SYNTACTIC_CAP if pair in BIRKHOFF_PAIRS else 4096)[0]


def _column_lalgebra(pair, seeds, cap):
    """The syntactic L-algebra of the seeds, the dual of their local
    variety, built on their syntactic monoid M for every pair (Adamek,
    Milius and Urbat: the syntactic D-monoid is the transition D-monoid of
    the minimal automaton), returned with a Birkhoff carrier's points, in
    its order behind BR's basepoint, as elements of M (None for JSL0 and
    VECT2) and with syntactic_masks' derivatives.

    M is Syn(L) for one seed, the subdirect product of the seeds' syntactic
    monoids for several (langlib.syntactic_masks).  The quotients
    q_i = u^-1 L v^-1 of the seeds are sets of elements, and the column of
    m is Q(m) = {i : m in q_i}, a bitmask, distinct for distinct elements.
    The carrier is the closure of the columns under the letters and the
    D-side operations as set operations (algebra.set_ops): JSL0's union
    gives Polak's syntactic semiring, VECT2's sum Reutenauer's syntactic
    algebra, and the tables satisfy the laws by construction, masks closed
    under union with the empty mask being a JSL0 and masks closed under sum
    a GF(2) subspace.  A letter a acts by bit i of a s = bit j of s, where
    q_j = a^-1 q_i, a preimage, which preserves union, sum and the empty
    mask, and sends Q(m) to Q([a] m).  init is the unit's column, so a word
    is read as the class of its reversal.

    The dual coalgebra is a local variety for every pair, its languages the
    quotients' combinations under the C-side operations: the letters act
    as left derivatives, a^-1 q_i = q_j; a right derivative of a quotient,
    u^-1 L (v a)^-1, is a quotient; a derivative is a preimage, and the
    C-side operations are set operations, which commute with preimages.

    A Birkhoff carrier is numbered as dual_object numbers the points of the
    variety, by their languages' sort keys: BA ranks a column by the
    language of its element, DL01 a column c by that of its up-set
    {n : Q(n) contains c} and orders columns by reverse inclusion, BR ranks
    as BA behind the basepoint, the empty column.  All three read these
    languages off the fibers of one multiplication table of M
    (langlib.element_languages), with no refinement, an up-set's fiber
    being the OR of its elements'.  The closure adds no column to these, so
    it starts from them in rank order.  JSL0 and VECT2 number their carriers so that
    the dual's states, the variety's languages, are in sort-key order and,
    for VECT2, in the standard basis encoding: the element s is paired with
    the state of the dual that accepts the words whose class lies in K_s, a
    set of elements of M.

    - JSL0: K_s = {m : Q(m) is not below s}.  The dual's transition by a is
      the right adjoint of a's action and its output is 1 at s iff init is
      not below s, so s accepts w iff Q([w]) = a_1 ... a_n init is not
      below s.  Every s is a union of columns (the letters send columns to
      columns), so s != t, say s not below t, gives a column below s but
      not below t: the K_s are pairwise distinct.  a^-1 K_s is
      K_{s'}, s' the adjoint's image of s.
    - VECT2: with c(m) the standard-form index of Q(m) and y an element in
      standard form, K_y = {m : y . c(m) = 1}, for the dot product over
      GF(2) under which the dual's transition by a is the transpose A^T of
      a's matrix A and its output at y is y . init, so y accepts w iff
      y . c([w]) = 1.  The columns span the carrier and the product is
      nondegenerate, so the K_y are pairwise distinct, and a^-1 K_y is
      K_{A^T y}.

    Each K is a language of the variety, and the K are closed under left
    derivatives (a preimage under M's left Cayley table), so they are read
    as languages by _language_order.  JSL0 is renumbered in language order.
    For VECT2, P takes the standard form to the standard basis picked along
    language order, the states' relabelling of standardize_vect; the dual
    of a coalgebra relabelled by P is the L-algebra relabelled by
    (P^-1)^T, which keeps the dot product, so the standard-form element y
    becomes the vector of the y . b over the basis vectors b, and both
    steps are one renumbering.  The K, the language order and the change of
    basis are read off the closure's own tables (_variety_order), so every
    carrier's tables are renumbered once, into their final order, and
    checked once, by make_algebra.

    M is explored and the columns closed under cap, which only JSL0 and
    VECT2 add to, one language of their variety per column; the stage is
    the syntactic monoid for a Birkhoff pair, else the language closure.
    """
    seeds = list(seeds)
    tag = d_tag(pair)
    birkhoff = pair in BIRKHOFF_PAIRS
    stage = "syntactic monoid" if birkhoff else "language closure"
    left, derivatives, masks, right = syntactic_masks(seeds, cap, stage)
    alphabet = seeds[0].alphabet
    quotients, _, lefts = closure(dict.fromkeys(masks), derivatives)  # the u^-1 L v^-1
    elements = range(len(left))
    columns = [sum(1 << i for i, q in enumerate(quotients) if q >> m & 1) for m in elements]
    element = {c: m for m, c in enumerate(columns)}
    check_invariant(len(element) == len(columns), "two monoid elements lie in the same quotients")

    def letter(i):
        preimage = mask_preimage(lefts[i], len(quotients))

        def act(s):  # a column's image is read off left
            m = element.get(s)
            return preimage(s) if m is None else columns[left[m][i]]

        return 1, act, False

    ops = [letter(i) for i in range(len(alphabet))] + set_ops(tag, (1 << len(quotients)) - 1)
    base, first, points = int(tag == "SET_STAR"), columns, None
    if birkhoff:
        targets = [  # the up-set of m in the carrier's order, {m} for BA and BR
            {n for n in elements if columns[n] & c == c} if tag == "POS" else {m}
            for m, c in enumerate(columns)
        ]
        langs = element_languages(alphabet, right, targets)
        live = (m for m in elements if columns[m] or not base)
        points = sorted(live, key=lambda m: langs[m].sort_key())
        first = [0] * base + [columns[m] for m in points]
    closed, _, tables = closure(dict.fromkeys(first), ops, cap, stage=stage)
    structure = dict(zip(signature(tag), tables[len(alphabet):]))
    order = range(len(closed)) if birkhoff else _variety_order(
        tag, alphabet, derivatives, columns, closed, structure
    )
    pos = inverse_perm(order)
    closed = [closed[x] for x in order]
    matrix = [[c & d == d for d in closed] for c in closed] if tag == "POS" else None
    carrier = make_algebra(
        tag, len(closed), {name: _renumber(t, order, pos) for name, t in structure.items()}, matrix
    )
    trans = tuple(sorted((a, _renumber(t, order, pos)) for a, t in zip(alphabet, tables)))
    return LAlgebra(pair, alphabet, carrier, trans, closed.index(columns[0])), points, derivatives


def _variety_order(tag, alphabet, derivatives, columns, closed, structure) -> list:
    """The numbering _column_lalgebra gives a JSL0 or VECT2 column closure,
    as the old index of each new element.  closed and structure are the
    closure's elements and D-side tables; the K, their languages and, for
    VECT2, the standard forms are read off them, the tables viewed unchecked
    as an algebra, of which standard_basis_perm reads only the zero, the sum
    and the scalings."""
    elements, xs = range(len(columns)), range(len(closed))
    if tag == "JSL0":
        ks = [sum(1 << m for m in elements if columns[m] & ~s) for s in closed]
    else:
        raw = FinAlgebra(tag, len(closed), tuple(sorted(structure.items())))
        code, index = standard_basis_perm(raw), {s: x for x, s in enumerate(closed)}
        c = [code[index[column]] for column in columns]
        ks = [sum(1 << m for m in elements if (code[x] & c[m]).bit_count() & 1) for x in xs]
    order, _ = _language_order(alphabet, derivatives, ks)
    if tag == "JSL0":
        return order
    # y becomes the vector of the b . y, b the basis along language order
    basis = inverse_perm(standard_basis_perm(raw, order))
    rows = [code[basis[1 << i]] for i in range(len(closed).bit_length() - 1)]
    return inverse_perm([
        sum(((b & code[x]).bit_count() & 1) << i for i, b in enumerate(rows)) for x in xs
    ])


def _language_order(alphabet, derivatives, ks):
    """(order, delta) for the masks ks over M, a variety's languages: delta
    is their minimal DFA of left derivatives, order their sort-key order.  A
    mask met twice, or a derivative that is no mask, is an internal error."""
    state = {k: x for x, k in enumerate(ks)}
    check_invariant(len(state) == len(ks), "two elements of the L-algebra pair with one language")
    delta = [tuple(state.get(d(k)) for _, d, _ in derivatives[: len(alphabet)]) for k in ks]
    check_invariant(
        all(None not in row for row in delta), "a derivative of a paired language is not paired"
    )
    langs = mask_languages(alphabet, ks, delta)
    return sorted(range(len(ks)), key=lambda x: langs[x].sort_key()), delta


# ---------------------------------------------------------------------------
# the dual Sigma-generated D-monoid


def dual_generated_monoid(a) -> GeneratedDMonoid:
    """The Sigma-generated D-monoid whose associated L-algebra is a.

    a is an L-algebra such as syntactic_lalgebra's; a local variety given as
    a coalgebra is checked and dualized first.  The carrier is a's states;
    the unit is e(eps) = init, the multiplication is defined on
    representatives via e(x) o e(y) = e(x * y).  Each element's
    representative is the least combination, in FreeElement.sort_key order,
    of the shortlex-minimal words (found breadth-first) that evaluates to it
    (_shortlex_reprs); elements no word reaches (possible outside SET/POS)
    get a D-combination of words.  Only where that search misses an element
    (SET and POS, more than 12 words, or a carrier the words do not
    generate) are the words closed under the D-operations (dmonoid_closure):
    each element then keeps its shortlex-minimal word or closure witness
    unless the search found it.  StructureError is raised unless the carrier
    is generated by words and D-operations, the table passes
    validate_dmonoid and its associated L-algebra is a.

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
    reprs = _shortlex_reprs(a, dict(zip(words, states)))
    if len(reprs) < n:  # the search missed an element: build the rest from the words
        found = reprs
        reprs = {s: free_word(tag, alphabet, w) for s, w in zip(states, words)}
        if len(reprs) < n:
            elements, witnesses, _ = dmonoid_closure(reprs, a.states)
            reprs = dict(zip(elements, witnesses))
        if len(reprs) < n:
            raise StructureError("carrier not generated by words and D-operations")
        reprs.update(found)
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


def _shortlex_reprs(a: LAlgebra, state_of: dict) -> dict:
    """Each element's least combination of the words of state_of, a dict
    from each shortlex-minimal word to the state it reaches, as a dict from
    element to FreeElement; an element the search misses is left out.

    The candidates are the zero and the canonical combinations of the
    words, in FreeElement.sort_key order (SET_STAR: the zero and single
    words; none for SET and POS, or above 12 words); each element takes the
    first candidate that evaluates to it.  A candidate is evaluated by
    folding the carrier's tables over its terms in order, as
    combine_elements does; a FreeElement is made only for a candidate that
    is kept.  The search stops once every element has one.
    """
    tag = a.states.tag
    words = sorted(state_of, key=lambda w: (len(w), w))
    if tag in ("SET", "POS") or (tag != "SET_STAR" and len(words) > 12):
        return {}
    zero = a.states.op("point" if tag == "SET_STAR" else "zero")  # the empty combination
    best = {zero: free_zero(tag, a.alphabet)}
    if tag == "SET_STAR":
        for w in words:
            if state_of[w] not in best:
                best[state_of[w]] = free_word(tag, a.alphabet, w)
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
    return best


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
