"""Regular languages as canonical minimal DFAs, with derivative calculus.

The regex grammar accepts ∅ (empty language), ε (empty word), letters,
concatenation, union |, intersection &, complement ~ and Kleene star.
Star binds tightest, then ~ (prefix, applying to one starred factor),
then concatenation, then &, then |.

A RegularLanguage is a complete minimal DFA whose states are numbered
breadth-first from the initial state (always state 0) with letters taken in
alphabet order, so structural equality coincides with language equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_, xor

from .algebra import (
    KeepsDerived,
    StructureError,
    along_shortlex_words,
    closure,
    derived,
    explore,
    mask_preimage,
    set_ops,
    vect_prime,
)
from .duality import MAIN_PAIRS


class RegexSyntaxError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"{message} at position {pos}")
        self.pos = pos


EMPTY = ("empty",)
EPS = ("eps",)


def _mk_lit(ch):
    return ("lit", ch)


def _mk_cat(r, s):
    if r == EMPTY or s == EMPTY:
        return EMPTY
    if r == EPS:
        return s
    if s == EPS:
        return r
    if r[0] == "cat":  # right-associate
        return _mk_cat(r[1], _mk_cat(r[2], s))
    return ("cat", r, s)


def _mk_or(items):
    flat = set()
    for r in items:
        if r[0] == "or":
            flat.update(r[1])
        elif r != EMPTY:
            flat.add(r)
    if ("not", EMPTY) in flat:
        return ("not", EMPTY)
    if not flat:
        return EMPTY
    if len(flat) == 1:
        return next(iter(flat))
    return ("or", frozenset(flat))


def _mk_and(items):
    flat = set()
    for r in items:
        if r[0] == "and":
            flat.update(r[1])
        elif r == EMPTY:
            return EMPTY
        elif r != ("not", EMPTY):
            flat.add(r)
    if not flat:
        return ("not", EMPTY)
    if len(flat) == 1:
        return next(iter(flat))
    return ("and", frozenset(flat))


def _mk_star(r):
    if r in (EMPTY, EPS):
        return EPS
    if r[0] == "star":
        return r
    return ("star", r)


def _mk_not(r):
    if r[0] == "not":
        return r[1]
    return ("not", r)


_META = set("()|&*~")
_EMPTY_CHARS = {"∅", "@"}
_EPS_CHARS = {"ε", "%"}


def _parse(text):
    pos = 0

    def peek():
        return text[pos] if pos < len(text) else None

    def parse_union():
        nonlocal pos
        node = parse_inter()
        while peek() == "|":
            pos += 1
            node = _mk_or([node, parse_inter()])
        return node

    def parse_inter():
        nonlocal pos
        node = parse_concat()
        while peek() == "&":
            pos += 1
            node = _mk_and([node, parse_concat()])
        return node

    def parse_concat():
        nonlocal pos
        node = parse_factor()
        while True:
            ch = peek()
            if ch is None or ch in "|&)":
                return node
            node = _mk_cat(node, parse_factor())

    def parse_factor():
        nonlocal pos
        ch = peek()
        if ch == "~":
            pos += 1
            return _mk_not(parse_factor())
        node = parse_atom()
        while peek() == "*":
            pos += 1
            node = _mk_star(node)
        return node

    def parse_atom():
        nonlocal pos
        ch = peek()
        if ch is None:
            raise RegexSyntaxError("unexpected end of regex", pos)
        if ch == "(":
            start = pos
            pos += 1
            node = parse_union()
            if peek() != ")":
                raise RegexSyntaxError("unbalanced parenthesis", start)
            pos += 1
            while peek() == "*":
                pos += 1
                node = _mk_star(node)
            return node
        if ch in _EMPTY_CHARS:
            pos += 1
            return EMPTY
        if ch in _EPS_CHARS:
            pos += 1
            return EPS
        if ch in _META:
            raise RegexSyntaxError(f"unexpected {ch!r}", pos)
        pos += 1
        return _mk_lit(ch)

    node = parse_union()
    if pos != len(text):
        raise RegexSyntaxError(f"unexpected {text[pos]!r}", pos)
    return node


def _nullable(r):
    kind = r[0]
    if kind in ("eps", "star"):
        return True
    if kind in ("empty", "lit"):
        return False
    if kind == "cat":
        return _nullable(r[1]) and _nullable(r[2])
    if kind == "or":
        return any(_nullable(x) for x in r[1])
    if kind == "and":
        return all(_nullable(x) for x in r[1])
    return not _nullable(r[1])  # not


def _deriv(r, a):
    kind = r[0]
    if kind in ("empty", "eps"):
        return EMPTY
    if kind == "lit":
        return EPS if r[1] == a else EMPTY
    if kind == "cat":
        head = _mk_cat(_deriv(r[1], a), r[2])
        if _nullable(r[1]):
            return _mk_or([head, _deriv(r[2], a)])
        return head
    if kind == "or":
        return _mk_or([_deriv(x, a) for x in r[1]])
    if kind == "and":
        return _mk_and([_deriv(x, a) for x in r[1]])
    if kind == "star":
        return _mk_cat(_deriv(r[1], a), r)
    return _mk_not(_deriv(r[1], a))  # not


def _regex_letters(r, acc):
    kind = r[0]
    if kind == "lit":
        acc.add(r[1])
    elif kind == "cat":
        _regex_letters(r[1], acc)
        _regex_letters(r[2], acc)
    elif kind in ("or", "and"):
        for x in r[1]:
            _regex_letters(x, acc)
    elif kind in ("star", "not"):
        _regex_letters(r[1], acc)


@dataclass(frozen=True)
class RegularLanguage:
    """Canonical minimal complete DFA; initial state is 0."""

    alphabet: tuple
    size: int
    delta: tuple  # delta[state][letter_index]
    finals: frozenset

    def letter_index(self, a):
        try:
            return self.alphabet.index(a)
        except ValueError:
            raise StructureError(f"letter {a!r} not in alphabet {self.alphabet}") from None

    def run(self, word, state=0) -> int:
        """The state reached from state by reading word."""
        for ch in word:
            state = self.delta[state][self.letter_index(ch)]
        return state

    def accepts(self, word) -> bool:
        return self.run(word) in self.finals

    def is_empty(self) -> bool:
        return not self.finals

    def sort_key(self):
        return (len(self.alphabet), self.alphabet, self.size, self.delta,
                tuple(sorted(self.finals)))


def _nerode(delta, finals, states):
    """Moore partition refinement of states, which delta must keep among
    themselves: block[s] == block[t] iff s and t accept the same language
    (the Nerode classes).  Classes only split, so a stable class count is
    the fixed point."""
    block = {s: int(s in finals) for s in states}
    count = len(set(block.values()))
    while True:
        classes = {}
        refined = {
            s: classes.setdefault((block[s], *map(block.__getitem__, delta[s])), len(classes))
            for s in states
        }
        if len(classes) == count:
            return refined
        block, count = refined, len(classes)


def _canonical(alphabet, delta, block, finals, start) -> RegularLanguage:
    """The canonical minimal DFA of start's language: the classes of the
    Nerode partition block that start reaches, numbered breadth-first with
    letters in order, each stepped through the first state that met it."""
    index = {block[start]: 0}
    order = [start]
    rows = []
    for s in order:
        row = []
        for t in delta[s]:
            c = block[t]
            if c not in index:
                index[c] = len(order)
                order.append(t)
            row.append(index[c])
        rows.append(tuple(row))
    new_finals = frozenset(i for i, s in enumerate(order) if s in finals)
    return RegularLanguage(tuple(alphabet), len(order), tuple(rows), new_finals)


def _minimize(alphabet, n, delta, finals, initial):
    """Trim to the states reached from initial, refine, renumber canonically."""
    reach = [initial]
    seen = {initial}
    for s in reach:
        for t in delta[s]:
            if t not in seen:
                seen.add(t)
                reach.append(t)
    return _canonical(alphabet, delta, _nerode(delta, finals, reach), finals, initial)


def parse_regex(text: str, alphabet=None) -> RegularLanguage:
    """Compile a regex to its canonical minimal DFA via Brzozowski derivatives."""
    ast = _parse(text)
    letters = set()
    _regex_letters(ast, letters)
    if alphabet is None:
        alphabet = sorted(letters)
        if not alphabet:
            raise RegexSyntaxError("cannot infer an alphabet; pass one explicitly", 0)
    else:
        alphabet = list(alphabet)
        if len(set(alphabet)) < len(alphabet):
            raise RegexSyntaxError(f"alphabet {''.join(alphabet)!r} repeats a letter", 0)
        outside = letters - set(alphabet)
        if outside:
            pos = min(text.index(ch) for ch in outside)
            raise RegexSyntaxError(f"letter {text[pos]!r} not in alphabet {alphabet}", pos)
    states, delta = explore(ast, alphabet, _deriv, 10000, "regex states")
    finals = {i for i, r in enumerate(states) if _nullable(r)}
    return _minimize(alphabet, len(states), delta, finals, 0)


def from_components(alphabet, delta, finals, initial) -> RegularLanguage:
    """Canonicalize an explicit complete DFA."""
    return _minimize(tuple(alphabet), len(delta), [tuple(r) for r in delta], set(finals), initial)


def empty_language(alphabet) -> RegularLanguage:
    k = len(alphabet)
    return RegularLanguage(tuple(alphabet), 1, ((0,) * k,), frozenset())


def full_language(alphabet) -> RegularLanguage:
    k = len(alphabet)
    return RegularLanguage(tuple(alphabet), 1, ((0,) * k,), frozenset({0}))


def _product(l1: RegularLanguage, l2: RegularLanguage, keep) -> RegularLanguage:
    if l1.alphabet != l2.alphabet:
        raise StructureError("alphabet mismatch")
    k = len(l1.alphabet)
    n2 = l2.size
    delta = []
    finals = set()
    for s1 in range(l1.size):
        for s2 in range(n2):
            delta.append(
                tuple(l1.delta[s1][i] * n2 + l2.delta[s2][i] for i in range(k))
            )
            if keep(s1 in l1.finals, s2 in l2.finals):
                finals.add(s1 * n2 + s2)
    return _minimize(l1.alphabet, len(delta), delta, finals, 0)


def union(l1, l2):
    return _product(l1, l2, lambda a, b: a or b)


def intersection(l1, l2):
    return _product(l1, l2, lambda a, b: a and b)


def symmetric_difference(l1, l2):
    return _product(l1, l2, lambda a, b: a != b)


def complement(l: RegularLanguage) -> RegularLanguage:
    return _minimize(
        l.alphabet, l.size, l.delta, set(range(l.size)) - set(l.finals), 0
    )


def left_deriv(l: RegularLanguage, a) -> RegularLanguage:
    """{w : aw in L}"""
    return _minimize(l.alphabet, l.size, l.delta, set(l.finals), l.delta[0][l.letter_index(a)])


def right_deriv(l: RegularLanguage, a) -> RegularLanguage:
    """{w : wa in L} -- computed by shifting finals through the letter."""
    i = l.letter_index(a)
    finals = {s for s in range(l.size) if l.delta[s][i] in l.finals}
    return _minimize(l.alphabet, l.size, l.delta, finals, 0)


def reversal(l: RegularLanguage) -> RegularLanguage:
    """Reverse-language DFA via the reversed-subset construction."""

    def step(s, i):
        return frozenset(q for q in range(l.size) if l.delta[q][i] in s)

    states, delta = explore(frozenset(l.finals), range(len(l.alphabet)), step)
    finals = {i for i, s in enumerate(states) if 0 in s}
    return _minimize(l.alphabet, len(delta), delta, finals, 0)


# ---------------------------------------------------------------------------
# free D-monoid elements


def _shortlex(w):
    return (len(w), w)


@dataclass(frozen=True)
class FreeElement:
    """Element of the free D-monoid on an alphabet, in canonical form.

    pairs is the _combination of (word, coefficient) pairs, sorted by
    shortlex: SET/POS carry exactly one word; JSL0 a finite set
    (coefficients 1); VECT(p) a weighted finite set (coefficients in
    1..p-1); SET_STAR at most one word, with the empty tuple denoting the
    absorbing zero.
    """

    tag: str
    alphabet: tuple
    pairs: tuple

    def is_zero(self):
        return not self.pairs

    def sort_key(self):
        return (len(self.pairs),) + tuple(
            (_shortlex(w), c) for w, c in self.pairs
        )


def _combination(tag, pairs):
    """The D-combination of (word, coefficient) pairs in the tag's free
    D-monoid, canonical: its words in shortlex order.

    SET and POS: exactly one word; SET_STAR: at most one word, none being
    the zero; JSL0: a set, every coefficient 1; VECT(p): the coefficients
    of equal words summed mod p, zero sums dropped; a single pair with
    coefficient 1 is canonical.
    """
    p = vect_prime(tag)
    if p is None and tag not in ("SET", "POS", "SET_STAR", "JSL0"):
        raise StructureError(f"tag {tag} has no free monoid here")
    if len(pairs) == 1 and pairs[0][1] == 1:
        return ((pairs[0][0], 1),)
    acc = {}
    for w, c in pairs:
        if p is not None:
            acc[w] = (acc.get(w, 0) + c) % p
        elif c != 1:
            raise StructureError("coefficients must be 1 for this tag")
        else:
            acc[w] = 1
    items = tuple((w, acc[w]) for w in sorted(sorted(acc), key=len) if acc[w])
    if tag in ("SET", "POS") and len(items) != 1:
        raise StructureError(f"{tag} elements are single words")
    if tag == "SET_STAR" and len(items) > 1:
        raise StructureError("SET_STAR elements are a word or zero")
    return items


def make_free(tag: str, alphabet, pairs) -> FreeElement:
    """Canonicalize a list of (word, coeff) pairs into a FreeElement."""
    alphabet = tuple(alphabet)
    pairs = [(str(w), c) for w, c in pairs]
    for w, _ in pairs:
        if any(ch not in alphabet for ch in w):
            raise StructureError(f"word {w!r} not over alphabet {alphabet}")
    return FreeElement(tag, alphabet, _combination(tag, pairs))


def free_word(tag, alphabet, word) -> FreeElement:
    return make_free(tag, alphabet, [(word, 1)])


def free_zero(tag, alphabet) -> FreeElement:
    if tag in ("SET", "POS"):
        raise StructureError(f"{tag} has no zero element")
    return FreeElement(tag, tuple(alphabet), ())


def free_unit(tag, alphabet) -> FreeElement:
    return free_word(tag, alphabet, "")


def rev_free(x: FreeElement) -> FreeElement:
    return make_free(x.tag, x.alphabet, [(w[::-1], c) for w, c in x.pairs])


def free_mul(x: FreeElement, y: FreeElement) -> FreeElement:
    """Multiplication of the free D-monoid: (weighted) concatenation."""
    if x.tag != y.tag or x.alphabet != y.alphabet:
        raise StructureError("tag/alphabet mismatch")
    pairs = [(w1 + w2, c1 * c2) for w1, c1 in x.pairs for w2, c2 in y.pairs]
    return FreeElement(x.tag, x.alphabet, _combination(x.tag, pairs))


def free_combine(tag, alphabet, weighted) -> FreeElement:
    """D-structure combination of free elements: joins / weighted sums."""
    pairs = [(w, coeff * c) for elem, coeff in weighted for w, c in elem.pairs]
    return FreeElement(tag, tuple(alphabet), _combination(tag, pairs))


def eval_language(l: RegularLanguage, x: FreeElement) -> int:
    """The value of the language morphism on a free element.

    SET/POS: membership; JSL0: 1 iff some word lies in the language;
    VECT(p): the GF(p) sum of coefficients of member words; SET_STAR:
    zero evaluates to 0, words to membership.
    """
    if tuple(x.alphabet) != l.alphabet:
        raise StructureError("alphabet mismatch")
    p = vect_prime(x.tag)
    total = sum(c for w, c in x.pairs if l.accepts(w))
    return total % p if p is not None else min(total, 1)


# ---------------------------------------------------------------------------
# free D-monoid morphisms given by generator images


@dataclass(frozen=True)
class DMonoidMorphismFree(KeepsDerived):
    """Morphism between free D-monoids, presented by generator images."""

    tag: str
    source_alphabet: tuple
    target_alphabet: tuple
    images: tuple  # sorted tuple of (letter, FreeElement)

    def image(self, letter) -> FreeElement:
        for b, fe in self.images:
            if b == letter:
                return fe
        raise StructureError(f"letter {letter!r} not in source alphabet")


def make_free_morphism(tag, source_alphabet, target_alphabet, images: dict) -> DMonoidMorphismFree:
    source_alphabet = tuple(source_alphabet)
    target_alphabet = tuple(target_alphabet)
    if set(images) != set(source_alphabet):
        raise StructureError("images must cover the source alphabet exactly")
    frozen = []
    for b in source_alphabet:
        fe = images[b]
        if fe.tag != tag or tuple(fe.alphabet) != target_alphabet:
            raise StructureError(f"image of {b!r} has wrong tag or alphabet")
        frozen.append((b, fe))
    return DMonoidMorphismFree(tag, source_alphabet, target_alphabet, tuple(frozen))


def apply_free(f: DMonoidMorphismFree, x: FreeElement) -> FreeElement:
    """The unique multiplicative-and-structural extension applied to x, kept on f by x."""
    return derived(f, "_applied", _build_apply_free, f, x, key=x)


def _build_apply_free(f: DMonoidMorphismFree, x: FreeElement) -> FreeElement:
    if x.tag != f.tag or tuple(x.alphabet) != f.source_alphabet:
        raise StructureError("element does not match the morphism source")
    terms = [(_word_image(f, w), c) for w, c in x.pairs]
    return free_combine(f.tag, f.target_alphabet, terms)


def _word_image(f: DMonoidMorphismFree, w: str) -> FreeElement:
    """f(w) = f(w[:-1]) f(w[-1]), kept on f by w as the image of every prefix is."""
    image = derived(f, "_word_images", free_unit, f.tag, f.target_alphabet, key="")
    for i, b in enumerate(w, 1):
        image = derived(f, "_word_images", free_mul, image, f.image(b), key=w[:i])
    return image


def compose_free(f: DMonoidMorphismFree, g: DMonoidMorphismFree) -> DMonoidMorphismFree:
    """f after g (g: Gamma -> Delta, f: Delta -> Sigma)."""
    if g.target_alphabet != f.source_alphabet or f.tag != g.tag:
        raise StructureError("not composable")
    return make_free_morphism(
        f.tag,
        g.source_alphabet,
        f.target_alphabet,
        {b: apply_free(f, g.image(b)) for b in g.source_alphabet},
    )


def preimage_language(l: RegularLanguage, f: DMonoidMorphismFree) -> RegularLanguage:
    """{w over the source alphabet : eval_language(l, f*(w)) = 1}.

    The automaton of l is lifted into the free D-monoid.  A state of the
    lift is a D-combination of states of l, starting from state 0 with
    coefficient 1, and is kept as one integer where the tag allows:

    - SET and POS: a state of l, as f(b) is one word; SET_STAR: a state of
      l, or -1 for the zero, which no letter leaves;
    - JSL0: the bitmask of a set of states, stepped to the join (|) of the
      moves of its states; VECT2: the bitmask of a GF(2) vector, stepped to
      the sum (^) of the moves of its states;
    - VECT(p) for p > 2: a tuple of coefficients, one per state of l.

    The move of state s by the letter b is the combination of the runs of s
    on the words of f(b), with their coefficients.  A lift state is final
    when its value over the finals of l is 1 (for VECT(p), the sum of its
    coefficients at the finals).  VECT lifts stop at 4096 states.
    """
    if tuple(f.target_alphabet) != l.alphabet:
        raise StructureError("morphism target does not match language alphabet")
    src = tuple(f.source_alphabet)
    runs = [[[(l.run(w, s), c) for w, c in f.image(b).pairs] for s in range(l.size)] for b in src]
    p = vect_prime(f.tag)
    if p is None and f.tag != "JSL0":
        # -1 indexes the last entry of a row, which is -1 again
        moves = [[r[0][0] if r else -1 for r in row] + [-1] for row in runs]
        start, step, final = 0, lambda s, i: moves[i][s], l.finals.__contains__
    elif p is None or p == 2:
        join = or_ if p is None else xor
        moves = [[reduce(join, (1 << t for t, _ in r), 0) for r in row] for row in runs]
        finals = reduce(or_, (1 << s for s in l.finals), 0)
        start = 1

        def step(mask, i):
            row, acc = moves[i], 0
            while mask:
                low = mask & -mask
                acc = join(acc, row[low.bit_length() - 1])
                mask ^= low
            return acc

        def final(mask):
            hit = mask & finals
            return bool(hit) if p is None else hit.bit_count() % 2 == 1
    else:
        start = (1,) + (0,) * (l.size - 1)

        def step(vector, i):
            acc = [0] * l.size
            for s, c in enumerate(vector):
                if c:
                    for t, d in runs[i][s]:
                        acc[t] += c * d
            return tuple(x % p for x in acc)

        def final(vector):
            return sum(vector[s] for s in l.finals) % p == 1

    cap = 4096 if p is not None else None
    states, delta = explore(start, range(len(src)), step, cap, "preimage vector states")
    return _minimize(src, len(delta), delta, {i for i, x in enumerate(states) if final(x)}, 0)


# ---------------------------------------------------------------------------
# the languages of a local variety as sets of syntactic-monoid elements


def syntactic_masks(seeds, cap, stage):
    """The syntactic monoid M of the seeds, over which every language of
    their local variety is a set of elements (Gehrke, Grigorieff and Pin).

    M is the transition monoid of the disjoint union of the seeds' minimal
    DFAs (Syn(L) for one seed), built by explore from the unit, element 0,
    under cap and stage.  Returns (left, derivatives, masks, right):

    - left[m][i] is a m for the i-th letter a;
    - derivatives are the left and then the right derivative by each letter
      as closure() ops on bitmasks over M, the preimage of a mask under the
      left or right Cayley table;
    - masks[k] is the bitmask of the elements whose words lie in seeds[k];
    - right[m][i] is m a, the right Cayley table: read from the unit it is
      a DFA that the words of class m take to the state m, so the language
      of the words whose class lies in a mask is
      from_components(alphabet, right, the mask's elements, 0).
    """
    seeds = list(seeds)
    if not seeds:
        raise StructureError("need at least one seed language")
    alphabet = seeds[0].alphabet
    if any(s.alphabet != alphabet for s in seeds):
        raise StructureError("seeds must share an alphabet")
    delta, finals, starts = [], set(), []
    for l in seeds:
        starts.append(len(delta))
        delta += [tuple(starts[-1] + t for t in row) for row in l.delta]
        finals.update(starts[-1] + s for s in l.finals)
    columns = tuple(zip(*delta))  # columns[i][q]: state q read with letter i
    tables, right = explore(
        tuple(range(len(delta))), columns,
        lambda t, column: tuple(map(column.__getitem__, t)), cap, stage,
    )
    index = {t: m for m, t in enumerate(tables)}
    left = [[index[tuple(map(t.__getitem__, column))] for column in columns] for t in tables]

    derivatives = [
        (1, mask_preimage([row[i] for row in cayley], len(tables)), False)
        for cayley in (left, right) for i in range(len(columns))
    ]
    masks = [sum(1 << m for m, t in enumerate(tables) if t[s] in finals) for s in starts]
    return left, derivatives, masks, right


def element_languages(alphabet, right, targets) -> list:
    """The language {w : [w] in T} of each target T, a set of elements of a
    syntactic_masks monoid, from its right Cayley table right, with no
    refinement.

    Read from the unit, right is a DFA whose state s accepts the words w
    with s [w] in T for the language of T, so the Nerode class of s is told
    by its fiber {x : s x in T}, a bitmask over M, the OR of the fibers of
    the m in T.  One multiplication table gives every fiber: the column
    x -> s x of each x is filled along the breadth-first word tree of the
    table, from its parent's column, and the fibers, passed to _canonical as
    the partition, number each language.
    """
    n = len(right)
    columns = along_shortlex_words(
        right, range(len(alphabet)), tuple(range(n)),
        lambda column, i: tuple([right[t][i] for t in column]),
    )
    fibers = [[0] * n for _ in range(n)]  # fibers[m][s]: the x with s x = m
    for x, column in enumerate(columns):
        bit = 1 << x
        for s, m in enumerate(column):
            fibers[m][s] |= bit

    def fiber(target):  # fibers[m] ORed, state by state, over the m in target
        return reduce(lambda f, g: list(map(or_, f, g)), map(fibers.__getitem__, target))

    return [_canonical(alphabet, right, fiber(t), t, 0) for t in targets]


def closure_under_ops_and_derivs(tag: str, seeds, cap: int = 4096) -> list:
    """Least set of languages containing seeds, closed under both derivatives
    and the tag's language operations (with constants), as a sorted list.

    automata builds every local variety on the syntactic L-algebra instead;
    this closure stays as the tests' mask-level reference, and the benchmark's
    per-layer report times it by name.  It runs on bitmasks over the seeds'
    syntactic monoid (syntactic_masks): a derivative is the preimage of a
    mask under a Cayley table and an operation is its set operation in
    algebra.SET_OPS.  The closed masks, distinct masks being distinct
    languages, are closed under left derivatives, so mask_languages reads
    their languages off the closure's tables.
    """
    if tag not in MAIN_PAIRS:
        raise StructureError(f"{tag} has no operations on languages")
    seeds = list(seeds)
    # M never outgrows the closure: two elements of M are told apart by a
    # quotient u^-1 L v^-1 of a seed L, so the closure, which holds these
    # quotients and their unions or sums, has at least |M| languages.
    # Exploring M under the closure's own cap and stage therefore raises
    # CapExceeded only where the closure would, as long as the distinct
    # seeds, which the closure does not count, are at most cap.
    left, derivatives, masks, _ = syntactic_masks(seeds, cap, "language closure")
    ops = derivatives + set_ops(tag, (1 << len(left)) - 1)
    elements, _, tables = closure(dict.fromkeys(masks), ops, cap, stage="language closure")
    alphabet = seeds[0].alphabet
    delta = [tuple(t[x] for t in tables[: len(alphabet)]) for x in range(len(elements))]
    return sorted(mask_languages(alphabet, elements, delta), key=RegularLanguage.sort_key)


def mask_languages(alphabet, masks, delta) -> list:
    """The language of each of the pairwise distinct masks over a
    syntactic_masks monoid, the words whose class lies in it, where
    delta[x][i] is the index of the left derivative of masks[x] by the i-th
    letter: the masks are then a minimal DFA whose finals hold the unit,
    element 0, and each language is read off it by _canonical, with no
    refinement."""
    block = range(len(masks))
    finals = {x for x, mask in enumerate(masks) if mask & 1}
    return [_canonical(alphabet, delta, block, finals, x) for x in block]


# ---------------------------------------------------------------------------
# rational series over GF(p) (linear weighted automata)


def _rref(rows, p):
    """Row-reduce over GF(p); returns (basis rows, pivot columns)."""
    basis = []
    pivots = []
    for row in rows:
        row = list(row)
        for b, piv in zip(basis, pivots):
            factor = row[piv] * pow(b[piv], p - 2, p) % p
            if factor:
                row = [(x - factor * y) % p for x, y in zip(row, b)]
        for j, v in enumerate(row):
            if v:
                basis.append(row)
                pivots.append(j)
                break
    return basis, pivots


def _in_span(vec, basis, pivots, p):
    """Coordinates of vec in the basis, or None."""
    vec = list(vec)
    coords = [0] * len(basis)
    for i, (b, piv) in enumerate(zip(basis, pivots)):
        factor = vec[piv] * pow(b[piv], p - 2, p) % p
        if factor:
            coords[i] = factor
            vec = [(x - factor * y) % p for x, y in zip(vec, b)]
    if any(vec):
        return None
    return coords


@dataclass(frozen=True)
class RationalSeries:
    """Linear weighted automaton over GF(p); minimal when built via minimize."""

    p: int
    alphabet: tuple
    dim: int
    init: tuple  # row vector
    mats: tuple  # tuple of (letter, matrix as tuple of rows)
    out: tuple  # column vector

    def mat(self, letter):
        for a, m in self.mats:
            if a == letter:
                return m
        raise StructureError(f"letter {letter!r} not in alphabet")

    def value(self, word) -> int:
        vec = list(self.init)
        for ch in word:
            m = self.mat(ch)
            vec = [
                sum(vec[i] * m[i][j] for i in range(self.dim)) % self.p
                for j in range(self.dim)
            ]
        return sum(vec[i] * self.out[i] for i in range(self.dim)) % self.p


def make_series(p, alphabet, init, mats: dict, out) -> RationalSeries:
    alphabet = tuple(alphabet)
    dim = len(init)
    frozen = tuple(
        (a, tuple(tuple(v % p for v in row) for row in mats[a])) for a in alphabet
    )
    return RationalSeries(
        p, alphabet, dim, tuple(v % p for v in init), frozen, tuple(v % p for v in out)
    )


def _forward_reduce(s: RationalSeries) -> RationalSeries:
    """Restrict to the reachability span (preserves all values)."""
    p = s.p
    if not any(s.init):
        return make_series(p, s.alphabet, (0,), {a: [[0]] for a in s.alphabet}, (0,))
    basis, pivots = _rref([list(s.init)], p)
    frontier = [list(s.init)]
    while frontier:
        vec = frontier.pop()
        for a in s.alphabet:
            m = s.mat(a)
            img = [
                sum(vec[i] * m[i][j] for i in range(s.dim)) % p for j in range(s.dim)
            ]
            if _in_span(img, basis, pivots, p) is None:
                basis, pivots = _rref(basis + [img], p)
                frontier.append(img)
    r = len(basis)
    new_mats = {}
    for a in s.alphabet:
        m = s.mat(a)
        rows = []
        for b in basis:
            img = [sum(b[i] * m[i][j] for i in range(s.dim)) % p for j in range(s.dim)]
            rows.append(_in_span(img, basis, pivots, p))
        new_mats[a] = rows
    new_init = _in_span(list(s.init), basis, pivots, p)
    new_out = [sum(b[i] * s.out[i] for i in range(s.dim)) % p for b in basis]
    return make_series(p, s.alphabet, new_init, new_mats, new_out)


def _transpose_series(s: RationalSeries) -> RationalSeries:
    mats = {
        a: [[s.mat(a)[j][i] for j in range(s.dim)] for i in range(s.dim)]
        for a in s.alphabet
    }
    return make_series(s.p, s.alphabet, s.out, mats, s.init)


def minimize_series(s: RationalSeries) -> RationalSeries:
    """Schutzenberger minimization: reachability then observability reduction."""
    return _transpose_series(_forward_reduce(_transpose_series(_forward_reduce(s))))


def series_of_language(l: RegularLanguage, p: int) -> RationalSeries:
    """Characteristic series of a regular language over GF(p)."""
    mats = {}
    for i, a in enumerate(l.alphabet):
        m = [[0] * l.size for _ in range(l.size)]
        for s in range(l.size):
            m[s][l.delta[s][i]] = 1
        mats[a] = m
    init = [1 if s == 0 else 0 for s in range(l.size)]
    out = [1 if s in l.finals else 0 for s in range(l.size)]
    return minimize_series(make_series(p, l.alphabet, init, mats, out))


def series_preimage(s: RationalSeries, f: DMonoidMorphismFree) -> RationalSeries:
    """Substitute each letter by the weighted sum of its image's word matrices."""
    p = vect_prime(f.tag)
    if p != s.p:
        raise StructureError("field mismatch")
    if tuple(f.target_alphabet) != s.alphabet:
        raise StructureError("morphism target does not match series alphabet")

    def word_matrix(w):
        m = [[1 if i == j else 0 for j in range(s.dim)] for i in range(s.dim)]
        for ch in w:
            mc = s.mat(ch)
            m = [
                [
                    sum(m[i][k] * mc[k][j] for k in range(s.dim)) % p
                    for j in range(s.dim)
                ]
                for i in range(s.dim)
            ]
        return m

    mats = {}
    for b in f.source_alphabet:
        acc = [[0] * s.dim for _ in range(s.dim)]
        for w, c in f.image(b).pairs:
            wm = word_matrix(w)
            for i in range(s.dim):
                for j in range(s.dim):
                    acc[i][j] = (acc[i][j] + c * wm[i][j]) % p
        mats[b] = acc
    return minimize_series(
        make_series(p, f.source_alphabet, s.init, mats, s.out)
    )


# ---------------------------------------------------------------------------
# regex reconstruction (state elimination), used by the CLI


def language_to_regex(l: RegularLanguage) -> str:
    """A regex denoting l, reconstructed by state elimination."""
    if l.is_empty():
        return "∅"
    n = l.size
    START, END = n, n + 1
    edge = {}

    def add(u, v, expr):
        if expr is None:
            return
        cur = edge.get((u, v))
        edge[(u, v)] = expr if cur is None else f"{cur}|{expr}"

    for s in range(n):
        for i, a in enumerate(l.alphabet):
            add(s, l.delta[s][i], a)
    add(START, 0, "ε")
    for s in l.finals:
        add(s, END, "ε")
    for s in range(n):
        loop = edge.pop((s, s), None)
        star = f"({loop})*" if loop else ""
        ins = [(u, e) for (u, v), e in edge.items() if v == s and u != s]
        outs = [(v, e) for (u, v), e in edge.items() if u == s and v != s]
        for (u, _) in ins:
            edge.pop((u, s))
        for (v, _) in outs:
            edge.pop((s, v))
        for u, e1 in ins:
            for v, e2 in outs:
                add(u, v, f"({e1}){star}({e2})")
    return edge.get((START, END), "∅")
