"""Canonical document formats: byte-stable JSON for every value kind.

Every document carries a "kind" discriminator; dumps() sorts keys and uses
fixed separators so identical values serialize to identical bytes.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from .algebra import (
    AlgMorphism,
    FinAlgebra,
    StructureError,
    covers,
    make_algebra,
    make_morphism,
    signature,
    validate_algebra,
)
from .automata import Coalgebra, LAlgebra, make_coalgebra, make_lalgebra
from .langlib import (
    DMonoidMorphismFree,
    FreeElement,
    RegularLanguage,
    from_components,
    make_free,
    free_zero,
    make_free_morphism,
)
from .monoids import DMonoid, GeneratedDMonoid, make_dmonoid, validate_dmonoid


def _table_to_lists(table, arity):
    if arity == 0:
        return table
    if arity == 1:
        return list(table)
    return [list(row) for row in table]


def algebra_doc(a: FinAlgebra) -> dict:
    doc = {
        "kind": "algebra",
        "tag": a.tag,
        "size": a.size,
        "ops": {
            name: _table_to_lists(a.op(name), signature(a.tag)[name])
            for name, _ in a.ops
        },
    }
    if a.order is not None:
        doc["order"] = [[1 if v else 0 for v in row] for row in a.order]
    return doc


def algebra_from_doc(doc) -> FinAlgebra:
    order = None if doc.get("order") is None else _integers(doc, "order", 2)
    ops, sig = _object(doc, "ops"), signature(doc["tag"])
    for name in ops.keys() & sig.keys():
        _integers(ops, name, sig[name])
    return make_algebra(doc["tag"], _integers(doc, "size", 0), ops, order)


def morphism_doc(f: AlgMorphism) -> dict:
    return {
        "kind": "morphism",
        "tag": f.source.tag,
        "source": algebra_doc(f.source),
        "target": algebra_doc(f.target),
        "map": list(f.table),
    }


def morphism_from_doc(doc) -> AlgMorphism:
    return make_morphism(
        algebra_from_doc(_object(doc, "source")),
        algebra_from_doc(_object(doc, "target")),
        _integers(doc, "map", 1),
    )


def language_doc(l: RegularLanguage) -> dict:
    return {
        "kind": "language",
        "alphabet": list(l.alphabet),
        "states": l.size,
        "delta": [list(row) for row in l.delta],
        "finals": sorted(l.finals),
        "initial": 0,
    }


def language_from_doc(doc) -> RegularLanguage:
    alphabet, delta, finals = _letters(doc, "alphabet"), doc["delta"], doc["finals"]
    initial = doc.get("initial", 0)
    n = len(delta) if isinstance(delta, list) else 0
    if not n or not all(
        isinstance(row, list) and len(row) == len(alphabet) and _states(row, n)
        for row in delta
    ):
        raise DocumentError(
            f"language delta must be a non-empty list of rows, each of "
            f"{len(alphabet)} states below the number of rows"
        )
    if not (isinstance(finals, list) and _states(finals + [initial], n)):
        raise DocumentError(f"language finals and initial must be states below {n}")
    return from_components(alphabet, delta, finals, initial)


def _integers(doc, key, arity):
    """doc[key], which must be an integer (arity 0), a list of integers (1)
    or a list of lists of integers (2), as a table of that arity is."""
    rows = [[doc[key]]] if arity == 0 else [doc[key]] if arity == 1 else doc[key]
    if not isinstance(rows, list) or any(
        not isinstance(row, list) or set(map(type, row)) - {int} for row in rows
    ):
        kind = ("an integer", "a list of integers", "a list of lists of integers")[arity]
        raise DocumentError(f"{key!r} must be {kind}")
    return doc[key]


def _states(values, n) -> bool:
    """Every value is a state index below n."""
    return all(type(v) is int and 0 <= v < n for v in values)


def free_element_doc(x: FreeElement) -> dict:
    return {
        "kind": "free-element",
        "tag": x.tag,
        "alphabet": list(x.alphabet),
        "pairs": [[w, c] for w, c in x.pairs],
    }


def free_element_from_doc(doc) -> FreeElement:
    alphabet, pairs = _letters(doc, "alphabet"), doc["pairs"]
    if not (isinstance(pairs, list) and all(
        isinstance(p, list) and len(p) == 2 and isinstance(p[0], str) and type(p[1]) is int
        for p in pairs
    )):
        raise DocumentError("'pairs' must be a list of [word, integer] pairs")
    if not pairs:
        return _lawful("free-element", free_zero, doc["tag"], alphabet)
    return _lawful("free-element", make_free, doc["tag"], alphabet, pairs)


def free_morphism_doc(f: DMonoidMorphismFree) -> dict:
    return {
        "kind": "free-morphism",
        "tag": f.tag,
        "source_alphabet": list(f.source_alphabet),
        "target_alphabet": list(f.target_alphabet),
        "images": {b: free_element_doc(fe) for b, fe in f.images},
    }


def free_morphism_from_doc(doc) -> DMonoidMorphismFree:
    images, tag = _object(doc, "images"), doc["tag"]
    alphabets = _letters(doc, "source_alphabet"), _letters(doc, "target_alphabet")
    images = {b: free_element_from_doc(_object(images, b)) for b in images}
    return _lawful("free-morphism", make_free_morphism, tag, *alphabets, images)


def coalgebra_doc(q: Coalgebra) -> dict:
    return _automaton_doc("coalgebra", q, "out", list(q.out))


def coalgebra_from_doc(doc) -> Coalgebra:
    return _automaton_from_doc("coalgebra", doc, "out", make_coalgebra)


def lalgebra_doc(a: LAlgebra) -> dict:
    return _automaton_doc("lalgebra", a, "init", a.init)


def lalgebra_from_doc(doc) -> LAlgebra:
    return _automaton_from_doc("lalgebra", doc, "init", make_lalgebra)


def _automaton_doc(kind, m, last, value) -> dict:
    """The document of the coalgebra or L-algebra m, its last field written
    under the key last as value."""
    return {
        "kind": kind,
        "pair": m.pair,
        "alphabet": list(m.alphabet),
        "states": algebra_doc(m.states),
        "trans": {a: list(t) for a, t in m.trans},
        last: value,
    }


def _automaton_from_doc(kind, doc, last, make):
    """make's automaton from a document of the kind, its last field read
    from the key last, a list of integers for "out" and else an integer."""
    states, trans = algebra_from_doc(_object(doc, "states")), _object(doc, "trans")
    trans = {a: tuple(_integers(trans, a, 1)) for a in trans}
    last = _integers(doc, last, int(last == "out"))
    return _lawful(kind, make, doc["pair"], _letters(doc, "alphabet"), states, trans, last)


def _lawful(kind, make, *args):
    """make(*args), whose validation failures (a wrong tag, a table entry naming no element,
    a map that is no morphism, a word off the alphabet, a bad coefficient) are document errors."""
    try:
        return make(*args)
    except StructureError as e:
        raise DocumentError(f"{kind} document breaks its laws: {e}") from None


def dmonoid_doc(m: DMonoid) -> dict:
    return {
        "kind": "dmonoid",
        "tag": m.carrier.tag,
        "carrier": algebra_doc(m.carrier),
        "mult": [list(row) for row in m.mult],
        "unit": m.unit,
    }


def dmonoid_from_doc(doc) -> DMonoid:
    carrier = algebra_from_doc(_object(doc, "carrier"))
    m = make_dmonoid(carrier, _integers(doc, "mult", 2), _integers(doc, "unit", 0))
    # validate_dmonoid tests the sections at the carrier's generators, which
    # needs a lawful carrier
    problems = [f"carrier: {e}" for e in validate_algebra(m.carrier)] or validate_dmonoid(m)
    if problems:
        raise DocumentError(f"{doc['kind']} document is not a D-monoid: {problems[0]}")
    return m


def generated_dmonoid_doc(g: GeneratedDMonoid) -> dict:
    doc = dmonoid_doc(g.base)
    doc["kind"] = "generated-dmonoid"
    doc["alphabet"] = list(g.alphabet)
    doc["generators"] = {a: e for a, e in g.gen_images}
    doc["representatives"] = {
        str(e): free_element_doc(fe) for e, fe in g.reprs
    }
    return doc


def generated_dmonoid_from_doc(doc) -> GeneratedDMonoid:
    base = dmonoid_from_doc(doc)
    reprs = _object(doc, "representatives")
    return GeneratedDMonoid(
        base,
        tuple(_letters(doc, "alphabet")),
        tuple(sorted(_object(doc, "generators").items())),
        tuple(sorted((int(e), free_element_from_doc(_object(reprs, e))) for e in reprs)),
    )


_TO_DOC = {
    FinAlgebra: algebra_doc,
    AlgMorphism: morphism_doc,
    RegularLanguage: language_doc,
    FreeElement: free_element_doc,
    DMonoidMorphismFree: free_morphism_doc,
    Coalgebra: coalgebra_doc,
    LAlgebra: lalgebra_doc,
    DMonoid: dmonoid_doc,
    GeneratedDMonoid: generated_dmonoid_doc,
}

_FROM_DOC = {
    "algebra": algebra_from_doc,
    "morphism": morphism_from_doc,
    "language": language_from_doc,
    "free-element": free_element_from_doc,
    "free-morphism": free_morphism_from_doc,
    "coalgebra": coalgebra_from_doc,
    "lalgebra": lalgebra_from_doc,
    "dmonoid": dmonoid_from_doc,
    "generated-dmonoid": generated_dmonoid_from_doc,
}


def to_doc(value) -> dict:
    for cls, fn in _TO_DOC.items():
        if isinstance(value, cls):
            return fn(value)
    raise StructureError(f"no document form for {type(value).__name__}")


class DocumentError(ValueError):
    """A document that is not a JSON object, names no known kind, lacks a
    required key, names a state a language does not have, has an alphabet
    that is not a list of distinct strings or free-element pairs that are
    not [word, integer] pairs, or describes a D-monoid, coalgebra or
    L-algebra that breaks its laws."""


def _object(doc, key):
    """doc[key], which must itself be a JSON object."""
    value = doc[key]
    if not isinstance(value, dict):
        raise DocumentError(f"{key!r} must be a JSON object, got {type(value).__name__}")
    return value


def _letters(doc, key):
    """doc[key], which must be a list of distinct strings."""
    value = doc[key]
    if not (isinstance(value, list) and all(isinstance(a, str) for a in value)):
        raise DocumentError(f"{key!r} must be a list of strings")
    if len(set(value)) < len(value):
        raise DocumentError(f"{key!r} {value} repeats a letter")
    return value


def from_doc(doc):
    if not isinstance(doc, dict):
        raise DocumentError(f"expected a JSON object, got {type(doc).__name__}")
    kind = doc.get("kind")
    if kind not in _FROM_DOC:
        raise DocumentError(f"unknown document kind {kind!r}")
    try:
        return _FROM_DOC[kind](doc)
    except KeyError as e:
        raise DocumentError(f"{kind} document lacks the key {e}") from None


def dumps(value) -> str:
    """The canonical text of a document, or of value's document: byte for
    byte json.dumps(doc, sort_keys=True, indent=2) + "\\n", written in one
    pass.  Keys are sorted and escaped as json does, containers are
    indented by two spaces per level, a list of scalars is written with one
    str.join, strings are escaped to ASCII by
    json.encoder.encode_basestring_ascii, and any other scalar is written as
    json.dumps writes it, so a value json cannot write raises TypeError."""
    doc = value if isinstance(value, dict) else to_doc(value)
    out = []
    _write(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(value, newline, out):
    """Append the text of value to out; newline is a line break followed by
    the indent of the line value starts on."""
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            out.append(sep + _key(key) + ": ")
            _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        kinds = set(map(type, value))
        if kinds <= _SCALARS:
            items = map(int.__repr__ if kinds == {int} else _scalar, value)
            out.append("[" + inner + ("," + inner).join(items) + newline + "]")
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        out.append(_scalar(value))


_SCALARS = {str, int, float, bool, type(None)}


def _scalar(value) -> str:
    if type(value) is int:
        return int.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    return json.dumps(value)


def _key(key) -> str:
    """A dict key as json writes it: a string, or an int, float, bool or
    None written as a scalar and then as a string."""
    if not isinstance(key, str):
        if key is not None and not isinstance(key, (int, float)):
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
        key = json.dumps(key)
    return encode_basestring_ascii(key)


def loads(text: str):
    return from_doc(json.loads(text))


# ---------------------------------------------------------------------------
# DOT export


def dot_automaton(value) -> str:
    """Transition graph; order edges of ordered state algebras are dashed."""
    lines = ["digraph automaton {", "  rankdir=LR;"]
    coalgebra = isinstance(value, Coalgebra)
    for s in range(value.states.size):
        shape = "doublecircle" if coalgebra and value.out[s] == 1 else "circle"
        lines.append(f'  q{s} [shape={shape} label="{s}"];')
    if not coalgebra:
        lines += ["  start [shape=point];", f"  start -> q{value.init};"]
    for a, t in value.trans:
        for s, v in enumerate(t):
            lines.append(f'  q{s} -> q{v} [label="{a}"];')
    if value.states.order is not None:
        for x in range(value.states.size):
            for y in range(value.states.size):
                if x != y and value.states.order[x][y]:
                    lines.append(f"  q{x} -> q{y} [style=dashed arrowhead=none];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_hasse(a: FinAlgebra) -> str:
    """Hasse diagram of a lattice-like algebra or poset, read off algebra.covers."""
    lines = ["digraph hasse {", "  rankdir=BT;"]
    lines += [f'  n{x} [shape=none label="{x}"];' for x in range(a.size)]
    lines += [f"  n{x} -> n{y};" for x, above in enumerate(covers(a)) for y in above]
    lines.append("}")
    return "\n".join(lines) + "\n"
