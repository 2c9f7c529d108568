"""Command-line surface tying the modules together.

Exit codes: 0 success, 1 law violation or counterexample found, 2 usage
error, 3 cap exceeded or inconclusive verdict, 4 an internal cross-check
failed (two computations of one fact disagree: a fault in predual).  All
diagnostics go to stderr; documents and reports go to stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .algebra import (
    ALL_TAGS,
    AlgMorphism,
    BoundExceeded,
    CapExceeded,
    FinAlgebra,
    InternalInvariantError,
    StructureError,
    enumerate_algebras,
    validate_algebra,
)
from .automata import (
    Coalgebra,
    LAlgebra,
    dual_generated_monoid,
    generated_local_variety,
    languages_of,
    syntactic_lalgebra,
)
from .duality import MAIN_PAIRS, PAIRS, d_tag, dual_morphism, dual_object, verify_preduality
from .langlib import (
    DMonoidMorphismFree,
    RegexSyntaxError,
    RegularLanguage,
    language_to_regex,
    left_deriv,
    parse_regex,
    preimage_language,
    right_deriv,
)
from .preimage import (
    LAWS,
    algebra_preimage,
    check_preimage_laws,
    coalgebra_preimage,
    default_corpus,
    default_morphisms,
)
from .serialize import (
    DocumentError,
    dot_automaton,
    dot_hasse,
    dumps,
    from_doc,
    generated_dmonoid_doc,
    language_doc,
    to_doc,
)
from .varieties import check_eilenberg_simple, languages_of_simple_pseudovariety

OK, COUNTEREXAMPLE, USAGE, INCONCLUSIVE, INTERNAL = 0, 1, 2, 3, 4


def _read_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as e:  # not JSON, or not text
            raise DocumentError(f"{path} is not JSON: {e}") from None


def _load(path):
    return from_doc(_read_json(path))


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def _language_tags(pairs, source):
    """pairs, which must be a list of language tags (duality.MAIN_PAIRS)."""
    if not (_strings(pairs) and set(pairs) <= set(MAIN_PAIRS)):
        raise DocumentError(f"{source} must be a list of {', '.join(MAIN_PAIRS)}")
    return pairs


def _emit(args, value, human=None):
    if getattr(args, "dot", False):
        sys.stdout.write(dot_automaton(value))
    elif getattr(args, "json", False) or human is None:
        sys.stdout.write(dumps(value))
    else:
        sys.stdout.write(human)
    return OK


def _read_language(args):
    if getattr(args, "regex", None) is not None:
        return parse_regex(args.regex, args.alphabet)
    if args.infile is None:
        raise DocumentError(f"{args.command} needs --regex or --in")
    return _load(args.infile)


def cmd_enumerate(args):
    if args.tag not in ALL_TAGS:
        raise DocumentError(f"unknown tag {args.tag}; choose from {', '.join(ALL_TAGS)}")
    algs = enumerate_algebras(args.tag, args.size)
    if args.json:
        sys.stdout.write(dumps({"kind": "list", "items": [to_doc(a) for a in algs]}))
    else:
        sys.stdout.write(f"{len(algs)} algebra(s) of tag {args.tag} size {args.size}\n")
        for a in algs:
            sys.stdout.write(dumps(a))
    return OK


def cmd_dualize(args):
    if args.check:
        report = verify_preduality(args.pair, args.max_size)
        sys.stdout.write(dumps(report))
        return OK if report["ok"] else COUNTEREXAMPLE
    if args.infile is None:
        raise DocumentError("dualize needs --in or --check")
    value = _load(args.infile)
    if isinstance(value, FinAlgebra):
        problems = validate_algebra(value)
        if problems:
            sys.stdout.write(dumps({"violations": problems}))
            return COUNTEREXAMPLE
        dual = dual_object(args.pair, value)
        if args.dot:
            sys.stdout.write(dot_hasse(dual))
            return OK
        return _emit(args, dual)
    if isinstance(value, AlgMorphism):
        return _emit(args, dual_morphism(args.pair, value))
    raise StructureError("dualize expects an algebra or morphism document")


def cmd_minimize(args):
    lang = _read_language(args)
    human = f"states: {lang.size}\nregex: {language_to_regex(lang)}\n"
    return _emit(args, lang, human)


def cmd_deriv(args):
    lang = _read_language(args)
    fn = left_deriv if args.side == "left" else right_deriv
    return _emit(args, fn(lang, args.letter))


def cmd_localvariety(args):
    if args.seeds and args.regex is not None:
        raise DocumentError("localvariety takes --seeds or --regex, not both")
    if args.seeds:
        regexes = _read_json(args.seeds)
        if not (_strings(regexes) and regexes):
            raise DocumentError("seeds must be a non-empty JSON list of regex strings")
    elif args.regex is None:
        raise DocumentError("localvariety needs --seeds or --regex")
    else:
        regexes = [args.regex]
    seeds = [parse_regex(rx, args.alphabet) for rx in regexes]
    if len({l.alphabet for l in seeds}) > 1:
        raise DocumentError("seeds over different alphabets need --alphabet")
    q = generated_local_variety(args.tag, seeds)
    human = f"local variety with {q.states.size} languages over {''.join(q.alphabet)}\n"
    return _emit(args, q, human)


def cmd_syntactic(args):
    lang = parse_regex(args.regex, args.alphabet)
    g = dual_generated_monoid(syntactic_lalgebra(args.tag, [lang]))
    # informally called the syntactic D-monoid: the dual Sigma-generated
    # D-monoid of the local variety generated by the language
    if args.json:
        sys.stdout.write(dumps(generated_dmonoid_doc(g)))
    else:
        sys.stdout.write(f"order {g.base.size} dual generated D-monoid\n")
        for e, fe in g.reprs:
            pairs = ", ".join(f"{w or 'ε'}:{c}" for w, c in fe.pairs) or "0"
            sys.stdout.write(f"  {e}: {pairs}\n")
    return OK


def cmd_preimage(args):
    value = _load(args.automaton) if args.automaton else _read_language(args)
    f = _load(args.map)
    if not isinstance(f, DMonoidMorphismFree):
        raise DocumentError("--map must be a free-morphism document")
    if not isinstance(value, (RegularLanguage, Coalgebra, LAlgebra)):
        raise DocumentError("preimage expects a language or automaton document")
    want = (value.alphabet, f.tag if isinstance(value, RegularLanguage) else d_tag(value.pair))
    if (f.target_alphabet, f.tag) != want:
        raise DocumentError(f"map target and tag {(f.target_alphabet, f.tag)} are not {want}")
    if isinstance(value, RegularLanguage):
        return _emit(args, preimage_language(value, f))
    if isinstance(value, Coalgebra):
        if args.side == "D":
            print("usage error: document is a C-side coalgebra", file=sys.stderr)
            return USAGE
        return _emit(args, coalgebra_preimage(value, f))
    if args.side == "C":
        print("usage error: document is a D-side L-algebra", file=sys.stderr)
        return USAGE
    return _emit(args, algebra_preimage(value, f))


def cmd_varlang(args):
    m = _load(args.monoid)
    v = languages_of_simple_pseudovariety(m, args.alphabet, args.pair)
    langs = languages_of(v)
    if args.json:
        doc = {
            "kind": "language-set",
            "languages": [language_doc(l) for l in langs],
            "regexes": [language_to_regex(l) for l in langs],
        }
        sys.stdout.write(dumps(doc))
    else:
        for l in langs:
            sys.stdout.write(f"{language_to_regex(l)}\n")
    return OK


def cmd_eilenberg_check(args):
    m = _load(args.monoid)
    samples = _read_json(args.samples)
    if not isinstance(samples, list) or not all(
        isinstance(s, str) or _strings(s) and len(s) == 2 for s in samples
    ):
        raise DocumentError("samples must be a JSON list of regexes and [regex, alphabet] pairs")
    samples = [tuple(s) if isinstance(s, list) else s for s in samples]
    report = check_eilenberg_simple(m, args.pair, samples, args.nmax)
    sys.stdout.write(dumps(report))
    if report["mismatches"]:
        return COUNTEREXAMPLE
    if report["inconclusive"]:
        return INCONCLUSIVE
    return OK


def cmd_check_laws(args):
    aliases = {"qfcomp": "qfprops"}
    laws = [aliases.get(l, l) for l in args.laws.split(",")] if args.laws else list(LAWS)
    unknown = [l for l in laws if l not in LAWS]
    if unknown:
        print(
            f"usage error: unknown law(s) {', '.join(unknown)}; "
            f"choose from {', '.join(LAWS)} (qfcomp = qfprops)",
            file=sys.stderr,
        )
        return USAGE
    if args.corpus:
        spec = _read_json(args.corpus)
        if not (
            isinstance(spec, dict)
            and isinstance(spec.get("seeds"), dict)
            and all(_strings(rxs) for rxs in spec["seeds"].values())
        ):
            raise DocumentError(
                "corpus must be a JSON object whose seeds map each alphabet "
                "to a list of regex strings"
            )
        corpus = {}
        for pair in _language_tags(spec.get("pairs", ["BA", "JSL0"]), "corpus pairs"):
            varieties = []
            for alphabet, regexes in spec["seeds"].items():
                for rx in regexes:
                    varieties.append(
                        (rx, generated_local_variety(pair, [parse_regex(rx, alphabet)]))
                    )
            corpus[pair] = {
                "varieties": varieties,
                "morphisms": default_morphisms(d_tag(pair)),
            }
    else:
        pairs = args.pairs.split(",") if args.pairs else ["BA", "JSL0"]
        corpus = default_corpus(pairs=tuple(_language_tags(pairs, "--pairs")))
    if args.max_states:
        for pair in corpus:
            corpus[pair]["varieties"] = [
                (rx, q)
                for rx, q in corpus[pair]["varieties"]
                if q.states.size <= args.max_states
            ]
    report = check_preimage_laws(corpus)
    failed = False
    for law in laws:
        entry = report[law]
        sys.stdout.write(
            f"{law}: {entry['status']} ({entry['checked']} checks)"
            + (f" witness={entry['witness']}" if entry["witness"] else "")
            + "\n"
        )
        failed = failed or entry["status"] != "holds"
    return COUNTEREXAMPLE if failed else OK


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared by later ones:
    no argument has a mutable default, and argparse looks up the output
    streams and the terminal width when it prints, not when it is built."""
    p = argparse.ArgumentParser(
        prog="predual",
        description="finite duality-based algebraic automata lab",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, language=False):
        sp.add_argument("--json", action="store_true", help="canonical JSON on stdout")
        sp.add_argument("--dot", action="store_true", help="DOT graph on stdout")
        if language:
            sp.add_argument("--regex", help="regex input")
            sp.add_argument("--alphabet", help="explicit alphabet letters")
            sp.add_argument("--in", dest="infile", help="language document path")

    sp = sub.add_parser("enumerate", help="enumerate algebras up to isomorphism")
    sp.add_argument("--tag", required=True)
    sp.add_argument("--size", type=int, required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_enumerate)

    sp = sub.add_parser("dualize", help="dualize an algebra or morphism document")
    sp.add_argument("--pair", required=True, choices=PAIRS)
    sp.add_argument("--in", dest="infile")
    sp.add_argument("--check", action="store_true", help="run verify_preduality")
    sp.add_argument("--max-size", type=int, default=4)
    add_common(sp)
    sp.set_defaults(fn=cmd_dualize)

    sp = sub.add_parser("minimize", help="canonical minimal automaton of a language")
    add_common(sp, language=True)
    sp.set_defaults(fn=cmd_minimize)

    sp = sub.add_parser("deriv", help="left or right derivative of a language")
    sp.add_argument("--side", choices=("left", "right"), required=True)
    sp.add_argument("--letter", required=True)
    add_common(sp, language=True)
    sp.set_defaults(fn=cmd_deriv)

    sp = sub.add_parser("localvariety", help="closure of seeds into a local variety")
    sp.add_argument("--tag", required=True, choices=MAIN_PAIRS)
    sp.add_argument("--seeds", help="JSON file with a list of regexes")
    sp.add_argument("--regex", help="single seed regex")
    sp.add_argument("--alphabet")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--dot", action="store_true")
    sp.set_defaults(fn=cmd_localvariety)

    sp = sub.add_parser("syntactic", help="dual generated D-monoid of a language")
    sp.add_argument("--tag", required=True, choices=MAIN_PAIRS)
    sp.add_argument("--regex", required=True)
    sp.add_argument("--alphabet")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_syntactic)

    sp = sub.add_parser("preimage", help="preimage of a language or automaton")
    sp.add_argument("--map", required=True, help="free-morphism document path")
    sp.add_argument("--automaton", help="coalgebra or L-algebra document path")
    sp.add_argument("--side", choices=("C", "D"), help="expected automaton side")
    add_common(sp, language=True)
    sp.set_defaults(fn=cmd_preimage)

    sp = sub.add_parser("varlang", help="languages of a simple pseudovariety")
    sp.add_argument("--monoid", required=True, help="dmonoid document path")
    sp.add_argument("--alphabet", required=True)
    sp.add_argument("--pair", required=True, choices=MAIN_PAIRS)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_varlang)

    sp = sub.add_parser("eilenberg-check", help="bounded Eilenberg correspondence")
    sp.add_argument("--monoid", required=True)
    sp.add_argument("--samples", required=True, help="JSON list of sample regexes")
    sp.add_argument("--pair", default="BA", choices=MAIN_PAIRS)
    sp.add_argument("--nmax", type=int, default=2)
    sp.set_defaults(fn=cmd_eilenberg_check)

    sp = sub.add_parser("check-laws", help="run the reversal/preimage law battery")
    sp.add_argument("--laws", help="comma-separated law names")
    sp.add_argument("--pairs", help="comma-separated pair tags")
    sp.add_argument("--corpus", help="JSON corpus file {pairs, seeds:{alphabet:[regex]}}")
    sp.add_argument("--max-states", type=int, help="cap corpus variety sizes")
    sp.set_defaults(fn=cmd_check_laws)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return USAGE if e.code not in (0, None) else OK
    try:
        return args.fn(args)
    except (BoundExceeded, CapExceeded) as e:
        print(f"cap exceeded: {e}", file=sys.stderr)
        return INCONCLUSIVE
    except StructureError as e:
        print(f"violation: {e}", file=sys.stderr)
        return COUNTEREXAMPLE
    except InternalInvariantError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return INTERNAL
    except (FileNotFoundError, RegexSyntaxError, DocumentError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
