"""Command-line surface tying the modules together.  COMMANDS names each
command's handler and options; parse_args reads a command line off it.

Exit codes: 0 success, 1 law violation or counterexample found, 2 usage
error, 3 cap exceeded or inconclusive verdict, 4 an internal cross-check
failed (two computations of one fact disagree: a fault in predual).  All
diagnostics go to stderr; documents and reports go to stdout.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

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
    vect_prime,
)
from .automata import (
    Coalgebra,
    LAlgebra,
    dual_generated_monoid,
    generated_local_variety,
    languages_of,
    syntactic_lalgebra,
)
from .duality import (
    MAIN_PAIRS, PAIRS, d_tag, dual_morphism, dual_object, side_of, verify_preduality
)
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
from .monoids import DMonoid
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
    lang = _load(args.infile)
    if not isinstance(lang, RegularLanguage):
        raise DocumentError(f"{args.command} --in must be a language document")
    return lang


def cmd_enumerate(args):
    n, base = args.size, 2 if args.tag in ("BA", "BR") else vect_prime(args.tag)
    off = n < 0 or base and n not in {base**k for k in range(n.bit_length())}
    algs = [] if off else enumerate_algebras(args.tag, n)
    if not algs:
        sizes = f"; sizes are the powers of {base}: 1, {base}, {base * base}, ..." if base else ""
        raise DocumentError(f"no {args.tag} algebra has {n} elements{sizes}")
    if args.json:
        sys.stdout.write(dumps({"kind": "list", "items": [to_doc(a) for a in algs]}))
    else:
        sys.stdout.write(f"{len(algs)} algebra(s) of tag {args.tag} size {args.size}\n")
        for a in algs:
            sys.stdout.write(dumps(a))
    return OK


def cmd_dualize(args):
    if args.max_size < 0:
        raise DocumentError(f"--max-size must be at least 0, got {args.max_size}")
    if args.check:
        report = verify_preduality(args.pair, args.max_size)
        sys.stdout.write(dumps(report))
        return OK if report["ok"] else COUNTEREXAMPLE
    if args.infile is None:
        raise DocumentError("dualize needs --in or --check")
    value = _load(args.infile)
    if not isinstance(value, (FinAlgebra, AlgMorphism)):
        raise DocumentError("dualize expects an algebra or morphism document")
    ends = (value,) if isinstance(value, FinAlgebra) else (value.source, value.target)
    for a in ends:
        try:
            side_of(args.pair, a.tag)
        except StructureError as e:
            raise DocumentError(str(e)) from None
    if ends[0].tag != ends[-1].tag:
        raise DocumentError(f"a morphism from {ends[0].tag} to {ends[-1].tag} joins two tags")
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
    return _emit(args, dual_morphism(args.pair, value))


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
            raise DocumentError("document is a C-side coalgebra")
        return _emit(args, coalgebra_preimage(value, f))
    if args.side == "C":
        raise DocumentError("document is a D-side L-algebra")
    return _emit(args, algebra_preimage(value, f))


def _load_dmonoid(args):
    """The --monoid document, which must be a D-monoid of --pair's D-side tag."""
    m = _load(args.monoid)
    if not (isinstance(m, DMonoid) and m.carrier.tag == d_tag(args.pair)):
        raise DocumentError(f"--monoid must be a dmonoid document of tag {d_tag(args.pair)}")
    return m


def cmd_varlang(args):
    if len(set(args.alphabet)) < len(args.alphabet):
        raise DocumentError(f"--alphabet {args.alphabet} repeats a letter")
    m = _load_dmonoid(args)
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
    if args.nmax < 1:
        raise DocumentError(f"--nmax must be at least 1, got {args.nmax}")
    m = _load_dmonoid(args)
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
        raise DocumentError(f"unknown law(s) {', '.join(unknown)}; "
                            f"choose from {', '.join(LAWS)} (qfcomp = qfprops)")
    if args.max_states is not None and args.max_states < 0:
        raise DocumentError(f"--max-states must be at least 0, got {args.max_states}")
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
    if args.max_states is not None:
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


# An option spec is (kind, default): kind is bool for a flag, str or int for
# a value, or the tuple of allowed values; an option not given takes its
# default, and one whose default is REQUIRED must be given.
REQUIRED = object()
FLAG, TEXT, NEEDED, MAIN_PAIR = (bool, False), (str, None), (str, REQUIRED), (MAIN_PAIRS, REQUIRED)
_OUTPUT = {"--json": FLAG, "--dot": FLAG}
_LANGUAGE = {**_OUTPUT, "--regex": TEXT, "--alphabet": TEXT, "--in": TEXT}

# command -> (handler, description, {option: spec})
COMMANDS = {
    "enumerate": (cmd_enumerate, "enumerate algebras up to isomorphism", {
        "--tag": (ALL_TAGS, REQUIRED), "--size": (int, REQUIRED), "--json": FLAG}),
    "dualize": (cmd_dualize, "dualize an algebra or morphism document", {
        "--pair": (PAIRS, REQUIRED), "--in": TEXT, "--check": FLAG, "--max-size": (int, 4),
        **_OUTPUT}),
    "minimize": (cmd_minimize, "canonical minimal automaton of a language", _LANGUAGE),
    "deriv": (cmd_deriv, "left or right derivative of a language", {
        "--side": (("left", "right"), REQUIRED), "--letter": NEEDED, **_LANGUAGE}),
    "localvariety": (cmd_localvariety, "closure of seeds into a local variety", {
        "--tag": MAIN_PAIR, "--seeds": TEXT, "--regex": TEXT, "--alphabet": TEXT, **_OUTPUT}),
    "syntactic": (cmd_syntactic, "dual generated D-monoid of a language", {
        "--tag": MAIN_PAIR, "--regex": NEEDED, "--alphabet": TEXT, "--json": FLAG}),
    "preimage": (cmd_preimage, "preimage of a language or automaton", {
        "--map": NEEDED, "--automaton": TEXT, "--side": (("C", "D"), None), **_LANGUAGE}),
    "varlang": (cmd_varlang, "languages of a simple pseudovariety", {
        "--monoid": NEEDED, "--alphabet": NEEDED, "--pair": MAIN_PAIR, "--json": FLAG}),
    "eilenberg-check": (cmd_eilenberg_check, "bounded Eilenberg correspondence", {
        "--monoid": NEEDED, "--samples": NEEDED, "--pair": (MAIN_PAIRS, "BA"), "--nmax": (int, 2)}),
    "check-laws": (cmd_check_laws, "run the reversal/preimage law battery", {
        "--laws": TEXT, "--pairs": TEXT, "--corpus": TEXT, "--max-states": (int, None)}),
}
HELP = ("-h", "--help")


def parse_args(argv):
    """The handler's arguments: command, fn (the handler) and one attribute
    per option of the command (--in is infile, --max-size max_size).  An
    option is given as --opt value or --opt=value, never abbreviated; the
    token after a valued option is its value whatever it looks like.  -h or
    --help makes fn cmd_help; any other malformed call raises DocumentError."""
    command = argv[0] if argv else None
    if command in HELP:
        return SimpleNamespace(command=None, fn=cmd_help)
    if command not in COMMANDS:
        given = f"unknown command {command}" if argv else "missing command"
        raise DocumentError(f"{given}; choose from {', '.join(COMMANDS)}")
    fn, _, options = COMMANDS[command]
    values, tokens = {}, iter(argv[1:])
    for token in tokens:
        if token in HELP:
            return SimpleNamespace(command=command, fn=cmd_help)
        option, eq, value = token.partition("=")
        kind, _ = options.get(option, (None, None))
        if kind is None:
            raise DocumentError(f"{command} has no option {option}; it takes {', '.join(options)}")
        if kind is bool and eq:
            raise DocumentError(f"{option} takes no value")
        if kind is bool:
            value = True
        elif not eq and (value := next(tokens, None)) is None:
            raise DocumentError(f"{option} needs a value")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise DocumentError(f"{option} needs an integer, not {value!r}") from None
        elif isinstance(kind, tuple) and value not in kind:
            raise DocumentError(f"{option} {value} is not one of {', '.join(kind)}")
        values[option] = value
    args = SimpleNamespace(command=command, fn=fn)
    for option, (_, default) in options.items():
        if default is REQUIRED and option not in values:
            raise DocumentError(f"{command} needs {option}")
        dest = "infile" if option == "--in" else option[2:].replace("-", "_")
        setattr(args, dest, values.get(option, default))
    return args


def cmd_help(args):
    """The options of args.command, or of every command, written from COMMANDS."""
    lines = ["usage: predual COMMAND [--opt value | --opt=value | --flag]..."]
    for command in [args.command] if args.command else COMMANDS:
        _, about, options = COMMANDS[command]
        lines.append(f"{command}: {about}")
        for option, (kind, default) in options.items():
            value = ("" if kind is bool else " N" if kind is int else f" {option[2:].upper()}"
                     if kind is str else " {" + ",".join(kind) + "}")
            note = (" (required)" if default is REQUIRED else ""
                    if default in (None, False) else f" (default {default})")
            lines.append(f"  {option}{value}{note}")
    sys.stdout.write("\n".join(lines) + "\n")
    return OK


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
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
