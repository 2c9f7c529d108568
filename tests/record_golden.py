"""Record tests/golden.json: the sha256 digest of (exit code, stdout, stderr)
of a fixed list of CLI calls.

The calls are every CLI example of the README (the documents they read are
written into the working directory first), `syntactic --json` and
`localvariety --json` on test_syntactic.CORPUS under the five language
tags and on BIRKHOFF_REGEXES, whose carriers are large, under BA, DL01
and BR, `localvariety --json` on BIRKHOFF_REGEXES under JSL0 and VECT2,
whose varieties are large, `dualize --check` for every pair of
duality.PAIRS at the default size, the full law battery, `check-laws
--corpus`, for JSL0, DL01 and VECT2 over criterion 2's seed languages,
`check-laws --pairs` for BA and BR, `preimage` of languages and of local
varieties along SET and POS maps and along JSL0, VECT2 and SET_STAR maps
with a multi-word and a zero image, and one `--json` call for each document the other calls do not
write: an `enumerate` list, a `varlang` language set, a derivative, a
language over a non-ASCII letter and a quote, and the `violations` of an
algebra that breaks its laws.
tests/test_golden.py replays them and compares digests, so any change to a
byte of these outputs fails a test.  Re-record only for a change that is
meant to alter output, from the repository root:

    PYTHONPATH=src python tests/record_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

from predual.automata import generated_local_variety
from predual.cli import main
from predual.duality import BIRKHOFF_PAIRS, MAIN_PAIRS, PAIRS
from predual.langlib import parse_regex
from predual.serialize import to_doc
from test_syntactic import CORPUS

GOLDEN = Path(__file__).resolve().with_name("golden.json")

_IMAGE = {"kind": "free-element", "tag": "SET", "alphabet": ["a", "b"], "pairs": [["ab", 1]]}
DOCUMENTS = {
    "chain2.alg": {"kind": "algebra", "tag": "JSL0", "size": 2,
                   "ops": {"join": [[0, 1], [1, 1]], "zero": 0}},
    "z2.json": {"kind": "dmonoid", "tag": "SET",
                "carrier": {"kind": "algebra", "tag": "SET", "size": 2, "ops": {}},
                "mult": [[0, 1], [1, 0]], "unit": 0},
    "f.json": {"kind": "free-morphism", "tag": "SET", "source_alphabet": ["b"],
               "target_alphabet": ["a", "b"], "images": {"b": _IMAGE}},
    "samples.json": ["(aa)*", "(ab)*", "a*"],
    # join is not idempotent: dualize reports the violation
    "broken.alg": {"kind": "algebra", "tag": "JSL0", "size": 2,
                   "ops": {"join": [[0, 1], [1, 0]], "zero": 0}},
}
LAW_PAIRS = ("JSL0", "DL01", "VECT2")
LAW_SEEDS = {"a": ["(aa)*", "a*", "a"], "ab": ["(a|b)*a"]}
DOCUMENTS.update({f"corpus-{pair}.json": {"pairs": [pair], "seeds": LAW_SEEDS}
                  for pair in LAW_PAIRS})


def _map(tag, images):
    """A free-morphism document from {b, c} to {a, b}; images gives each
    letter's (word, coefficient) pairs, an empty list being the zero."""
    return {"kind": "free-morphism", "tag": tag, "source_alphabet": ["b", "c"],
            "target_alphabet": ["a", "b"],
            "images": {b: {"kind": "free-element", "tag": tag, "alphabet": ["a", "b"],
                           "pairs": [list(p) for p in pairs]}
                       for b, pairs in images.items()}}


PREIMAGE_MAPS = {  # (map, pair of the local varieties it reindexes)
    "SET": (_map("SET", {"b": [("ab", 1)], "c": [("", 1)]}), "BA"),
    "POS": (_map("POS", {"b": [("ba", 1)], "c": [("bb", 1)]}), "DL01"),
    "JSL0": (_map("JSL0", {"b": [("a", 1), ("ab", 1), ("bb", 1)], "c": []}), "JSL0"),
    "VECT2": (_map("VECT2", {"b": [("", 1), ("ab", 1), ("b", 3)], "c": []}), "VECT2"),
    "SET_STAR": (_map("SET_STAR", {"b": [("ab", 1)], "c": []}), "BR"),
}
BIRKHOFF_REGEXES = ("(a|b)*a(a|b)(a|b)(a|b)", "(aab)*", "(ab|ba)*")
PREIMAGE_REGEXES = ("(ab)*", "(a|b)*a", "~(a*)", "(a|b)*b(a|b)*")
DOCUMENTS.update({f"map-{tag}.json": fdoc for tag, (fdoc, _) in PREIMAGE_MAPS.items()})
DOCUMENTS.update({
    f"variety-{tag}.json": to_doc(generated_local_variety(pair, [parse_regex("(ab)*", "ab")]))
    for tag, (_, pair) in PREIMAGE_MAPS.items()
})

README_CALLS = [
    ["syntactic", "--tag", "BA", "--regex", "(ab)*"],
    ["syntactic", "--tag", "JSL0", "--regex", "(ab)*", "--json"],
    ["localvariety", "--tag", "BA", "--regex", "(aa)*", "--json"],
    ["minimize", "--regex", "(a|b)*abb", "--json"],
    ["deriv", "--side", "right", "--letter", "b", "--regex", "(ab)*"],
    ["dualize", "--pair", "JSL0", "--in", "chain2.alg"],
    ["dualize", "--pair", "BA", "--check", "--max-size", "8"],
    ["preimage", "--map", "f.json", "--regex", "(ab)*"],
    ["varlang", "--monoid", "z2.json", "--alphabet", "a", "--pair", "BA"],
    ["eilenberg-check", "--monoid", "z2.json", "--samples", "samples.json", "--nmax", "2"],
    ["check-laws", "--laws", "lrev,cpre,proppre", "--pairs", "BA,JSL0"],
    ["enumerate", "--tag", "JSL0", "--size", "4"],
]

DOCUMENT_CALLS = [
    ["enumerate", "--tag", "VECT2", "--size", "4", "--json"],
    ["varlang", "--monoid", "z2.json", "--alphabet", "a", "--pair", "BA", "--json"],
    ["deriv", "--side", "left", "--letter", "a", "--regex", "(ab)*", "--json"],
    ["minimize", "--regex", '(é|"a)*', "--json"],
    ["dualize", "--pair", "JSL0", "--in", "broken.alg"],
]


def golden_calls():
    """The argument lists, file arguments relative to the working directory."""
    calls = list(README_CALLS)
    for pair in MAIN_PAIRS:
        for command in ("syntactic", "localvariety"):
            calls += [[command, "--tag", pair, "--regex", rx, "--alphabet", alphabet, "--json"]
                      for rx, alphabet in CORPUS]
    for pair in BIRKHOFF_PAIRS:
        for command in ("syntactic", "localvariety"):
            calls += [[command, "--tag", pair, "--regex", rx, "--json"] for rx in BIRKHOFF_REGEXES]
    for pair in ("JSL0", "VECT2"):
        calls += [["localvariety", "--tag", pair, "--regex", rx, "--json"]
                  for rx in BIRKHOFF_REGEXES]
    calls += [["dualize", "--pair", pair, "--check"] for pair in PAIRS]
    calls += [["check-laws", "--corpus", f"corpus-{pair}.json"] for pair in LAW_PAIRS]
    calls += [["check-laws", "--pairs", pair] for pair in ("BA", "BR")]
    for tag in PREIMAGE_MAPS:
        calls += [["preimage", "--map", f"map-{tag}.json", "--regex", rx, "--alphabet", "ab"]
                  for rx in PREIMAGE_REGEXES]
        calls.append(["preimage", "--map", f"map-{tag}.json",
                      "--automaton", f"variety-{tag}.json", "--side", "C"])
    return calls + DOCUMENT_CALLS


def write_documents(directory):
    for name, doc in DOCUMENTS.items():
        (Path(directory) / name).write_text(json.dumps(doc))


def digest(argv):
    """sha256 of the JSON list [exit code, stdout, stderr] of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    blob = json.dumps([code, out.getvalue(), err.getvalue()], ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def record():
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        write_documents(directory)
        os.chdir(directory)
        try:
            entries = [{"argv": argv, "sha256": digest(argv)} for argv in golden_calls()]
        finally:
            os.chdir(cwd)
    GOLDEN.write_text(json.dumps(entries, ensure_ascii=False, indent=1) + "\n", encoding="utf-8")
    return len(entries)


if __name__ == "__main__":
    print(f"recorded {record()} digests in {GOLDEN}")
