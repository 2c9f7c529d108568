import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from predual.algebra import enumerate_algebras
from predual.cli import COMMANDS, main
from predual.serialize import dumps, from_doc, loads, to_doc


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_syntactic_ab_star_is_order_six(capsys):
    code, out, _ = run_cli(capsys, "syntactic", "--tag", "BA", "--regex", "(ab)*", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "generated-dmonoid"
    assert len(doc["mult"]) == 6


def test_dualize_jsl0_chain(capsys, tmp_path):
    chain = {
        "kind": "algebra",
        "tag": "JSL0",
        "size": 2,
        "ops": {"join": [[0, 1], [1, 1]], "zero": 0},
    }
    path = tmp_path / "chain2.alg"
    path.write_text(json.dumps(chain))
    code, out, _ = run_cli(capsys, "dualize", "--pair", "JSL0", "--in", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ops"]["zero"] == 1  # reversed chain: old top is the new zero
    assert doc["ops"]["join"][0][1] == 0


def test_dualize_check_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "dualize", "--pair", "BA", "--check", "--max-size", "4")
    assert code == 0
    assert json.loads(out)["ok"]


def test_dualize_invalid_algebra_is_a_counterexample(capsys, tmp_path):
    bad = {
        "kind": "algebra",
        "tag": "JSL0",
        "size": 2,
        "ops": {"join": [[0, 0], [0, 1]], "zero": 0},  # not commutativity-safe
    }
    path = tmp_path / "bad.alg"
    path.write_text(json.dumps(bad))
    code, out, _ = run_cli(capsys, "dualize", "--pair", "JSL0", "--in", str(path))
    assert code == 1
    assert "violations" in out


def test_check_laws_lrev_holds(capsys):
    code, out, _ = run_cli(
        capsys, "check-laws", "--laws", "lrev", "--pairs", "BA", "--max-states", "8"
    )
    assert code == 0
    assert "lrev: holds" in out


def test_check_laws_max_states_zero_keeps_no_variety(capsys):
    for cap in ("0", "1"):
        code, out, _ = run_cli(
            capsys, "check-laws", "--laws", "lrev", "--pairs", "BA", "--max-states", cap
        )
        assert (code, out) == (0, "lrev: holds (0 checks)\n")


def test_minimize_and_deriv(capsys):
    code, out, _ = run_cli(capsys, "minimize", "--regex", "(ab)*", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["states"] == 3
    code, out, _ = run_cli(
        capsys, "deriv", "--side", "right", "--letter", "b", "--regex", "(ab)*", "--json"
    )
    assert code == 0
    from predual.langlib import parse_regex

    assert from_doc(json.loads(out)) == parse_regex("(ab)*a")


def test_usage_error_exit_code(capsys):
    assert main(["deriv", "--side", "up", "--letter", "a", "--regex", "a"]) == 2
    assert main([]) == 2


def test_localvariety_and_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys, "localvariety", "--tag", "BA", "--regex", "(aa)*", "--json"
    )
    assert code == 0
    q = from_doc(json.loads(out))
    assert q.states.size == 4
    assert dumps(q) == out  # canonical round trip


def test_varlang_parity(capsys, tmp_path):
    monoid = {
        "kind": "dmonoid",
        "tag": "SET",
        "carrier": {"kind": "algebra", "tag": "SET", "size": 2, "ops": {}},
        "mult": [[0, 1], [1, 0]],
        "unit": 0,
    }
    path = tmp_path / "z2.mon"
    path.write_text(json.dumps(monoid))
    code, out, _ = run_cli(
        capsys, "varlang", "--monoid", str(path), "--alphabet", "a", "--pair", "BA", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["languages"]) == 4
    # every reconstructed regex reparses to its language
    from predual.langlib import parse_regex

    for lang_doc, rx in zip(doc["languages"], doc["regexes"]):
        assert parse_regex(rx, lang_doc["alphabet"]) == from_doc(lang_doc)


def test_eilenberg_check_cli(capsys, tmp_path):
    monoid = {
        "kind": "dmonoid",
        "tag": "SET",
        "carrier": {"kind": "algebra", "tag": "SET", "size": 2, "ops": {}},
        "mult": [[0, 1], [1, 0]],
        "unit": 0,
    }
    mpath = tmp_path / "z2.mon"
    mpath.write_text(json.dumps(monoid))
    spath = tmp_path / "samples.json"
    spath.write_text(json.dumps(["(aa)*", "(ab)*", "a*"]))
    code, out, _ = run_cli(
        capsys, "eilenberg-check", "--monoid", str(mpath), "--samples", str(spath),
        "--pair", "BA", "--nmax", "2",
    )
    assert code == 0
    report = json.loads(out)
    assert report["mismatches"] == [] and report["checked"] == 3


def test_preimage_cli(capsys, tmp_path):
    fdoc = {
        "kind": "free-morphism",
        "tag": "SET",
        "source_alphabet": ["b"],
        "target_alphabet": ["a", "b"],
        "images": {
            "b": {"kind": "free-element", "tag": "SET", "alphabet": ["a", "b"],
                   "pairs": [["ab", 1]]}
        },
    }
    path = tmp_path / "map.json"
    path.write_text(json.dumps(fdoc))
    code, out, _ = run_cli(
        capsys, "preimage", "--map", str(path), "--regex", "(ab)*", "--json"
    )
    assert code == 0
    from predual.langlib import parse_regex

    assert from_doc(json.loads(out)) == parse_regex("b*", "b")


def test_enumerate_cli(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--tag", "JSL0", "--size", "3")
    assert code == 0
    assert out.startswith("1 algebra(s)")


def test_enumerate_set_at_size_zero_is_the_empty_set(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--tag", "SET", "--size", "0")
    assert code == 0
    assert out == "1 algebra(s) of tag SET size 0\n" + dumps(enumerate_algebras("SET", 0)[0])
    assert enumerate_algebras("SET", 0)[0].size == 0
    assert enumerate_algebras("SET_STAR", 0) == []


@pytest.mark.parametrize("tag, size", [("BA", 32), ("JSL0", 7), ("VECT2", 16)])
def test_enumerate_past_its_bound_is_a_cap(capsys, tag, size):
    code, out, err = run_cli(capsys, "enumerate", "--tag", tag, "--size", str(size))
    assert (code, out) == (3, "")
    assert err.startswith("cap exceeded: ") and err.count("\n") == 1


def test_byte_identical_reruns(capsys):
    _, out1, _ = run_cli(capsys, "syntactic", "--tag", "BA", "--regex", "(ab)*", "--json")
    _, out2, _ = run_cli(capsys, "syntactic", "--tag", "BA", "--regex", "(ab)*", "--json")
    assert out1 == out2


def test_document_roundtrips():
    from predual.algebra import enumerate_algebras, identity_morphism
    from predual.automata import generated_local_variety, dual_automaton, dual_generated_monoid
    from predual.langlib import parse_regex, free_word, make_free_morphism

    values = [
        enumerate_algebras("BA", 4)[0],
        enumerate_algebras("POS", 3)[1],
        identity_morphism(enumerate_algebras("JSL0", 3)[0]),
        parse_regex("(ab)*"),
        free_word("SET", "ab", "ab"),
        make_free_morphism("SET", "b", "ab", {"b": free_word("SET", "ab", "ab")}),
        generated_local_variety("BA", [parse_regex("(aa)*")]),
        dual_automaton(generated_local_variety("BA", [parse_regex("(aa)*")])),
        dual_generated_monoid(generated_local_variety("BA", [parse_regex("(aa)*")])).base,
        dual_generated_monoid(generated_local_variety("BA", [parse_regex("(aa)*")])),
    ]
    for value in values:
        text = dumps(value)
        assert loads(text) == value and dumps(loads(text)) == text


def test_check_laws_with_corpus_file(capsys, tmp_path):
    corpus = {"pairs": ["BA"], "seeds": {"a": ["(aa)*", "a*"]}}
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(corpus))
    code, out, _ = run_cli(
        capsys, "check-laws", "--corpus", str(path), "--laws", "lrev,proppre"
    )
    assert code == 0
    assert "lrev: holds" in out and "proppre: holds" in out


def test_preimage_side_mismatch_is_usage_error(capsys, tmp_path):
    from predual.automata import generated_local_variety
    from predual.langlib import parse_regex
    from predual.serialize import dumps as sdumps

    q = generated_local_variety("BA", [parse_regex("(aa)*")])
    qpath = tmp_path / "q.json"
    qpath.write_text(sdumps(q))
    fdoc = {
        "kind": "free-morphism",
        "tag": "SET",
        "source_alphabet": ["b"],
        "target_alphabet": ["a"],
        "images": {"b": {"kind": "free-element", "tag": "SET", "alphabet": ["a"],
                          "pairs": [["a", 1]]}},
    }
    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps(fdoc))
    code, _, err = run_cli(
        capsys, "preimage", "--map", str(fpath), "--automaton", str(qpath),
        "--side", "D",
    )
    assert code == 2


@pytest.mark.parametrize(
    "tag, target, automaton, message",
    [
        ("JSL0", ["a"], False,
         "map target and tag (('a',), 'JSL0') are not (('a', 'b'), 'JSL0')"),
        ("JSL0", ["a"], True,
         "map target and tag (('a',), 'JSL0') are not (('a', 'b'), 'JSL0')"),
        ("VECT2", ["a", "b"], True,
         "map target and tag (('a', 'b'), 'VECT2') are not (('a', 'b'), 'JSL0')"),
        (None, None, False, "--map must be a free-morphism document"),
    ],
    ids=["language-target", "automaton-target", "automaton-tag", "not-a-map"],
)
def test_preimage_map_not_matching_its_input_is_a_usage_error(
    capsys, tmp_path, tag, target, automaton, message
):
    from predual.automata import generated_local_variety
    from predual.langlib import parse_regex
    from predual.serialize import dumps as sdumps

    language = parse_regex("(ab)*", "ab")
    (tmp_path / "q.json").write_text(sdumps(generated_local_variety("JSL0", [language])))
    fpath = tmp_path / "f.json"
    if tag is None:  # a language document where a map belongs
        fpath.write_text(sdumps(language))
    else:
        image = {"kind": "free-element", "tag": tag, "alphabet": target, "pairs": [["a", 1]]}
        fpath.write_text(json.dumps({"kind": "free-morphism", "tag": tag,
                                     "source_alphabet": ["b"], "target_alphabet": target,
                                     "images": {"b": image}}))
    source = ["--automaton", str(tmp_path / "q.json")] if automaton else [
        "--regex", "(ab)*", "--alphabet", "ab"]
    code, out, err = run_cli(capsys, "preimage", "--map", str(fpath), *source)
    assert (code, out, err) == (2, "", f"usage error: {message}\n")


def test_dot_outputs(capsys):
    code, out, _ = run_cli(
        capsys, "localvariety", "--tag", "BA", "--regex", "(aa)*", "--dot"
    )
    assert code == 0
    assert out.startswith("digraph automaton")


def test_check_laws_rejects_an_unknown_law_before_running(capsys):
    code, out, err = run_cli(capsys, "check-laws", "--laws", "lrev,bogus", "--pairs", "BA")
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:") and "bogus" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("laws", ["", "lrev,", ",lrev"])
def test_check_laws_quotes_an_empty_law_name(capsys, laws):
    code, out, err = run_cli(capsys, "check-laws", "--laws", laws, "--pairs", "BA")
    assert (code, out) == (2, "")
    assert err.startswith("usage error: unknown law(s) ''; choose from lrev, ")


@pytest.mark.parametrize(
    "tag, size, pair",
    [("SET", 13, "BA"), ("SET", 10**9, "BA"), ("SET_STAR", 14, "BR"), ("POS", 13, "DL01")],
)
def test_a_dual_of_more_than_4096_down_sets_is_refused_at_once(capsys, tmp_path, tag, size, pair):
    # 2^13 subsets, 2^13 subsets that avoid the point, 2^13 down-sets of an antichain
    ops = {"point": 0} if tag == "SET_STAR" else {}
    doc = {"kind": "algebra", "tag": tag, "size": size, "ops": ops}
    if tag == "POS":
        doc["order"] = [[int(i == j) for j in range(size)] for i in range(size)]
    path = tmp_path / "big.alg"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "dualize", "--pair", pair, "--in", str(path))
    assert (code, out, err) == (3, "", "cap exceeded: dual object exceeded cap 4096\n")


@pytest.mark.parametrize("tag, pair", [("SET", "BA"), ("SET_STAR", "BR"), ("POS", "DL01")])
def test_the_dual_object_cap_admits_exactly_its_number_of_down_sets(monkeypatch, tag, pair):
    # at cap 8: 3 points or antichain elements have 8 down-sets, 4 have 16
    from predual import duality
    from predual.algebra import CapExceeded, make_algebra

    monkeypatch.setattr(duality, "DUAL_CAP", 8)
    for n, fits in ((3, True), (4, False)):
        size = n + (tag == "SET_STAR")
        order = [[i == j for j in range(size)] for i in range(size)] if tag == "POS" else None
        a = make_algebra(tag, size, {"point": 0} if tag == "SET_STAR" else {}, order)
        if fits:
            assert duality.dual_object(pair, a).size == 8
        else:
            with pytest.raises(CapExceeded, match="^dual object exceeded cap 8$"):
                duality.dual_object(pair, a)


@pytest.mark.parametrize("sample", ["ε", "∅"])
def test_eilenberg_check_sample_without_letters_is_a_usage_error(capsys, tmp_path, sample):
    monoid = {
        "kind": "dmonoid",
        "tag": "SET",
        "carrier": {"kind": "algebra", "tag": "SET", "size": 2, "ops": {}},
        "mult": [[0, 1], [1, 0]],
        "unit": 0,
    }
    mpath = tmp_path / "z2.mon"
    mpath.write_text(json.dumps(monoid))
    spath = tmp_path / "samples.json"
    spath.write_text(json.dumps([sample], ensure_ascii=False))
    code, out, err = run_cli(
        capsys, "eilenberg-check", "--monoid", str(mpath), "--samples", str(spath)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:") and "alphabet" in err
    assert err.count("\n") == 1


def test_syntactic_malformed_regex_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "syntactic", "--tag", "BA", "--regex", "(")
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "doc, message",
    [
        ([1, 2], "expected a JSON object, got list"),
        ({"kind": "algebra", "tag": "JSL0", "ops": {"join": [[0]], "zero": 0}},
         "algebra document lacks the key 'size'"),
        ({"kind": "morphism", "tag": "JSL0", "source": [1], "target": {}, "map": []},
         "'source' must be a JSON object, got list"),
    ],
)
def test_dualize_malformed_document_is_a_usage_error(capsys, tmp_path, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "dualize", "--pair", "JSL0", "--in", str(path))
    assert code == 2
    assert out == ""
    assert err == f"usage error: {message}\n"


def test_dualize_dot_draws_the_discrete_order_of_a_set(capsys, tmp_path):
    ba4 = to_doc(enumerate_algebras("BA", 4)[0])
    path = tmp_path / "ba4.alg"
    path.write_text(json.dumps(ba4))
    code, out, err = run_cli(capsys, "dualize", "--pair", "BA", "--in", str(path), "--dot")
    assert code == 0 and err == ""
    assert out == (
        "digraph hasse {\n  rankdir=BT;\n"
        '  n0 [shape=none label="0"];\n  n1 [shape=none label="1"];\n}\n'
    )


def test_varlang_rejects_a_dmonoid_that_breaks_its_laws(capsys, tmp_path):
    monoid = {
        "kind": "dmonoid",
        "tag": "SET",
        "carrier": {"kind": "algebra", "tag": "SET", "size": 2, "ops": {}},
        "mult": [[0, 0], [1, 0]],
        "unit": 0,
    }
    path = tmp_path / "bad.mon"
    path.write_text(json.dumps(monoid))
    code, out, err = run_cli(
        capsys, "varlang", "--monoid", str(path), "--alphabet", "a", "--pair", "BA"
    )
    assert code == 2
    assert out == ""
    assert err == "usage error: dmonoid document is not a D-monoid: unit law fails at 1\n"


def test_varlang_rejects_a_dmonoid_whose_carrier_breaks_its_laws(capsys, tmp_path):
    # the join is not associative, (1 v 2) v 2 = 2 but 1 v (2 v 2) = 3; the
    # sections are tested at the carrier's generators, so it is rejected first
    join = [[0, 1, 2, 3], [1, 1, 3, 3], [2, 3, 2, 2], [3, 3, 2, 3]]
    monoid = {
        "kind": "dmonoid",
        "tag": "JSL0",
        "carrier": {"kind": "algebra", "tag": "JSL0", "size": 4, "ops": {"join": join, "zero": 0}},
        "mult": join,
        "unit": 0,
    }
    path = tmp_path / "bad.mon"
    path.write_text(json.dumps(monoid))
    code, out, err = run_cli(
        capsys, "varlang", "--monoid", str(path), "--alphabet", "a", "--pair", "JSL0"
    )
    assert (code, out) == (2, "")
    assert err == (
        "usage error: dmonoid document is not a D-monoid: "
        "carrier: join associativity violation at (1,2,2)\n"
    )


@pytest.mark.parametrize(
    "delta, message",
    [
        ([[5]], "language delta must be a non-empty list of rows, each of 1 states below "
                "the number of rows"),
        ([[0, 0]], "language delta must be a non-empty list of rows, each of 1 states below "
                   "the number of rows"),
        ([], "language delta must be a non-empty list of rows, each of 1 states below "
             "the number of rows"),
    ],
)
def test_language_document_naming_a_missing_state_is_a_usage_error(
    capsys, tmp_path, delta, message
):
    path = tmp_path / "lang.json"
    path.write_text(json.dumps({"kind": "language", "alphabet": ["a"], "delta": delta,
                                "finals": []}))
    code, out, err = run_cli(capsys, "minimize", "--in", str(path))
    assert (code, out) == (2, "")
    assert err == f"usage error: {message}\n"


def test_language_document_with_a_final_state_out_of_range_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "lang.json"
    path.write_text(json.dumps({"kind": "language", "alphabet": ["a"], "delta": [[0]],
                                "finals": [1]}))
    code, out, err = run_cli(capsys, "minimize", "--in", str(path))
    assert (code, out) == (2, "")
    assert err == "usage error: language finals and initial must be states below 1\n"


# input files by name; each name in an argv below stands for its path
CHAIN2 = {"kind": "algebra", "tag": "JSL0", "size": 2, "ops": {"join": [[0, 1], [1, 1]], "zero": 0}}
BA2 = {
    "kind": "algebra", "tag": "BA", "size": 2,
    "ops": {"meet": [[0, 0], [0, 1]], "join": [[0, 1], [1, 1]], "not": [1, 0], "zero": 0, "one": 1},
}
Z2 = {
    "kind": "dmonoid", "tag": "SET", "carrier": {"kind": "algebra", "tag": "SET", "size": 2, "ops": {}},
    "mult": [[0, 1], [1, 0]], "unit": 0,
}

INPUT_FILES = {
    "text.json": b"not JSON",
    # the README's JSL0 chain and its identity morphism
    "chain2.alg": json.dumps(CHAIN2).encode(),
    "chain2.hom": json.dumps({
        "kind": "morphism", "tag": "JSL0", "source": CHAIN2, "target": CHAIN2, "map": [0, 1],
    }).encode(),
    # a morphism from a BA to a SET, the two sides of one pair
    "mixed.hom": json.dumps({
        "kind": "morphism", "tag": "BA", "target": {"kind": "algebra", "tag": "SET", "size": 1,
                                                     "ops": {}},
        "source": {"kind": "algebra", "tag": "BA", "size": 1,
                   "ops": {"meet": [[0]], "join": [[0]], "not": [0], "zero": 0, "one": 0}},
        "map": [0],
    }).encode(),
    "bytes.json": b"\xff\xfe\x00",
    "z2.mon": json.dumps(Z2).encode(),
    "trivial.mon": json.dumps({
        "kind": "dmonoid", "tag": "SET",
        "carrier": {"kind": "algebra", "tag": "SET", "size": 1, "ops": {}},
        "mult": [[0]], "unit": 0,
    }).encode(),
    "a-aa.json": b'["a*", "(aa)*"]',
    "a.lang": json.dumps({
        "kind": "language", "alphabet": ["a"], "states": 1, "delta": [[0]], "finals": [0],
    }).encode(),
    "z2.gen": json.dumps({
        "kind": "generated-dmonoid", "tag": "SET",
        "carrier": {"kind": "algebra", "tag": "SET", "size": 2, "ops": {}},
        "mult": [[0, 1], [1, 0]], "unit": 0, "alphabet": ["a"], "generators": {"a": 1},
        "representatives": {
            str(e): {"kind": "free-element", "tag": "SET", "alphabet": ["a"], "pairs": [[w, 1]]}
            for e, w in enumerate(["", "a"])
        },
    }).encode(),
    # the same letter twice in a language, an L-algebra and a generated D-monoid
    "aa.lang": json.dumps({
        "kind": "language", "alphabet": ["a", "a"], "states": 1, "delta": [[0, 0]],
        "finals": [0],
    }).encode(),
    "aa.lalg": json.dumps({
        "kind": "lalgebra", "pair": "BA", "alphabet": ["a", "a"],
        "states": {"kind": "algebra", "tag": "SET", "size": 1, "ops": {}},
        "trans": {"a": [0]}, "init": 0,
    }).encode(),
    "aa.gen": json.dumps({
        "kind": "generated-dmonoid", "tag": "SET",
        "carrier": {"kind": "algebra", "tag": "SET", "size": 1, "ops": {}},
        "mult": [[0]], "unit": 0, "alphabet": ["a", "a"], "generators": {"a": 0},
        "representatives": {},
    }).encode(),
    "aa-samples.json": b'[["a*", "aa"]]',
    "aa-corpus.json": b'{"seeds": {"aa": ["a*"]}}',
    # a letter of two characters, which a printed regex reads as two letters
    "ab.lang": json.dumps({
        "kind": "language", "alphabet": ["ab"], "states": 1, "delta": [[0]], "finals": [0],
    }).encode(),
    "eps.lalg": json.dumps({
        "kind": "lalgebra", "pair": "BA", "alphabet": ["ε"],
        "states": {"kind": "algebra", "tag": "SET", "size": 1, "ops": {}},
        "trans": {"ε": [0]}, "init": 0,
    }).encode(),
    "star-samples.json": b'[["a*", "a*"]]',
    "pipe-corpus.json": b'{"seeds": {"a|": ["a*"]}}',
    "ints.json": b"[1]",
    "object.json": b'{"x": 1}',
    "bogus.json": b'{"kind": "bogus"}',
    "empty.json": b"[]",
    "two-alphabets.json": b'["a*", "b*"]',
    "seeds.json": b'["a*"]',
    "short-pair.json": b'[["a"]]',
    "int-seeds.json": b'{"seeds": {"a": [1]}}',
    "list-seeds.json": b'{"seeds": []}',
    "jsl01-corpus.json": b'{"pairs": ["JSL01"], "seeds": {"a": ["a*"]}}',
    "id.map": json.dumps({
        "kind": "free-morphism", "tag": "SET", "source_alphabet": ["a"],
        "target_alphabet": ["a"],
        "images": {"a": {"kind": "free-element", "tag": "SET", "alphabet": ["a"],
                         "pairs": [["a", 1]]}},
    }).encode(),
    **{
        f"{name}.map": json.dumps({
            "kind": "free-morphism", "tag": "VECT2", "target_alphabet": ["a"],
            "source_alphabet": source,
            "images": {"a": {"kind": "free-element", "tag": "VECT2", "alphabet": ["a"],
                             "pairs": pairs}},
        }).encode()
        for name, source, pairs in [
            ("string-coefficient", ["a"], [["a", "x"]]),
            ("short-pair", ["a"], [["a"]]),
            ("int-pairs", ["a"], 5),
            ("float-coefficient", ["a"], [["a", 1.5]]),
            ("int-alphabet", 5, [["a", 1]]),
        ]
    },
    # an integer field of an algebra, a morphism or a D-monoid that holds a
    # string, a float or null
    **{
        f"{name}.alg": json.dumps({**BA2, **field, "ops": {**BA2["ops"], **ops}}).encode()
        for name, field, ops in [
            ("string-entry", {}, {"not": [1, "x"]}),
            ("float-entry", {}, {"not": [1, 0.0]}),
            ("float-constant", {}, {"zero": 0.0}),
            ("row-entries", {}, {"not": [[1], [0]]}),
            ("string-size", {"size": "2"}, {}),
        ]
    },
    **{
        f"{name}.hom": json.dumps({
            "kind": "morphism", "tag": "BA", "source": BA2, "target": BA2, "map": table,
        }).encode()
        for name, table in [("string-map", [0, "x"]), ("null-map", [0, None]), ("float-map", [0, 1.0])]
    },
    "int-order.alg": json.dumps({"kind": "algebra", "tag": "POS", "size": 1, "ops": {},
                                 "order": 5}).encode(),
    "int-trans.coalg": json.dumps({"kind": "coalgebra", "pair": "BA", "alphabet": ["a"],
                                   "states": BA2, "trans": {"a": 5}, "out": [0, 1]}).encode(),
    "float-unit.mon": json.dumps({**Z2, "unit": 0.0}).encode(),
    "float-mult.mon": json.dumps({**Z2, "mult": [[0.0, 1], [1, 0]]}).encode(),
    **{
        f"{name}.map": json.dumps({
            "kind": "free-morphism", "tag": tag, "target_alphabet": ["a"],
            "source_alphabet": ["a"],
            "images": {"a": {"kind": "free-element", "tag": image_tag, "alphabet": ["a"],
                             "pairs": pairs}},
        }).encode()
        for name, tag, image_tag, pairs in [
            ("off-alphabet", "VECT2", "VECT2", [["b", 1]]),
            ("unknown-tag", "XX", "XX", [["a", 1]]),
            ("wrong-image-tag", "VECT2", "JSL0", [["a", 1]]),
            ("set-coefficient", "SET", "SET", [["a", 2]]),
        ]
    },
}


@pytest.mark.parametrize(
    "argv",
    [
        # a file that is not JSON, under every flag that reads one
        ["minimize", "--in", "text.json"],
        ["minimize", "--in", "bytes.json"],
        ["preimage", "--map", "text.json", "--regex", "(ab)*"],
        ["preimage", "--map", "text.json", "--automaton", "text.json"],
        ["varlang", "--monoid", "text.json", "--alphabet", "a", "--pair", "BA"],
        ["localvariety", "--tag", "BA", "--seeds", "text.json"],
        ["eilenberg-check", "--monoid", "z2.mon", "--samples", "text.json"],
        ["check-laws", "--corpus", "text.json"],
        # seeds are a non-empty list of strings over one alphabet
        ["localvariety", "--tag", "BA", "--seeds", "ints.json"],
        ["localvariety", "--tag", "BA", "--seeds", "object.json"],
        ["localvariety", "--tag", "BA", "--seeds", "empty.json"],
        ["localvariety", "--tag", "BA", "--seeds", "two-alphabets.json"],
        ["localvariety", "--tag", "BA"],
        # samples are strings or [regex, alphabet] pairs of strings
        ["eilenberg-check", "--monoid", "z2.mon", "--samples", "ints.json"],
        ["eilenberg-check", "--monoid", "z2.mon", "--samples", "short-pair.json"],
        ["eilenberg-check", "--monoid", "z2.mon", "--samples", "object.json"],
        # a corpus is an object whose seeds map alphabets to regex lists and
        # whose optional pairs are language tags
        ["check-laws", "--corpus", "ints.json"],
        ["check-laws", "--corpus", "int-seeds.json"],
        ["check-laws", "--corpus", "list-seeds.json"],
        ["check-laws", "--corpus", "jsl01-corpus.json"],
        # --seeds and --regex exclude each other
        ["localvariety", "--tag", "BA", "--seeds", "seeds.json", "--regex", "b*"],
        # free-element pairs are [word, integer] pairs, alphabets lists of strings
        *(
            ["preimage", "--map", f"{name}.map", "--regex", "(aa)*", "--alphabet", "a"]
            for name in ("string-coefficient", "short-pair", "int-pairs",
                         "float-coefficient", "int-alphabet")
        ),
        # check-laws --pairs names language tags
        ["check-laws", "--pairs", "XX", "--laws", "lrev"],
        ["check-laws", "--pairs", "JSL01", "--laws", "lrev"],
        # a well-formed free-morphism document that breaks the free monoid's laws
        *(
            ["preimage", "--map", f"{name}.map", "--regex", "(aa)*", "--alphabet", "a"]
            for name in ("off-alphabet", "unknown-tag", "wrong-image-tag", "set-coefficient")
        ),
        # a document of an unknown kind, or of a kind the command does not read
        ["minimize", "--in", "bogus.json"],
        ["minimize", "--in", "z2.gen"],
        ["deriv", "--side", "left", "--letter", "a", "--in", "z2.gen"],
        ["dualize", "--pair", "BA", "--in", "a.lang"],
        # an algebra or morphism document whose tag is not of --pair
        ["dualize", "--pair", "BA", "--in", "chain2.alg"],
        ["dualize", "--pair", "BA", "--in", "chain2.hom"],
        ["dualize", "--pair", "BA", "--in", "mixed.hom"],
        # a command that reads a language given none, dualize given nothing to read
        ["minimize"],
        ["deriv", "--side", "left", "--letter", "a"],
        ["preimage", "--map", "id.map"],
        ["dualize", "--pair", "BA"],
        # enumerate takes a tag of the algebra module
        ["enumerate", "--tag", "XX", "--size", "2"],
        # a value outside its choices, a missing option, a non-integer, an
        # unknown or abbreviated option, a missing value, a value given to a
        # flag, an unknown command and no command
        ["syntactic", "--tag", "XX", "--regex", "a"],
        ["syntactic", "--regex", "a"],
        ["dualize", "--pair", "BA", "--check", "--max-size", "x"],
        ["syntactic", "--tag", "BA", "--regex", "a", "--bogus"],
        ["syntactic", "--tag", "BA", "--reg", "a"],
        ["syntactic", "--tag", "BA", "--regex"],
        ["syntactic", "--tag", "BA", "--regex", "a", "--json=1"],
        ["frobnicate"],
        [],
        # an enumerate size that is negative or that no algebra of the tag has
        ["enumerate", "--tag", "JSL0", "--size", "-1"],
        ["enumerate", "--tag", "BA", "--size", "3"],
        ["enumerate", "--tag", "BR", "--size", "6"],
        ["enumerate", "--tag", "VECT2", "--size", "0"],
        ["enumerate", "--tag", "VECT3", "--size", "6"],
        ["enumerate", "--tag", "SET_STAR", "--size", "0"],
        # a negative cap on the corpus varieties' states
        ["check-laws", "--laws", "lrev", "--pairs", "BA", "--max-states", "-1"],
        # a negative bound on the checked objects
        ["dualize", "--pair", "BA", "--check", "--max-size", "-1"],
        # no power of the generator to divide by: with --nmax 0 the trivial
        # generator would be reported not to divide the syntactic monoid of a*
        ["eilenberg-check", "--monoid", "trivial.mon", "--samples", "a-aa.json", "--nmax", "0"],
        ["eilenberg-check", "--monoid", "trivial.mon", "--samples", "a-aa.json", "--nmax", "-1"],
        # --monoid is a dmonoid document whose tag is the D-side tag of --pair
        ["varlang", "--monoid", "a.lang", "--alphabet", "a", "--pair", "BA"],
        ["eilenberg-check", "--monoid", "a.lang", "--samples", "a-aa.json"],
        ["varlang", "--monoid", "z2.gen", "--alphabet", "a", "--pair", "BA"],
        ["varlang", "--monoid", "z2.mon", "--alphabet", "a", "--pair", "JSL0"],
        ["eilenberg-check", "--monoid", "z2.mon", "--samples", "a-aa.json", "--pair", "JSL0"],
        # an alphabet names each letter once, wherever it is read
        ["minimize", "--regex", "a", "--alphabet", "aa"],
        ["localvariety", "--tag", "BA", "--regex", "a", "--alphabet", "aa"],
        ["varlang", "--monoid", "z2.mon", "--alphabet", "aa", "--pair", "BA"],
        ["eilenberg-check", "--monoid", "z2.mon", "--samples", "aa-samples.json"],
        ["check-laws", "--corpus", "aa-corpus.json"],
        ["minimize", "--in", "aa.lang"],
        ["preimage", "--map", "id.map", "--automaton", "aa.lalg"],
        ["varlang", "--monoid", "aa.gen", "--alphabet", "a", "--pair", "BA"],
        # a letter is one character that the regex grammar does not reserve
        ["minimize", "--regex", "a", "--alphabet", "aε"],
        ["minimize", "--regex", "a", "--alphabet", "a*"],
        ["syntactic", "--tag", "BA", "--regex", "a", "--alphabet", "a|"],
        ["localvariety", "--tag", "JSL0", "--regex", "a", "--alphabet", "a%"],
        ["varlang", "--monoid", "z2.mon", "--alphabet", "a(", "--pair", "BA"],
        ["eilenberg-check", "--monoid", "z2.mon", "--samples", "star-samples.json"],
        ["check-laws", "--corpus", "pipe-corpus.json"],
        ["minimize", "--in", "ab.lang"],
        ["preimage", "--map", "id.map", "--automaton", "eps.lalg"],
        # a derivative by a letter outside the language's alphabet
        ["deriv", "--side", "left", "--letter", "c", "--regex", "(ab)*"],
        ["deriv", "--side", "left", "--letter", "ab", "--regex", "(ab)*"],
        ["deriv", "--side", "left", "--letter", "", "--regex", "(ab)*"],
        # an integer field that holds no integer
        *(
            ["dualize", "--pair", "BA", "--in", name]
            for name in ("string-entry.alg", "float-entry.alg", "float-constant.alg",
                         "row-entries.alg", "string-size.alg", "string-map.hom", "null-map.hom",
                         "float-map.hom")
        ),
        ["eilenberg-check", "--monoid", "float-unit.mon", "--samples", "a-aa.json"],
        ["eilenberg-check", "--monoid", "float-mult.mon", "--samples", "a-aa.json"],
        # an order matrix or a transition that is an integer, not a list
        ["dualize", "--pair", "DL01", "--in", "int-order.alg"],
        ["preimage", "--map", "id.map", "--automaton", "int-trans.coalg"],
    ],
)
def test_malformed_cli_input_is_a_usage_error(capsys, tmp_path, argv):
    for name, content in INPUT_FILES.items():
        (tmp_path / name).write_bytes(content)
    argv = [str(tmp_path / a) if a in INPUT_FILES else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ") and err.count("\n") == 1


def _broken_automaton(kind, key, value):
    """A BR coalgebra or L-algebra document with one entry replaced."""
    from predual.automata import dual_automaton, generated_local_variety
    from predual.langlib import parse_regex

    q = generated_local_variety("BR", [parse_regex("(aa)*")])
    doc = to_doc(q if kind == "coalgebra" else dual_automaton(q))
    if key == "trans":
        doc["trans"]["a"][0] = value
    elif key == "init":
        doc["init"] = value
    else:
        doc["out"] = [value] * len(doc["out"])
    return doc


@pytest.mark.parametrize(
    "kind, key, value",
    [
        ("coalgebra", "out", 1),  # the output sends zero to 1
        ("lalgebra", "trans", 1),  # the transition moves the basepoint
        ("coalgebra", "trans", 99),  # a state the coalgebra does not have
        ("lalgebra", "init", 99),
    ],
)
def test_automaton_document_breaking_its_laws_is_a_usage_error(
    capsys, tmp_path, kind, key, value
):
    apath = tmp_path / "automaton.json"
    apath.write_text(json.dumps(_broken_automaton(kind, key, value)))
    image = {"kind": "free-element", "tag": "SET_STAR", "alphabet": ["a"], "pairs": [["a", 1]]}
    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps({"kind": "free-morphism", "tag": "SET_STAR",
                                 "source_alphabet": ["a"], "target_alphabet": ["a"],
                                 "images": {"a": image}}))
    code, out, err = run_cli(capsys, "preimage", "--map", str(fpath), "--automaton", str(apath))
    assert (code, out) == (2, "")
    assert err.startswith(f"usage error: {kind} document breaks its laws: ")
    assert err.count("\n") == 1


# a Nerode partition that puts every state in one class
INJECTED_FAULT = """
import sys
import predual.automata as automata
import predual.cli as cli
from predual.cli import main

assert False  # stripped under -O
def one_class(delta, finals, states):
    return dict.fromkeys(states, 0)
{fault}
sys.exit(main({argv}))
"""


def run_with_fault(fault, tag="BA", argv=None):
    """Exit code, stdout and stderr of localvariety --tag tag, or of the
    command argv, under python -O with fault."""
    argv = argv or ["localvariety", "--tag", tag, "--regex", "(ab)*"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run(
        [sys.executable, "-O", "-c", INJECTED_FAULT.format(fault=fault, argv=repr(argv))],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return run.returncode, run.stdout, run.stderr


def test_a_doubled_jsl0_mask_exits_4_under_python_O():
    # the JSL0 variety's first mask over the syntactic monoid is met twice,
    # so two of its states would accept one language
    fault = """
order = automata._language_order
automata._language_order = lambda alphabet, derivatives, ks: order(
    alphabet, derivatives, ks[:1] + ks[:-1])
"""
    assert run_with_fault(fault, "JSL0") == (
        4, "", "internal error: two elements of the L-algebra pair with one language\n",
    )


def test_a_flipped_bit_in_a_vect2_basis_mask_exits_4_under_python_O():
    # the first basis language of the VECT2 variety gains or loses the empty
    # word, so the states that hold it are no longer sums of basis languages
    fault = """
column_lalgebra = automata._column_lalgebra
def flipped(*args):
    a, points, derivatives, (ks, delta, basis) = column_lalgebra(*args)
    ks[basis[1]] ^= 1
    return a, points, derivatives, (ks, delta, basis)
automata._column_lalgebra = flipped
"""
    assert run_with_fault(fault, "VECT2") == (
        4, "", "internal error: a VECT2 state is not the sum of its basis languages\n",
    )


def test_a_failed_birkhoff_cross_check_exits_4_under_python_O():
    # the empty down-set of the BA variety's points is enumerated twice, so
    # two of its states would accept the empty language
    fault = """
downsets = automata.downset_masks
automata.downset_masks = lambda leq, cap: [0] + downsets(leq, cap)
"""
    assert run_with_fault(fault) == (
        4, "", "internal error: two elements of the L-algebra pair with one language\n",
    )


def test_disagreeing_rho_criteria_exit_4_under_python_O():
    # the BA variety is built with no Nerode partition kept, then the fault
    # runs is_subcoalgebra_of_rho on it, as localvariety does not, and its
    # two criteria disagree
    fault = """
build = cli.generated_local_variety
def built_then_faulty(*args):
    q = build(*args)
    automata._nerode = one_class
    automata.is_subcoalgebra_of_rho(q)
    return q
cli.generated_local_variety = built_then_faulty
"""
    assert run_with_fault(fault) == (4, "", "internal error: rho-subcoalgebra criteria disagree\n")


def test_a_reindexed_transition_that_is_no_endomorphism_exits_4_under_python_O(tmp_path):
    # Q^f is reindexed on the BA variety's own carrier, and every
    # combination of word tables is made the constant zero, which does not
    # keep the top
    from predual.automata import generated_local_variety
    from predual.langlib import free_word, make_free_morphism, parse_regex

    f = make_free_morphism("SET", "b", "ab", {"b": free_word("SET", "ab", "ab")})
    q = generated_local_variety("BA", [parse_regex("(ab)*")])
    for name, value in (("f.json", f), ("q.json", q)):
        (tmp_path / name).write_text(dumps(value))
    fault = "automata.combine_columns = lambda a, weighted, n: (a.op('zero'),) * n"
    argv = ["preimage", "--map", str(tmp_path / "f.json"),
            "--automaton", str(tmp_path / "q.json"), "--side", "C"]
    code, out, err = run_with_fault(fault, argv=argv)
    assert (code, out) == (4, "")
    assert err.startswith("internal error: alpha_x left the endomorphisms at 'b': ")
    assert err.count("\n") == 1


def _readme_calls(tmp_path):
    """Every CLI example of the README, the documents they read written into
    tmp_path, then a usage error of the option table, a help text and a
    usage error of a command."""
    chain2 = {"kind": "algebra", "tag": "JSL0", "size": 2,
              "ops": {"join": [[0, 1], [1, 1]], "zero": 0}}
    z2 = {"kind": "dmonoid", "tag": "SET",
          "carrier": {"kind": "algebra", "tag": "SET", "size": 2, "ops": {}},
          "mult": [[0, 1], [1, 0]], "unit": 0}
    image = {"kind": "free-element", "tag": "SET", "alphabet": ["a", "b"], "pairs": [["ab", 1]]}
    f = {"kind": "free-morphism", "tag": "SET", "source_alphabet": ["b"],
         "target_alphabet": ["a", "b"], "images": {"b": image}}
    docs = {"chain2.alg": chain2, "z2.json": z2, "f.json": f,
            "samples.json": ["(aa)*", "(ab)*", "a*"], "seeds.json": ["a*"]}
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    path = {name: str(tmp_path / name) for name in docs}
    return [
        ["syntactic", "--tag", "BA", "--regex", "(ab)*"],
        ["syntactic", "--tag", "JSL0", "--regex", "(ab)*", "--json"],
        ["localvariety", "--tag", "BA", "--regex", "(aa)*", "--json"],
        ["minimize", "--regex", "(a|b)*abb", "--json"],
        ["deriv", "--side", "right", "--letter", "b", "--regex", "(ab)*"],
        ["dualize", "--pair", "JSL0", "--in", path["chain2.alg"]],
        ["dualize", "--pair", "BA", "--check", "--max-size", "8"],
        ["preimage", "--map", path["f.json"], "--regex", "(ab)*"],
        ["varlang", "--monoid", path["z2.json"], "--alphabet", "a", "--pair", "BA"],
        ["eilenberg-check", "--monoid", path["z2.json"], "--samples", path["samples.json"],
         "--nmax", "2"],
        ["check-laws", "--laws", "lrev,cpre,proppre", "--pairs", "BA,JSL0"],
        ["enumerate", "--tag", "JSL0", "--size", "4"],
        ["syntactic", "--tag", "XX", "--regex", "a"],
        ["syntactic", "--help"],
        ["localvariety", "--tag", "BA", "--seeds", path["seeds.json"], "--regex", "b*"],
    ]


def test_repeated_calls_print_what_a_fresh_process_prints(capsys, tmp_path):
    calls = _readme_calls(tmp_path)
    first = [run_cli(capsys, *argv) for argv in calls]
    assert [run_cli(capsys, *argv) for argv in calls] == first
    assert [code for code, _, _ in first[-3:]] == [2, 0, 2]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONIOENCODING="utf-8",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    for i in (0, -3, -2):  # a document, a usage error of the option table, a help text
        run = subprocess.run([sys.executable, "-m", "predual.cli", *calls[i]],
                             capture_output=True, encoding="utf-8", env=env, timeout=120)
        assert (run.returncode, run.stdout, run.stderr) == first[i], calls[i]


def _variants(argv):
    """argv as written, with its options in reversed order, and with each
    valued option in --opt=value form; no value in argv starts with --."""
    groups = []
    for token in argv[1:]:
        if token.startswith("--"):
            groups.append([token])
        else:
            groups[-1].append(token)
    return [
        argv,
        argv[:1] + [token for group in reversed(groups) for token in group],
        argv[:1] + ["=".join(group) for group in groups],
    ]


def test_parse_args_agrees_with_the_argparse_parser(capsys, tmp_path):
    from oracle import build_parser
    from predual.cli import parse_args

    parser = build_parser()
    golden = json.loads((Path(__file__).with_name("golden.json")).read_text(encoding="utf-8"))
    argvs = [e["argv"] for e in golden] + _readme_calls(tmp_path)
    compared = 0
    for argv in argvs:
        try:
            parser.parse_args(argv)
        except SystemExit:
            continue  # argparse rejects it or prints help
        for variant in _variants(argv):
            assert vars(parse_args(variant)) == vars(parser.parse_args(variant)), variant
            compared += 1
    assert compared == 3 * (len(argvs) - 2)  # all but the README's --tag XX and --help


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["-h"], *([command, "--help"] for command in COMMANDS),
     ["syntactic", "--tag", "BA", "-h"]],
)
def test_help_names_every_command_and_option(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    words = set(re.findall(r"[\w-]+", out))
    commands = [argv[0]] if argv[0] in COMMANDS else list(COMMANDS)
    assert set(commands) <= words
    for command in commands:
        assert set(COMMANDS[command][2]) <= words, command
