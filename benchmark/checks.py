"""Output checks, run after the timed region.

Each check returns a list of problems for one item; an empty list is a pass.
The reference data (``reference.json``) was recorded from the seed commit:
stdout digests per item plus the check counts of the acceptance criteria.
Digests of the seeded ``syntactic`` draw exist for the default seed only; under
any other seed those items get the oracle and count checks alone.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import dfa_oracle as oracle

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def load_reference(path=REFERENCE) -> dict:
    return json.loads(Path(path).read_text())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _language_problems(doc, expected: oracle.DFA) -> list:
    got = (tuple(doc["alphabet"]), tuple(map(tuple, doc["delta"])), frozenset(doc["finals"]))
    if got != (expected.alphabet, expected.delta, expected.finals):
        return [f"language differs from the oracle DFA ({doc['states']} vs {expected.size} states)"]
    return []


def _right_deriv(d: oracle.DFA, letter) -> oracle.DFA:
    i = d.alphabet.index(letter)
    return oracle.minimize(d.alphabet, d.delta, {s for s in range(d.size) if d.delta[s][i] in d.finals})


def _oracle_problems(item, stdout) -> list:
    """Checks against the benchmark's own oracle, valid under every seed."""
    check = item.meta.get("oracle")
    regex = item.meta.get("regex")
    if check is None:
        return []
    doc = json.loads(stdout)
    if check == "order":
        size, want = doc["carrier"]["size"], oracle.dual_monoid_order(regex, item.meta["pair"])
        return [] if size == want else [f"dual monoid order {size}, oracle order {want}"]
    if check == "variety-size":
        size, want = doc["states"]["size"], oracle.variety_sizes(regex)[item.meta["pair"]]
        return [] if size == want else [f"local variety of {size} languages, oracle says {want}"]
    if check == "dfa":
        return _language_problems(doc, oracle.compile_regex(regex))
    if check == "right-deriv":
        return _language_problems(doc, _right_deriv(oracle.compile_regex(regex), item.meta["letter"]))
    raise ValueError(f"unknown oracle check {check!r}")


def _count_problems(item, stdout, ref) -> list:
    """Checks against the acceptance-criterion counts."""
    if item.kind == "dualize":
        report = json.loads(stdout)
        want = ref["duality"][item.meta["pair"]]
        problems = [] if report["ok"] else [f"duality laws fail: {report['failures'][:2]}"]
        for key, value in want.items():
            got = report[key] if key != "hom_counts" else [list(h) for h in report[key]]
            if got != value:
                problems.append(f"{key} differs from the reference")
        return problems
    if item.kind == "laws":
        got = {}
        problems = []
        for line in stdout.splitlines():
            m = re.fullmatch(r"(\w+): (\w+) \((\d+) checks\)( witness=.*)?", line)
            if not m:
                problems.append(f"unexpected line {line!r}")
                continue
            if m[2] != "holds":
                problems.append(f"law {m[1]} {m[2]}")
            got[m[1]] = int(m[3])
        if got != ref["laws"][item.id]:
            problems.append(f"checked counts {got} differ from {ref['laws'][item.id]}")
        return problems
    if item.kind == "eilenberg":
        report = json.loads(stdout)
        want = ref["eilenberg"][item.id]
        problems = [f"mismatches {report['mismatches'][:2]}"] if report["mismatches"] else []
        got = {"checked": report["checked"], "inconclusive": len(report["inconclusive"])}
        if got != {k: want[k] for k in got}:
            problems.append(f"counts {got} differ from the reference {want}")
        return problems
    return []


def expected_exit(item, ref) -> int:
    if item.kind == "eilenberg":
        return ref["eilenberg"][item.id]["exit"]
    return 0


def problems(item, workload, seed, rc, stdout, stderr, ref) -> list:
    """Everything wrong with one call; an item with problems is a failed call."""
    if rc is None:
        return ["no exit code: " + stderr.strip().splitlines()[-1]]
    found = []
    if "Traceback (most recent call last)" in stderr:
        found.append("printed a traceback")
    drawn = item.kind == "syntactic"
    try:
        if rc != expected_exit(item, ref):
            found.append(f"exit code {rc}, expected {expected_exit(item, ref)}")
        recorded = ref["digests"][workload].get(item.id)
        if recorded is None:
            if not drawn:
                found.append("no reference digest recorded")
        elif not drawn or seed == ref["default_seed"]:
            if drawn and recorded["argv"] != item.argv:
                found.append("argv differs from the recorded draw")
            elif recorded["sha256"] != digest(stdout):
                found.append("stdout digest differs from the reference")
        found += _oracle_problems(item, stdout) + _count_problems(item, stdout, ref)
    except (ValueError, KeyError, TypeError, IndexError) as e:
        found.append(f"unreadable output or reference: {type(e).__name__}: {e}")
    return found
