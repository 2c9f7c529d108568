"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest benchmark/test_benchmark.py
"""

import copy
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import dfa_oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_same_seed_same_items(tmp_path):
    first = [i.argv for i in workloads.build("syntactic", 7, tmp_path)]
    again = [i.argv for i in workloads.build("syntactic", 7, tmp_path)]
    other = [i.argv for i in workloads.build("syntactic", 8, tmp_path)]
    assert first == again
    assert first != other
    assert len(first) >= 100


def test_draw_is_distinct_and_stratified():
    drawn = workloads.draw_languages(3)
    dfas = {dfa_oracle.compile_regex(text) for text, _ in drawn}
    assert len(dfas) == len(drawn)
    orders = [order for _, order in drawn]
    assert {m: orders.count(m) for m in set(orders)} == workloads.ORDERS
    assert min(orders) <= 3 and max(orders) >= 5  # small and large items


def test_oracle_spot_values():
    spots = {"(aa)*": 2, "(ab)*": 6, "a*": 1, "(a|b)*abb": 7}
    assert {rx: dfa_oracle.syntactic_order(rx) for rx in spots} == spots


def test_oracle_dfa_matches_predual_parser():
    """Same canonical DFA as predual, so both read the drawn regexes alike."""
    from predual.langlib import parse_regex

    for text, _ in workloads.draw_languages(1):
        ours, theirs = dfa_oracle.compile_regex(text), parse_regex(text)
        assert (ours.alphabet, ours.delta, ours.finals) == (
            theirs.alphabet, theirs.delta, theirs.finals), text


def test_wrong_reference_is_a_failed_call(tmp_path):
    from predual import cli

    ids = [f"anchor-{i}" for i in range(len(workloads.SYNTACTIC_ANCHORS))]
    items = [i for i in workloads.build("syntactic", 1, tmp_path) if i.id in ids]
    outcomes = run.run_items(items, cli.main)
    reference = checks.load_reference()
    assert run.check_all(items, outcomes, "syntactic", 1, reference) == {}
    wrong = copy.deepcopy(reference)
    wrong["digests"]["syntactic"]["anchor-3"]["sha256"] = "0" * 64
    del wrong["digests"]["syntactic"]["anchor-0"]
    assert sorted(run.check_all(items, outcomes, "syntactic", 1, wrong)) == ["anchor-0", "anchor-3"]
    broken = copy.deepcopy(reference)
    del broken["digests"]
    assert sorted(run.check_all(items, outcomes, "syntactic", 1, broken)) == ids


def test_crashing_call_is_a_failed_call(tmp_path):
    items = workloads.build("syntactic", 1, tmp_path)[:2]

    def crash(argv):
        raise RuntimeError("boom")

    outcomes = run.run_items(items, crash)
    failures = run.check_all(items, outcomes, "syntactic", 1, checks.load_reference())
    assert set(failures) == {i.id for i in items}
    assert all("RuntimeError: boom" in f[0] for f in failures.values())


def test_passes_run_in_fresh_processes(tmp_path):
    items = workloads.build("syntactic", 1, tmp_path)[:2]
    seen = []

    def main(argv):
        seen.append(argv)  # each pass starts from the runner's empty list
        print(len(seen) if argv == items[0].argv else os.getpid())
        return 0

    outcomes, times, calibrations, set_ups, peak = run.timed_passes(items, main, 0, lambda n: n)
    assert len(times) == len(calibrations) == run.MIN_PASSES and set_ups == [1]
    assert all(len(c) == 2 * run.CALIBRATION_CALLS and min(c) > 0 for c in calibrations)
    assert seen == [] and peak > 0
    assert outcomes[0][:2] == (0, "1\n")
    assert [o[3] for o in outcomes] == times[0]
    # a call whose stdout changes from pass to pass is a failed call
    failures = run.check_all(items, outcomes, "syntactic", 2, checks.load_reference())
    assert "differs between passes" in failures[items[1].id][0]
    assert not any("differs between passes" in f for f in failures.get(items[0].id, []))


def test_a_pass_that_dies_fails_every_call(tmp_path):
    items = workloads.build("syntactic", 1, tmp_path)[:2]
    outcomes, *_ = run.timed_passes(items, lambda argv: os._exit(3), 0, lambda n: n)
    failures = run.check_all(items, outcomes, "syntactic", 1, checks.load_reference())
    assert set(failures) == {i.id for i in items}
    assert all("pass process died" in f[0] for f in failures.values())


def test_self_time_arithmetic():
    t = spans.Tracer()
    # root [0,10] with children a [1,4] and b [5,9]; b has child c [6,7]
    for start, end, parent in ((0, 10, -1), (1, 4, 0), (5, 9, 0), (6, 7, 2)):
        t.start.append(start)
        t.end.append(end)
        t.parent.append(parent)
    assert t.self_times() == [3, 3, 3, 1]


def _namespaces():
    return {m: dict(vars(importlib.import_module(m))) for m in spans.MODULES}


def test_install_wraps_every_namespace_and_restore_undoes_it():
    import predual.automata
    import predual.cli

    before = _namespaces()
    original = predual.automata.generated_local_variety
    t = spans.Tracer()
    t.install()
    try:
        assert predual.automata.generated_local_variety is not original
        assert predual.cli.generated_local_variety is predual.automata.generated_local_variety
        assert predual.generated_local_variety.__wrapped__ is original
    finally:
        t.restore()
    assert _namespaces() == before


def test_traced_run_accounts_for_all_time(tmp_path):
    from predual import cli

    items = [i for i in workloads.build("syntactic", 1, tmp_path) if i.id == "anchor-0"]
    t = spans.Tracer()
    t.install()
    try:
        run.run_items(items, cli.main, t)
    finally:
        t.restore()
    metrics = {name: value for name, (value, _) in t.metrics().items()}
    assert set(metrics) == {name for name, _ in spans.METRICS}
    assert metrics["langlib.closure.calls"] == 1
    assert metrics["langlib.closure.languages"] == dfa_oracle.variety_sizes("(ab)*")["JSL0"]
    assert 0 < metrics["langlib.closure.yield"] < 1
    assert metrics["langlib.product.calls"] > metrics["automata.local_variety.rebuilt_products"] > 0
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    hooks = sum(e - s for s, e, g in zip(t.start, t.end, t.group) if g == t.gid[spans.HOOK])
    assert self_total + hooks == pytest.approx(t.end[0] - t.start[0])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        command + ["--workload", "syntactic", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
