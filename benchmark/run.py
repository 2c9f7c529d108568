"""predual benchmark: README CLI workloads, timed end to end or traced per layer.

Usage, from the repository root:

    python3 benchmark/run.py --workload syntactic --seed 1 --seconds 30 --trace 0

Each pass over a workload is one fresh process forked from the runner after
set-up and one closed loop with a single caller: the items run in a fixed
order through ``predual.cli.main(argv)`` with stdout and stderr captured, the
next call starting when the previous one returns.  Passes repeat, one after
another, until ``--seconds`` is used up; ``wall_s`` sums each call's fastest
pass.  Output checks run after the timed region.  ``--trace 1``
runs a single pass with the package's public functions wrapped (see
spans.py) and reports per-layer metrics instead of end-to-end ones.  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics.
"""

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import pickle
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks
import dfa_oracle as oracle
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3  # timed passes made even when one pass outlasts --seconds
SETUP_EVERY_S = 5.0  # one more set-up after the first pass that ends this long after the last

# Every pass also times a fixed piece of pure-Python work that no change to
# predual touches: the benchmark's own oracle on these languages, 15 times
# before the items and 15 times after.  The machine's speed drifts by 20-50%
# from one run to the next; times are scaled by the ratio of
# CALIBRATION_REF_S to the calibration call's fastest time in the same run,
# which is its fastest time when the machine runs at its usual best.
CALIBRATION_REGEXES = (
    "(aa)*", "a*", "(ab)*", "(aaa)*", "a(ba)*", "(a|b)*b(a|b)*", "((b*a)a)",
    "(a~(aa))", "(b((~b|b*)a))", "~(a|(b(a|a)))", "((ba*)*b)",
)
CALIBRATION_CALLS = 15
CALIBRATION_REF_S = 0.006


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True,
                   help="time budget of the timed passes; at least %d passes run" % MIN_PASSES)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def set_up(workload, seed, docdir):
    """Import predual afresh and build the items into ``docdir``.

    Returns (cli module, items, seconds).  Every predual module is dropped
    first, so module-level caches start cold.
    """
    for name in [m for m in sys.modules if m == "predual" or m.startswith("predual.")]:
        del sys.modules[name]
    docdir.mkdir(parents=True)
    start = time.perf_counter()
    cli = importlib.import_module("predual.cli")
    items = workloads.build(workload, seed, docdir)
    return cli, items, time.perf_counter() - start


def in_child(fn):
    """fn() in a forked child process; its result, or None if the child died.

    The result comes back pickled through a pipe.  The runner waits for the
    child to end before it returns.  The runner starts no threads, so fork is
    safe; the child starts from the runner's state after set-up, with predual
    imported and its caches cold.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            with os.fdopen(write_end, "wb") as fh:
                fh.write(pickle.dumps(fn()))
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as fh:
        data = fh.read()
    os.waitpid(pid, 0)
    return pickle.loads(data) if data else None


def run_items(items, main, tracer=None):
    """The timed region: one call after another.  Returns (rc, out, err, seconds) per item."""
    outcomes = []
    for n, item in enumerate(items):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.item_id = n
            root = tracer.open("cli")
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(list(item.argv))
        except Exception:  # a crashing call is a failed call, not a crashed run
            rc = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.close(root)
        outcomes.append((rc, out.getvalue(), err.getvalue(), elapsed))
    return outcomes


def calibration_call():
    start = time.perf_counter()
    for regex in CALIBRATION_REGEXES:
        oracle.variety_sizes(regex)
        oracle.syntactic_order(regex)
    return time.perf_counter() - start


def one_pass(items, main):
    """A pass in its own process.

    Returns (outcomes, calibration seconds, the process's peak RSS in KiB).
    """
    calibration = [calibration_call() for _ in range(CALIBRATION_CALLS)]
    outcomes = run_items(items, main)
    calibration += [calibration_call() for _ in range(CALIBRATION_CALLS)]
    return outcomes, calibration, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def timed_passes(items, main, seconds, set_up_again):
    """Passes, each in a fresh child, until ``seconds`` is used up.

    Returns (outcomes of the first pass, per-item seconds of every pass,
    calibration seconds of every pass, set-up seconds, peak RSS in KiB).
    Later passes must reproduce the first pass's exit codes and stdout, or
    the item counts as failed.  Between passes, every SETUP_EVERY_S seconds,
    one more set-up runs in a child of its own, so set-up is sampled across
    the run as the passes are.
    """
    first, times, calibrations, set_ups, peak = None, [], [], [], 0
    deadline = time.perf_counter() + seconds
    passes = last = 0
    last_set_up = -math.inf
    while passes < MIN_PASSES or time.perf_counter() + last < deadline:
        began = time.perf_counter()
        result = in_child(lambda: one_pass(items, main))
        last = time.perf_counter() - began
        passes += 1
        if result is None:
            died = (None, "", "the pass process died\n", last)
            result = ([died] * len(items), [math.inf] * 2 * CALIBRATION_CALLS, 0)
        outcomes, calibration, rss = result
        peak = max(peak, rss)
        times.append([o[3] for o in outcomes])
        calibrations.append(calibration)
        if first is None:
            first = list(outcomes)
        else:
            for n, o in enumerate(outcomes):
                if first[n][0] is not None and o[:2] != first[n][:2]:
                    first[n] = (None, "", "output differs between passes\n", first[n][3])
        if time.perf_counter() - last_set_up >= SETUP_EVERY_S:
            set_ups.append(in_child(lambda: set_up_again(passes)))
            last_set_up = time.perf_counter()
    return first, times, calibrations, set_ups, peak


def check_all(items, outcomes, workload, seed, reference):
    """{item id: problems} for every failed item."""
    failures = {}
    for item, (rc, out, err, _) in zip(items, outcomes):
        found = checks.problems(item, workload, seed, rc, out, err, reference)
        if found:
            failures[item.id] = found
    return failures


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "predual" / "cli.py").is_file():
        print(f"benchmark: no predual sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"

    def set_up_again(n):
        return set_up(args.workload, args.seed, tmp / f"setup-{n}")[2]

    try:
        cli, items, setup_s = set_up(args.workload, args.seed, tmp / "setup-0")
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                outcomes = run_items(items, cli.main, tracer)
            finally:
                tracer.restore()
            times, speed = [[o[3] for o in outcomes]], 1.0
        else:
            tracer = None
            outcomes, times, calibrations, set_ups, peak_kib = timed_passes(
                items, cli.main, args.seconds, set_up_again)
            calibration_s = statistics.mean(min(column) for column in zip(*calibrations))
            speed = CALIBRATION_REF_S / calibration_s
            setup_s = speed * statistics.median([setup_s] + [s for s in set_ups if s is not None])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            tmp.parent.rmdir()

    reference = checks.load_reference()
    failures = check_all(items, outcomes, args.workload, args.seed, reference)
    # a call's fastest pass: the machine's speed changes from second to second
    # and minute to minute, and the fastest of many passes follows it least
    latencies = [speed * min(column) for column in zip(*times)]
    wall_s = sum(latencies)

    print(f"workload {args.workload}, seed {args.seed}, {len(items)} calls, "
          f"closed loop with one caller, tracing {'on' if tracer else 'off'}")
    if args.seed == reference["default_seed"] or args.workload != "syntactic":
        print("checks: exit codes, oracle, reference counts and recorded stdout digests")
    else:
        print(f"checks: seed {args.seed} is not the recorded seed {reference['default_seed']}: "
              "drawn items get exit-code, oracle and count checks only; anchors keep their digests")
    if tracer is None:
        print(f"{len(times)} passes, each in a fresh process; every call's time is its fastest "
              f"pass; the sum of the calls' median passes is "
              f"{sum(statistics.median(column) for column in zip(*times)):.4f} s unscaled")
        print(f"calibration call {1000 * calibration_s:.3f} ms at its fastest, reference "
              f"{1000 * CALIBRATION_REF_S:.3f} ms: times below are scaled by {speed:.4f}")
    else:
        print("one traced pass in the runner's own process")
    slowest = sorted(zip(latencies, items), key=lambda pair: -pair[0])[:3]
    print("slowest calls: " + ", ".join(f"{item.id} {sec:.3f} s" for sec, item in slowest))
    print(f"error rate {len(failures)}/{len(items)} calls")
    for item_id, found in list(failures.items())[:10]:
        print(f"FAILED {item_id}: {'; '.join(found)}")

    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_kib / 1024, "unit": "MB"},
        }
        print(f"call latency p50 {1000 * percentile(latencies, 0.5):.3f} ms, "
              f"p90 {1000 * percentile(latencies, 0.9):.3f} ms over {len(latencies)} calls "
              f"({len(latencies) - math.ceil(0.9 * len(latencies))} beyond p90)")
    else:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in tracer.metrics().items()}
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write(span_file)
        print(f"traced wall_s {wall_s:.4f} s; tracing overhead is this minus the untraced "
              "sum of the calls' median passes")
        print(f"{len(tracer.start)} spans written to {span_file.relative_to(ROOT)}")
        print("waiting time: none to report; the program is one thread with no queues")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(items),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
