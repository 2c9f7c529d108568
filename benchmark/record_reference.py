"""Re-record reference.json (and data/generators.json) from the current code.

Run from the repository root at a commit whose outputs are known good:

    python3 benchmark/record_reference.py

The generators are criterion 6's, taken from tests/test_acceptance.py.  Every
workload runs once at the default seed; the stdout digest of each call and the
check counts read from the outputs are written out.  The workloads run smaller
inputs than criteria 1, 2 and 6 (see workloads.py), so their totals are
printed, not compared with the criteria's.
"""

import json
import sys
import tempfile
from pathlib import Path

import checks
import run
import workloads

DEFAULT_SEED = 1


def record_generators():
    sys.path[:0] = [str(run.ROOT / "src"), str(run.ROOT / "tests")]
    from predual.serialize import to_doc
    from test_acceptance import _generators_for

    generators = [
        {"pair": pair, "name": name, "doc": to_doc(d)}
        for pair in workloads.MAIN_PAIRS
        for name, d in _generators_for(pair).items()
    ]
    workloads.DATA.mkdir(exist_ok=True)
    (workloads.DATA / "generators.json").write_text(json.dumps(generators, indent=1) + "\n")


def record():
    from predual import cli

    reference = {"default_seed": DEFAULT_SEED, "digests": {}, "duality": {}, "laws": {}, "eilenberg": {}}
    for workload in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory() as tmp:
            items = workloads.build(workload, DEFAULT_SEED, Path(tmp))
            outcomes = run.run_items(items, cli.main)
        digests = reference["digests"][workload] = {}
        for item, (rc, out, err, _) in zip(items, outcomes):
            assert rc is not None and "Traceback" not in err, (item.id, err)
            digests[item.id] = {"sha256": checks.digest(out)}
            if item.kind == "syntactic":
                digests[item.id]["argv"] = item.argv
            if item.kind == "dualize":
                report = json.loads(out)
                reference["duality"][item.meta["pair"]] = {
                    key: report[key] for key in ("objects", "morphisms", "compositions", "hom_counts")
                }
            elif item.kind == "laws":
                counts = reference["laws"][item.id] = {}
                for line in out.splitlines():
                    law, rest = line.split(": ")
                    counts[law] = int(rest.split("(")[1].split()[0])
            elif item.kind == "eilenberg":
                report = json.loads(out)
                reference["eilenberg"][item.id] = {
                    "exit": rc, "checked": report["checked"], "inconclusive": len(report["inconclusive"]),
                }
        print(workload, len(items), "items recorded", file=sys.stderr)
    eil = reference["eilenberg"].values()
    print("morphisms", sum(d["morphisms"] for d in reference["duality"].values()),
          "| law checks", reference["laws"],
          "| eilenberg samples checked", sum(e["checked"] for e in eil),
          "inconclusive", sum(e["inconclusive"] for e in eil), file=sys.stderr)
    checks.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True, ensure_ascii=False) + "\n")


if __name__ == "__main__":
    record_generators()
    record()
