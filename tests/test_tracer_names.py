"""The benchmark tracer wraps predual's functions by name.

benchmark/spans.py looks up every function of its SPANS and COUNTS in the
function's home module with getattr when a traced run starts, so renaming
one in the package would break `benchmark/run.py --trace 1`.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS_PY = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"


def test_every_traced_function_resolves_in_its_home_module():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for group, (home, names) in {**spans.SPANS, **spans.COUNTS}.items():
        module = importlib.import_module(f"predual.{home}")
        for name in names:
            assert callable(getattr(module, name, None)), (group, name)
