"""Spans around predual's public functions, recorded from outside the package.

The package imports names with ``from .x import y``, so a function lives in
several module namespaces at once.  ``Tracer.install`` replaces every
namespace entry that is the original function object and ``restore`` puts the
originals back.  Spans (group, start, end, parent span, item) stay in flat
arrays in memory; ``write`` dumps them when the run ends.  A layer's self time
is its spans' durations minus the time their direct child spans cover.
"""

from __future__ import annotations

import gzip
import importlib
from array import array
from time import perf_counter

MODULES = (
    "predual", "predual.algebra", "predual.duality", "predual.langlib",
    "predual.automata", "predual.monoids", "predual.preimage",
    "predual.varieties", "predual.serialize", "predual.cli",
)

# span group -> (defining module, functions).  "cli" is the root span of
# each item, opened by the runner around ``predual.cli.main``.
SPANS = {
    "serialize.dumps": ("serialize", ("dumps",)),
    "langlib.parse_regex": ("langlib", ("parse_regex",)),
    "langlib.product": ("langlib", ("union", "intersection", "symmetric_difference")),
    "langlib.deriv": ("langlib", ("left_deriv", "right_deriv", "complement", "reversal")),
    "langlib.closure": ("langlib", ("closure_under_ops_and_derivs",)),
    "langlib.preimage": ("langlib", ("preimage_language",)),
    "algebra.validate": ("algebra", ("validate_algebra",)),
    "algebra.enumerate": ("algebra", ("enumerate_algebras",)),
    "algebra.search": ("algebra", ("all_morphisms", "table_isomorphism", "are_isomorphic")),
    "algebra.make": ("algebra", ("make_algebra", "make_morphism")),
    "duality.dual_object": ("duality", ("dual_object",)),
    "duality.dual_morphism": ("duality", ("dual_morphism",)),
    "duality.eta": ("duality", ("eta",)),
    "duality.verify": ("duality", ("verify_preduality",)),
    "automata.local_variety": ("automata", ("generated_local_variety",)),
    "automata.dual_automaton": ("automata", ("dual_automaton", "dual_automaton_inv")),
    "automata.criteria": ("automata", ("is_subcoalgebra_of_rho", "is_local_variety")),
    "automata.dual_monoid": ("automata", ("dual_generated_monoid",)),
    "automata.shift": ("automata", ("shift_initial", "shift_initial_co")),
    "monoids.divides": ("monoids", ("divides",)),
    "monoids.check": ("monoids", ("validate_dmonoid", "are_dmonoids_isomorphic")),
    "preimage.corpus": ("preimage", ("default_corpus",)),
    "preimage.apply": ("preimage", ("alpha_x", "algebra_preimage", "coalgebra_preimage")),
    "preimage.laws": ("preimage", ("check_preimage_laws",)),
    "varieties.free_monoid": ("varieties", ("free_monoid_in_simple_pseudovariety",)),
    "varieties.recognizes": ("varieties", ("recognizes_language",)),
    "varieties.eilenberg": ("varieties", ("check_eilenberg_simple",)),
}

# compose runs about 10^6 times per run: counted, never spanned
COUNTS = {"algebra.compose": ("algebra", ("compose",))}

# span groups whose spans hold no child spans: poset enumeration runs the
# isomorphism search itself, and that one-off cost belongs to enumeration
OPAQUE = {"algebra.enumerate"}

# span groups that report no call count, only self time
NO_CALLS = {"cli", "algebra.enumerate", "duality.verify", "preimage.corpus",
            "preimage.laws", "varieties.eilenberg"}

# counts beyond calls and self time, listed after their span group
EXTRA = {
    "langlib.closure": (("langlib.closure.languages", "count"), ("langlib.closure.yield", "ratio")),
    "algebra.enumerate": (("algebra.enumerate.objects", "count"),),
    "algebra.make": (("algebra.compose.calls", "count"),),
    "duality.dual_object": (("duality.dual_object.distinct", "count"),
                            ("duality.dual_object.useful", "ratio")),
    "automata.local_variety": (("automata.local_variety.rebuilt_products", "count"),),
    "monoids.divides": (("monoids.divides.inconclusive", "count"),),
    "preimage.laws": (("preimage.laws.checks", "count"),),
}


def _metric_names():
    names = []
    for group in ("cli",) + tuple(SPANS):
        if group not in NO_CALLS:
            names.append((f"{group}.calls", "count"))
        names.append((f"{group}.self_s", "s"))
        names.extend(EXTRA.get(group, ()))
    return tuple(names)


# the per-layer metrics, in report order, with their units
METRICS = _metric_names()

HOOK = "trace.hook"  # bookkeeping spans: excluded from parents' self time, never reported


class Tracer:
    """Records spans and counts while installed; one per traced run."""

    def __init__(self):
        self.groups = ["cli", HOOK] + list(SPANS)
        self.gid = {g: i for i, g in enumerate(self.groups)}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.group = array("l")
        self.item = array("l")
        self.stack = [-1]
        self.opaque = 0  # open spans of OPAQUE groups
        self.item_id = -1
        self.counts = {g: 0 for g in COUNTS}
        self.dual_inputs = set()
        self.closure_languages = 0
        self.closure_new = 0
        self.enumerated = 0
        self.inconclusive = 0
        self.law_checks = 0
        self._patched = []

    # -- recording ----------------------------------------------------------

    def open(self, group: str) -> int:
        idx = len(self.start)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self.stack[-1])
        self.group.append(self.gid[group])
        self.item.append(self.item_id)
        self.stack.append(idx)
        self.start[idx] = perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def _spanned(self, group, fn, hook):
        opaque = group in OPAQUE

        def wrapper(*args, **kwargs):
            if self.opaque:
                return fn(*args, **kwargs)
            idx = self.open(group)
            self.opaque += opaque
            try:
                result = fn(*args, **kwargs)
            finally:
                self.opaque -= opaque
                self.close(idx)
            if hook is not None:
                h = self.open(HOOK)
                hook(args, result)
                self.close(h)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, group, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[group] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks: counts that need a call's arguments or result -----------------

    def _dual_object(self, args, result):
        self.dual_inputs.add((args[0], args[1]))

    def _closure(self, args, result):
        tag, seeds = args[0], set(args[1])
        # the closure starts from the seeds, the empty language and, in BA
        # and DL01, the full language: the one-state languages of the result
        constants = {s for s in result if s.size == 1 and (not s.finals or tag in ("BA", "DL01"))}
        self.closure_languages += len(result)
        self.closure_new += len(result) - len(seeds | constants)

    def _enumerate(self, args, result):
        self.enumerated += len(result)

    def _divides(self, args, result):
        self.inconclusive += result is None

    def _laws(self, args, result):
        self.law_checks += sum(entry["checked"] for entry in result.values())

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        hooks = {
            "duality.dual_object": self._dual_object,
            "langlib.closure": self._closure,
            "algebra.enumerate": self._enumerate,
            "monoids.divides": self._divides,
            "preimage.laws": self._laws,
        }
        wrappers = {}  # id(original) -> (original, wrapper)
        for group, (home, names) in {**SPANS, **COUNTS}.items():
            home = importlib.import_module(f"predual.{home}")
            for name in names:
                fn = getattr(home, name)
                wrapper = (self._counted(group, fn) if group in COUNTS
                           else self._spanned(group, fn, hooks.get(group)))
                wrappers[id(fn)] = (fn, wrapper)
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def restore(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the durations of its direct children."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= dur[idx]
        return own

    def metrics(self) -> dict:
        own = self.self_times()
        calls = [0] * len(self.groups)
        self_s = [0.0] * len(self.groups)
        closure, local = self.gid["langlib.closure"], self.gid["automata.local_variety"]
        candidates = rebuilt = 0
        built = {self.gid["langlib.product"], self.gid["langlib.deriv"]}
        product = self.gid["langlib.product"]
        for idx, g in enumerate(self.group):
            calls[g] += 1
            self_s[g] += own[idx]
            parent = self.parent[idx]
            if parent >= 0 and g in built:
                pg = self.group[parent]
                candidates += pg == closure
                rebuilt += pg == local and g == product
        values = {}
        for group, i in self.gid.items():
            values[f"{group}.calls"] = calls[i]
            values[f"{group}.self_s"] = self_s[i]
        values.update({
            "langlib.closure.languages": self.closure_languages,
            "langlib.closure.yield": self.closure_new / candidates if candidates else 0.0,
            "algebra.enumerate.objects": self.enumerated,
            "duality.dual_object.distinct": len(self.dual_inputs),
            "duality.dual_object.useful": (
                len(self.dual_inputs) / calls[self.gid["duality.dual_object"]]
                if calls[self.gid["duality.dual_object"]] else 0.0
            ),
            "automata.local_variety.rebuilt_products": rebuilt,
            "monoids.divides.inconclusive": self.inconclusive,
            "preimage.laws.checks": self.law_checks,
            "algebra.compose.calls": self.counts["algebra.compose"],
        })
        return {name: (values[name], unit) for name, unit in METRICS}

    def write(self, path) -> None:
        """All spans as tab-separated lines: span, parent, item, group, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\titem\tgroup\tstart\tend\n")
            for idx in range(len(self.start)):
                fh.write(
                    f"{idx}\t{self.parent[idx]}\t{self.item[idx]}\t"
                    f"{self.groups[self.group[idx]]}\t{self.start[idx]:.9f}\t{self.end[idx]:.9f}\n"
                )
