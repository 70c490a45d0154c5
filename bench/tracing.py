"""Span tracing around finalg's public functions, from outside the package.

`Tracer.install()` wraps the functions at each module boundary and every
name bound to them, because `isotest`, `classify`, `truncated` and `cli`
import `groebner_basis`, `rref` and the rest by name.  Spans (name,
parent, start, end) stay in memory until the run ends; hot inner calls are
counted instead of spanned, so the trace does not swamp what it measures.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

import numpy as np

from finalg.gfp import RowSpace
from finalg.truncated import TruncatedAlgebra


def _count_cells(tracer, args, kwargs):
    mat = args[0] if args else kwargs["mat"]
    tracer.counts["gfp.rref.cells"] += int(np.size(mat))


def _count_prune(tracer, data):
    if data is None:
        return
    for stage in data.stats.values():
        tracer.counts["isotest.prune.tested"] += stage["tested"]
        tracer.counts["isotest.prune.eliminated"] += (
            stage["eliminated_series"] + stage["eliminated_relations"]
            + stage["eliminated_annihilator"])


def _count_verdict(tracer, verdict):
    stats = verdict.statistics
    tracer.counts["isotest.search.leaves"] += stats.get("enumerated", 0)
    tracer.counts["isotest.search.relation_cuts"] += stats.get("relation_failures", 0)
    tracer.counts["isotest.search.generation_failures"] += stats.get(
        "generation_failures", 0)
    stage = decided_by(verdict)
    if stage is not None:
        tracer.counts[f"isotest.decided_by.{stage}"] += 1


def _count_report(tracer, report):
    tracer.counts["classify.pairs_run"] += report.totals.get("pairs_run", 0)
    tracer.counts["classify.evidence_records"] += len(report.evidence)
    tracer.counts["classify.transitivity_skips"] += sum(
        1 for ev in report.evidence if ev["method"] == "transitivity")


# (module, attribute) -> (span name, hooks): `on_args` sees each call's
# arguments, `on_result` its result
SPANNED_FUNCTIONS = {
    ("finalg.present", "parse"): ("present.parse", {}),
    ("finalg.gfp", "rref"): ("gfp.rref", {"on_args": _count_cells}),
    ("finalg.groebner", "buchberger"): ("groebner.basis", {}),
    ("finalg.groebner", "series_of_quotient"): ("groebner.series", {}),
    ("finalg.groebner", "eliminate"): ("groebner.eliminate", {}),
    ("finalg.groebner", "annihilator"): ("groebner.annihilator", {}),
    ("finalg.isotest", "fingerprint"): ("isotest.fingerprint", {}),
    ("finalg.isotest", "prune_ladder"): ("isotest.prune",
                                         {"on_result": _count_prune}),
    ("finalg.isotest", "graded_isomorphism"): ("isotest.search",
                                               {"on_result": _count_verdict}),
    ("finalg.isotest", "verify_certificate"): ("isotest.verify", {}),
    ("finalg.classify", "classify_corpus"): ("classify",
                                             {"on_result": _count_report}),
    ("finalg.cli", "main"): ("cli.main", {}),
}
SPANNED_METHODS = {
    (TruncatedAlgebra, "__init__"): ("truncated.build", {}),
    (TruncatedAlgebra, "power_filtration_dims"): ("truncated.filtration", {}),
    (TruncatedAlgebra, "generates"): ("truncated.generates", {}),
}
# (owner, attribute) -> counter name; these are called too often to span
COUNTED_FUNCTIONS = {
    ("finalg.groebner", "normal_form"): "groebner.normal_form.calls",
}
COUNTED_METHODS = {
    (TruncatedAlgebra, "multiply_vec"): "truncated.multiply_vec.calls",
    (RowSpace, "add"): "gfp.rowspace_add.calls",
}


def decided_by(verdict) -> str | None:
    """Which stage settled a verdict, read from its outcome and reason."""
    if verdict.outcome == "inconclusive":
        return None
    if verdict.outcome == "isomorphic" or verdict.reason == "search exhausted":
        return "search"
    if (verdict.reason or "").startswith("subset admissibility"):
        return "prune"
    return "fingerprint"


class Tracer:
    """Records spans and counters while installed; see the module doc."""

    def __init__(self):
        self.spans: list = []       # [name, parent index, start, end, outer]
        self.counts: Counter = Counter()
        self._stack: list = []
        self._active: Counter = Counter()
        self._undo: list = []

    # ------------------------------------------------------------ wrappers

    def _spanned(self, name, fn, on_result=None, on_args=None):
        spans, stack, active = self.spans, self._stack, self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_args is not None:
                on_args(self, args, kwargs)
            rec = [name, stack[-1] if stack else None, perf_counter(), None,
                   active[name] == 0]
            stack.append(len(spans))
            spans.append(rec)
            active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                active[name] -= 1
                stack.pop()
                rec[3] = perf_counter()
            if on_result is not None:
                on_result(self, result)
            return result
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        for modname, _ in list(SPANNED_FUNCTIONS) + list(COUNTED_FUNCTIONS):
            importlib.import_module(modname)
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "finalg" or n.startswith("finalg.")) and m is not None]
        for (modname, attr), wrap in self._wrappers(SPANNED_FUNCTIONS,
                                                     COUNTED_FUNCTIONS):
            original = getattr(sys.modules[modname], attr)
            wrapped = wrap(original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, original))
        for (cls, attr), wrap in self._wrappers(SPANNED_METHODS,
                                                 COUNTED_METHODS):
            original = cls.__dict__[attr]
            setattr(cls, attr, wrap(original))
            self._undo.append((cls, attr, original))

    def _wrappers(self, spanned, counted):
        """(owner, attribute) -> function that wraps the original."""
        for key, (name, hooks) in spanned.items():
            yield key, functools.partial(self._spanned, name, **hooks)
        for key, name in counted.items():
            yield key, functools.partial(self._counted, name)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # ----------------------------------------------------------- summaries

    def layer_times(self) -> dict:
        """name -> (calls, inclusive seconds, self seconds).

        Inclusive time counts only the outermost span of a name, so a
        recursive call is not counted twice; self time is a span's
        duration minus the time its child spans cover.
        """
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict = {}
        for k, (name, _, start, end, outer) in enumerate(self.spans):
            calls, incl, own = out.get(name, (0, 0.0, 0.0))
            dur = end - start
            out[name] = (calls + 1, incl + (dur if outer else 0.0),
                         own + dur - child[k])
        return out
