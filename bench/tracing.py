"""Outside-in tracing: wrap module attributes of ringzeta, record spans and
counters, and derive the per-layer metrics.

Calls made a few thousand times get a span each (name, start, end, parent
span, case).  Calls made more than 10^5 times in one workload get a counter,
and closure tests and `smith_type` also an accumulated time, because a span
each would cost more than the call.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from ringzeta import algebra, cones, coxeter, igusa, latticezeta, ratfun, repzeta

# (owner, attribute, kind, name); kind is span, timed, count or iter.
TARGETS = [
    (algebra, "resolve_ring_spec", "span", "algebra.resolve"),
    (algebra, "resolve_presentation_spec", "span", "algebra.resolve"),
    (algebra, "multiply", "count", "algebra.multiply"),
    (latticezeta, "multiply", "count", "algebra.multiply"),
    (algebra.CommutatorMatrix, "evaluate", "count", "algebra.evaluate"),
    (latticezeta, "count", "span", "latticezeta.count"),
    (latticezeta, "enumerate_sublattices", "iter", "latticezeta.lattices"),
    (latticezeta, "is_subring", "timed", "latticezeta.closure"),
    (latticezeta, "is_ideal", "timed", "latticezeta.closure"),
    (latticezeta, "contains", "count", "latticezeta.contains"),
    (repzeta, "rep_zeta_class2", "span", "repzeta.rep"),
    (repzeta, "smith_type", "timed", "repzeta.smith"),
    (repzeta, "weight_values", "span", "repzeta.point_count"),
    (ratfun, "expand_series", "span", "ratfun.expand"),
    (ratfun, "formula_catalog", "span", "ratfun.formula"),
    (ratfun, "euler_product", "span", "ratfun.euler"),
    (ratfun, "funeq_verdict", "span", "ratfun.funeq"),
    (ratfun, "hybrid_funeq_verdict", "span", "ratfun.funeq"),
    (igusa, "theorem3d_zeta", "span", "igusa.assembly"),
    (igusa, "poincare_counts", "span", "igusa.poincare"),
    (igusa.IntegerPolynomial, "evaluate", "count", "igusa.points"),
    *[(cones, f, "span", "cones") for f in (
        "extreme_rays", "brute_series", "rational_form", "expand_form", "reciprocity_check")],
    *[(coxeter, f, "span", "coxeter") for f in (
        "descent_sum", "gaussian_binomial", "longest_element_identities")],
]

CLI_SPAN = "cli"


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent id, case, name, start, end]
        # plain dicts and positional wrappers: about 0.2 us per counted call
        self.counts = {name: 0 for *_, name in TARGETS}
        self.seconds = {name: 0.0 for *_, name in TARGETS}
        self.accepted = 0
        self.case = None
        self.case_counts = {}
        self._stack = []

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            record = [len(spans), stack[-1] if stack else None, self.case, name, perf_counter(), None]
            spans.append(record)
            stack.append(record[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                record[5] = perf_counter()
                stack.pop()
            if name == "latticezeta.count":
                self.accepted += sum(result.coefficients)
            return result
        return wrapper

    def _timed(self, name, fn):
        counts, seconds = self.counts, self.seconds

        def wrapper(*args):
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                seconds[name] += perf_counter() - start
                counts[name] += 1
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    def _iter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item
        return wrapper

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        saved = []
        try:
            for owner, attr, kind, name in TARGETS:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, getattr(self, "_" + kind)(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def call(self, case, fn, *args):
        """Run fn(*args) as the root span of one case and keep its counts."""
        self.case = case
        before = dict(self.counts)
        try:
            return self._span(CLI_SPAN, fn)(*args)
        finally:
            self.case_counts[case] = {k: v - before[k] for k, v in self.counts.items() if v != before[k]}

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "case", "name", "start", "end"],
                       "spans": self.spans, "counts": self.counts,
                       "case_counts": self.case_counts, "seconds": self.seconds}, fh)

    def layer_metrics(self):
        total = Counter()      # outermost spans of each name
        own = Counter()        # self time: duration minus direct children
        calls = Counter()
        names = [s[3] for s in self.spans]
        for sid, parent, _case, name, start, end in self.spans:
            duration = end - start
            own[name] += duration
            calls[name] += 1
            if parent is not None:
                own[names[parent]] -= duration
            ancestor = parent
            while ancestor is not None and names[ancestor] != name:
                ancestor = self.spans[ancestor][1]
            if ancestor is None:
                total[name] += duration

        def rate(n, s):
            return n / s if s else 0.0

        c, sec = self.counts, self.seconds
        lattices, count_s = c["latticezeta.lattices"], total["latticezeta.count"]
        return {
            "cli.self_s": (own[CLI_SPAN], "s"),
            "algebra.resolve_s": (total["algebra.resolve"], "s"),
            "algebra.multiply_calls": (c["algebra.multiply"], "count"),
            "algebra.evaluate_calls": (c["algebra.evaluate"], "count"),
            "latticezeta.lattices": (lattices, "count"),
            "latticezeta.lattices_per_s": (rate(lattices, count_s), "1/s"),
            "latticezeta.closure_tests": (c["latticezeta.closure"], "count"),
            "latticezeta.closure_s": (sec["latticezeta.closure"], "s"),
            "latticezeta.accepted": (self.accepted, "count"),
            "latticezeta.accept_ratio": (rate(self.accepted, lattices), "ratio"),
            "latticezeta.contains_calls": (c["latticezeta.contains"], "count"),
            "latticezeta.enum_s": (count_s - sec["latticezeta.closure"], "s"),
            "latticezeta.count_s": (count_s, "s"),
            "repzeta.rep_s": (total["repzeta.rep"], "s"),
            "repzeta.smith_calls": (c["repzeta.smith"], "count"),
            "repzeta.smith_s": (sec["repzeta.smith"], "s"),
            "repzeta.matrices_per_s": (rate(c["repzeta.smith"], sec["repzeta.smith"]), "1/s"),
            "repzeta.point_count_s": (total["repzeta.point_count"], "s"),
            "ratfun.expand_calls": (calls["ratfun.expand"], "count"),
            "ratfun.expand_s": (total["ratfun.expand"], "s"),
            "ratfun.formula_calls": (calls["ratfun.formula"], "count"),
            "ratfun.formula_s": (total["ratfun.formula"], "s"),
            "ratfun.euler_s": (total["ratfun.euler"], "s"),
            "ratfun.euler_self_s": (own["ratfun.euler"], "s"),
            "ratfun.funeq_s": (total["ratfun.funeq"], "s"),
            "igusa.poincare_s": (total["igusa.poincare"], "s"),
            "igusa.points": (c["igusa.points"], "count"),
            "igusa.points_per_s": (rate(c["igusa.points"], total["igusa.poincare"]), "1/s"),
            "igusa.assembly_s": (own["igusa.assembly"], "s"),
            "cones.s": (total["cones"], "s"),
            "coxeter.s": (total["coxeter"], "s"),
        }
