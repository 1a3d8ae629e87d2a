"""Span tracing for qmodver, installed from outside the package.

`Tracer.install()` wraps the public functions of the six modules (series,
specfun, lattice, modgroup, verify, cli) and rebinds every name in the package
that refers to one of them, including names bound with `from ... import`.
Each call records a span (id, parent id, request id, name, start, end) in
memory; self time is the span's duration minus the time covered by its child
spans.  Nothing under `src/` is modified on disk.

`per_layer_metrics()` turns the aggregates of one or more traced operations
into the per-layer metrics listed in BENCHMARK.json.  This module imports
qmodver only inside `install()`, so run.py can import it for the metric
definitions without loading the program.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from bisect import bisect_left
from math import ceil, lcm

# (module, attribute, span name).  A span name that is not itself a metric
# group belongs to the group named by dropping its last component, so
# "series.regrid.shifted" adds to series.regrid.
SERIES_METHODS = (
    ("__mul__", "series.mul"),
    ("from_terms", "series.from_terms"),
    ("invert", "series.invert"),
    ("__add__", "series.add"),
    ("shifted", "series.regrid.shifted"),
    ("rescale", "series.regrid.rescale"),
    ("truncate", "series.regrid.truncate"),
    ("shift_tau", "series.regrid.shift_tau"),
    ("q_d_dq", "series.regrid.q_d_dq"),
    ("to_complex", "series.regrid.to_complex"),
    ("first_mismatch", "series.compare.first_mismatch"),
    ("equals", "series.compare.equals"),
    ("evaluate", "series.evaluate"),
)
FUNCTIONS = (
    ("specfun", "euler_product", "specfun.euler_product"),
    ("specfun", "partition_gf", "specfun.partition_gf"),
    ("specfun", "q_twisted", "specfun.q_twisted"),
    ("specfun", "dedekind_eta", "specfun.dedekind_eta"),
    ("specfun", "eta_half_period_series", "specfun.eta_half_period_series"),
    ("specfun", "distinct_parts_product", "specfun.distinct_parts_product"),
    ("specfun", "jacobi_theta", "specfun.jacobi_theta"),
    ("specfun", "eisenstein", "specfun.eisenstein"),
    ("lattice", "character", "lattice.character"),
    ("lattice", "eta_theta_form", "lattice.eta_theta_form"),
    ("lattice", "l0_inserted_trace", "lattice.l0_inserted_trace"),
    ("lattice", "lattice_sum", "lattice.lattice_sum"),
    ("modgroup", "mobius", "modgroup.mobius"),
    ("modgroup", "act_on_pair", "modgroup.act_on_pair"),
    ("verify", "run_suite", "verify.run_suite"),
    ("verify", "identities_suite", "verify.suite.identities"),
    ("verify", "transforms_suite", "verify.suite.transforms"),
    ("verify", "closure_suite", "verify.suite.closure"),
    ("verify", "eisenstein_suite", "verify.suite.eisenstein"),
    ("verify", "qk_suite", "verify.suite.qk"),
    ("verify", "check_series_equal", "verify.check_series_equal"),
    ("verify", "check_transform_numeric", "verify.check_transform_numeric"),
    ("verify", "closure_scan", "verify.closure_scan"),
    ("cli", "main", "cli.main"),
)
# names other modules bind with `from ... import`; install() must rebind them
FROM_IMPORTS = (
    ("lattice", "dedekind_eta"), ("lattice", "jacobi_theta"),
    ("lattice", "partition_gf"), ("verify", "mobius"),
    ("verify", "act_on_pair"), ("cli", "mobius"),
)
REPEAT_GROUPS = {name: "specfun.build" for mod, _, name in FUNCTIONS if mod == "specfun"}
REPEAT_GROUPS["lattice.character"] = "lattice.character"

# name -> (unit, better); the order here is the order in BENCHMARK.json
PER_LAYER = {
    "series.mul.calls": ("count", "lower"),
    "series.mul.self_s": ("s", "lower"),
    "series.mul.term_pairs": ("count", "lower"),
    "series.from_terms.calls": ("count", "lower"),
    "series.from_terms.self_s": ("s", "lower"),
    "series.invert.calls": ("count", "lower"),
    "series.invert.self_s": ("s", "lower"),
    "series.add.self_s": ("s", "lower"),
    "series.regrid.self_s": ("s", "lower"),
    "series.compare.self_s": ("s", "lower"),
    "series.compare.slots": ("count", "lower"),
    "series.max_coeff_bits": ("bits", "lower"),
    "series.evaluate.calls": ("count", "lower"),
    "series.evaluate.self_s": ("s", "lower"),
    "series.evaluate.slots": ("count", "lower"),
    "series.evaluate.nonzero_ratio": ("ratio", "higher"),
    "specfun.euler_product.calls": ("count", "lower"),
    "specfun.euler_product.self_s": ("s", "lower"),
    "specfun.partition_gf.calls": ("count", "lower"),
    "specfun.partition_gf.self_s": ("s", "lower"),
    "specfun.q_twisted.calls": ("count", "lower"),
    "specfun.q_twisted.self_s": ("s", "lower"),
    "specfun.dedekind_eta.self_s": ("s", "lower"),
    "specfun.eta_half_period_series.self_s": ("s", "lower"),
    "specfun.distinct_parts_product.self_s": ("s", "lower"),
    "specfun.jacobi_theta.self_s": ("s", "lower"),
    "specfun.eisenstein.self_s": ("s", "lower"),
    "specfun.build.repeat_ratio": ("ratio", "lower"),
    "lattice.character.calls": ("count", "lower"),
    "lattice.character.self_s": ("s", "lower"),
    "lattice.character.repeat_ratio": ("ratio", "lower"),
    "lattice.eta_theta_form.self_s": ("s", "lower"),
    "lattice.l0_inserted_trace.self_s": ("s", "lower"),
    "lattice.lattice_sum.self_s": ("s", "lower"),
    "modgroup.mobius.calls": ("count", "lower"),
    "modgroup.mobius.self_s": ("s", "lower"),
    "verify.suite.identities.wall_s": ("s", "lower"),
    "verify.suite.transforms.wall_s": ("s", "lower"),
    "verify.suite.closure.wall_s": ("s", "lower"),
    "verify.suite.eisenstein.wall_s": ("s", "lower"),
    "verify.suite.qk.wall_s": ("s", "lower"),
    "verify.check_series_equal.self_s": ("s", "lower"),
    "verify.check_transform_numeric.self_s": ("s", "lower"),
    "verify.closure_scan.self_s": ("s", "lower"),
    "verify.checks.pass": ("count", "higher"),
    "verify.checks.xfail": ("count", "lower"),
    "verify.checks.fail": ("count", "lower"),
    "verify.checks.abort": ("count", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

_SERIES_CORE = ("series.mul.calls", "series.mul.self_s", "series.mul.term_pairs",
                "series.from_terms.calls", "series.from_terms.self_s",
                "series.invert.calls", "series.invert.self_s",
                "series.regrid.self_s", "series.compare.self_s",
                "series.compare.slots", "series.max_coeff_bits")
_EVALUATE = ("series.evaluate.calls", "series.evaluate.self_s",
             "series.evaluate.slots", "series.evaluate.nonzero_ratio",
             "modgroup.mobius.calls", "modgroup.mobius.self_s")
_LATTICE = ("lattice.character.calls", "lattice.character.self_s",
            "lattice.character.repeat_ratio", "lattice.eta_theta_form.self_s",
            "lattice.l0_inserted_trace.self_s", "lattice.lattice_sum.self_s")
_IDENTITY_BUILDERS = ("specfun.euler_product.calls", "specfun.euler_product.self_s",
                      "specfun.partition_gf.calls", "specfun.partition_gf.self_s",
                      "specfun.dedekind_eta.self_s",
                      "specfun.distinct_parts_product.self_s",
                      "specfun.jacobi_theta.self_s", "specfun.build.repeat_ratio")

# Per-layer metrics documented as moving each workload's end-to-end metric;
# the traced run fails its self-check if any of them reads 0 there.
# series.add.self_s is listed in PER_LAYER but in no set here: no suite adds
# two series at this commit, so it reads 0 on every workload.
MUST_MOVE = {
    "suite-default": _SERIES_CORE + _EVALUATE + _LATTICE + _IDENTITY_BUILDERS + (
        "specfun.q_twisted.calls", "specfun.q_twisted.self_s",
        "specfun.eta_half_period_series.self_s", "specfun.eisenstein.self_s",
        "verify.suite.identities.wall_s", "verify.suite.transforms.wall_s",
        "verify.suite.closure.wall_s", "verify.suite.eisenstein.wall_s",
        "verify.suite.qk.wall_s", "verify.check_series_equal.self_s",
        "verify.check_transform_numeric.self_s", "verify.closure_scan.self_s",
        "verify.checks.pass", "verify.checks.xfail",
        "cli.main.self_s", "cli.output_bytes"),
    "exact-deep": _SERIES_CORE + _LATTICE + _IDENTITY_BUILDERS + (
        "verify.suite.identities.wall_s", "verify.check_series_equal.self_s",
        "verify.checks.pass", "verify.checks.xfail"),
    "numeric-sweep": _EVALUATE + (
        "verify.check_transform_numeric.self_s", "verify.checks.pass"),
}


def metric_group(span_name: str) -> str:
    if f"{span_name}.self_s" in PER_LAYER or f"{span_name}.wall_s" in PER_LAYER:
        return span_name
    return span_name.rsplit(".", 1)[0]


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.request = 0
        self.spans: list[tuple] = []   # (id, parent, request, name, start, end)
        self.stats: dict[str, list] = {}  # span name -> [calls, self_s, total_s]
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []    # [span id, seconds covered by children]
        self._next_id = 0
        self._seen: dict[str, set] = {}
        self._eval_shape: dict[int, tuple] = {}
        self._originals: dict[int, object] = {}
        self.problems: list[str] = []   # filled by install()

    # -- recording ----------------------------------------------------------

    def count(self, key: str, n: float = 1):
        self.counters[key] = self.counters.get(key, 0) + n

    def count_verdicts(self, reports):
        for r in reports:
            if r.aborted:
                self.count("verify.checks.abort")
            elif r.passed:
                self.count("verify.checks.pass")
            elif r.expected_fail:
                self.count("verify.checks.xfail")
            else:
                self.count("verify.checks.fail")

    def _wrap(self, name: str, fn, before=None, after=None):
        tracer = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            sid = tracer._next_id
            tracer._next_id += 1
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                st = tracer.stats.get(name)
                if st is None:
                    st = tracer.stats[name] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dur - frame[1]
                st[2] += dur
                tracer.spans.append((sid, parent, tracer.request, name, t0, t1))
            if after is not None:
                after(args, result)
            return result

        self._originals[id(fn)] = fn
        return wrapper

    # -- per-call counters ----------------------------------------------------

    def _repeat(self, group, name):
        def before(args, kwargs):
            key = (name, repr(args), repr(sorted(kwargs.items())))
            seen = self._seen.setdefault(group, set())
            self.count(f"{group}.calls_all")
            if key in seen:
                self.count(f"{group}.repeats")
            else:
                seen.add(key)
        return before

    def _coeff_bits(self, args, result):
        if getattr(result, "domain", None) != "exact":
            return
        bits = 0
        for c in result.coeffs:
            if c:
                bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
        if bits > self.counters.get("series.max_coeff_bits", 0):
            self.counters["series.max_coeff_bits"] = bits

    def _after_mul(self, args, result):
        # nonzero term pairs whose exponent sum lies below the product's order:
        # the schoolbook work the product needs, whatever the implementation
        if result is NotImplemented:
            return
        a, b = args
        grid = lcm(a.ramification, b.ramification, result.order.denominator)
        ea = [(a.offset + i) * (grid // a.ramification) for i, c in enumerate(a.coeffs) if c]
        eb = [(b.offset + i) * (grid // b.ramification) for i, c in enumerate(b.coeffs) if c]
        limit = int(result.order * grid)
        self.count("series.mul.term_pairs", sum(bisect_left(eb, limit - x) for x in ea))
        self._coeff_bits(args, result)

    def _before_compare(self, args, kwargs):
        a, b = args
        m = min(a.order, b.order)
        for s in (a, b):
            self.count("series.compare.slots",
                       min(len(s.coeffs), max(0, ceil(m * s.ramification - s.offset))))

    def _before_evaluate(self, args, kwargs):
        s = args[0]
        shape = self._eval_shape.get(id(s))
        if shape is None:
            # holding s keeps its id from being reused by another series
            shape = (s, len(s.coeffs), sum(1 for c in s.coeffs if c != 0))
            self._eval_shape[id(s)] = shape
        self.count("series.evaluate.slots", shape[1])
        self.count("series.evaluate.nonzero", shape[2])

    def _after_run_suite(self, args, result):
        self.count_verdicts(result[0])

    # -- installation -----------------------------------------------------------

    def install(self):
        """Wrap every target and rebind each name that refers to one.

        Sets `problems` to what the self-check finds; an empty list means
        every binding in the package now goes through a wrapper.
        """
        import qmodver.cli  # noqa: F401  (loads all six modules)
        from qmodver.series import PuiseuxSeries

        package = {name: mod for name, mod in sys.modules.items()
                   if name == "qmodver" or name.startswith("qmodver.")}
        replace: dict[int, object] = {}

        for attr, name in SERIES_METHODS:
            raw = PuiseuxSeries.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            before = after = None
            if name == "series.mul":
                after = self._after_mul
            elif name.startswith("series.compare.first"):
                before = self._before_compare
            elif name == "series.evaluate":
                before = self._before_evaluate
            elif not name.startswith("series.compare"):
                after = self._coeff_bits
            w = self._wrap(name, fn, before, after)
            setattr(PuiseuxSeries, attr, staticmethod(w) if isinstance(raw, staticmethod) else w)

        for modname, attr, name in FUNCTIONS:
            fn = getattr(package[f"qmodver.{modname}"], attr)
            before = after = None
            if name in REPEAT_GROUPS:
                before = self._repeat(REPEAT_GROUPS[name], name)
            if name == "verify.run_suite":
                after = self._after_run_suite
            replace[id(fn)] = self._wrap(name, fn, before, after)

        for mod in package.values():
            for key, value in list(vars(mod).items()):
                if id(value) in replace and replace[id(value)] is not value:
                    setattr(mod, key, replace[id(value)])
        self.problems = self.self_check(package)

    def self_check(self, package) -> list[str]:
        problems = []
        for modname, mod in package.items():
            for key, value in vars(mod).items():
                if id(value) in self._originals:
                    problems.append(f"{modname}.{key} still refers to the unwrapped function")
                if isinstance(value, type) and value.__module__.startswith("qmodver"):
                    for attr, raw in vars(value).items():
                        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                        if id(fn) in self._originals:
                            problems.append(f"{modname}.{key}.{attr} is unwrapped")
        for modname, attr in FROM_IMPORTS:
            bound = getattr(package[f"qmodver.{modname}"], attr)
            if getattr(bound, "__wrapped__", None) is None:
                problems.append(f"qmodver.{modname}.{attr} (from-import) is not wrapped")
        wrapped = len(self._originals)
        if wrapped != len(SERIES_METHODS) + len(FUNCTIONS):
            problems.append(f"wrapped {wrapped} of {len(SERIES_METHODS) + len(FUNCTIONS)} targets")
        return problems

    # -- output -------------------------------------------------------------------

    def write(self, path: str):
        """Write the spans and aggregates once, at the end of the process."""
        names = sorted({s[3] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {"self_check": self.problems,
               "aggregates": {"stats": self.stats, "counters": self.counters}}
        doc["span_fields"] = ["id", "parent", "request", "name", "start", "end"]
        doc["span_names"] = names
        doc["spans"] = [[s[0], s[1], s[2], index[s[3]], round(s[4], 7), round(s[5], 7)]
                        for s in self.spans]
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def merge(aggs: list[dict]) -> dict:
    """Sum the aggregates of several traced processes (max for max_coeff_bits)."""
    stats: dict[str, list] = {}
    counters: dict[str, float] = {}
    for agg in aggs:
        for name, (calls, self_s, total_s) in agg["stats"].items():
            st = stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += calls
            st[1] += self_s
            st[2] += total_s
        for key, value in agg["counters"].items():
            if key == "series.max_coeff_bits":
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
    return {"stats": stats, "counters": counters}


def per_layer_metrics(agg: dict, ops: int, overhead_frac: float,
                      output_bytes: float = 0.0) -> dict[str, float]:
    """Per-operation means of the merged aggregates of `ops` traced operations."""
    calls: dict[str, float] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    for name, (n, s, t) in agg["stats"].items():
        g = metric_group(name)
        calls[g] = calls.get(g, 0) + n
        self_s[g] = self_s.get(g, 0.0) + s
        total_s[g] = total_s.get(g, 0.0) + t
    counters = agg["counters"]
    out: dict[str, float] = {}
    for metric in PER_LAYER:
        group, _, stat = metric.rpartition(".")
        if stat == "calls":
            value = calls.get(group, 0) / ops
        elif stat == "self_s":
            value = self_s.get(group, 0.0) / ops
        elif stat == "wall_s":
            value = total_s.get(group, 0.0) / ops
        elif stat == "repeat_ratio":
            n = counters.get(f"{group}.calls_all", 0)
            value = counters.get(f"{group}.repeats", 0) / n if n else 0.0
        elif stat == "nonzero_ratio":
            n = counters.get("series.evaluate.slots", 0)
            value = counters.get("series.evaluate.nonzero", 0) / n if n else 0.0
        elif metric == "series.max_coeff_bits":
            value = counters.get(metric, 0)
        elif metric == "cli.output_bytes":
            value = output_bytes / ops
        elif metric == "trace.overhead_frac":
            value = overhead_frac
        else:
            value = counters.get(metric, 0) / ops
        out[metric] = value
    return out
