"""Span tracing around the calls into quadrec's layers, from outside src/.

install() wraps each traced function and rebinds every name that refers
to it in every loaded quadrec module, so a call is recorded however its
caller looks the function up (quadrec.search.fermat_quotient_residue as
well as quadrec.wieferich.fermat_quotient_residue).  Spans stay in memory
until dump() writes them out; layer_metrics() derives the per-layer
figures from the written spans.

Only the traced workload process imports this module.
"""
from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

# module -> functions whose calls become spans named "<module>.<function>"
TARGETS = {
    "ring": ("factorize", "residue_pow", "reduce", "prime_ideals_above",
             "is_prime", "ideal_factors", "quad_valuation"),
    "search": ("search_range",),
    "wieferich": ("fermat_quotient_residue", "wall_period_test"),
    "periods": ("pisano_prime_power", "multiplicative_order",
                "period_formula", "period_bruteforce", "pisano"),
    "certificates": ("certificate_for_n", "cyclotomic_value"),
    "dynamics": ("orbit_period",),
    "heights": ("element_height",),
    "cli": ("main",),
}
# generators: one span per next(), so the time between items is not counted
GENERATORS = {"search": ("iter_primes",)}
# predicate factories: the test/verify closures they return are traced
PREDICATE_FACTORIES = ("wieferich_predicate", "wall_predicate")
# layers whose raised FactorizationErrors are reported as a fail ratio
FAIL_RATIO_LAYERS = ("ring.factorize", "certificates.certificate_for_n")

LAYER_METRICS = tuple(
    [f"{m}.{f}.{k}" for m, fs in TARGETS.items() for f in fs if m != "cli"
     for k in ("calls", "busy_s", "self_s")]
    + [f"{n}.fail_ratio" for n in FAIL_RATIO_LAYERS]
    + [f"search.predicate.{f}.{k}" for f in ("test", "verify")
       for k in ("calls", "busy_s", "self_s")]
    + ["search.iter_primes.busy_s", "search.checkpoint.bytes",
       "search.checkpoint.resumes", "periods.pisano.bruteforce_share",
       "cli.main.self_s", "trace.spans", "trace.overhead_s"]
)


class Recorder:
    """Spans as parallel lists: name, start, end, parent index, op id and
    the name of the exception that ended the span (None if it returned)."""

    def __init__(self):
        self.name, self.start, self.end = [], [], []
        self.parent, self.op, self.err = [], [], []
        self.stack = []
        self.current_op = -1
        self.counters = defaultdict(int)

    def enter(self, name: str) -> int:
        i = len(self.name)
        self.name.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.err.append(None)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def exit(self, i: int, err) -> None:
        self.end[i] = time.perf_counter()
        self.err[i] = err
        self.stack.pop()

    def dump(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(header, counters=self.counters)) + "\n")
            for row in zip(self.name, self.start, self.end, self.parent,
                           self.op, self.err):
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")


def _span(rec: Recorder, name: str, fn):
    def traced(*args, **kwargs):
        i = rec.enter(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            rec.exit(i, type(exc).__name__)
            raise
        rec.exit(i, None)
        return out
    traced.__wrapped__ = fn
    return traced


def _generator_span(rec: Recorder, name: str, fn):
    def traced(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            i = rec.enter(name)
            try:
                item = next(it)
            except StopIteration:
                rec.exit(i, None)
                return
            except BaseException as exc:
                rec.exit(i, type(exc).__name__)
                raise
            rec.exit(i, None)
            yield item
    traced.__wrapped__ = fn
    return traced


def _search_range_span(rec: Recorder, inner):
    """The search_range span plus the checkpoint counters taken at its
    boundary: bytes appended to the checkpoint file, and resumed calls."""

    def traced(pred, lo, hi, checkpoint_path=None, **kwargs):
        if kwargs.get("resume"):
            rec.counters["search.checkpoint.resumes"] += 1
        size = _size(checkpoint_path) if kwargs.get("resume") else 0
        try:
            return inner(pred, lo, hi, checkpoint_path, **kwargs)
        finally:
            rec.counters["search.checkpoint.bytes"] += \
                _size(checkpoint_path) - size
    traced.__wrapped__ = inner.__wrapped__
    return traced


def _size(path) -> int:
    if path is None:
        return 0
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _predicate_factory(rec: Recorder, fn):
    import dataclasses

    def traced(*args, **kwargs):
        pred = fn(*args, **kwargs)
        return dataclasses.replace(
            pred, test=_span(rec, "search.predicate.test", pred.test),
            verify=_span(rec, "search.predicate.verify", pred.verify))
    traced.__wrapped__ = fn
    return traced


def install(rec: Recorder) -> None:
    """Wrap every target and rebind it wherever a quadrec module names it."""
    import importlib

    wrappers = {}
    for table, make in ((TARGETS, _span), (GENERATORS, _generator_span)):
        for mod, names in table.items():
            module = importlib.import_module(f"quadrec.{mod}")
            for fname in names:
                fn = getattr(module, fname)
                wrappers[fn] = make(rec, f"{mod}.{fname}", fn)
    search = importlib.import_module("quadrec.search")
    wrappers[search.search_range] = _search_range_span(
        rec, wrappers[search.search_range])
    for fname in PREDICATE_FACTORIES:
        fn = getattr(search, fname)
        wrappers[fn] = _predicate_factory(rec, fn)
    by_id = {id(fn): w for fn, w in wrappers.items()}
    for modname, module in list(sys.modules.items()):
        if modname != "quadrec" and not modname.startswith("quadrec."):
            continue
        for attr, value in list(vars(module).items()):
            w = by_id.get(id(value))
            if w is not None and value is w.__wrapped__:
                setattr(module, attr, w)


# ---------------------------------------------------------------------------
# analysis of a written span file


def read_spans(path: str):
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        rows = [json.loads(line) for line in fh]
    return header, rows


def _has_ancestor(rows: list, i: int, name: str) -> bool:
    p = rows[i][3]
    while p >= 0:
        if rows[p][0] == name:
            return True
        p = rows[p][3]
    return False


def layer_metrics(header: dict, rows: list) -> dict:
    """Per-layer calls, busy time, self time and ratios from one span file.

    busy_s is the time inside the layer's outermost spans; self_s is each
    span's duration minus the durations of its direct children.
    """
    child_time = [0.0] * len(rows)
    for name, start, end, parent, op, err in rows:
        if parent >= 0:
            child_time[parent] += end - start
    calls = defaultdict(int)
    busy = defaultdict(float)
    self_t = defaultdict(float)
    errors = defaultdict(int)
    under_pisano = 0
    for i, (name, start, end, parent, op, err) in enumerate(rows):
        calls[name] += 1
        self_t[name] += end - start - child_time[i]
        if not _has_ancestor(rows, i, name):
            busy[name] += end - start
        errors[name] += err == "FactorizationError"
        if name == "periods.period_bruteforce":
            under_pisano += _has_ancestor(rows, i, "periods.pisano")

    out = {}
    for metric in LAYER_METRICS:
        layer, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls[layer]
        elif kind == "busy_s":
            out[metric] = busy[layer]
        elif kind == "self_s":
            out[metric] = self_t[layer]
        elif kind == "fail_ratio":
            out[metric] = errors[layer] / calls[layer] if calls[layer] else 0.0
    counters = header.get("counters", {})
    out["search.checkpoint.bytes"] = counters.get("search.checkpoint.bytes", 0)
    out["search.checkpoint.resumes"] = counters.get(
        "search.checkpoint.resumes", 0)
    pis = calls["periods.pisano"]
    out["periods.pisano.bruteforce_share"] = under_pisano / pis if pis else 0.0
    out["trace.spans"] = len(rows)
    return {k: out[k] for k in LAYER_METRICS if k in out}
