"""Spans and counters around calls into the layers of ``ordrank``.

``Tracer.install`` replaces each target function by a wrapper, in its own
module and in every module that bound it with ``from .x import f``; methods
are replaced on their class.  A wrapper records a span (name, start, end,
parent span, operation id) and keeps per-name call counts, self time and
total time.  Self time is a span's duration minus the time its child spans
cover.

Names marked *hot* (the digit-set algebra and ``family.member``, called
hundreds of thousands of times per run) are timed and counted but stored only as an aggregate:
their time is charged to the enclosing stored span's ``hidden_s`` column, so
the self time of a stored span is still its duration minus its stored
children minus ``hidden_s``.  ``ordinal.compare`` is only counted, because a
timing wrapper would cost more than the call itself.

Spans stay in memory (columnar arrays) and are written out by ``dump``.
"""
from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

# (module, attribute, metric name, mode); attribute "Class.method" wraps a
# method.  Modes: "span" stores spans, "hot" aggregates, "count" only counts.
TARGETS = [
    ("ordrank.patterns", "ds_and", "patterns.ds", "hot"),
    ("ordrank.patterns", "ds_or", "patterns.ds", "hot"),
    ("ordrank.patterns", "ds_not", "patterns.ds", "hot"),
    ("ordrank.patterns", "mk_digitset", "patterns.ds", "hot"),
    ("ordrank.patterns", "to_cells", "patterns.to_cells", "span"),
    ("ordrank.patterns", "cells_difference", "patterns.cells_difference", "span"),
    ("ordrank.space", "closure", "space.closure", "span"),
    ("ordrank.space", "subset", "space.subset", "span"),
    ("ordrank.space", "sem_eq", "space.sem_eq", "span"),
    ("ordrank.space", "cb_derivative", "space.cb_derivative", "span"),
    ("ordrank.derivative", "apply", "derivative.apply", "span"),
    ("ordrank.derivative", "iterate", "derivative.iterate", "span"),
    ("ordrank.derivative", "match_any_template", "derivative.template", "span"),
    ("ordrank.derivative", "StageTemplate.verified", "derivative.template_verify", "span"),
    ("ordrank.derivative", "PeriodicTemplate.verified", "derivative.template_verify", "span"),
    ("ordrank.oracle", "from_pattern", "oracle.from_pattern", "span"),
    ("ordrank.oracle", "oracle_closure", "oracle.brute", "span"),
    ("ordrank.oracle", "oracle_limit_points", "oracle.brute", "span"),
    ("ordrank.oracle", "oracle_cb", "oracle.brute", "span"),
    ("ordrank.oracle", "oracle_sep", "oracle.brute", "span"),
    ("ordrank.oracle", "oracle_osc", "oracle.brute", "span"),
    ("ordrank.oracle", "oracle_conv", "oracle.brute", "span"),
    ("ordrank.functions", "make_stepfn", "functions.make_stepfn", "span"),
    ("ordrank.family", "TransfiniteFamily.member", "family.member", "hot"),
    ("ordrank.altsum", "altsum_eval", "altsum.altsum_eval", "span"),
    ("ordrank.altsum", "build_step_decomposition", "altsum.build_step_decomposition", "span"),
    ("ordrank.altsum", "length_upper_certificate", "altsum.length_upper_certificate", "span"),
    ("ordrank.ranks", "alpha_fn", "ranks.alpha_fn", "span"),
    ("ordrank.ranks", "alpha_pair", "ranks.alpha_pair", "span"),
    ("ordrank.ranks", "beta", "ranks.beta", "span"),
    ("ordrank.ordinal", "compare", "ordinal.compare", "count"),
]

# lru caches whose hit and miss counts are read directly.
CACHES = [
    ("ordrank.patterns", "_cells_cached", "patterns.to_cells"),
    ("ordrank.patterns", "cell_is_empty", "patterns.cell_is_empty"),
    ("ordrank.derivative", "_apply_cached", "derivative.apply"),
    ("ordrank.space", "partition_cells", "space.partition_cells"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.extra = {"derivative.iterate.successors": 0,
                      "derivative.iterate.limit_jumps": 0,
                      "derivative.template.matched": 0}
        # stored span columns
        self.sp_name = array("i")
        self.sp_parent = array("i")
        self.sp_op = array("i")
        self.sp_t0 = array("d")
        self.sp_t1 = array("d")
        self.sp_hidden = array("d")
        self.sp_id = array("i")
        self.next_id = 0
        self.op = -1
        # frames: [child_s, hidden_s, span_id, stored]
        self.stack: list[list] = [[0.0, 0.0, -1, True]]
        self.caches = []
        self.t_origin = perf_counter()

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return self.names.index(name)

    # -- wrappers ------------------------------------------------------------

    def _span(self, fn, name: str, hot: bool, post=None):
        nid = self._name_id(name)
        stack, calls, self_s, total_s = self.stack, self.calls, self.self_s, self.total_s
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if hot:
                frame = [0.0, 0.0, parent[2], False]
            else:
                frame = [0.0, 0.0, tracer.next_id, True]
                tracer.next_id += 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if post is not None:
                    post(None, exc)
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                calls[nid] += 1
                self_s[nid] += dur - frame[0]
                total_s[nid] += dur
                parent[0] += dur
                if hot:
                    if parent[3]:
                        parent[1] += dur
                else:
                    tracer._store(frame[2], nid, parent[2], t0, t1, frame[1])
            if post is not None:
                post(result, None)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _store(self, span_id, nid, parent_id, t0, t1, hidden):
        # spans are stored in completion order; span ids are entry order
        self.sp_name.append(nid)
        self.sp_parent.append(parent_id)
        self.sp_op.append(self.op)
        self.sp_t0.append(t0 - self.t_origin)
        self.sp_t1.append(t1 - self.t_origin)
        self.sp_hidden.append(hidden)
        self.sp_id.append(span_id)

    def _counter(self, fn, name: str):
        nid = self._name_id(name)
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[nid] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _post_iterate(self, trace, exc):
        if exc is not None:
            trace = exc.args[0] if exc.args else None
            if not hasattr(trace, "budget_used"):
                return
        self.extra["derivative.iterate.successors"] += trace.budget_used
        self.extra["derivative.iterate.limit_jumps"] += trace.limit_jumps

    def _post_match(self, tmpl, exc):
        if exc is None and tmpl is not None:
            self.extra["derivative.template.matched"] += 1

    def install(self, extra_modules=()) -> None:
        """Wrap every target, in ordrank and in ``extra_modules``."""
        posts = {"derivative.iterate": self._post_iterate,
                 "derivative.template": self._post_match}
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "ordrank" or k.startswith("ordrank.")]
        modules += list(extra_modules)
        for modname, attr, name, mode in TARGETS:
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._span(orig, name, mode == "hot"))
                continue
            orig = getattr(mod, attr)
            if mode == "count":
                wrapped = self._counter(orig, name)
            else:
                wrapped = self._span(orig, name, mode == "hot", posts.get(name))
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
        self.caches = [(name, getattr(sys.modules[modname], attr))
                       for modname, attr, name in CACHES]

    # -- operations ----------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op

    def phase(self, name: str):
        """A caller ``p(fn, *args)`` that runs fn(*args) under a stored span
        named ``name``; the benchmark marks its own phases with it."""
        return self._span(_call, name, False)

    # -- results -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Cumulative counters, for differencing between two points."""
        snap = {"calls": dict(zip(self.names, self.calls)),
                "self_s": dict(zip(self.names, self.self_s)),
                "total_s": dict(zip(self.names, self.total_s)),
                "extra": dict(self.extra)}
        for name, cache in self.caches:
            info = cache.cache_info()
            snap["extra"][name + ".hits"] = info.hits
            snap["extra"][name + ".misses"] = info.misses
        return snap

    def dump(self, path, meta: dict) -> int:
        """Write the stored spans as JSON columns; returns the span count."""
        doc = dict(meta)
        doc["names"] = self.names
        doc["columns"] = ["id", "name", "parent", "op", "start_s", "end_s", "hidden_s"]
        doc["spans"] = {
            "id": self.sp_id.tolist(), "name": self.sp_name.tolist(),
            "parent": self.sp_parent.tolist(), "op": self.sp_op.tolist(),
            "start_s": [round(x, 7) for x in self.sp_t0],
            "end_s": [round(x, 7) for x in self.sp_t1],
            "hidden_s": [round(x, 7) for x in self.sp_hidden]}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
        return len(self.sp_name)


def _call(fn, *args):
    return fn(*args)


def _ratio(hits: int, misses: int):
    total = hits + misses
    return hits / total if total else 0.0


def layer_metrics(a: dict, b: dict) -> dict:
    """Per-layer metrics over the interval between snapshots a and b."""
    def d(kind, name):
        return b[kind].get(name, 0) - a[kind].get(name, 0)

    def x(name):
        return b["extra"].get(name, 0) - a["extra"].get(name, 0)

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    put("patterns.ds.calls", d("calls", "patterns.ds"), "count")
    put("patterns.ds.self_s", d("self_s", "patterns.ds"), "s")
    put("patterns.to_cells.calls", d("calls", "patterns.to_cells"), "count")
    put("patterns.to_cells.misses", x("patterns.to_cells.misses"), "count")
    put("patterns.to_cells.hit_ratio",
        _ratio(x("patterns.to_cells.hits"), x("patterns.to_cells.misses")), "ratio")
    put("patterns.to_cells.self_s", d("self_s", "patterns.to_cells"), "s")
    put("patterns.cell_is_empty.hit_ratio",
        _ratio(x("patterns.cell_is_empty.hits"), x("patterns.cell_is_empty.misses")),
        "ratio")
    put("patterns.cells_difference.self_s", d("self_s", "patterns.cells_difference"), "s")
    put("space.closure.self_s", d("self_s", "space.closure"), "s")
    put("space.subset.self_s", d("self_s", "space.subset"), "s")
    put("space.sem_eq.calls", d("calls", "space.sem_eq"), "count")
    put("derivative.apply.calls", d("calls", "derivative.apply"), "count")
    put("derivative.apply.hit_ratio",
        _ratio(x("derivative.apply.hits"), x("derivative.apply.misses")), "ratio")
    put("derivative.iterate.successors", x("derivative.iterate.successors"), "count")
    jumps = x("derivative.iterate.limit_jumps")
    matched = x("derivative.template.matched")
    put("derivative.iterate.limit_jumps", jumps, "count")
    put("derivative.template.matched", matched, "count")
    # every matched template either yields the jump or is dropped by iterate
    put("derivative.template.rejected", matched - jumps, "count")
    put("derivative.template_verify.total_s",
        d("total_s", "derivative.template_verify"), "s")
    put("oracle.from_pattern.self_s", d("self_s", "oracle.from_pattern"), "s")
    put("oracle.brute.self_s", d("self_s", "oracle.brute"), "s")
    put("altsum.altsum_eval.calls", d("calls", "altsum.altsum_eval"), "count")
    put("altsum.altsum_eval.self_s", d("self_s", "altsum.altsum_eval"), "s")
    put("family.member.calls", d("calls", "family.member"), "count")
    put("family.member.self_s", d("self_s", "family.member"), "s")
    put("ordinal.compare.calls", d("calls", "ordinal.compare"), "count")
    put("ranks.alpha_pair.total_s", d("total_s", "ranks.alpha_pair"), "s")
    put("ranks.beta.total_s", d("total_s", "ranks.beta"), "s")
    return out


# Counts that must repeat exactly between two traced runs of one seed.
EXACT = ["derivative.iterate.successors", "derivative.iterate.limit_jumps",
         "patterns.to_cells.misses", "derivative.apply.calls",
         "patterns.to_cells.calls", "patterns.ds.calls", "space.sem_eq.calls",
         "derivative.template.matched", "altsum.altsum_eval.calls",
         "family.member.calls", "ordinal.compare.calls"]
