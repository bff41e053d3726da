"""Spans around the public entry points of every dendrodyn layer.

The wrappers live here, in the benchmark, and are installed by patching:
a module-level function is replaced in every ``dendrodyn`` module that
bound it (``fixed_set`` is imported into ``odometer``, ``verify`` and the
package itself), and a method is replaced on its class.  Calls made while
no op runs (input generation, oracles) pass straight through.

Each wrapped call appends one span ``[name, start, end, parent, op,
facts]``; self time is a span's duration minus its children's.  A name
the program no longer defines is reported as absent, with zero calls.
"""

from __future__ import annotations

import functools
import os
import sys
from time import perf_counter

# metric prefix, module, attribute ("Class.method" for methods)
WRAPPED = (
    ("tree.build", "tree", "MetricTree.__init__"),
    ("tree.distance", "tree", "MetricTree.distance"),
    ("tree.arc", "tree", "MetricTree.arc"),
    ("tree.components_minus", "tree", "MetricTree.components_minus"),
    ("tree.connected_hull", "tree", "MetricTree.connected_hull"),
    ("tree.retract", "tree", "MetricTree.retract"),
    ("tree.subtree_build", "tree", "Subtree.build"),
    ("plmap.build", "plmap", "PLTreeMap.__init__"),
    ("plmap.evaluate", "plmap", "PLTreeMap.evaluate"),
    ("plmap.image", "plmap", "PLTreeMap.image"),
    ("plmap.image_of_subtree", "plmap", "PLTreeMap.image_of_subtree"),
    ("plmap.normalize", "plmap", "PLTreeMap.normalize"),
    ("plmap.is_injective", "plmap", "PLTreeMap.is_injective"),
    ("plmap.is_identity", "plmap", "PLTreeMap.is_identity"),
    ("plmap.fixed_point_set", "plmap", "PLTreeMap.fixed_point_set"),
    ("plmap.iterate", "plmap", "PLTreeMap.iterate"),
    ("plmap.compose", "plmap", "compose"),
    ("plmap.find_periodic_in_hull", "plmap", "find_periodic_in_hull"),
    ("plmap.iterated_extension", "plmap", "iterated_extension"),
    ("plmap.project_onto", "plmap", "project_onto"),
    ("dynamics.decide_pointwise_recurrent", "dynamics", "decide_pointwise_recurrent"),
    ("dynamics.fixed_set", "dynamics", "fixed_set"),
    ("dynamics.periodic_union", "dynamics", "periodic_union"),
    ("dynamics.periodic_structure", "dynamics", "periodic_structure"),
    ("dynamics.vertex_period", "dynamics", "vertex_period"),
    ("dynamics.check_full_invariance", "dynamics", "check_full_invariance"),
    ("dynamics.check_no_preperiodic", "dynamics", "check_no_preperiodic"),
    ("dynamics.check_no_radial_stretch", "dynamics", "check_no_radial_stretch"),
    ("dynamics.check_escape", "dynamics", "check_escape"),
    ("odometer.detect_cycles_of_sets", "odometer", "detect_cycles_of_sets"),
    ("odometer.verify_semiconjugacy", "odometer", "verify_semiconjugacy"),
    ("odometer.classify_adding_machine", "odometer", "classify_adding_machine"),
    ("verify.run_checks", "verify", "run_checks"),
    ("io.load_instance", "io", "load_instance"),
    ("cli.main", "cli", "main"),
)


def _iterate_facts(tracer, args, kwargs, result):
    f = args[0]
    n = args[1] if len(args) > 1 else kwargs["n"]
    tracer.alive[id(f)] = f  # ids stay unique while every map is alive
    return {"key": (id(f), n), "pieces": result.piece_count}


def _compose_facts(tracer, args, kwargs, result):
    return {"pieces": result.piece_count}


def _injective_facts(tracer, args, kwargs, result):
    tracer.alive[id(args[0])] = args[0]
    return {"key": id(args[0])}


def _load_facts(tracer, args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    return {"bytes": len(text.encode("utf-8"))}


def _cli_facts(tracer, args, kwargs, result):
    argv = list(args[0] if args else kwargs.get("argv") or [])
    out = None
    for flag in ("-o", "--output"):
        if flag in argv[:-1]:
            out = argv[argv.index(flag) + 1]
    size = os.path.getsize(out) if out and os.path.exists(out) else 0
    return {"bytes": size}


FACTS = {
    "plmap.iterate": _iterate_facts,
    "plmap.compose": _compose_facts,
    "plmap.is_injective": _injective_facts,
    "io.load_instance": _load_facts,
    "cli.main": _cli_facts,
}

# name: (unit, better), besides the calls and self time of each wrapped name
COUNTS = {
    "plmap.iterate.distinct_frac": ("1", "higher"),
    "plmap.is_injective.distinct_frac": ("1", "higher"),
    "plmap.peak_pieces": ("count", "lower"),
    "io.load_instance.bytes": ("bytes", "lower"),
    "cli.main.bytes_out": ("bytes", "lower"),
    "trace.overhead_frac": ("1", "lower"),
}


def per_layer_metrics() -> dict:
    """Every per-layer metric name with its unit and better direction."""
    table = {}
    for name, _module, _attr in WRAPPED:
        table[f"{name}.calls"] = ("count", "lower")
        table[f"{name}.self_s"] = ("s", "lower")
    table.update(COUNTS)
    return table


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.alive = {}
        self.op = None  # index of the running op; None while no op runs
        self.absent = []

    def install(self) -> None:
        """Wrap every name in WRAPPED; dendrodyn must be imported already."""
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "dendrodyn" or n.startswith("dendrodyn."))]
        for name, module, attr in WRAPPED:
            mod = sys.modules.get(f"dendrodyn.{module}")
            if mod is None:
                self.absent.append(name)
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                raw = vars(cls).get(meth) if cls is not None else None
                if raw is None:
                    self.absent.append(name)
                elif isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self._wrap(name, raw.__func__)))
                else:
                    setattr(cls, meth, self._wrap(name, raw))
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                self.absent.append(name)
                continue
            wrapped = self._wrap(name, orig)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)

    def _wrap(self, name, fn):
        facts = FACTS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            stack = tracer.stack
            span = [name, 0.0, 0.0, stack[-1] if stack else None, tracer.op, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if facts is not None:
                span[5] = facts(tracer, args, kwargs, result)
            return result

        return wrapper

    def summary(self, op_labels: list, overhead_frac: float) -> tuple:
        """(per-layer metrics, breakdown by op label) from the recorded spans."""
        total = _Tally()
        by_label = {}
        for name, start, end, parent, op, facts in self.spans:
            dur = end - start
            pname = self.spans[parent][0] if parent is not None else None
            row = by_label.setdefault(op_labels[op], _Tally())
            for tally in (total, row):
                tally.add(name, dur, pname, facts)

        metrics = {}
        for name, _module, _attr in WRAPPED:
            metrics[f"{name}.calls"] = total.calls.get(name, 0)
            metrics[f"{name}.self_s"] = total.self_s.get(name, 0.0)
        metrics["plmap.iterate.distinct_frac"] = total.distinct_frac("plmap.iterate")
        metrics["plmap.is_injective.distinct_frac"] = total.distinct_frac("plmap.is_injective")
        metrics["plmap.peak_pieces"] = total.peak_pieces
        metrics["io.load_instance.bytes"] = total.bytes.get("io.load_instance", 0)
        metrics["cli.main.bytes_out"] = total.bytes.get("cli.main", 0)
        metrics["trace.overhead_frac"] = overhead_frac
        return metrics, {label: row.as_json() for label, row in by_label.items()}


class _Tally:
    """Calls, self time and facts of the spans of one run or one op label."""

    def __init__(self):
        self.calls, self.self_s, self.keys, self.bytes = {}, {}, {}, {}
        self.peak_pieces = 0

    def add(self, name, dur, parent_name, facts):
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur
        if parent_name is not None:
            self.self_s[parent_name] = self.self_s.get(parent_name, 0.0) - dur
        if facts:
            if "key" in facts:
                self.keys.setdefault(name, set()).add(facts["key"])
            if "pieces" in facts:
                self.peak_pieces = max(self.peak_pieces, facts["pieces"])
            if "bytes" in facts:
                self.bytes[name] = self.bytes.get(name, 0) + facts["bytes"]

    def distinct_frac(self, name) -> float:
        calls = self.calls.get(name, 0)
        return len(self.keys.get(name, ())) / calls if calls else 0.0

    def as_json(self) -> dict:
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "distinct": {name: len(keys) for name, keys in self.keys.items()},
        }
