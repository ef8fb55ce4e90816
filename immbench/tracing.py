"""Layer spans for the traced run, recorded from outside the package.

`install` wraps the public functions of every `immorder` module and a few
hot methods, rebinding each wrapped function in every `immorder` module
that imported it by name (postnikov, cohomology and james use `from .x
import f`), and patching the methods on their classes.  Each call records
a span: name, start, end and the span that was open when it began.  Spans
stay in flat arrays in memory and are handed to the parent at the end of
the pass; `pass_layer_values` turns them into the per-layer metrics.

A few spans carry facts (input keys, sizes, bit lengths) taken after the
call returns.  Taking them is timed as a child span of layer `trace`, so
that cost is not charged to the caller's self time.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from statistics import median

LAYERS = ("intalg", "groupring", "cohomology", "james", "order", "postnikov", "fibering", "cli")

# (module, class, method) patched on the class.
METHODS = (
    ("intalg", "IntMatrix", "__matmul__"),
    ("intalg", "IntComplex", "homology_data"),
    ("intalg", "Subquotient", "class_of"),
    ("intalg", "Subquotient", "generator"),
    ("groupring", "GroupRingElement", "__mul__"),
    ("groupring", "GroupRingComplex", "__post_init__"),
    ("groupring", "CoefficientModule", "rho"),
    ("order", "ImmersionType", "__post_init__"),
)

PROBE = "trace.probe"


class Recorder:
    """Flat span storage: name id, parent index, start and end times."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.nid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.facts: list[tuple] = []  # (span index, value, ...)
        self.probe_id = self.name_id(PROBE)

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def __len__(self) -> int:
        return len(self.nid)

    def truncate(self, length: int) -> None:
        """Forget every span from index `length` on, as after a query cut
        off at its deadline (its spans may be half written)."""
        for arr in (self.nid, self.parent, self.start, self.end):
            del arr[length:]
        self.facts[:] = [f for f in self.facts if f[0] < length]
        del self.stack[1:]

    def dump(self) -> dict:
        return {
            "names": self.names,
            "nid": self.nid,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "facts": self.facts,
        }


def _wrap(rec: Recorder, name: str, fn, probe=None):
    nid = rec.name_id(name)
    nids, parents, starts, ends, stack = rec.nid, rec.parent, rec.start, rec.end, rec.stack
    facts, probe_id = rec.facts, rec.probe_id
    clock = time.perf_counter

    def traced(*args, **kwargs):
        i = len(nids)
        nids.append(nid)
        parents.append(stack[-1])
        ends.append(0.0)
        stack.append(i)
        starts.append(clock())
        try:
            result = fn(*args, **kwargs)
        finally:
            ends[i] = clock()
            stack.pop()
        if probe is not None:
            nids.append(probe_id)
            parents.append(stack[-1])
            starts.append(clock())
            facts.append((i, *probe(args, kwargs, result)))
            ends.append(clock())
        return result

    traced.__name__ = getattr(fn, "__name__", name)
    traced.__doc__ = fn.__doc__
    traced.__wrapped__ = fn
    return traced


def _bits(matrices) -> int:
    return max((abs(x).bit_length() for m in matrices for x in m.entries), default=0)


def _snf_probe(args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    return (
        (a.rows, a.cols, hash(a.entries)),
        a.rows * a.cols,
        _bits((result.U, result.V, result.uinv, result.vinv)),
        max((d.bit_length() for d in result.d), default=0),
    )


def _args_probe(args, kwargs, result):
    return ((args, tuple(sorted(kwargs.items()))),)


def _mul_probe(args, kwargs, result):
    return (args[0].n,)


PROBES = {
    "intalg.smith_normal_form": _snf_probe,
    "cohomology.h_twisted": _args_probe,
    "james.realizable_classes": _args_probe,
    "groupring.GroupRingElement.__mul__": _mul_probe,
}


def install() -> Recorder:
    """Wrap the package's layers in the running interpreter."""
    rec = Recorder()
    modules = {layer: importlib.import_module(f"immorder.{layer}") for layer in LAYERS}
    replaced = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                name = f"{layer}.{attr}"
                replaced[id(obj)] = _wrap(rec, name, obj, PROBES.get(name))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("immorder") and mod is not None:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    setattr(mod, attr, replaced[id(obj)])
    for layer, cls_name, meth in METHODS:
        cls = getattr(modules[layer], cls_name)
        name = f"{layer}.{cls_name}.{meth}"
        setattr(cls, meth, _wrap(rec, name, vars(cls)[meth], PROBES.get(name)))
    return rec


# ---------------------------------------------------------------------------
# aggregation (parent side; needs nothing from the package)


def _self_times(dump: dict) -> tuple[dict, dict]:
    """Per-name call counts and self times.

    A span's self time is its duration minus the durations of its direct
    children; calls are strictly nested in one thread, so children never
    overlap."""
    names, nid, parent, start, end = dump["names"], dump["nid"], dump["parent"], dump["start"], dump["end"]
    n = len(nid)
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    counts: dict[str, int] = {}
    selfs: dict[str, float] = {}
    for i in range(n):
        name = names[nid[i]]
        counts[name] = counts.get(name, 0) + 1
        selfs[name] = selfs.get(name, 0.0) + (end[i] - start[i]) - child[i]
    return counts, selfs


def pass_layer_values(dump: dict) -> dict:
    """Per-layer metrics of one traced pass (spans of queries that missed
    their deadline were dropped when they failed)."""
    counts, selfs = _self_times(dump)

    def c(*names):
        return sum(counts.get(x, 0) for x in names)

    def s(*names):
        return sum(selfs.get(x, 0.0) for x in names)

    def layer_self(layer):
        return sum(v for k, v in selfs.items() if k.split(".")[0] == layer)

    facts: dict[str, list] = {}
    for fact in dump["facts"]:
        facts.setdefault(dump["names"][dump["nid"][fact[0]]], []).append(fact[1:])
    snf = facts.get("intalg.smith_normal_form", [])
    h_tw = facts.get("cohomology.h_twisted", [])
    real = facts.get("james.realizable_classes", [])
    muls = facts.get("groupring.GroupRingElement.__mul__", [])

    def distinct(rows):
        return len({r[0] for r in rows}) / len(rows) if rows else 0.0

    return {
        "intalg.snf_calls": c("intalg.smith_normal_form"),
        "intalg.snf_self_s": s("intalg.smith_normal_form"),
        "intalg.snf_distinct_ratio": distinct(snf),
        "intalg.snf_max_transform_bits": max((r[2] for r in snf), default=0),
        "intalg.snf_max_invariant_bits": max((r[3] for r in snf), default=0),
        "intalg.snf_max_cells": max((r[1] for r in snf), default=0),
        "intalg.solve_calls": c("intalg.solve_linear"),
        "intalg.solve_self_s": s("intalg.solve_linear"),
        "intalg.kernel_calls": c("intalg.kernel_basis"),
        "intalg.homology_calls": c("intalg.homology_data", "intalg.homology_data_mod2"),
        "intalg.matmul_calls": c("intalg.IntMatrix.__matmul__"),
        "intalg.self_s": layer_self("intalg"),
        "groupring.mul_calls": c("groupring.GroupRingElement.__mul__"),
        "groupring.mul_self_s": s("groupring.GroupRingElement.__mul__"),
        "groupring.mul_max_order": max((r[0] for r in muls), default=0),
        "groupring.rho_calls": c("groupring.CoefficientModule.rho"),
        "groupring.rho_self_s": s("groupring.CoefficientModule.rho"),
        "groupring.complex_calls": c("groupring.coefficients_complex"),
        "groupring.resolution_self_s": s(
            "groupring.standard_resolution", "groupring.GroupRingComplex.__post_init__", "groupring.gr_mat_mul"
        ),
        "groupring.self_s": layer_self("groupring"),
        "cohomology.h_twisted_calls": c("cohomology.h_twisted"),
        "cohomology.h_twisted_distinct_ratio": distinct(h_tw),
        "cohomology.self_s": layer_self("cohomology"),
        "james.realizable_calls": c("james.realizable_classes"),
        "james.realizable_distinct_ratio": distinct(real),
        "james.d2_calls": c("james.d2_40", "james.d2_31"),
        "james.self_s": layer_self("james"),
        "order.type_constructions": c("order.ImmersionType.__post_init__"),
        "order.leq_calls": c("order.leq"),
        "order.graph_self_s": s("order.order_graph"),
        "order.self_s": layer_self("order"),
        "postnikov.shift_calls": c("postnikov.shift"),
        "postnikov.shift_data_self_s": s("postnikov.shift_data"),
        "postnikov.self_s": layer_self("postnikov"),
        "fibering.self_s": layer_self("fibering"),
        "cli.self_s": layer_self("cli"),
        "cli.runs": c("cli.run"),
        "trace.spans": len(dump["nid"]) - counts.get(PROBE, 0),
    }


# Metrics that are times take the median over traced passes; the rest are
# counts, sizes and ratios, identical in every pass of a run.
def combine_passes(per_pass: list[dict]) -> dict:
    out = {}
    for key in per_pass[0]:
        if key.endswith("_s"):
            out[key] = median(p[key] for p in per_pass)
        else:
            out[key] = per_pass[0][key]
    return out
