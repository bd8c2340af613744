"""Spans around the calls into each prodcsp module, recorded from outside the
package by wrapping the module-level names at each boundary.

A wrapped function is replaced under every name that refers to it in any
loaded `prodcsp` module (so `prodcsp.cli.certify_instance` and
`prodcsp.tractable.certify_instance` both record), and restored afterwards.
Spans are kept in memory as (name, layer, start, end, parent, call id); a
layer's self time is its spans' duration minus the time their child spans
cover.

Which end-to-end metric each layer metric should move, and on which
workload:
- cli.self_s (argument parsing, file reading, rendering)
  -> latency_p50_ms on classify-mix, through its classify-constraint share.
- formats.parse.* -> apps_per_s on solve-parity-large.
- membership.* -> tables_per_s and latency on classify-mix, and setup_s.
- trichotomy.classify_set.self_s -> classify-mix.
- tractable.certify_instance.* -> solve-exhaustive (certification is wasted
  there) and solve-parity-large (certified twice per solve today);
  tractable.solve_tractable.s -> apps_per_s on solve-parity-large.
- instances.brute_force.* -> assignments_per_s on solve-exhaustive.
- reductions.solve_via_flow.*, graphs.graph_brute_force.s: no calls today;
  they become nonzero when a solve route moves there.
`tables`, `ratmath`, `oracles`, `checks` and `gen` get no spans: they are
leaf helpers, off the user's path, or used only to build inputs.
"""

from __future__ import annotations

import importlib
import sys
import time

# (layer, module, function) for every wrapped boundary.
BOUNDARIES = (
    ("cli", "prodcsp.cli", "main"),
    ("formats", "prodcsp.formats", "parse_constraints"),
    ("formats", "prodcsp.formats", "parse_instance"),
    ("trichotomy", "prodcsp.trichotomy", "classify_set"),
    ("membership", "prodcsp.membership", "memberships"),
    ("membership", "prodcsp.membership", "is_degenerate"),
    ("membership", "prodcsp.membership", "is_ed"),
    ("membership", "prodcsp.membership", "is_af"),
    ("membership", "prodcsp.membership", "is_imopt"),
    ("tractable", "prodcsp.tractable", "certify_instance"),
    ("tractable", "prodcsp.tractable", "solve_tractable"),
    ("instances", "prodcsp.instances", "brute_force"),
    ("reductions", "prodcsp.reductions", "solve_via_flow"),
    ("graphs", "prodcsp.graphs", "graph_brute_force"),
)
LAYERS = ("cli", "formats", "membership", "trichotomy", "tractable", "instances",
          "reductions", "graphs")
DECIDERS = ("is_degenerate", "is_ed", "is_af", "is_imopt")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, layer, start, end, parent, call id)
        self.stack: list[int] = []
        self.calls = -1
        self.parse_bytes = 0
        self.assignments = 0
        self.imopt_kind: dict[int, str] = {}  # span index -> "full" | "partial"
        self.certify_none = 0
        self.verdicts: dict[tuple, list] = {}  # (decider, arity, weights) -> [table, cert, count]
        self._patched: list[tuple] = []

    def _note(self, fname: str, index: int, args, result):
        if fname in ("parse_constraints", "parse_instance"):
            self.parse_bytes += len(args[0])
        elif fname == "brute_force":
            self.assignments += 1 << args[0].num_vars
        elif fname == "certify_instance":
            self.certify_none += result is None
        elif fname in DECIDERS:
            table = args[0]
            if fname == "is_imopt":
                support = table.support()
                if not support.is_empty:
                    self.imopt_kind[index] = "full" if support.is_full else "partial"
            if result is not None:
                key = (fname, table.arity, table.weights)
                entry = self.verdicts.setdefault(key, [table, result, 0])
                entry[2] += 1

    def _wrap(self, layer: str, module: str, fname: str, fn):
        name = f"{module.rsplit('.', 1)[1]}.{fname}"
        spans, stack, note = self.spans, self.stack, self._note

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            if parent < 0:
                self.calls += 1
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, layer, start, end, parent, self.calls)
            note(fname, index, args, result)
            return result

        return wrapper

    def install(self) -> list[str]:
        """Wrap every boundary; returns the names not found."""
        absent = []
        for layer, module, fname in BOUNDARIES:
            fn = getattr(importlib.import_module(module), fname, None)
            if fn is None:
                absent.append(f"{module}.{fname}")
                continue
            wrapper = self._wrap(layer, module, fname, fn)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "prodcsp" or mod_name.startswith("prodcsp.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        return absent

    def uninstall(self):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def metrics(self, solves: int) -> tuple[dict[str, tuple], dict[str, float]]:
        """Per-layer metrics, as name -> (value, unit), over every recorded
        span, and each layer's self time; `solves` is the number of solve
        calls, the base of calls_per_solve."""
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        count: dict[str, int] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        imopt = {"full": [0, 0.0], "partial": [0, 0.0]}
        for i, (name, layer, start, end, parent, _) in enumerate(self.spans):
            duration = end - start
            total[name] = total.get(name, 0.0) + duration
            self_time[name] = self_time.get(name, 0.0) + duration - child[i]
            count[name] = count.get(name, 0) + 1
            layer_self[layer] += duration - child[i]
            if i in self.imopt_kind:
                kind = imopt[self.imopt_kind[i]]
                kind[0] += 1
                kind[1] += duration
        parse_s = total.get("formats.parse_constraints", 0.0) + total.get("formats.parse_instance", 0.0)
        certify_calls = count.get("tractable.certify_instance", 0)
        brute_s = total.get("instances.brute_force", 0.0)
        positive = sum(e[2] for e in self.verdicts.values())
        exact = sum(e[2] for e in self.verdicts.values() if e[1].to_table().weights == e[0].weights)
        out = {
            "cli.self_s": (self_time.get("cli.main", 0.0), "s"),
            "formats.parse.s": (parse_s, "s"),
            "formats.parse.bytes_per_s": (self.parse_bytes / parse_s if parse_s else 0.0, "B/s"),
            "membership.memberships.self_s": (self_time.get("membership.memberships", 0.0), "s"),
        }
        for decider in ("is_degenerate", "is_ed", "is_af"):
            out[f"membership.{decider}.s"] = (total.get(f"membership.{decider}", 0.0), "s")
        for kind, (calls, seconds) in imopt.items():
            out[f"membership.is_imopt.{kind}.calls"] = (calls, "count")
            out[f"membership.is_imopt.{kind}.s"] = (seconds, "s")
        out.update({
            # 1 when no decider returned a certificate.
            "membership.cert_exact_frac": (exact / positive if positive else 1.0, "frac"),
            "trichotomy.classify_set.self_s": (self_time.get("trichotomy.classify_set", 0.0), "s"),
            "tractable.certify_instance.s": (total.get("tractable.certify_instance", 0.0), "s"),
            "tractable.certify_instance.calls_per_solve":
                (certify_calls / solves if solves else 0.0, "ratio"),
            "tractable.certify_instance.none_frac":
                (self.certify_none / certify_calls if certify_calls else 0.0, "frac"),
            "tractable.solve_tractable.s": (total.get("tractable.solve_tractable", 0.0), "s"),
            "instances.brute_force.s": (brute_s, "s"),
            "instances.brute_force.assignments_per_s":
                (self.assignments / brute_s if brute_s else 0.0, "1/s"),
            "reductions.solve_via_flow.calls": (count.get("reductions.solve_via_flow", 0), "count"),
            "reductions.solve_via_flow.s": (total.get("reductions.solve_via_flow", 0.0), "s"),
            "graphs.graph_brute_force.s": (total.get("graphs.graph_brute_force", 0.0), "s"),
        })
        return out, layer_self
