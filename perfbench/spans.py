"""Spans around the calls into each layer, recorded from outside the program.

The tracer replaces each traced name where its caller looks it up (a module
global such as `popflex.fibs.substitute`, or a method on `BdpoPlan`) with a
wrapper that records a span: name, start, end, parent and one per-call
value (plans returned, substitution succeeded, clauses emitted, ...).  Spans
stay in memory until the run writes them out.  A traced name that the
program no longer has is reported as absent and left out.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import defaultdict

# (module, attribute or Class.method, span name, value recorded per call)
TARGETS = [
    ("popflex.task", "parse_sas", "task.parse", None),
    ("popflex.task", "parse_plan", "task.parse", None),
    ("popflex.fibs", "eog", "eog", None),
    ("popflex.eog", "eog", "eog", None),
    ("popflex.bdpo", "BdpoPlan.rebuild_closure", "bdpo.closure", None),
    ("popflex.bdpo", "BdpoPlan.validate", "bdpo.validate", None),
    ("popflex.bdpo", "BdpoPlan.threats", "bdpo.threats", None),
    ("popflex.bdpo", "BdpoPlan.flex", "bdpo.flex", None),
    ("popflex.fibs", "block_deorder", "bdpo.deorder", None),
    ("popflex.fibs", "solve_subtask", "subplanner", len),
    ("popflex.subplanner", "_h_add", "subplanner.h_add", None),
    ("popflex.fibs", "substitute", "substitution", lambda o: o.success),
    ("popflex.fibs", "resolve", "fibs.resolve", lambda r: r[1]),
    ("popflex.maxsat", "encode_mr", "maxsat.encode",
     lambda r: len(r[0].hard) + len(r[0].soft)),
    ("popflex.maxsat", "optimal_model", "maxsat.optimal", None),
    ("popflex.maxsat", "Wcnf.to_dimacs", "maxsat.dimacs", len),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.value = array("d")
        self.stack: list[int] = []
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.value.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def _wrapper(self, original, name, value):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(idx)
            if value is not None:
                self.value[idx] = float(value(result))
            return result
        return traced

    def install(self) -> None:
        for module_name, attr, name, value in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner else None
            if original is None:
                if f"{module_name}.{attr}" not in self.absent:
                    self.absent.append(f"{module_name}.{attr}")
                continue
            self._patches.append((owner, leaf, original))
            setattr(owner, leaf, self._wrapper(original, name, value))

    def uninstall(self) -> None:
        while self._patches:
            owner, leaf, original = self._patches.pop()
            setattr(owner, leaf, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds, summed values, zero values."""
        child = array("d", bytes(8 * len(self.names)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "value": 0.0,
                                   "zero": 0})
        for i, name in enumerate(self.names):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += self.end[i] - self.start[i] - child[i]
            row["value"] += self.value[i]
            row["zero"] += self.value[i] == 0.0
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# absent: {' '.join(self.absent) or '-'}\n")
            fh.write("span,name,start,end,parent,value\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.start[i]:.9f},{self.end[i]:.9f},"
                         f"{self.parent[i]},{self.value[i]:g}\n")


def layer_metrics(summary, rounds: int, setups: int) -> dict[str, float]:
    """Per-layer metrics per traced round (task.parse per set-up)."""
    def calls(name):
        return summary[name]["calls"] / rounds if name in summary else 0

    def secs(name):
        return summary[name]["self_s"] / rounds if name in summary else 0.0

    def value(name):
        return summary[name]["value"] / rounds if name in summary else 0

    def ratio(num, den):
        return num / den if den else 0.0

    m = {"task.parse.s": summary["task.parse"]["self_s"] / setups
         if "task.parse" in summary else 0.0}
    for layer in ("eog", "bdpo.closure", "bdpo.validate", "bdpo.threats",
                  "bdpo.flex", "subplanner", "subplanner.h_add",
                  "substitution", "fibs.resolve"):
        m[f"{layer}.calls"] = calls(layer)
    for layer in ("eog", "bdpo.closure", "bdpo.validate", "bdpo.threats",
                  "bdpo.flex", "bdpo.deorder", "subplanner",
                  "subplanner.h_add", "substitution", "maxsat.encode",
                  "maxsat.optimal", "maxsat.dimacs"):
        m[f"{layer}.s"] = secs(layer)
    m["subplanner.plans"] = value("subplanner")
    m["subplanner.empty"] = (summary["subplanner"]["zero"] / rounds
                             if "subplanner" in summary else 0)
    m["substitution.ok"] = value("substitution")
    m["substitution.ok_ratio"] = ratio(m["substitution.ok"],
                                       m["substitution.calls"])
    m["fibs.resolve.accepted"] = value("fibs.resolve")
    m["fibs.accept_ratio"] = ratio(m["fibs.resolve.accepted"],
                                   m["fibs.resolve.calls"])
    m["maxsat.encode.clauses"] = value("maxsat.encode")
    m["maxsat.dimacs.bytes"] = value("maxsat.dimacs")
    return m
