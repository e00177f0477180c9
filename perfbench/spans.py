"""Spans for the traced run, recorded around ramsey3's public functions.

install() wraps the functions listed in TRACED from outside, in every
loaded ramsey3 module that holds them, so calls between modules are seen
too.  Each call records a span: name, start, end, parent span and the
operation it belongs to.  Nothing in ramsey3 is edited.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional


def _edges_out(result) -> dict:
    return {"edges_out": len(getattr(getattr(result, "h", None), "edges", ()))}


def _nodes(result) -> dict:
    return {"nodes": getattr(result, "nodes", 0)}


# module -> function -> (span name, attributes taken from the result)
TRACED: dict[str, dict[str, tuple[str, Optional[Callable]]]] = {
    "hypercore": {
        "enumerate_cliques": ("hypercore.enumerate_cliques", None),
        "glue": ("hypercore.glue", _edges_out),
        "codegree": ("hypercore.codegree", None),
        "path_distance": ("hypercore.path_distance", None),
        "to_json_dict": ("hypercore.json", None),
        "from_json_dict": ("hypercore.json", None),
    },
    "colorengine": {
        # arrows, minimalize and is_minimal_ramsey all decide through find_free_coloring
        "find_free_coloring": ("colorengine.search", _nodes),
        "admissible_patterns": ("colorengine.admissible_patterns", None),
        "export_cnf": ("colorengine.cnf", None),
        "solve_cnf": ("colorengine.cnf", None),
        "check_free": ("colorengine.check_free", None),
    },
    "gadgets": {
        "build_BEL": ("gadgets.build_BEL", None),
        "build_rainbow": ("gadgets.chain", None),
        "build_equalizer": ("gadgets.chain", None),
        "build_far_seed": ("gadgets.chain", None),
        "amplify_distance": ("gadgets.chain", None),
    },
    "codegree": {
        "forced_pattern_check": ("codegree.forced_pattern_check", None),
        "build_partition_host": ("codegree.build_partition_host", None),
    },
    "randomlab": {
        "sample_h3": ("randomlab.sample", None),
        "sample_family": ("randomlab.sample", None),
        "prune": ("randomlab.prune", None),
        "fact_count_bound": ("randomlab.fact_count_bound", None),
        "expectation_report": ("randomlab.expectation_report", None),
        "property_b_toy_check": ("randomlab.property_b", None),
    },
    "cli": {"main": ("cli.main", None)},
}


class Tracer:
    """Spans kept in memory as parallel lists; written out when the run ends."""

    def __init__(self) -> None:
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.attrs: dict[int, dict] = {}
        self.op_names: list[str] = []
        self._stack = [-1]
        self._op = -1
        self._undo: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        i = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, name: str) -> int:
        self._op = len(self.op_names)
        self.op_names.append(name)
        return self.begin("op")

    def record(self, name: str, start: float, end: float) -> None:
        """A closed span measured elsewhere, under the current parent."""
        self.begin(name)
        self.start[-1] = start
        self.finish(len(self.name) - 1)
        self.end[-1] = end

    # -------------------------------------------------------- wrapping

    def _wrap(self, fn: Callable, span: str, attr: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.begin(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(i)
            if attr is not None:
                self.attrs[i] = attr(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every TRACED function in each loaded ramsey3 module that holds it."""
        loaded = [m for n, m in list(sys.modules.items()) if n == "ramsey3" or n.startswith("ramsey3.")]
        for modname, funcs in TRACED.items():
            module = sys.modules.get(f"ramsey3.{modname}")
            if module is None:
                continue
            for fname, (span, attr) in funcs.items():
                original = getattr(module, fname, None)
                if original is None:
                    continue
                wrapper = self._wrap(original, span, attr)
                for m in loaded:
                    for key, val in list(vars(m).items()):
                        if val is original:
                            setattr(m, key, wrapper)
                            self._undo.append((m, key, original))

    def uninstall(self) -> None:
        while self._undo:
            m, key, original = self._undo.pop()
            setattr(m, key, original)

    # ------------------------------------------------- moving spans around

    def dump(self, path: Path) -> None:
        """Write the spans of a child process for its parent to adopt."""
        doc = {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "attrs": {str(i): a for i, a in self.attrs.items()},
        }
        Path(path).write_text(json.dumps(doc))

    def adopt(self, path: Path) -> None:
        """Append a child's spans under the currently open span and operation."""
        doc = json.loads(Path(path).read_text())
        base, under = len(self.name), self._stack[-1]
        self.name += doc["name"]
        self.start += doc["start"]
        self.end += doc["end"]
        self.parent += [under if p < 0 else base + p for p in doc["parent"]]
        self.op += [self._op] * len(doc["name"])
        for i, a in doc["attrs"].items():
            self.attrs[base + int(i)] = a

    def write(self, path: Path, t0: float) -> None:
        """All spans as gzipped JSON lines, times in seconds from t0."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            for i, name in enumerate(self.name):
                rec = {
                    "id": i,
                    "name": name,
                    "start": round(self.start[i] - t0, 7),
                    "end": round(self.end[i] - t0, 7),
                    "parent": self.parent[i],
                    "op": self.op[i],
                }
                if name == "op":
                    rec["op_name"] = self.op_names[self.op[i]]
                if i in self.attrs:
                    rec["attrs"] = self.attrs[i]
                out.write(json.dumps(rec) + "\n")


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer figures from the spans: calls, self time and the named extras."""
    dur = [e - s for s, e in zip(tr.start, tr.end)]
    child = [0.0] * len(dur)
    for i, p in enumerate(tr.parent):
        if p >= 0:
            child[p] += dur[i]
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for i, name in enumerate(tr.name):
        calls[name] += 1
        self_s[name] += dur[i] - child[i]

    def attr_sum(name: str, key: str) -> float:
        return sum(a.get(key, 0) for i, a in tr.attrs.items() if tr.name[i] == name)

    def in_op(name: str, op_name: str) -> float:
        return sum(dur[i] for i, n in enumerate(tr.name) if n == name and tr.op[i] >= 0 and tr.op_names[tr.op[i]] == op_name)

    startups = [dur[i] for i, n in enumerate(tr.name) if n == "cli.startup"]
    nodes = attr_sum("colorengine.search", "nodes")
    out = {}
    for layer in ("enumerate_cliques", "glue", "codegree", "path_distance"):
        out[f"hypercore.{layer}.calls"] = calls[f"hypercore.{layer}"]
        out[f"hypercore.{layer}.self_s"] = self_s[f"hypercore.{layer}"]
    out["hypercore.glue.edges_out"] = attr_sum("hypercore.glue", "edges_out")
    out["hypercore.json.self_s"] = self_s["hypercore.json"]
    out["colorengine.search.calls"] = calls["colorengine.search"]
    out["colorengine.search.self_s"] = self_s["colorengine.search"]
    out["colorengine.search.nodes"] = nodes
    out["colorengine.search.nodes_per_s"] = nodes / self_s["colorengine.search"] if nodes else 0.0
    for name in ("admissible_patterns", "cnf", "check_free"):
        out[f"colorengine.{name}.self_s"] = self_s[f"colorengine.{name}"]
    for t in (4, 5, 6):
        out[f"gadgets.build_BEL.t{t}_s"] = in_op("gadgets.build_BEL", f"bel_t{t}")
    out["gadgets.build_BEL.self_s"] = self_s["gadgets.build_BEL"]
    out["gadgets.chain.self_s"] = self_s["gadgets.chain"]
    out["codegree.forced_pattern_check.self_s"] = self_s["codegree.forced_pattern_check"]
    out["codegree.forced_pattern_check.t6_s"] = in_op("codegree.forced_pattern_check", "forced_t6")
    out["codegree.build_partition_host.self_s"] = self_s["codegree.build_partition_host"]
    for name in ("sample", "prune", "expectation_report", "property_b"):
        out[f"randomlab.{name}.self_s"] = self_s[f"randomlab.{name}"]
    out["randomlab.fact_count_bound.calls"] = calls["randomlab.fact_count_bound"]
    out["randomlab.fact_count_bound.self_s"] = self_s["randomlab.fact_count_bound"]
    out["cli.startup_s"] = statistics.median(startups) if startups else 0.0
    out["cli.calls"] = calls["cli.main"]
    out["cli.self_s"] = self_s["cli.main"]
    return out
