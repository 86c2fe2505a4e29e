"""Layer spans and oracle counters, recorded from outside the entcover package.

The modules of entcover are the layers.  :class:`Tracer` replaces each
traced public function with a wrapper that records a span (name, start,
end, parent span, op id), both in its defining module and in every module
that bound it by ``from ... import``, so calls such as ``cli.exact_cover``
or ``certify.run_greedy`` are seen too.  Spans stay in memory until the
run ends.

:class:`OracleCounter` counts ``PolymatroidOracle.eval`` calls and the
misses that reach the subset function.  It wraps the hottest call in the
package, so it runs in its own pass rather than under the span timer.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter

LAYERS = ("cli", "instances", "core", "greedy", "exact", "flow", "certify")

# (defining module, function): every public function a per-layer metric names
TRACED = (
    ("instances", "parse_instance"),
    ("core", "validate_cover"),
    ("greedy", "run_greedy"),
    ("greedy", "coefficients"),
    ("exact", "exact_cover"),
    ("exact", "exact_mest"),
    ("flow", "min_alpha"),
    ("flow", "max_flow"),
    ("certify", "verify_beta_one"),
    ("certify", "transform_tree"),
)

# span names whose results are kept for counts derived after the run
_KEEP_RESULT = {"flow.max_flow", "certify.transform_tree"}


def _modules():
    return [importlib.import_module("entcover")] + [
        importlib.import_module(f"entcover.{name}") for name in LAYERS]


class Tracer:
    """Records one span per call of a traced function while installed."""

    def __init__(self) -> None:
        self.spans: list = []    # (name, start, end, parent index, op id)
        self.results: dict = {}  # span index -> (first argument, result)
        self.op = -1
        self._stack: list = []
        self._restore: list = []
        self._wrappers: list = []  # (original, wrapper), built once

    def install(self) -> None:
        if not self._wrappers:
            for mod_name, fn_name in TRACED:
                orig = getattr(importlib.import_module(f"entcover.{mod_name}"), fn_name)
                self._wrappers.append((orig, self._wrap(f"{mod_name}.{fn_name}", orig)))
        modules = _modules()
        for orig, wrapper in self._wrappers:
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, orig))

    def remove(self) -> None:
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        spans, stack, results = self.spans, self._stack, self.results
        keep = name in _KEEP_RESULT
        lazy_name = name + "_lazy" if name == "greedy.run_greedy" else None

        def traced(*args, **kwargs):
            label = name
            if lazy_name and (kwargs.get("lazy") or (len(args) > 2 and args[2])):
                label = lazy_name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (label, t0, t1, parent, self.op)
            if keep:
                results[idx] = (args[0] if args else None, result)
            return result

        return traced

    def self_times(self) -> dict:
        """Total self time per span name: duration minus child spans."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = {}
        for idx, (name, t0, t1, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (t1 - t0) - child[idx]
        return out

    def top_level_seconds(self) -> float:
        return sum(t1 - t0 for _, t0, t1, parent, _ in self.spans if parent < 0)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def leaf_checks(self) -> int:
        """validate_cover calls made directly by exact_cover."""
        return sum(1 for name, _, _, parent, _ in self.spans
                   if name == "core.validate_cover" and parent >= 0
                   and self.spans[parent][0] == "exact.exact_cover")

    def max_flow_feasible(self) -> int:
        """max_flow calls whose value saturates every source arc."""
        hits = 0
        for idx, (net, result) in self.results.items():
            if self.spans[idx][0] != "flow.max_flow":
                continue
            cap = sum(c for u, _, c in net.arcs if u == net.source)
            hits += result.value == cap
        return hits

    def moves(self) -> int:
        return sum(len(result[0]) for idx, (_, result) in self.results.items()
                   if self.spans[idx][0] == "certify.transform_tree")

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for idx, (name, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"span": idx, "op": op, "name": name,
                                     "start": t0, "end": t1,
                                     "parent": parent}) + "\n")


class OracleCounter:
    """Counts oracle evals and subset-function calls (cache misses)."""

    def __init__(self) -> None:
        self.evals = 0
        self.fn_calls = 0
        self._orig = None

    def install(self) -> None:
        from entcover.core import PolymatroidOracle
        orig_eval, orig_init = PolymatroidOracle.eval, PolymatroidOracle.__init__
        self._orig = (PolymatroidOracle, orig_eval, orig_init)

        def counting_eval(oracle, mask):
            self.evals += 1
            return orig_eval(oracle, mask)

        def counting_init(oracle, ground, fn):
            def counted(mask):
                self.fn_calls += 1
                return fn(mask)
            orig_init(oracle, ground, counted)

        PolymatroidOracle.eval = counting_eval
        PolymatroidOracle.__init__ = counting_init

    def remove(self) -> None:
        cls, orig_eval, orig_init = self._orig
        cls.eval = orig_eval
        cls.__init__ = orig_init
