"""Per-layer spans recorded from outside the program.

A public function is traced by rebinding its name, in every loaded
``hyperreg`` module namespace that holds it, to a wrapper that records a
span.  Calls inside a module go through that module's globals, so they are
caught too.  Spans are kept in memory as ``[name, start, end, parent]`` and
only while ``active`` is set, which the round sets around timed operations.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

# (module, function): the layers the benchmark reports, named module.function
TARGETS = (
    ("oracle", "betti_table"), ("oracle", "lcm_lattice"), ("oracle", "taylor_strand_betti"),
    ("bounds", "best_bounds"), ("bounds", "min_fill_number"),
    ("bounds", "taylor_regularity_bound"), ("bounds", "matching_lower_bound"),
    ("hypergraph", "neighbors"), ("hypergraph", "build_hypergraph"),
    ("monomials", "parse_ideal"), ("monomials", "alexander_dual"),
    ("randgen", "random_ideal"), ("corpus", "verify_corpus"), ("cli", "main"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active = False
        self.absent: list[str] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            record = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
        return traced

    def install(self) -> None:
        """Rebind every target in every loaded hyperreg module."""
        homes = {}
        for module_name in sorted({m for m, _ in TARGETS}):
            try:
                homes[module_name] = importlib.import_module(f"hyperreg.{module_name}")
            except ImportError:
                pass
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "hyperreg" or n.startswith("hyperreg.")]
        for module_name, fn_name in TARGETS:
            name = f"{module_name}.{fn_name}"
            original = getattr(homes.get(module_name), fn_name, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    @contextmanager
    def span(self, name: str):
        """A root span around one timed operation."""
        record = [name, time.perf_counter(), 0.0, -1]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        self.active = True
        try:
            yield
        finally:
            self.active = False
            record[2] = time.perf_counter()
            self.stack.pop()

    def summary(self) -> dict[str, float]:
        """Self time in ms and call counts per traced name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for k, (name, start, end, _) in enumerate(self.spans):
            out[f"{name}.ms"] = out.get(f"{name}.ms", 0.0) + (end - start - child[k]) * 1000
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        return out
