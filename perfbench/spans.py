"""Spans around the program's public functions, recorded from outside.

``Tracer.installed`` replaces each traced function by a recording wrapper
under every name the ``dendro`` modules bind it to, so calls from the
benchmark, from ``dendro.cli`` and between library modules all pass
through it, and puts the originals back when the block ends.  A span is ``(name,
start, end, parent, op)``; spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import sys
from collections import defaultdict
from time import perf_counter

# module -> public functions timed as that layer's calls
TRACED = {
    "terms": ("parse_term", "to_broad", "graft", "to_term", "canonical_code", "are_isomorphic"),
    "structure": ("is_dendroidal", "classify_all", "links", "degree"),
    "category": (
        "all_faces", "enumerate_subtrees", "maximal_subtrees", "classify_maximal",
        "degeneracies", "factorize",
    ),
    "core": (
        "generate_broad_poset", "validate", "enumerate_monotone", "find_isomorphism",
        "tensor", "product", "pushout", "internal_hom", "abelianize", "forget_symmetry",
    ),
}  # fmt: skip
CLI_COMMANDS = (
    "check", "info", "subtrees", "faces", "degeneracies", "hom",
    "factor", "graft", "tensor", "product", "pushout", "dot",
)  # fmt: skip
# functions whose time per (axis, size, flavour) makes the scaling curves
CURVE_FUNCTIONS = (
    "terms.to_broad", "terms.to_term", "structure.is_dendroidal", "structure.classify_all",
    "category.all_faces", "terms.canonical_code", "terms.are_isomorphic",
)  # fmt: skip
AXES = ("chain", "binary", "corolla")
RELATION_OUTPUTS = {"core.tensor", "core.product", "core.pushout", "core.internal_hom", "core.abelianize", "core.forget_symmetry"}


def _cache_counts(cached) -> tuple[int, int]:
    infos = [fn.cache_info() for fn in cached]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


def _first(result):
    return result[0] if isinstance(result, tuple) else result


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.ops: list[tuple[int, float, float, tuple | None]] = []  # (op, start, end, scale key)
        self.maps_found = 0
        self.map_candidates = 0
        self.relation_pairs_out = 0
        self.subtrees_out = 0
        self.cache_hits = self.cache_misses = 0

    def span(self, name: str, fn, *args, **kwargs):
        if self.op < 0:  # the harness building inputs or checking answers
            return fn(*args, **kwargs)
        spans, stack = self.spans, self.stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            spans[index] = (name, start, end, parent, self.op)

    def _wrap(self, name: str, fn):
        span = self.span
        if name == "core.enumerate_monotone":
            def traced(domain, codomain, *args, **kwargs):
                result = span(name, fn, domain, codomain, *args, **kwargs)
                if self.op >= 0:
                    self.maps_found += len(result)
                    self.map_candidates += len(codomain.carrier) ** len(domain.carrier)
                return result
        elif name in RELATION_OUTPUTS:
            def traced(*args, **kwargs):
                result = span(name, fn, *args, **kwargs)
                if self.op >= 0:
                    self.relation_pairs_out += len(_first(result).relation)
                return result
        elif name == "category.enumerate_subtrees":
            def traced(*args, **kwargs):
                result = span(name, fn, *args, **kwargs)
                if self.op >= 0:
                    self.subtrees_out += len(result)
                return result
        elif name == "cli.run":
            def traced(argv, *args, **kwargs):
                command = next((a for a in argv if not a.startswith("--")), "none")
                return span(f"cli.run.{command}", fn, argv, *args, **kwargs)
        else:
            def traced(*args, **kwargs):
                return span(name, fn, *args, **kwargs)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function, and ``cli.run`` under one span name
        per command, for the duration of the block."""
        modules = [m for n, m in sys.modules.items() if n == "dendro" or n.startswith("dendro.")]
        structure = sys.modules["dendro.structure"]
        cached = [
            fn
            for n, fn in vars(structure).items()
            if not n.startswith("_") and hasattr(fn, "cache_info") and fn.__module__ == "dendro.structure"
        ]
        hits, misses = _cache_counts(cached)
        patches = []
        for layer, names in (*TRACED.items(), ("cli", ("run",))):
            home = sys.modules[f"dendro.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            patches.append((module, attr, original))
        try:
            yield self
        finally:
            for module, attr, original in reversed(patches):
                setattr(module, attr, original)
            after = _cache_counts(cached)
            self.cache_hits += after[0] - hits
            self.cache_misses += after[1] - misses

    # -----------------------------------------------------------------------

    def self_times(self) -> tuple[dict, dict, float]:
        """Calls and self time per span name, and the time top-level spans cover."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        covered = 0.0
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[index]
            if parent < 0:
                covered += end - start
        return calls, self_s, covered

    def curves(self) -> dict:
        """Per (function, axis, edges, flavour), the time of the calls each
        scale op makes directly, summed within the op: one sample per op."""
        keys = {op: key for op, _, _, key in self.ops if key is not None}
        per_op: dict[tuple, float] = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent < 0 and op in keys and name in CURVE_FUNCTIONS:
                per_op[(name, *keys[op], op)] += end - start
        samples: dict[tuple, list] = defaultdict(list)
        for (name, axis, edges, flavour, _), seconds in per_op.items():
            samples[(name, axis, edges, flavour)].append(seconds)
        return samples

    def metrics(self, untraced_busy: float, traced_busy: float, interpreter_ms: float, import_ms: float) -> dict:
        calls, self_s, covered = self.self_times()
        out: dict[str, tuple[float, str]] = {}
        for layer, names in TRACED.items():
            for name in names:
                key = f"{layer}.{name}"
                out[f"{key}.calls"] = (calls.get(key, 0), "count")
                out[f"{key}.self_s"] = (self_s.get(key, 0.0), "s")
        for command in CLI_COMMANDS:
            out[f"cli.run.{command}.self_s"] = (self_s.get(f"cli.run.{command}", 0.0), "s")
        out["cli.interpreter_ms"] = (interpreter_ms, "ms")
        out["cli.import_ms"] = (import_ms, "ms")
        hits, misses = self.cache_hits, self.cache_misses
        out["structure.cache_hits"] = (hits, "count")
        out["structure.cache_misses"] = (misses, "count")
        out["structure.cache_hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
        out["category.subtrees_out"] = (self.subtrees_out, "count")
        out["core.relation_pairs_out"] = (self.relation_pairs_out, "count")
        ratio = self.maps_found / self.map_candidates if self.map_candidates else 0.0
        out["core.enumerate_monotone.maps_per_candidate"] = (ratio, "ratio")
        for (name, axis), slope in slopes(self.curves()).items():
            out[f"{name}.{axis}_slope"] = (slope, "exponent")
        op_time = sum(end - start for _, start, end, _ in self.ops)
        out["trace_overhead_share"] = (1 - untraced_busy / traced_busy if traced_busy else 0.0, "share")
        out["unattributed_share"] = (1 - covered / op_time if op_time else 0.0, "share")
        return out


def slopes(curves: dict) -> dict:
    """Log-log slope between the two largest sizes measured on each axis,
    on the median over both flavours' samples; 0 where an axis was not run."""
    out = {}
    for name in CURVE_FUNCTIONS:
        for axis in AXES:
            pooled: dict[int, list] = defaultdict(list)
            for (fn, ax, edges, _), samples in curves.items():
                if fn == name and ax == axis:
                    pooled[edges].extend(samples)
            sizes = sorted(pooled)
            if len(sizes) < 2:
                out[(name, axis)] = 0.0
                continue
            small, big = sizes[-2], sizes[-1]
            ratio = statistics.median(pooled[big]) / statistics.median(pooled[small])
            out[(name, axis)] = math.log(ratio) / math.log(big / small)
    return out
