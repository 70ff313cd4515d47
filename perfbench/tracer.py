"""Spans around the public functions of structfn, recorded from outside the package.

``install`` rebinds every module attribute that names a public function of one
of the six layers (``core``, ``transform``, ``reliability``, ``signature``,
``cli``, ``oracle``), in each of those modules and in the package namespace, to
a wrapper that records a span. Names a module imported from another one are
rebound too, so ``cli`` calling ``simple_form_from_paths`` opens a
``transform.simple_form_from_paths`` span under its own. Spans stay in memory
as ``[name, start, end, parent, doc]`` lists until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import types
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("core", "transform", "reliability", "signature", "cli", "oracle")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.doc: "int | None" = None
        self._stack: list[int] = []
        self.expansion_cap = 0  # structfn.transform.R_MAX, set by install()

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.doc])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced

    def adopt(self, spans: list[list]) -> None:
        """Append spans recorded in another process under the innermost open span."""
        parent = self._stack[-1]
        offset = len(self.spans)
        for name, start, end, up, _ in spans:
            self.spans.append([name, start, end, parent if up < 0 else up + offset, self.doc])


def install(tracer: Tracer):
    """Rebind public layer functions to span-recording wrappers in this process.

    Returns a function that puts the original bindings back.
    """
    package = importlib.import_module("structfn")
    modules = [importlib.import_module(f"structfn.{layer}") for layer in LAYERS]
    tracer.expansion_cap = importlib.import_module("structfn.transform").R_MAX
    owners = {m.__name__ for m in modules}
    wrapped: dict[int, object] = {}
    originals: list[tuple[object, str, object]] = []
    for holder in [package, *modules]:
        for attr, value in list(vars(holder).items()):
            if (
                isinstance(value, types.FunctionType)
                and not attr.startswith("_")
                and value.__module__ in owners
            ):
                if id(value) not in wrapped:
                    layer = value.__module__.rsplit(".", 1)[1]
                    wrapped[id(value)] = tracer.wrap(f"{layer}.{value.__name__}", value)
                originals.append((holder, attr, value))
                setattr(holder, attr, wrapped[id(value)])

    def uninstall() -> None:
        for holder, attr, value in originals:
            setattr(holder, attr, value)

    return uninstall


def _expansion_counter(stat_prefix: str, terms: bool):
    """Count 2^r subfamilies (computed from the arguments) for calls within the cap."""

    def count(tracer: Tracer, args, kwargs, result) -> None:
        family = args[0]
        cap = kwargs.get("max_r") or tracer.expansion_cap
        if family.r <= cap:
            tracer.counts[f"{stat_prefix}.subfamilies"] += 1 << family.r
            if terms:
                tracer.counts[f"{stat_prefix}.terms"] += len(result.coeffs)

    return count


def _mobius_adds(tracer: Tracer, args, kwargs, result) -> None:
    n = args[0].n
    tracer.counts["core.mobius_transform.adds"] += n << (n - 1)


COUNTERS = {
    "core.mobius_transform": _mobius_adds,
    "transform.simple_form_from_paths": _expansion_counter(
        "transform.simple_form_from_paths", True
    ),
    "transform.dual_simple_form_from_cuts": _expansion_counter(
        "transform.dual_simple_form_from_cuts", True
    ),
    "reliability.diagonal_from_paths": _expansion_counter("reliability.diagonal_from_paths", False),
    "reliability.evaluate_inclusion_exclusion": _expansion_counter(
        "reliability.evaluate_inclusion_exclusion", False
    ),
}


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans: list[list]) -> dict:
    """Self time and call count per span name, per layer and per document."""
    own = self_times(spans)
    by_name: dict[str, list] = defaultdict(lambda: [0.0, 0])
    by_doc: dict[int, float] = defaultdict(float)
    roots: dict[int, float] = {}
    for span, self_s in zip(spans, own):
        name, start, end, parent, doc = span
        entry = by_name[name]
        entry[0] += self_s
        entry[1] += 1
        by_doc[doc] += self_s
        if parent < 0:
            roots[doc] = roots.get(doc, 0.0) + end - start
    residual = max((abs(by_doc[d] - roots.get(d, 0.0)) for d in by_doc), default=0.0)
    return {"by_name": dict(by_name), "self_vs_root_max_s": residual}
