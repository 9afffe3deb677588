"""Spans and counters around tourmod's public entry points.

``Tracer`` rebinds each traced function, in every tourmod module that
holds it, to a wrapper that records a span (name, start, end, parent
span, instance id), and puts the originals back on exit.  Nothing in the
library changes; calls from one module into another go through the
module's own global name, so rebinding that name catches them.
"""

from __future__ import annotations

import functools
import json
import sys
import warnings
from time import perf_counter

import tourmod
import tourmod.cli  # binds tourmod.cli, which the package does not import
from tourmod import GuidedChoiceWarning

# Traced entry points per layer (module).  The cli command handlers are
# reported as cli.analyze, cli.certify and cli.sweep.
TARGETS = {
    "core": ("invert", "parse_tourn_v1", "enumerate_tournaments"),
    "modular": ("is_indecomposable", "minimal_comodules", "tilde", "transitive_components"),
    "comodular": (
        "comodular_index",
        "conflict_graph",
        "structured_delta_decomposition",
        "delta_decomposition",
    ),
    "inversion": (
        "synthesize_certificate",
        "verify_certificate",
        "reduction_arc_high",
        "reduction_arc_three",
        "reduction_arc_two",
    ),
    "oracle": ("brute_Delta", "brute_delta", "sweep_verify"),
    "cli": ("cmd_analyze", "cmd_certify", "cmd_sweep"),
}

SPAN_NAMES = tuple(
    f"{layer}.{attr.removeprefix('cmd_')}" for layer, attrs in TARGETS.items() for attr in attrs
)
COUNTERS = ("comodular.decompositions_scanned", "inversion.arcs_emitted", "inversion.guided_fallbacks")


class Tracer:
    """Records spans in memory while installed (use as a context manager)."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, instance id]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.instance = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.instance]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if name == "inversion.synthesize_certificate":
                self.counters["inversion.arcs_emitted"] += len(result.arcs)
            return result

        return wrapper

    def _counting(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.counters["comodular.decompositions_scanned"] += 1
                yield item

        return wrapper

    def _rebind(self, orig, replacement):
        for name, module in list(sys.modules.items()):
            if name != "tourmod" and not name.startswith("tourmod."):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._saved.append((module, attr, orig))
                    setattr(module, attr, replacement)

    def __enter__(self):
        for layer, attrs in TARGETS.items():
            module = getattr(tourmod, layer)
            for attr in attrs:
                orig = getattr(module, attr)
                self._rebind(orig, self._span(f"{layer}.{attr.removeprefix('cmd_')}", orig))
        orig = tourmod.comodular.all_delta_decompositions
        self._rebind(orig, self._counting(orig))
        return self

    def __exit__(self, *exc):
        for module, attr, orig in reversed(self._saved):
            setattr(module, attr, orig)
        self._saved.clear()
        return False

    def call(self, instance, fn, *args):
        """Run fn(*args) as ``instance``, counting guided-step fallbacks."""
        self.instance = instance
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fn(*args)
        self.counters["inversion.guided_fallbacks"] += sum(
            issubclass(w.category, GuidedChoiceWarning) for w in caught
        )
        return result

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds (outermost span of that
        name only) and self seconds (span minus its child spans); plus the
        counters and the comodular_index calls made inside certificate
        synthesis."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {n: {"calls": 0, "s": 0.0, "self_s": 0.0} for n in SPAN_NAMES}
        synth_index_calls = 0
        for i, (name, start, end, parent, _) in enumerate(spans):
            agg = out[name]
            agg["calls"] += 1
            agg["self_s"] += end - start - child_time[i]
            ancestors = []
            while parent >= 0:
                ancestors.append(spans[parent][0])
                parent = spans[parent][3]
            if name not in ancestors:
                agg["s"] += end - start
            if name == "comodular.comodular_index" and "inversion.synthesize_certificate" in ancestors:
                synth_index_calls += 1
        return {
            "spans": out,
            "counters": dict(self.counters, **{"inversion.index_calls_in_synthesis": synth_index_calls}),
        }

    def write_jsonl(self, path) -> None:
        """All spans, one JSON object a line, then one line of counters.
        ``parent`` is the line number (from 0) of the enclosing span, -1
        for none."""
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, inst in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "instance": inst}
                    )
                    + "\n"
                )
            fh.write(json.dumps({"counters": self.counters}) + "\n")


def merge_summaries(summaries: list[dict]) -> dict:
    merged = {"spans": {n: {"calls": 0, "s": 0.0, "self_s": 0.0} for n in SPAN_NAMES}, "counters": {}}
    for s in summaries:
        for name, agg in s["spans"].items():
            for k, v in agg.items():
                merged["spans"][name][k] += v
        for k, v in s["counters"].items():
            merged["counters"][k] = merged["counters"].get(k, 0) + v
    return merged
