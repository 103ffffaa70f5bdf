"""Spans around the calls into simptop's layers, recorded from outside.

The tracer replaces a public function under the module attribute its
caller looks it up by (``simptop.census.are_isomorphic`` is the census
module's binding of ``complexes.are_isomorphic``) with a wrapper that
records one span per call: layer name, start and end in nanoseconds, the
index of the enclosing span and the workload item being run.  Spans stay
in memory until the run ends.  A layer's self time is its span's duration
minus the durations of its direct children; calls are synchronous, so
children never overlap.
"""

from __future__ import annotations

import csv
import functools
import gzip
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# (name, start_ns, end_ns, parent index or -1, item id)
Span = Tuple[str, int, int, int, int]
Hook = Callable[[Dict[str, int], object], None]


def _collapse_hook(counts: Dict[str, int], verdict) -> None:
    counts["collapse.nodes"] += verdict.nodes_explored
    # a verdict that is neither collapsible nor exhausted ran out of budget
    counts["collapse.inconclusive"] += (
        not verdict.collapsible and verdict.status != "not-collapsible-exhausted"
    )


def _moves_hook(counts: Dict[str, int], moves) -> None:
    counts["bistellar.moves_returned"] += len(moves)


def _census_hook(counts: Dict[str, int], result) -> None:
    counts["census.labeled"] += result.labeled_count
    counts["census.nodes"] += result.nodes


# Where each layer is looked up by its callers: (module, attribute, hook).
# A function bound under several modules is wrapped at each of them and
# keeps one layer name, taken from the module that defines it.
SITES: Sequence[Tuple[str, str, Optional[Hook]]] = (
    ("simptop.census", "sample_acyclic_collapsibility", None),
    ("simptop.census", "enumerate_census", _census_hook),
    ("simptop.census", "are_isomorphic", None),
    ("simptop.bistellar", "are_isomorphic", None),
    ("simptop.homology", "reduced_betti", None),
    ("simptop.collapse", "is_collapsible", _collapse_hook),
    ("simptop.collapse", "verify_certificate", None),
    ("simptop.bistellar", "random_bistellar_walk", None),
    ("simptop.bistellar", "flip_search", None),
    ("simptop.bistellar", "enumerate_moves", _moves_hook),
    ("simptop.bistellar", "classify_move", None),
    ("simptop.bistellar", "apply_generalized_move", None),
    ("simptop.recognition", "certify_sphere", None),
    ("simptop.recognition", "is_combinatorial_manifold", None),
    ("simptop.recognition", "find_induced_ball", None),
    ("simptop.recognition", "decompose", None),
    ("simptop.recognition", "simplicial_complement", None),
    ("simptop.recognition", "flip_search", None),
)


def layer_name(fn) -> str:
    return "%s.%s" % (fn.__module__.rsplit(".", 1)[-1], fn.__name__)


COUNTS = (
    "collapse.nodes",
    "collapse.inconclusive",
    "bistellar.moves_returned",
    "census.labeled",
    "census.nodes",
)


class Tracer:
    """Installs the wrappers and keeps one span list per traced pass."""

    def __init__(self, modules: Dict[str, object]):
        self.modules = modules
        self.passes: List[List[Span]] = []
        self.counts: List[Dict[str, int]] = []
        self.layers: List[str] = []  # layer names in SITES order
        self.item = -1
        self._stack: List[int] = []
        self._originals: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, hook: Optional[Hook]):
        stack = self._stack
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.passes[-1]
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.item)
            if hook is not None:
                hook(tracer.counts[-1], result)
            return result

        return traced

    def where(self):
        """(pass, innermost open span) or None, for the host-speed sampler."""
        return (len(self.passes) - 1, self._stack[-1]) if self._stack else None

    def begin_pass(self) -> None:
        """Start a new span list and install every wrapper."""
        self.passes.append([])
        self.counts.append(defaultdict(int))
        for module_name, attr, hook in SITES:
            module = self.modules[module_name]
            original = getattr(module, attr)
            name = layer_name(original)
            if name not in self.layers:
                self.layers.append(name)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, hook))

    def end_pass(self) -> None:
        """Put every original function back."""
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()
        self._stack.clear()
        self.item = -1

    def write(self, path, workload: str) -> int:
        """Write every span as gzip'd CSV; returns the number written."""
        written = 0
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            out = csv.writer(fh)
            out.writerow(
                ("pass", "index", "name", "start_ns", "end_ns", "parent", "item")
            )
            for p, spans in enumerate(self.passes):
                for i, (name, start, end, parent, item) in enumerate(spans):
                    out.writerow(
                        (p, i, name, start, end, parent, "%s:%d" % (workload, item))
                    )
                written += len(spans)
        return written


def layer_totals(
    spans: List[Span], scale: Sequence[float], handler_ns: Dict[int, int]
) -> Tuple[Dict[str, int], Dict[str, float]]:
    """Calls and self seconds per layer name, derived from one pass's spans.

    ``handler_ns`` maps a span index to the time the host-speed sampler's
    signal handler ran while that span was innermost; it is not the layer's
    time.  Each span's self time is then multiplied by ``scale[item]``, the
    host-speed factor of the case it ran in.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls: Dict[str, int] = defaultdict(int)
    self_s: Dict[str, float] = defaultdict(float)
    for i, ((name, start, end, _, item), inner) in enumerate(zip(spans, child_ns)):
        calls[name] += 1
        own = end - start - inner - handler_ns.get(i, 0)
        self_s[name] += own / 1e9 * scale[item]
    return calls, self_s
