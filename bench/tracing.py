"""Spans around the public entry points of each compest layer, from outside.

``Tracer.installed()`` swaps each target for a wrapper that records a span
(name, start, end, parent, op id) and restores the originals on exit;
nothing in ``src/`` changes. A module-level function is replaced in every
compest module that holds it, because ``from .x import y`` binds the name
once per importing module (``compest.oracles.lz_factorize``,
``compest.lz.distinct_profile``, ``compest.campaign.exact_lz_cost``, ...).
Methods, classmethods and properties are replaced on their class.

Self time is a span's duration minus the time its child spans cover, so the
self times of all spans add up to the time spent inside outermost spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

# Layer metric (self time, seconds) -> entry points, as (module, attribute)
# where the attribute is "function" or "Class.member".
SPANS = {
    "cli.main_self_s": [("compest.cli", "main")],
    "accessor.load_s": [
        ("compest.accessor", "QueryCountedString.from_file"),
        ("compest.accessor", "QueryCountedString.from_bytes"),
        ("compest.accessor", "QueryCountedString.from_tokens"),
        ("compest.accessor", "QueryCountedString.from_provider"),
    ],
    "accessor.session_s": [("compest.accessor", "QueryCountedString.session")],
    "accessor.read_many_s": [("compest.accessor", "QuerySession.read_many")],
    "accessor.queries_s": [("compest.accessor", "QuerySession.queries")],
    "rle.estimate_self_s": [
        ("compest.rle", "rle_additive_estimate"),
        ("compest.rle", "rle_bucketed_estimate"),
        ("compest.rle", "rle_multiplicative_search"),
        ("compest.rle", "rle_refined_search"),
    ],
    "rle.prober_advance_s": [("compest.rle", "RunProber.advance")],
    "colors.estimate_self_s": [
        ("compest.colors", "colors_estimate"),
        ("compest.colors", "colors_estimate_amplified"),
    ],
    "lz.estimate_self_s": [
        ("compest.lz", "lz_estimate"),
        ("compest.lz", "distinguish_compressible"),
        ("compest.lz", "estimate_distinct"),
    ],
    "lz.window_sample_s": [("compest.lz", "SharedWindowSamples.__init__")],
    "lz.distinct_counts_s": [("compest.lz", "SharedWindowSamples.distinct_counts")],
    "suffixes.suffix_array_s": [("compest.suffixes", "suffix_array")],
    "suffixes.lcp_array_s": [("compest.suffixes", "lcp_array")],
    "suffixes.lz_factorize_self_s": [("compest.suffixes", "lz_factorize")],
    "suffixes.distinct_length_profile_self_s": [("compest.suffixes", "distinct_length_profile")],
    "oracles.exact_rle_s": [("compest.oracles", "exact_rle_cost")],
    "oracles.exact_lz_self_s": [("compest.oracles", "exact_lz_cost")],
    "oracles.distinct_profile_self_s": [("compest.oracles", "distinct_profile")],
    "generators.build_s": [("compest.generators", "GeneratorSpec.build")],
    "campaign.run_self_s": [("compest.campaign", "run_campaign")],
}

# Counters without a span: (module, "Class.member") -> counter name.
COUNTS = {("compest.rle", "RunProber.__init__"): "rle.probers_built"}


def _compest_modules():
    return [m for name, m in list(sys.modules.items()) if name == "compest" or name.startswith("compest.")]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.root_s = 0.0  # time inside outermost spans
        self.op_id = -1
        self.missing: list[str] = []
        self._stack: list[list] = []  # [span index, start, child time]
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._op = array("i")

    # -- recording -----------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _span(self, fn, name: str, metric: str, positions_arg: bool = False):
        nid = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if positions_arg:
                self.counts["accessor.read_many_calls"] += 1
                self.counts["accessor.positions_requested"] += int(np.size(args[1]))
            idx = len(self._start)
            self._name.append(nid)
            self._parent.append(stack[-1][0] if stack else -1)
            self._op.append(self.op_id)
            frame = [idx, 0.0, 0.0]
            stack.append(frame)
            self._start.append(0.0)
            self._end.append(0.0)
            frame[1] = start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self._start[idx] = start
                self._end[idx] = end
                self.self_s[metric] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                else:
                    self.root_s += dur

        return traced

    def _counter(self, fn, counter: str):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching ------------------------------------------------------

    def _targets(self):
        for metric, entries in SPANS.items():
            for module, attr in entries:
                yield module, attr, lambda fn, name, metric=metric: self._span(
                    fn, name, metric, positions_arg=name.endswith("QuerySession.read_many")
                )
        for (module, attr), counter in COUNTS.items():
            yield module, attr, lambda fn, name, counter=counter: self._counter(fn, counter)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        undo = []
        try:
            for module, attr, make in self._targets():
                mod = importlib.import_module(module)
                name = f"{module}.{attr}"
                if "." in attr:
                    cls_name, member = attr.split(".")
                    cls = getattr(mod, cls_name, None)
                    raw = cls.__dict__.get(member) if cls is not None else None
                    if raw is None:
                        self.missing.append(name)
                        continue
                    if isinstance(raw, classmethod):
                        new = classmethod(make(raw.__func__, name))
                    elif isinstance(raw, property):
                        new = property(make(raw.fget, name))
                    else:
                        new = make(raw, name)
                    setattr(cls, member, new)
                    undo.append((cls, member, raw))
                else:
                    orig = getattr(mod, attr, None)
                    if orig is None:
                        self.missing.append(name)
                        continue
                    wrapped = make(orig, name)
                    for m in _compest_modules():
                        for key, value in list(vars(m).items()):
                            if value is orig:
                                setattr(m, key, wrapped)
                                undo.append((m, key, orig))
            yield self
        finally:
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)

    # -- output --------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self._start)

    def write(self, path: Path) -> None:
        """Save every span: name, start, end, parent span index, op id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self._name, dtype=np.int32),
            start=np.frombuffer(self._start, dtype=np.float64),
            end=np.frombuffer(self._end, dtype=np.float64),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            op=np.frombuffer(self._op, dtype=np.int32),
        )
