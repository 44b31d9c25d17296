"""Spans around the functions through which each layer of `lsekg` is entered.

`Tracer.install` replaces each target function, wherever an `lsekg` module
binds it, with a wrapper that records calls, time (the CPU time of the
calling thread, the clock of the end-to-end figures), the time of wrapped
callees (so that self time = total - children) and per-layer counts taken
from the arguments and results. A target that no longer exists is listed in
`absent` and its metrics read 0, as does a count whose arguments or
result no longer have the expected shape. Nothing is recorded while
`active` is false, so the correctness checks are not counted.

Peak memory comes from `tracemalloc`, switched on only for the duration of
a sampled call (one in `MEMORY_EVERY`) of a span marked `memory`: the
figure is the most the call allocated above its entry. Calls made while
`tracemalloc` runs are left out of the timings, which it would inflate.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

MEMORY_EVERY = 8


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _len_arg(index, name):
    return lambda args, kwargs, result, before: len(_arg(args, kwargs,
                                                         index, name))


@dataclass(frozen=True)
class Target:
    span: str
    module: str
    attr: str  # "function" or "Class.method"
    memory: bool = False
    # counter name -> f(args, kwargs, result, value of `before`) -> number
    counts: tuple[tuple[str, Callable], ...] = ()
    # called with (args, kwargs) before the call; its value goes to counts
    before: Callable | None = None


TARGETS = (
    Target("data.load_split", "lsekg.data", "load_split",
           counts=(("data.triples_read",
                    lambda a, k, res, b: len(res)),)),
    Target("data.build_dataset", "lsekg.data", "build_dataset"),
    Target("data.build_filter_index", "lsekg.data", "build_filter_index"),
    Target("training.save_checkpoint", "lsekg.training", "save_checkpoint"),
    Target("training.load_checkpoint", "lsekg.training", "load_checkpoint",
           counts=(("training.checkpoint_bytes",
                    lambda a, k, res, b: os.path.getsize(
                        _arg(a, k, 0, "path"))),)),
    Target("sampling.corrupt_batch", "lsekg.sampling",
           "NegativeSampler.corrupt_batch",
           before=lambda a, k: a[0].redraw_cap_hits,
           counts=(("sampling.negatives",
                    lambda a, k, res, b: res.shape[0] * res.shape[1]),
                   ("sampling.redraw_cap_hits",
                    lambda a, k, res, b: a[0].redraw_cap_hits - b))),
    Target("sampling.screen", "lsekg.sampling",
           "NegativeSampler._screen_false_negatives"),
    Target("training.forward", "lsekg.training", "_batch_energies",
           memory=True,
           counts=(("training.rows_scored", _len_arg(1, "triples")),)),
    Target("training.loss", "lsekg.training", "_loss_coefficients"),
    Target("training.active_rows", "lsekg.training", "_active_rows",
           counts=(("training.active_rows_in", _len_arg(0, "triples")),
                   ("training.active_rows_kept",
                    lambda a, k, res, b: len(res[0])))),
    Target("training.backward", "lsekg.training", "_batch_gradients",
           memory=True,
           counts=(("training.entity_rows_touched",
                    lambda a, k, res, b: len(res[0])),)),
    Target("training.segment_sum", "lsekg.training", "_segment_sum"),
    Target("training.update", "lsekg.training", "sgd_step",
           counts=(("training.rows_updated",
                    lambda a, k, res, b: len(_arg(a, k, 1, "entity_grads"))
                    + len(_arg(a, k, 2, "relation_grads"))),)),
    Target("models.all_tail_energies", "lsekg.models", "all_tail_energies",
           memory=True,
           counts=(("models.entities_scored",
                    lambda a, k, res, b: len(res)),)),
    Target("models.all_head_energies", "lsekg.models", "all_head_energies",
           memory=True,
           counts=(("models.entities_scored",
                    lambda a, k, res, b: len(res)),)),
    Target("evaluation.evaluate", "lsekg.evaluation", "evaluate"),
    Target("evaluation.rank_of_truth", "lsekg.evaluation", "rank_of_truth"),
    Target("evaluation.aggregate", "lsekg.evaluation", "aggregate"),
)


class SpanStats:
    __slots__ = ("calls", "timed_calls", "timed_self", "peak_bytes")

    def __init__(self):
        self.calls = 0
        self.timed_calls = 0
        self.timed_self = 0.0
        self.peak_bytes = 0

    def self_time(self) -> float:
        """Self time of all calls, the timed calls standing for the rest."""
        if not self.timed_calls:
            return 0.0
        return self.timed_self * self.calls / self.timed_calls


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: dict[str, SpanStats] = defaultdict(SpanStats)
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._children: list[float] = []  # child time per open span
        self._memory_on = False
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for target in TARGETS:
            owner, original = _resolve(target)
            if original is None:
                self.absent.append(f"{target.module}.{target.attr}")
                continue
            wrapper = self._wrap(target, original)
            name = target.attr.rpartition(".")[2]
            if owner is not None:
                self._patch(owner, name, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "lsekg" or mod_name.startswith("lsekg."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    def _patch(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _wrap(self, target: Target, fn):
        stats = self.spans[target.span]
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            try:
                before = target.before(args, kwargs) if target.before else None
            except (LookupError, TypeError, AttributeError):
                before = None
            stats.calls += 1
            sample_memory = (target.memory and not self._memory_on
                             and stats.calls % MEMORY_EVERY == 0)
            timed = not (self._memory_on or sample_memory)
            if sample_memory:
                self._memory_on = True
                tracemalloc.start()
            self._children.append(0.0)
            start = time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.thread_time() - start
                children = self._children.pop()
                if self._children:
                    self._children[-1] += elapsed
                if sample_memory:
                    stats.peak_bytes = max(stats.peak_bytes,
                                           tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                    self._memory_on = False
            if timed:
                stats.timed_calls += 1
                stats.timed_self += elapsed - children
            for name, count in target.counts:
                try:
                    counts[name] += count(args, kwargs, result, before)
                except (LookupError, TypeError, AttributeError):
                    if name not in self.absent:
                        self.absent.append(name)
            return result

        return wrapper


def _resolve(target: Target):
    """(owning class or None, function) for a target, or (None, None) when
    the module, class or function is gone."""
    try:
        module = importlib.import_module(target.module)
    except ImportError:
        return None, None
    owner_name, _, name = target.attr.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else None
    if owner_name and owner is None:
        return None, None
    fn = getattr(owner if owner is not None else module, name, None)
    return (owner, fn) if callable(fn) else (None, None)
