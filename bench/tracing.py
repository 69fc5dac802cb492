"""Span tracing for the traced run, done entirely from the benchmark's files.

`patched(tracer)` wraps the public entry points of each layer, on the
classes and module attributes the simulator defines, for the length of a
`with` block and restores them afterwards. Each wrapper records a span
(name, start, end, parent) in memory and bumps its layer's counters at the
same boundary. A span's self time is its duration minus that of its direct
children. Spans are written out only when the run ends.
"""

import functools
import time
from collections import Counter
from contextlib import contextmanager

from actrsim import buffers, engine, experiment, model, scheduler, strategies

import workloads

# per-layer time metric -> span whose self time it reports
LAYER_TIMES = {
    "model.parse_s": "model.parse",
    "model.validate_s": "model.validate",
    "engine.construct_s": "engine.construct",
    "engine.match_s": "engine.match",
    "engine.cycle_self_s": "engine.run",
    "scheduler.schedule_s": "scheduler.schedule",
    "scheduler.pop_s": "scheduler.pop",
    "strategies.select_s": "strategies.select",
    "strategies.score_s": "strategies.score",
    "strategies.trigger_s": "strategies.trigger",
    "strategies.refraction_prune_s": "strategies.refraction_prune",
    "buffers.modify_s": "buffers.modify",
    "experiment.run_single_s": "experiment.run_single",
    "experiment.summarize_s": "experiment.summarize",
    "experiment.format_s": "experiment.format",
    "experiment.trace_format_s": "experiment.trace_format",
}

# per-layer count metric -> counter
LAYER_COUNTS = {
    "engine.firings": "firings",
    "engine.match_calls": "match_calls",
    "engine.rules_tested": "rules_tested",
    "engine.candidates": "candidates",
    "scheduler.pushes": "pushes",
    "scheduler.pops": "pops",
    "scheduler.peak_depth": "peak_depth",
    "strategies.candidates_scored": "candidates_scored",
    "strategies.triggers": "triggers",
    "strategies.log_entries_updated": "log_entries_updated",
    "strategies.refraction_dropped": "refraction_dropped",
    "buffers.modifies": "modifies",
    "buffers.clears": "clears",
}


class _CountingRules(list):
    """The engine's rule list, counting every rule a scan visits."""

    def __init__(self, rules, counts):
        super().__init__(rules)
        self.counts = counts

    def __iter__(self):
        for rule in super().__iter__():
            self.counts["rules_tested"] += 1
            yield rule


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start ns, end ns, index of parent span or -1)
        self.counts = Counter()
        self._stack = []
        self._queues = {}  # id(queue) -> [queue, pending events]; holds the queue

    def wrap(self, name, fn, before=None, after=None):
        """`fn` recording a span; `after(args, result, before(args))` counts."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(args) if before else None
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, stack[-1] if stack else -1)
            if after:
                after(args, result, token)
            return result

        return traced

    def self_ns(self) -> Counter:
        totals = Counter()
        for name, start, end, parent in self.spans:
            totals[name] += end - start
            if parent >= 0:
                totals[self.spans[parent][0]] -= end - start
        return totals

    def layer_metrics(self) -> dict:
        self_ns, counts = self.self_ns(), self.counts
        metrics = {m: (self_ns[span] / 1e9, "s") for m, span in LAYER_TIMES.items()}
        metrics.update({m: (counts[c], "count") for m, c in LAYER_COUNTS.items()})
        firings = counts["firings"]
        metrics["engine.match_yield"] = (
            firings / counts["match_calls"] if counts["match_calls"] else 0.0, "ratio")
        metrics["scheduler.events_per_firing"] = (
            counts["pops"] / firings if firings else 0.0, "ratio")
        return metrics

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(f'["{name}",{start},{end},{parent}]\n')

    # -- counters, recorded where the spans are ---------------------------------

    def _count(self, key):
        def bump(args, result, token):
            self.counts[key] += 1
        return bump

    def _engine_built(self, args, result, token):
        eng = args[0]
        rules = getattr(eng, "productions", None)
        if isinstance(rules, (list, tuple)):
            eng.productions = _CountingRules(rules, self.counts)

    def _ran(self, args, trace, before):
        self.counts["firings"] += len(trace) - before  # the trace accumulates

    def _matched(self, args, candidates, token):
        self.counts["match_calls"] += 1
        self.counts["candidates"] += len(candidates)

    def _pruned(self, args, survivors, before):
        self.counts["refraction_dropped"] += before - len(survivors)

    def _queue_moved(self, queue, step):
        entry = self._queues.setdefault(id(queue), [queue, 0])
        entry[1] += step
        self.counts["peak_depth"] = max(self.counts["peak_depth"], entry[1])

    def _pushed(self, args, result, token):
        self.counts["pushes"] += 1
        self._queue_moved(args[0], 1)

    def _popped(self, args, event, token):
        if event is not None:
            self.counts["pops"] += 1
            self._queue_moved(args[0], -1)

    def _scored(self, args, result, token):
        self.counts["candidates_scored"] += len(args[1])

    @staticmethod
    def _log_length(args):
        return len(getattr(args[0], "applied_log", ()))

    def _triggered(self, args, result, before):
        self.counts["triggers"] += 1
        self.counts["log_entries_updated"] += before - self._log_length(args)


@contextmanager
def patched(tracer: Tracer):
    """Wrap every layer's entry points with `tracer` inside the block."""
    t = tracer
    plan = [
        (model, "parse_model", "model.parse", None, None),
        (model, "validate_model", "model.validate", None, None),
        (engine.Engine, "__init__", "engine.construct", None, t._engine_built),
        (engine.Engine, "run", "engine.run", lambda args: len(args[0].trace), t._ran),
        (engine.Engine, "find_instantiations", "engine.match", None, t._matched),
        (engine, "refraction_prune", "strategies.refraction_prune",
         lambda args: len(args[0]), t._pruned),
        (scheduler.EventQueue, "schedule", "scheduler.schedule", None, t._pushed),
        (scheduler.EventQueue, "pop_next", "scheduler.pop", None, t._popped),
        (buffers.BufferSystem, "modify_buffer", "buffers.modify", None,
         t._count("modifies")),
        (buffers.BufferSystem, "clear_buffer", "buffers.clear", None, t._count("clears")),
        (experiment, "run_single", "experiment.run_single", None, None),
        (experiment, "summarize", "experiment.summarize", None, None),
        (experiment, "report_to_csv", "experiment.format", None, None),
        (experiment, "report_to_json", "experiment.format", None, None),
        (workloads, "format_trace", "experiment.trace_format", None, None),
    ]
    for cls in vars(strategies).values():
        if isinstance(cls, type) and hasattr(cls, "select"):
            plan += [
                (cls, "select", "strategies.select", None, None),
                (cls, "score", "strategies.score", None, t._scored),
                (cls, "trigger_reward", "strategies.trigger", t._log_length, t._triggered),
                (cls, "trigger_outcome", "strategies.trigger", t._log_length, t._triggered),
            ]
    saved = []
    try:
        for owner, attr, name, before, after in plan:
            original = vars(owner).get(attr)  # only what the owner itself defines
            if callable(original):
                saved.append((owner, attr, original))
                setattr(owner, attr, t.wrap(name, original, before, after))
        yield t
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
