"""Span tracing from outside the program.

The tracer wraps public entry points on the instances the benchmark
built, so no source file changes.  Every span records its name, start,
duration, the time its child spans covered, its parent span and the id
of the publish (or churn call) it belongs to.  Per-name totals cover
every traced call; individual spans are kept in memory for the first
``RECORDED_OPS`` operations only (a full run's spans would grow the very
memory the runtime metrics measure) and are written out when the run
ends.

Stage ``expand`` methods are generators that the pipeline consumes one
candidate at a time; they are timed per ``next()`` and never
materialized, because the pipeline integrates candidates as they are
produced and a materialized list would change its dedup behaviour.
"""

from __future__ import annotations

import functools
import gc
import time

import repro.broker.broker as broker_module
from repro.ontology.concept_table import ConceptTable

_clock = time.perf_counter_ns
RECORDED_OPS = 200


class Tracer:
    def __init__(self) -> None:
        #: finished spans: (op id, name, start ns, duration ns, self ns, parent index)
        self.spans: list[tuple] = []
        #: name -> [calls, total ns, self ns]
        self.totals: dict[str, list[int]] = {}
        # the open-span stack as parallel lists of strings and ints: a list
        # per span would be a garbage-collected allocation, and extra
        # collections would inflate the very timings being taken
        self._names: list[str] = []
        self._starts: list[int] = []
        self._child_ns: list[int] = []
        self._indexes: list[int] = []
        self.op_id = 0
        self._undo: list = []
        self.gc_pause_ns = 0
        self._gc_started = 0

    # -- spans -------------------------------------------------------------------

    def _open(self, name: str) -> None:
        index = -1
        if self.op_id <= RECORDED_OPS:
            index = len(self.spans)
            self.spans.append(None)  # reserved so children can point at it
        self._names.append(name)
        self._indexes.append(index)
        self._child_ns.append(0)
        self._starts.append(_clock())

    def _close(self) -> None:
        start = self._starts.pop()
        duration = _clock() - start
        name = self._names.pop()
        own = duration - self._child_ns.pop()
        index = self._indexes.pop()
        if index >= 0:
            parent = self._indexes[-1] if self._indexes else -1
            self.spans[index] = (self.op_id, name, start, duration, own, parent)
        if self._child_ns:
            self._child_ns[-1] += duration
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = [0, 0, 0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += own

    def _wrap_call(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()

        return traced

    def _wrap_generator(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                self._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close()
                yield item

        return traced

    # -- installation ---------------------------------------------------------------

    def _patch(self, owner, attribute: str, name: str, *, generator: bool = False) -> None:
        original = getattr(owner, attribute)
        wrap = self._wrap_generator if generator else self._wrap_call
        had_own = isinstance(owner, type) or attribute in vars(owner)
        setattr(owner, attribute, wrap(original, name))
        if had_own:
            self._undo.append(lambda: setattr(owner, attribute, original))
        else:
            self._undo.append(lambda: delattr(owner, attribute))

    def install(self, broker) -> None:
        """Wrap every traced entry point of *broker*'s layers."""
        self._patch(broker_module, "parse_event", "parser.parse_event")
        self._patch(broker_module, "parse_subscription", "parser.parse_subscription")
        self._patch(broker.dispatcher, "publish", "dispatcher.publish")
        engine = broker.engine
        if hasattr(engine, "sharding_info"):
            self._patch(engine, "publish", "sharding.publish")
            replicas = engine.engines
        else:
            replicas = (engine,)
        for replica in replicas:
            # with a process executor the replicas only publish in
            # degraded mode; the workers' spans are out of reach
            self._patch(replica, "publish", "engine.publish")
            self._patch(replica, "subscribe", "engine.subscribe")
            self._patch(replica, "unsubscribe", "engine.unsubscribe")
            pipeline = replica.pipeline
            self._patch(pipeline, "process_event", "pipeline.process_event")
            self._patch(pipeline.synonyms, "rewrite_event", "stage.synonyms")
            self._patch(pipeline.hierarchy, "expand", "stage.hierarchy", generator=True)
            self._patch(pipeline.mappings, "expand", "stage.mappings", generator=True)
            if replica.interest is not None:
                self._patch(replica.interest, "value_interesting", "interest.value_interesting")
            self._patch(replica.matcher, "match_batch", "matcher.match_batch")
        # ConceptTable uses __slots__, so its method is wrapped on the class
        self._patch(ConceptTable, "descent_map", "concept_table.descent_map")
        self._patch(broker.notifier, "notify", "notifier.notify")
        for name in broker.notifier.transports.names():
            self._patch(broker.notifier.transports.get(name), "send", "transport.send")
        if broker.durability is not None:
            self._patch(broker.durability, "append", "durability.append")
            self._patch(broker.durability, "compact", "durability.compact")
        gc.callbacks.append(self._on_gc)
        self._undo.append(lambda: gc.callbacks.remove(self._on_gc))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = _clock()
        else:
            self.gc_pause_ns += _clock() - self._gc_started

    # -- reporting --------------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0, 0))[0]

    def total_ms(self, name: str) -> float:
        return self.totals.get(name, (0, 0, 0))[1] / 1e6

    def self_ms(self, name: str) -> float:
        return self.totals.get(name, (0, 0, 0))[2] / 1e6

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("op\tname\tstart_ns\tduration_ns\tself_ns\tparent\n")
            for span in self.spans:
                handle.write("\t".join(str(field) for field in span) + "\n")
