"""Broker-level benchmark: closed-loop ``Broker.publish`` on four workloads.

Usage (from the repository root)::

    python3 brokerbench/run.py --workload fanout-fresh --seed 1 --seconds 15 --trace 0

One client thread drives the public ``Broker``/``ShardedBroker`` API in a
closed loop: each call waits for its result, the way the web app's
request handler does.  A run builds the workload ``SETUP_REPEATS`` times
(set-up time and the cold prefix are the medians) and measures the steady
phase of the last one for ``--seconds``.  Timings are scaled by the host's
speed, read from a fixed reference loop timed beside them (see
``_reference_seconds``).  It then checks the outputs: a
reference-engine oracle on sampled publishes plus workload self-checks.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
traced and untraced blocks and prints the per-layer metrics with the
tracing overhead beside them.
The last line of standard output is the result object; the line before
it carries the provenance, sample counts and base counts.  The exit code
is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import collections
import gc
import hashlib
import json
import math
import multiprocessing
import os
import platform
import statistics
import sys
import time
import traceback
from pathlib import Path

#: set-ups per run, the measured one last
SETUP_REPEATS = 7
COLD_PUBLISHES = 30
#: peak_rss_mb is read when this many steady publishes have completed, so
#: the figure counts what the program retains per publish without
#: depending on its speed
RSS_AT_PUBLISHES = 300
#: the steady phase also runs on until it has this many publishes, so p99
#: has fifteen samples beyond it and lies past the program's few full
#: garbage collections (about eight in 1500 publishes of churn-deep)
MIN_PUBLISHES = 1500
ORACLE_SAMPLES = 8
#: every this many publishes the client keeps the match set for the oracle;
#: it keeps no report, so the benchmark adds little to the heap the
#: program's garbage collections scan
KEEP_EVERY = 100
#: inputs generated before the steady phase, per second of it; a faster
#: program generates more on demand, and that time is excluded
PREGENERATE_RATE = 150
#: replay-durable's result-cache hit-rate floor in the steady phase
REPLAY_HIT_FLOOR = 0.6
#: traced runs alternate traced and untraced blocks of this length
TRACE_BLOCK_SECONDS = 0.5
#: the client moves to the next core every this many seconds of steady
#: phase, and each set-up repetition runs on the next core: the cores of a
#: shared machine change speed independently, and a run that stayed on one
#: would take on that core's state
CORE_SWITCH_SECONDS = 1.0
#: the steady phase times the reference loop every this many seconds
REFERENCE_EVERY_SECONDS = 0.25
#: passes of the reference loop per sample (the fastest counts) and loop
#: iterations per pass (1.5 ms in the fast state of the machine this was
#: written on, 3 ms in its slow state)
REFERENCE_PASSES = 3
REFERENCE_ITERATIONS = 5000
#: timings are reported as if every reference pass had taken this long
#: (about the fast state of the machine this was written on)
REFERENCE_NOMINAL_S = 0.0015
_REFERENCE_WORDS = [f"term{i}-{i * 7 % 13}" for i in range(64)]


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def _rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _peak_rss_mb() -> float:
    """Peak resident memory of this process and its live children (the
    shard workers of a process-sharded broker)."""
    peak = 0
    for pid in ["self", *(child.pid for child in multiprocessing.active_children())]:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    peak += int(line.split()[1])
    return peak / 1024.0


def _reference_seconds() -> float:
    """Seconds one pass of a fixed pure-Python loop takes: dict, tuple,
    string and call work of the kind the program does, with garbage
    collection held off so the program's heap does not enter it."""
    words = _REFERENCE_WORDS
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(REFERENCE_PASSES):
            started = time.perf_counter()
            counts: dict[tuple[str, int], int] = {}
            for i in range(REFERENCE_ITERATIONS):
                word = words[i % 64]
                key = (word.partition("-")[0], i & 7)
                counts[key] = counts.get(key, 0) + len(word)
            sorted(counts.items())
            best = min(best, time.perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
    return best


class Session:
    """The client: issues broker calls and logs them for the oracle."""

    def __init__(self, deployment, inputs, tracer=None) -> None:
        self.broker = deployment.broker
        self.inputs = inputs
        self.publishers = deployment.publishers
        self.tracer = tracer
        self.tracing = False
        residents = deployment.subscriptions
        #: publishes and churn calls issued; a set-up call that fails
        #: raises out of ``deploy`` and ends the run
        self.attempted = 0
        self.failures: list[str] = []
        self.failed_calls = 0
        self.ops: list[tuple] = [("sub", sub_id, text) for sub_id, text, _ in residents]
        self.ordinal = {sub_id: i for i, (sub_id, _, _) in enumerate(residents)}
        #: (sub id, text, subscriber) of live subscriptions, oldest first
        self.live = collections.deque(residents)
        self.next_event = 0
        self.publishes = 0
        #: match rows of the cold prefix, for the digest
        self.cold_rows: list[list[tuple[int, int]]] = []

    def _fail(self, message: str) -> None:
        self.failed_calls += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def publish(self) -> float | None:
        """One publish; returns its latency in seconds (``None`` if it raised)."""
        publisher, text = self.inputs.event(self.next_event)
        self.next_event += 1
        index = self.publishes
        self.publishes += 1
        self.attempted += 1
        tracer = self.tracer if self.tracing else None
        if tracer is not None:
            tracer.op_id += 1
            tracer._open("broker.publish")
        started = time.perf_counter()
        try:
            report = self.broker.publish(self.publishers[publisher], text)
        except Exception:  # the loop must go on; the failure is counted
            self._fail(f"publish {index} raised:\n{traceback.format_exc()}")
            return None
        finally:
            if tracer is not None:
                tracer._close()
        latency = time.perf_counter() - started
        matches = report.matches
        if [o.notification.sub_id for o in report.outcomes] != [
            m.subscription.sub_id for m in matches
        ]:
            self._fail(f"publish {index}: matches and outcomes differ")
        elif not all(outcome.delivered for outcome in report.outcomes):
            self._fail(f"publish {index} dead-lettered a notification")
        if index < COLD_PUBLISHES:
            self.cold_rows.append(
                sorted((self.ordinal[m.subscription.sub_id], m.generality) for m in matches)
            )
        kept = None
        if index % KEEP_EVERY == 0:
            from oracle import match_set

            kept = match_set(matches)
        self.ops.append(("pub", index, text, kept))
        return latency

    def churn(self) -> list[float]:
        """Unsubscribe the oldest subscription and subscribe its content
        again as a new subscription; returns the two call latencies.

        Re-subscribing the same content keeps the subscription population
        what the workload defines: fresh content would replace most
        residents within a run, by a seed-dependent set and further the
        faster the program runs."""
        oldest, text, subscriber = self.live.popleft()
        latencies = []
        for kind in ("unsub", "sub"):
            self.attempted += 1
            tracer = self.tracer if self.tracing else None
            if tracer is not None:
                tracer.op_id += 1
                tracer._open(f"broker.{kind}scribe")
            started = time.perf_counter()
            try:
                if kind == "unsub":
                    self.broker.unsubscribe(oldest)
                    self.ops.append(("unsub", oldest))
                else:
                    sub_id = self.broker.subscribe(subscriber, text).sub_id
                    self.ordinal[sub_id] = len(self.ordinal)
                    self.live.append((sub_id, text, subscriber))
                    self.ops.append(("sub", sub_id, text))
            except Exception:
                self._fail(f"{kind}scribe raised:\n{traceback.format_exc()}")
                continue
            finally:
                if tracer is not None:
                    tracer._close()
            latencies.append(time.perf_counter() - started)
        return latencies

    def digest(self) -> str:
        """Digest of the cold prefix's match sets, naming subscriptions by
        the order the client subscribed them (sub ids are process-global)."""
        return hashlib.sha256(repr(self.cold_rows).encode()).hexdigest()[:16]


def _counts(broker) -> dict[str, float]:
    """Flat cumulative counters from the broker's public stats/health."""
    stats = broker.stats()
    engine = stats["engine"]
    matcher = engine["matcher_stats"]
    interest = engine["interest"]
    notifier = stats["notifier"]
    counts = {
        "derived_events": engine["derived_events"],
        "truncations": engine["truncations"],
        "expansion_hits": engine["expansion_cache"]["hits"],
        "expansion_misses": engine["expansion_cache"]["misses"],
        "result_hits": stats["result_cache"]["hits"],
        "result_misses": stats["result_cache"]["misses"],
        "candidates_pruned": interest["candidates_pruned"],
        "prune_checks": interest["prune_checks"],
        "predicate_evaluations": matcher["predicate_evaluations"],
        "probes_saved": matcher["probes_saved"],
        "memo_hits": matcher["memo_hits"],
        "memo_misses": matcher["memo_misses"],
        "notifications": notifier["notifications"],
        "delivered": notifier["delivered"],
        "dead_lettered": notifier["dead_lettered"],
        "retries": notifier["retries"],
        "sends": sum(t["total"] for t in notifier["transports"].values()),
    }
    durability = stats.get("durability", {})
    counts["journal_appends"] = durability.get("journal_appends", 0)
    counts["journal_bytes"] = durability.get("journal_bytes", 0)
    counts["compactions"] = durability.get("snapshot_compactions", 0)
    sharding = engine.get("sharding", {})
    counts["critical_path_s"] = sharding.get("critical_path_seconds", 0.0)
    counts["busy_cpu_s"] = sum(sharding.get("busy_cpu_seconds", ()))
    counts["wire_fallbacks"] = sharding.get("wire_fallbacks", 0)
    counts["recoveries"] = broker.health()["recoveries"]
    table = broker.kb.concept_table().stats()
    counts["closures"] = table["up_closures"] + table["down_closures"]
    engines = getattr(broker.engine, "engines", (broker.engine,))
    counts["interest_generation"] = sum(
        e.interest.generation for e in engines if e.interest is not None
    )
    return counts


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _cold_prefix(session) -> float:
    started = time.perf_counter()
    for _ in range(COLD_PUBLISHES):
        session.publish()
    return time.perf_counter() - started


def run(
    workload_name: str, seed: int, seconds: int, trace: bool, scratch: Path
) -> tuple[dict, dict, list[str]]:
    from oracle import replay
    from tracing import Tracer
    from workloads import HELD_OUT_SEED, WORKLOADS, deploy, make_inputs

    workload = WORKLOADS[workload_name]
    #: wall seconds of each part of the run, for the provenance line
    phases: dict[str, float] = {}
    mark = time.perf_counter()

    def lap(name: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        phases[name] = now - mark
        mark = now

    inputs = make_inputs(workload, seed, COLD_PUBLISHES)
    publishes = COLD_PUBLISHES + PREGENERATE_RATE * seconds
    inputs.event(publishes - 1)
    problems: list[str] = []
    lap("inputs")

    # -- set-up and cold prefix, repeated ------------------------------------------
    setups, colds, digests = [], [], []
    #: reference-loop seconds around each set-up
    setup_refs: list[float] = []
    #: (calls attempted, calls failed, failure messages) of the repetitions
    rep_calls: list[tuple[int, int, list[str]]] = []
    tracer = Tracer() if trace else None
    # shard workers inherit the affinity of the process that starts them,
    # so a sharded broker's client stays where the scheduler puts it
    cores = [] if workload.shards else sorted(os.sched_getaffinity(0))

    def set_up(tag: str):
        """Build a fresh deployment and run the cold prefix on it."""
        # every timed section starts from a collected heap, so the garbage
        # of earlier sections does not decide where collections fall
        gc.collect()
        if cores:
            os.sched_setaffinity(0, {cores[len(setups) % len(cores)]})
        reference = _reference_seconds()
        deployment = deploy(workload, inputs, str(scratch), f"{os.getpid()}-{tag}")
        try:
            setup_refs.append((reference + _reference_seconds()) / 2)
            session = Session(deployment, inputs, tracer)
            setups.append(deployment.setup_seconds)
            colds.append(_cold_prefix(session))
            digests.append(session.digest())
        except BaseException:
            deployment.close()
            raise
        return deployment, session

    # Every repetition runs before the measured broker is built: one that
    # ran after its steady phase would set up on the heap that phase left
    # behind, and a faster program leaves a larger one.  A closed broker
    # must not stay alive through the next set-up.
    for repetition in range(1, SETUP_REPEATS):
        extra, rep_session = set_up(f"rep{repetition}")
        extra.close()
        rep_calls.append((rep_session.attempted, rep_session.failed_calls, rep_session.failures))
        del extra, rep_session
    deployment, session = set_up("main")
    broker = deployment.broker
    lap("setup_and_cold")
    try:
        # -- steady phase ----------------------------------------------------------------
        before = _counts(broker)
        gc.collect()
        first_timed = session.next_event
        latencies: list[float] = []
        #: reference-loop samples; an operation belongs to the window
        #: that the latest sample before it opened
        references = [_reference_seconds()]
        next_reference = REFERENCE_EVERY_SECONDS
        window_time: list[float] = [0.0]
        latency_windows: list[int] = []
        churn_latencies: list[float] = []
        phase_time = {False: 0.0, True: 0.0}
        phase_publishes = {False: 0, True: 0}
        churn_calls = 0
        peak_rss = None
        rss_before = _rss_mb()
        gen2_before = gc.get_stats()[2]["collections"]
        on_core = None
        now = time.perf_counter()
        deadline = now + seconds
        while now < deadline or session.publishes - COLD_PUBLISHES < MIN_PUBLISHES:
            generated = inputs.generation_seconds
            # traced and untraced blocks alternate on the phase's own clock
            clock = phase_time[False] + phase_time[True]
            if cores:
                core = cores[int(clock // CORE_SWITCH_SECONDS) % len(cores)]
                if core != on_core:
                    os.sched_setaffinity(0, {core})
                    on_core = core
            block = clock // TRACE_BLOCK_SECONDS
            if trace and session.tracing != (block % 2 == 1):
                if session.tracing:
                    tracer.uninstall()
                else:
                    tracer.install(broker)
                session.tracing = not session.tracing
            if clock >= next_reference:
                # on the core the next window runs on; not phase time
                references.append(_reference_seconds())
                window_time.append(0.0)
                next_reference += REFERENCE_EVERY_SECONDS
                now = time.perf_counter()
            for _ in range(workload.churn_pairs):
                churn = session.churn()
                churn_calls += len(churn)
                if not session.tracing:
                    churn_latencies.extend(churn)
            latency = session.publish()
            if latency is not None:
                phase_publishes[session.tracing] += 1
                if not session.tracing:
                    latencies.append(latency)
                    latency_windows.append(len(references) - 1)
            after_op = time.perf_counter()
            # input generated on demand is not the program's time
            op_time = after_op - now - (inputs.generation_seconds - generated)
            phase_time[session.tracing] += op_time
            window_time[-1] += op_time
            if peak_rss is None and session.publishes - COLD_PUBLISHES >= RSS_AT_PUBLISHES:
                peak_rss = _peak_rss_mb()
                after_op = time.perf_counter()
            now = after_op
        if session.tracing:
            tracer.uninstall()
            session.tracing = False
        if cores:
            os.sched_setaffinity(0, cores)
        rss_growth = _rss_mb() - rss_before
        gen2_collections = gc.get_stats()[2]["collections"] - gen2_before
        elapsed = phase_time[False] + phase_time[True]
        timed_publishes = session.publishes - COLD_PUBLISHES
        after = _counts(broker)
        lap("steady")
    finally:
        deployment.close()
    # the oracle needs only the knowledge base
    kb = broker.kb
    session.broker = None
    del deployment, broker

    # -- checks -------------------------------------------------------------------------
    delta = {key: after[key] - before[key] for key in after}
    delta["gen2_collections"] = gen2_collections
    if after["truncations"]:
        problems.append(f"engine truncated {after['truncations']} expansions")
    if after["delivered"] + after["dead_lettered"] != after["notifications"]:
        problems.append("delivered + dead-lettered != notifications")
    if after["recoveries"]:
        problems.append(f"shard data plane needed {after['recoveries']} recoveries")
    if workload.fresh:
        timed_texts = [text for _, text in inputs.events[first_timed:session.next_event]]
        if len(set(timed_texts)) != len(timed_texts):
            problems.append("fresh workload repeated an event content")
        if delta["expansion_hits"] or delta["result_hits"]:
            problems.append(
                f"fresh workload hit a cache: expansion {delta['expansion_hits']}, "
                f"result {delta['result_hits']}"
            )
    else:
        hit_rate = _ratio(delta["result_hits"], delta["result_hits"] + delta["result_misses"])
        if hit_rate < REPLAY_HIT_FLOOR:
            problems.append(f"result-cache hit rate {hit_rate:.3f} < {REPLAY_HIT_FLOOR}")
    if workload.churn_pairs and churn_calls != 2 * workload.churn_pairs * timed_publishes:
        problems.append(
            f"{churn_calls} churn calls for {timed_publishes} publishes, "
            f"expected {2 * workload.churn_pairs} per publish"
        )
    if len(set(digests)) != 1:
        problems.append(f"match digests differ between fresh brokers: {digests}")
    # the cold prefix does not depend on --seed, so every run of the same
    # code on this workload must reproduce the same digest
    digest_key = f"{workload.name}:{_code_digest()}"
    digest_file = scratch / "digests.json"
    known = json.loads(digest_file.read_text()) if digest_file.exists() else {}
    if known.get(digest_key, digests[0]) != digests[0]:
        problems.append(
            f"match digest {digests[0]} differs from an earlier run's {known[digest_key]}"
        )
    known[digest_key] = digests[0]
    digest_file.write_text(json.dumps(known, indent=1, sort_keys=True))

    kept = [op[1] for op in session.ops if op[0] == "pub" and op[3] is not None]
    sampled = set(kept[:: math.ceil(len(kept) / ORACLE_SAMPLES)])
    lap("checks")
    mismatches = [f"oracle: {message}" for message in replay(kb, session.ops, sampled)]
    lap("oracle")

    # -- results -------------------------------------------------------------------------
    # host-speed scaling: a window's time and latencies count as if its
    # reference pass had taken REFERENCE_NOMINAL_S, and so does a set-up
    scale = [REFERENCE_NOMINAL_S / reference for reference in references]
    scaled_seconds = sum(seconds * factor for seconds, factor in zip(window_time, scale))
    scaled_latencies = sorted(
        latency * scale[window] for latency, window in zip(latencies, latency_windows)
    )
    scaled_setups = [
        setup * REFERENCE_NOMINAL_S / reference for setup, reference in zip(setups, setup_refs)
    ]
    latencies.sort()
    churn_latencies.sort()
    # ok_ops_ratio covers the measured broker's publishes and churn calls;
    # each sampled publish stands for the share of publishes it was drawn
    # from, so one wrong match set moves the ratio by that share
    estimated_failed = session.failed_calls + len(mismatches) * session.publishes / len(sampled)
    ok_ratio = max(0.0, 1 - estimated_failed / session.attempted)
    failed = (
        session.failed_calls + len(mismatches) + len(problems)
        + sum(calls[1] for calls in rep_calls)
    )
    attempted = session.attempted + sum(calls[0] for calls in rep_calls)
    failures = (
        session.failures + mismatches + [message for calls in rep_calls for message in calls[2]]
    )
    base = {
        "timed_publishes": timed_publishes,
        "timed_seconds": elapsed,
        "publish_latency_samples": len(latencies),
        "publish_p99_samples_beyond": len(latencies) - math.ceil(0.99 * len(latencies)),
        "publish_latency_ms": {
            f"p{q}": _percentile(latencies, q / 100) * 1e3 for q in (10, 50, 90, 95, 99, 99.9, 100)
        },
        "churn_latency_samples": len(churn_latencies),
        "churn_p99_samples_beyond": len(churn_latencies) - math.ceil(0.99 * len(churn_latencies)),
        "setup_runs_s": setups,
        "cold_runs_s": colds,
        "cold_publishes": COLD_PUBLISHES,
        "phase_seconds": phases,
        "match_digest": digests[0],
        "oracle_sampled_publishes": len(sampled),
        "oracle_mismatches": len(mismatches),
        "measured_calls_attempted": session.attempted,
        "measured_calls_failed": session.failed_calls,
        "rss_at_publishes": RSS_AT_PUBLISHES,
        "broker_calls_attempted": attempted,
        "broker_calls_failed": failed,
        "timed_counts": delta,
        "reference_ms": {
            "nominal": REFERENCE_NOMINAL_S * 1e3,
            "steady_samples": len(references),
            "steady_quartiles": [q * 1e3 for q in statistics.quantiles(references, n=4)],
            "setups": [reference * 1e3 for reference in setup_refs],
        },
        "unscaled": {
            "publish_throughput_eps": timed_publishes / elapsed,
            "publish_p50_ms": statistics.median(latencies) * 1e3,
            "publish_p99_ms": _percentile(latencies, 0.99) * 1e3,
            "setup_s": statistics.median(setups),
        },
    }
    metrics: dict[str, tuple[float, str]]
    if not trace:
        metrics = {
            "publish_throughput_eps": (timed_publishes / scaled_seconds, "1/s"),
            "publish_p50_ms": (statistics.median(scaled_latencies) * 1e3, "ms"),
            "setup_s": (statistics.median(scaled_setups), "s"),
            "peak_rss_mb": (peak_rss, "MB"),
            "ok_ops_ratio": (ok_ratio, "ratio"),
        }
    else:
        metrics = _layer_metrics(
            tracer, delta, phase_time, phase_publishes, timed_publishes, rss_growth,
            churn_latencies, colds,
        )
        metrics["publish.p99_ms"] = (_percentile(scaled_latencies, 0.99) * 1e3, "ms")
        trace_path = scratch / f"spans-{workload.name}-s{seed}.tsv"
        tracer.write(str(trace_path))
        base["spans_file"] = str(trace_path.relative_to(scratch.parent))
        base["traced_publishes"] = phase_publishes[True]
        base["untraced_publishes"] = phase_publishes[False]
    detail = {
        "workload": workload.name,
        "why": workload.why,
        "shape": {
            **workload.shape(),
            "distinct_contents": workload.hot_set or session.publishes,
        },
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "base_counts": base,
        "problems": problems,
        "failures": failures,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    return result, detail, problems + failures


def _code_digest() -> str:
    """Digest of the program and benchmark sources."""
    root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted([*root.glob("src/repro/**/*.py"), *root.glob("brokerbench/*.py")]):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _numpy_version() -> str | None:
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def _layer_metrics(
    tracer, delta, phase_time, phase_publishes, timed_publishes, rss_growth_mb, churn_latencies,
    colds,
):
    traced = max(1, phase_publishes[True])
    publishes = max(1, timed_publishes)

    def ms(name: str, *, own: bool = False) -> tuple[float, str]:
        """Span time per traced publish (self time when *own*)."""
        return (tracer.self_ms(name) if own else tracer.total_ms(name)) / traced, "ms"

    def ms_per_call(name: str) -> tuple[float, str]:
        return _ratio(tracer.total_ms(name), tracer.calls(name)), "ms"

    def per_publish(key: str, unit: str = "count/publish") -> tuple[float, str]:
        return delta[key] / publishes, unit

    def rate(hits: str, misses: str) -> tuple[float, str]:
        return _ratio(delta[hits], delta[hits] + delta[misses]), "ratio"

    def count(key: str) -> tuple[float, str]:
        return delta[key], "count"

    churn_p50 = statistics.median(churn_latencies) * 1e3 if churn_latencies else 0.0
    churn_p99 = _percentile(churn_latencies, 0.99) * 1e3 if churn_latencies else 0.0
    untraced_eps = _ratio(phase_publishes[False], phase_time[False])
    traced_eps = _ratio(phase_publishes[True], phase_time[True])
    return {
        "cold_publish_s": (statistics.median(colds), "s"),
        "churn.p50_ms": (churn_p50, "ms"),
        "churn.p99_ms": (churn_p99, "ms"),
        "parser.parse_event.ms_per_publish": ms("parser.parse_event"),
        "parser.parse_subscription.ms_per_op": ms_per_call("parser.parse_subscription"),
        "dispatcher.publish.self_ms_per_publish": ms("dispatcher.publish", own=True),
        "dispatcher.result_cache.hit_rate": rate("result_hits", "result_misses"),
        "engine.publish.self_ms_per_publish": ms("engine.publish", own=True),
        "engine.derived_events_per_publish": per_publish("derived_events"),
        "engine.truncations": count("truncations"),
        "engine.expansion_cache.hit_rate": rate("expansion_hits", "expansion_misses"),
        "engine.subscribe.ms_per_op": ms_per_call("engine.subscribe"),
        "engine.unsubscribe.ms_per_op": ms_per_call("engine.unsubscribe"),
        "pipeline.process_event.self_ms_per_publish": ms("pipeline.process_event", own=True),
        "stage.synonyms.ms_per_publish": ms("stage.synonyms"),
        "stage.hierarchy.ms_per_publish": ms("stage.hierarchy"),
        "stage.mappings.ms_per_publish": ms("stage.mappings"),
        "interest.value_interesting.ms_per_publish": ms("interest.value_interesting"),
        "interest.candidates_pruned_per_publish": per_publish("candidates_pruned"),
        "interest.prune_hit_rate": (
            _ratio(delta["candidates_pruned"], delta["prune_checks"]), "ratio"),
        "interest.generation_delta": count("interest_generation"),
        "concept_table.descent_map.ms_per_publish": ms("concept_table.descent_map"),
        "concept_table.closures_filled": count("closures"),
        "matcher.match_batch.ms_per_publish": ms("matcher.match_batch"),
        "matcher.predicate_evaluations_per_publish": per_publish("predicate_evaluations"),
        "matcher.probes_saved_per_publish": per_publish("probes_saved"),
        "matcher.memo_hit_rate": rate("memo_hits", "memo_misses"),
        "notifier.notify.self_ms_per_publish": ms("notifier.notify", own=True),
        "notifier.notifications_per_publish": per_publish("notifications"),
        "notifier.retries": count("retries"),
        "notifier.dead_lettered": count("dead_lettered"),
        "transport.send.ms_per_publish": ms("transport.send"),
        "transport.sends_per_publish": per_publish("sends"),
        "durability.append.ms_per_publish": ms("durability.append"),
        "durability.appends_per_publish": per_publish("journal_appends"),
        "durability.journal_bytes_per_publish": per_publish("journal_bytes", "B/publish"),
        "durability.compact.ms_total": (tracer.total_ms("durability.compact"), "ms"),
        "durability.compactions": count("compactions"),
        "sharding.publish.ms_per_publish": ms("sharding.publish"),
        "sharding.critical_path_ms_per_publish": (
            delta["critical_path_s"] * 1e3 / publishes, "ms"),
        "sharding.busy_cpu_ms_per_publish": (delta["busy_cpu_s"] * 1e3 / publishes, "ms"),
        "sharding.wire_fallbacks": count("wire_fallbacks"),
        "sharding.recoveries": count("recoveries"),
        "runtime.gc_pause_ms_per_publish": (tracer.gc_pause_ns / 1e6 / traced, "ms"),
        "runtime.gc_gen2_collections": count("gen2_collections"),
        "runtime.rss_growth_mb_per_1k_publish": (
            rss_growth_mb * 1000 / publishes, "MB/1k_publish"),
        "trace.untraced_publish_throughput_eps": (untraced_eps, "1/s"),
        "trace.traced_publish_throughput_eps": (traced_eps, "1/s"),
        "trace.overhead_eps": (traced_eps - untraced_eps, "1/s"),
    }


def _reap_children() -> None:
    """Stop every process the run started and wait for each to end.

    ``close()`` joins a sharded broker's workers, but its shared-memory
    segment starts multiprocessing's resource tracker, which would otherwise
    outlive this process and be left unreaped."""
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "repro").is_dir():
        print(f"brokerbench: no program sources under {root / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        known = ", ".join(WORKLOADS)
        print(f"brokerbench: unknown workload {args.workload!r} (known: {known})", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("brokerbench: --seconds must be >= 1", file=sys.stderr)
        return 2
    scratch = root / ".brokerbench"
    scratch.mkdir(exist_ok=True)
    try:
        result, detail, problems = run(
            args.workload, args.seed, args.seconds, bool(args.trace), scratch
        )
    finally:
        _reap_children()
    for problem in problems:
        print(f"brokerbench: FAILED: {problem}", file=sys.stderr)
    detail_path = scratch / f"detail-{args.workload}-s{args.seed}-t{args.trace}.json"
    detail_path.write_text(json.dumps(detail, indent=1, default=str))
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
