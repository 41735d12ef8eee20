"""Notification text is rendered once per publication and shared across
its fan-out.

The notification engine composes each body from parts the matches of
one publish have in common (the publication header, each derivation
trace, each subscription's text).  These tests pin that the shared
composition changes no byte: every delivery-log body and every
journaled ``"out"`` record equals both ``match.explain()`` and an
independent re-statement of the narrative format, across exact and
semantic matches, result-cache hits, a durable broker and crash-recovery
replay — and that the sharing actually happens.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.broker.broker import Broker
from repro.broker.durability import JOURNAL_NAME, Durability, _scan_records, recover
from repro.broker.supervision import FaultPlan
from repro.core.provenance import DerivedEvent
from repro.errors import SimulatedCrash
from repro.model.events import Event
from repro.model.predicates import Predicate
from repro.model.subscriptions import Subscription
from repro.ontology.domains import build_jobs_knowledge_base
from repro.workload.jobfinder import JobFinderScenario, JobFinderSpec


@pytest.fixture
def kb():
    return build_jobs_knowledge_base()


def _reference_body(match) -> str:
    """The notification narrative, stated without the shared renderer or
    the cached subscription text."""
    subscription = match.subscription
    sub_text = " and ".join(str(p) for p in subscription.predicates) or "(true)"
    header = (
        f"subscription {subscription.sub_id} [{sub_text}] matched event "
        f"{match.event.event_id} [{match.event.format()}]"
    )
    derived = match.matched_via
    if not derived.steps:
        return header + " — exact syntactic match"
    lines = [f"derived event {derived.event.format()} via:"]
    lines.extend(f"  {i + 1}. {step}" for i, step in enumerate(derived.steps))
    return header + "\n" + "\n".join(lines)


def _drive(broker: Broker, *, repeats: int = 4) -> None:
    """Subscribe a job-finder cast with explicit client ids, publish each
    resume, then republish some under new event ids (result-cache hits)."""
    scenario = JobFinderScenario(broker.kb, JobFinderSpec(n_companies=8, n_candidates=10, seed=11))
    for index, company in enumerate(scenario.companies):
        broker.register_subscriber(
            company.name,
            email=f"hr{index}@x.example",
            tcp=f"h{index}:9",
            client_id=f"cl-c{index}",
        )
        for subscription in company.subscriptions:
            broker.subscribe(f"cl-c{index}", subscription)
    # every resume carries a salary: an exact syntactic match each time
    broker.register_subscriber("payroll", udp="payroll:9", client_id="cl-exact")
    broker.subscribe("cl-exact", "(salary >= 0)")
    broker.register_publisher("resumes", client_id="cl-p")
    for candidate in scenario.candidates:
        broker.publish("cl-p", candidate.resume)
    for candidate in scenario.candidates[:repeats]:
        resume = candidate.resume
        broker.publish("cl-p", Event(resume.items(), event_id=f"{resume.event_id}-again"))


def _delivered_matches(broker: Broker) -> dict[tuple[str, int], object]:
    """``(sub_id, sequence) -> match`` for every notification the
    retained publish reports sent."""
    return {
        (outcome.notification.sub_id, outcome.notification.sequence): outcome.notification.match
        for report in broker.dispatcher.reports
        for outcome in report.outcomes
    }


def _journal_outbox(directory) -> list[dict]:
    raw = (directory / JOURNAL_NAME).read_bytes()
    records, _, _ = _scan_records(raw)
    return [record for record in records if record["k"] == "out"]


def _assert_bodies_byte_identical(broker: Broker, outbox: list[dict]) -> int:
    delivered = _delivered_matches(broker)
    checked = 0
    for (sub_id, sequence), match in delivered.items():
        expected = _reference_body(match)
        assert match.explain() == expected
        [entry] = [e for e in broker.notifier.delivery_log(sub_id) if e.sequence == sequence]
        assert entry.body == expected
        checked += 1
    journaled = 0
    for record in outbox:
        match = delivered.get((record["sid"], record["n"]))
        if match is not None:
            assert record["body"] == _reference_body(match)
            journaled += 1
    assert journaled == len(outbox)
    return checked


class TestBodiesByteIdentical:
    def test_durable_broker_with_exact_semantic_and_cached_matches(self, kb, tmp_path):
        with Broker(kb, durability=tmp_path) as broker:
            _drive(broker)
            matches = [m for r in broker.dispatcher.reports for m in r.matches]
            assert any(m.is_semantic for m in matches)
            assert any(not m.is_semantic for m in matches)
            assert broker.dispatcher.result_cache_hits > 0
            outbox = _journal_outbox(tmp_path)
            assert _assert_bodies_byte_identical(broker, outbox) == len(outbox) > 0

    def test_smtp_mail_carries_the_body(self, kb):
        broker = Broker(kb)
        _drive(broker, repeats=0)
        mail = broker.notifier.transports.get("smtp").sent_mail
        bodies = {_reference_body(m) for m in _delivered_matches(broker).values()}
        assert mail
        for text in mail:
            assert text.split("\n\n", 1)[1][:-1] in bodies

    def test_crash_recovery_replay(self, kb, tmp_path):
        probe_dir = tmp_path / "probe"
        with Broker(kb, durability=probe_dir) as probe:
            _drive(probe)
        records = _scan_records((probe_dir / JOURNAL_NAME).read_bytes())[0]
        outbox_offsets = [offset for offset, record in enumerate(records) if record["k"] == "out"]
        # crash mid fan-out, about halfway through the run
        crash_at = outbox_offsets[len(outbox_offsets) // 2] + 1
        crash_dir = tmp_path / "crash"
        durability = Durability(crash_dir, fault_plan=FaultPlan.crash_at(crash_at))
        crashing = Broker(kb, durability=durability)
        with pytest.raises(SimulatedCrash):
            _drive(crashing)
        crashing.close()
        recovered = recover(crash_dir, kb)
        try:
            assert recovered.recovery.replayed_deliveries + recovered.recovery.dedup_drops > 0
            outbox = _journal_outbox(crash_dir)
            assert _assert_bodies_byte_identical(recovered, outbox) > 0
        finally:
            recovered.close()


class TestSharedRendering:
    def test_each_derivation_trace_rendered_once_per_publish(self, kb, monkeypatch):
        broker = Broker(kb)
        for index in range(6):
            broker.register_subscriber(f"co{index}", tcp=f"h{index}:1", client_id=f"cl-{index}")
            broker.subscribe(f"cl-{index}", "(university = Toronto)")
            broker.subscribe(f"cl-{index}", "(degree = degree)")
        broker.register_publisher("P", client_id="cl-p")
        calls = []
        original = DerivedEvent.explain

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(DerivedEvent, "explain", counting)
        report = broker.publish("cl-p", "(school, Toronto)(degree, PhD)")
        semantic = [m for m in report.matches if m.is_semantic]
        distinct = {id(m.matched_via) for m in report.matches if m.is_semantic}
        assert len(semantic) > len(distinct) > 0
        assert len(calls) <= len(distinct)
        for match in report.matches:
            [entry] = broker.notifier.delivery_log(match.subscription.sub_id)
            assert entry.body == _reference_body(match)

    def test_notify_outside_a_fan_out_renders_the_same(self, kb):
        fanned, single = Broker(kb), Broker(kb)
        for broker in (fanned, single):
            broker.register_subscriber("co", email="hr@x", client_id="cl-s")
            subscription = Subscription([Predicate.eq("university", "Toronto")], sub_id="s1")
            broker.subscribe("cl-s", subscription)
            broker.register_publisher("P", client_id="cl-p")
        report = fanned.publish("cl-p", Event([("school", "Toronto")], event_id="e1"))
        [match] = report.matches
        single.notifier.notify(single.registry.get("cl-s"), match)
        assert (
            fanned.notifier.delivery_log("s1")[0].body
            == single.notifier.delivery_log("s1")[0].body
            == _reference_body(match)
        )


class TestCachedSubscriptionText:
    def _pair(self):
        preds = [Predicate.eq("degree", "PhD"), Predicate.ge("graduation_year", 1990)]
        return Subscription(preds, sub_id="s1"), Subscription(preds, sub_id="s1")

    def test_equality_hash_and_repr_unchanged(self):
        formatted, fresh = self._pair()
        text = formatted.format()
        assert text == "(degree = PhD) and (graduation_year >= 1990)"
        assert formatted == fresh and hash(formatted) == hash(fresh)
        assert repr(formatted) == repr(fresh)
        assert [f.name for f in dataclasses.fields(formatted)] == [
            "predicates",
            "subscriber_id",
            "sub_id",
            "max_generality",
        ]

    def test_pickle_round_trip_unchanged(self):
        formatted, fresh = self._pair()
        before = pickle.dumps(formatted)
        formatted.format()
        assert pickle.dumps(formatted) == before == pickle.dumps(fresh)
        restored = pickle.loads(pickle.dumps(formatted))
        assert restored == formatted and hash(restored) == hash(formatted)
        assert restored.format() == formatted.format()
