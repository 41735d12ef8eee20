"""Unit tests for the notification engine."""

from __future__ import annotations

import pytest

from repro.broker.clients import Client, ClientKind
from repro.broker.notifications import NotificationEngine
from repro.broker.transports import (
    SmsTransport,
    SmtpTransport,
    TcpTransport,
    TransportRegistry,
    UdpTransport,
)
from repro.core.provenance import DerivedEvent, SemanticMatch
from repro.errors import DeliveryError
from repro.model.events import Event
from repro.model.predicates import Predicate
from repro.model.subscriptions import Subscription


def _match() -> SemanticMatch:
    event = Event({"degree": "PhD"}, event_id="e1")
    sub = Subscription([Predicate.eq("degree", "PhD")], sub_id="s1")
    return SemanticMatch(sub, event, DerivedEvent.original(event), 0)


def _client(*addresses) -> Client:
    return Client("c1", "Initech", ClientKind.SUBSCRIBER, tuple(addresses))


def _engine(**kwargs) -> NotificationEngine:
    registry = TransportRegistry(
        [
            SmsTransport(failure_rate=0.0),
            SmtpTransport(failure_rate=0.0),
            TcpTransport(),
            UdpTransport(drop_rate=0.0),
        ]
    )
    return NotificationEngine(registry, **kwargs)


class TestDelivery:
    def test_preferred_transport_used(self):
        engine = _engine()
        outcome = engine.notify(_client(("smtp", "hr@x"), ("sms", "+1")), _match())
        assert outcome.delivered and outcome.transport == "smtp"
        assert outcome.attempts == 1

    def test_retry_then_success(self):
        engine = _engine()
        engine.transports.get("smtp").fail_next(2)
        outcome = engine.notify(_client(("smtp", "hr@x")), _match())
        assert outcome.delivered and outcome.attempts == 3
        assert engine.stats.retries == 2

    def test_fallback_to_next_transport(self):
        engine = _engine()
        engine.transports.get("smtp").fail_next(10)
        outcome = engine.notify(_client(("smtp", "hr@x"), ("tcp", "host:1")), _match())
        assert outcome.delivered and outcome.transport == "tcp"
        assert engine.stats.fallbacks == 1

    def test_exhaustion_dead_letters(self):
        engine = _engine()
        engine.transports.get("smtp").fail_next(10)
        outcome = engine.notify(_client(("smtp", "hr@x")), _match())
        assert not outcome.delivered
        assert engine.dead_letters and engine.stats.dead_lettered == 1

    def test_raise_on_dead_letter(self):
        engine = _engine(raise_on_dead_letter=True)
        engine.transports.get("smtp").fail_next(10)
        with pytest.raises(DeliveryError):
            engine.notify(_client(("smtp", "hr@x")), _match())

    def test_no_addresses_dead_letters(self):
        engine = _engine()
        outcome = engine.notify(_client(), _match())
        assert not outcome.delivered
        assert "no addresses" in outcome.error

    def test_unknown_transport_skipped(self):
        engine = _engine()
        outcome = engine.notify(_client(("pigeon", "coop"), ("tcp", "host:1")), _match())
        assert outcome.delivered and outcome.transport == "tcp"

    def test_udp_drop_counts_as_sent(self):
        registry = TransportRegistry([UdpTransport(drop_rate=0.999999, seed=3)])
        engine = NotificationEngine(registry)
        outcome = engine.notify(_client(("udp", "host:9")), _match())
        assert outcome.delivered  # fire-and-forget semantics

    def test_sms_body_rendered_short(self):
        engine = _engine()
        engine.notify(_client(("sms", "+1")), _match())
        record = engine.transports.get("sms").journal[-1]
        assert len(record.message.body) <= SmsTransport.MAX_LENGTH

    def test_sms_truncation_recorded_through_notify(self):
        engine = _engine()
        event = Event({"degree": "PhD", "summary": "x" * 400}, event_id="e1")
        sub = Subscription([Predicate.eq("degree", "PhD")], sub_id="s1")
        match = SemanticMatch(sub, event, DerivedEvent.original(event), 0)
        engine.notify(_client(("sms", "+1")), match)
        record = engine.transports.get("sms").journal[-1]
        assert record.detail == "truncated to 160 characters"
        subject = "S-ToPSS: subscription s1 matched event e1"
        assert record.message.body == SmsTransport.render(subject, match.explain())

    def test_short_sms_not_marked_truncated(self):
        engine = _engine()
        engine.notify(_client(("sms", "+1")), _match())
        assert engine.transports.get("sms").journal[-1].detail == ""

    def test_transports_bounded_by_history_limit(self):
        engine = _engine(history_limit=2)
        for _ in range(5):
            engine.notify(_client(("smtp", "hr@x")), _match())
        smtp = engine.transports.get("smtp")
        assert len(smtp.journal) == 2 and len(smtp.sent_mail) == 2
        assert smtp.stats()["total"] == smtp.delivered_count() == 5

    def test_invalid_max_attempts(self):
        with pytest.raises(DeliveryError):
            _engine(max_attempts_per_transport=0)


class TestReporting:
    def test_delivered_to_filters_by_client(self):
        engine = _engine()
        engine.notify(_client(("tcp", "h:1")), _match())
        assert len(engine.delivered_to("c1")) == 1
        assert engine.delivered_to("other") == []

    def test_snapshot_shape(self):
        engine = _engine()
        engine.notify(_client(("tcp", "h:1")), _match())
        snap = engine.snapshot()
        assert snap["notifications"] == 1
        assert snap["delivered"] == 1
        assert snap["per_transport"] == {"tcp": 1}
        assert "transports" in snap

    def test_reset(self):
        engine = _engine()
        engine.notify(_client(("tcp", "h:1")), _match())
        engine.reset()
        assert engine.snapshot()["notifications"] == 0
        assert engine.outcomes == []

    def test_notification_rendering(self):
        engine = _engine()
        outcome = engine.notify(_client(("smtp", "hr@x")), _match())
        assert "s1" in outcome.notification.subject()
        assert "e1" in outcome.notification.subject()
        assert "matched" in outcome.notification.body()
