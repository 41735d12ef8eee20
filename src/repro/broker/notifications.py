"""The notification engine: match → subscriber delivery (Figure 2).

"When the incoming event verifies a subscription, the event dispatcher
sends a notification to the corresponding subscriber" (paper §1).  This
engine owns that last hop: it renders a :class:`SemanticMatch` into a
message, walks the subscriber's transport preferences, retries
transient failures with bounded attempts, and journals every outcome.
A publication's fan-out goes through :meth:`NotificationEngine.notify_all`,
which renders the text its notifications share — the publication
header, each derivation trace, each subscriber's route — once for the
whole fan-out and drops it when the fan-out returns.
Undeliverable notifications land in a dead-letter list instead of
failing the publish path — a slow SMS gateway must not stall the
matcher.

Delivery is *at-least-once with per-subscription sequences*: every
notification carries a monotonic ``sequence`` scoped to its
subscription, the engine keeps a bounded per-subscription delivery log,
and — when the broker is durable — an outbox record is journaled before
each send and an ack after, so crash recovery can reconcile regenerated
matches against what actually went out (already-acked sequences are
dropped, un-acked ones re-sent).  ``replay_from`` re-delivers the
retained log from a sequence number for reconnecting subscribers, who
dedup by ``(sub_id, sequence)``.

The notification-id counter is engine-owned (not module-global) and
restorable from a snapshot, so ids stay unique across a crash-restart.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.broker.clients import Client
from repro.broker.transports import (
    DeliveryRecord,
    OutboundMessage,
    TransportRegistry,
    bounded_append,
    default_transports,
)
from repro.core.provenance import MatchRenderer, SemanticMatch
from repro.errors import DeliveryError, TransportError, UnknownClientError

__all__ = ["Notification", "NotificationEngine", "DeliveryOutcome", "DeliveryEntry"]


@dataclass(frozen=True, slots=True)
class Notification:
    """A match destined for one subscriber, stamped with its
    subscription-scoped delivery sequence."""

    notification_id: str
    client: Client
    match: SemanticMatch | None
    sub_id: str = ""
    sequence: int = 0

    def subject(self) -> str:
        if self.match is None:  # replayed from the journal: pre-rendered
            return f"S-ToPSS: replay of {self.notification_id}"
        return (
            f"S-ToPSS: subscription {self.match.subscription.sub_id} matched "
            f"event {self.match.event.event_id}"
        )

    def body(self) -> str:
        return "" if self.match is None else self.match.explain()


@dataclass(frozen=True, slots=True)
class DeliveryOutcome:
    """Final fate of one notification."""

    notification: Notification
    record: DeliveryRecord | None
    attempts: int
    delivered: bool
    transport: str = ""
    error: str = ""


@dataclass(slots=True)
class DeliveryEntry:
    """One row of the per-subscription delivery log: everything needed
    to re-send without the original match object (the journal stores the
    rendered message, so replay works across restarts)."""

    sequence: int
    notification_id: str
    client_id: str
    event_id: str
    subject: str
    body: str
    status: str = "pending"  # pending | acked | dead


@dataclass(slots=True)
class _EngineStats:
    notifications: int = 0
    delivered: int = 0
    dead_lettered: int = 0
    retries: int = 0
    fallbacks: int = 0
    history_evictions: int = 0
    per_transport: dict[str, int] = field(default_factory=dict)

    def snapshot(self) -> dict[str, object]:
        return {
            "notifications": self.notifications,
            "delivered": self.delivered,
            "dead_lettered": self.dead_lettered,
            "retries": self.retries,
            "fallbacks": self.fallbacks,
            "history_evictions": self.history_evictions,
            "per_transport": dict(self.per_transport),
        }


class NotificationEngine:
    """Multi-transport notification delivery with retry and fallback.

    Parameters
    ----------
    transports: the transport registry (defaults to the demo's four).
    max_attempts_per_transport: bounded retries for transient failures.
    raise_on_dead_letter: tests may prefer a loud
        :class:`~repro.errors.DeliveryError` over silent dead-lettering.
    history_limit: capacity of the outcome journal, the dead-letter
        list, and each subscription's delivery log; the oldest entry is
        evicted at capacity (counted in ``history_evictions``), which
        also bounds how far back ``replay_from`` can reach.  Each
        registered transport's journal is bounded by the same limit.
    durability: the broker's :class:`~repro.broker.durability
        .Durability` store, when deliveries should be journaled
        (outbox-before-send, ack-after).
    """

    def __init__(
        self,
        transports: TransportRegistry | None = None,
        *,
        max_attempts_per_transport: int = 3,
        raise_on_dead_letter: bool = False,
        history_limit: int = 1024,
        durability=None,
    ) -> None:
        self.transports = transports if transports is not None else default_transports()
        if max_attempts_per_transport < 1:
            raise DeliveryError("max_attempts_per_transport must be >= 1")
        if history_limit < 1:
            raise DeliveryError("history_limit must be >= 1")
        self.max_attempts = max_attempts_per_transport
        self.raise_on_dead_letter = raise_on_dead_letter
        self.history_limit = history_limit
        for name in self.transports.names():
            self.transports.get(name).history_limit = history_limit
        self.durability = durability
        self.outcomes: list[DeliveryOutcome] = []
        self.dead_letters: list[Notification] = []
        self.stats = _EngineStats()
        #: engine-owned, snapshot-restorable id counter (a module global
        #: would restart at 1 after recovery and collide)
        self._next_notification = 1
        self._next_seq: dict[str, int] = {}
        self._delivery_log: dict[str, list[DeliveryEntry]] = {}
        self._frontier: dict[str, int] = {}
        #: pending entries restored from a snapshot (their publishes were
        #: compacted away, so recovery re-sends them directly)
        self._restored_pending: list[tuple[str, DeliveryEntry]] = []
        self._replay_ledger: dict[str, list[DeliveryEntry]] | None = None
        self._replay_stats = None
        #: the open fan-out's shared text and routes (see notify_all)
        self._fanout: _FanOut | None = None

    # -- bounded history ---------------------------------------------------------

    def _bounded_append(self, store, item) -> None:
        if len(store) >= self.history_limit:
            self.stats.history_evictions += 1
        bounded_append(store, item, self.history_limit)

    def _log_entry(self, sub_id: str, entry: DeliveryEntry) -> None:
        log = self._delivery_log.setdefault(sub_id, [])
        self._bounded_append(log, entry)

    # -- delivery --------------------------------------------------------------

    def notify_all(self, deliveries) -> list[DeliveryOutcome]:
        """:meth:`notify` each ``(client, match)`` pair of one
        publication's fan-out, in order.  The pairs share one
        :class:`~repro.core.provenance.MatchRenderer` and one route per
        client, both dropped when the fan-out returns."""
        self._fanout = _FanOut()
        try:
            return [self.notify(client, match) for client, match in deliveries]
        finally:
            self._fanout = None

    def notify(self, client: Client, match: SemanticMatch) -> DeliveryOutcome:
        """Render and deliver one match to one subscriber.  During
        crash-recovery replay, regenerated matches are reconciled
        against the journaled outbox instead of blindly re-sent."""
        fanout = self._fanout if self._fanout is not None else _FanOut()
        sub_id = match.subscription.sub_id
        if self._replay_ledger is not None:
            queue = self._replay_ledger.get(sub_id)
            if queue:
                entry = queue.pop(0)
                notification = Notification(
                    entry.notification_id, client, match, sub_id=sub_id, sequence=entry.sequence
                )
                if entry.status != "pending":
                    # the uncrashed run already settled this sequence:
                    # idempotent redelivery drops it
                    self._replay_stats.dedup_drops += 1
                    return DeliveryOutcome(
                        notification, None, 0, entry.status == "acked", transport="journal"
                    )
                outcome = self._walk_transports(
                    notification, entry.subject, entry.body, fanout.route(client)
                )
                self._replay_stats.replayed_deliveries += 1
                self._settle(sub_id, entry, outcome.delivered)
                return self._finish(outcome)
            # no journaled outbox for this match: the crash hit before
            # the send started — fall through to a fresh delivery
        sequence = self._next_seq.get(sub_id, 1)
        self._next_seq[sub_id] = sequence + 1
        notification = Notification(
            f"n{self._next_notification}", client, match, sub_id=sub_id, sequence=sequence
        )
        self._next_notification += 1
        subject, body = notification.subject(), fanout.renderer.explain(match)
        entry = DeliveryEntry(
            sequence,
            notification.notification_id,
            client.client_id,
            match.event.event_id,
            subject,
            body,
        )
        self._log_entry(sub_id, entry)
        if self.durability is not None:
            self.durability.append(
                {
                    "k": "out",
                    "sid": sub_id,
                    "n": sequence,
                    "nid": notification.notification_id,
                    "cid": client.client_id,
                    "eid": entry.event_id,
                    "subject": subject,
                    "body": body,
                }
            )
        outcome = self._walk_transports(notification, subject, body, fanout.route(client))
        if self._replay_stats is not None:
            self._replay_stats.replayed_deliveries += 1
        self._settle(sub_id, entry, outcome.delivered)
        return self._finish(outcome)

    def _settle(self, sub_id: str, entry: DeliveryEntry, delivered: bool) -> None:
        """Terminal bookkeeping for one send: log status, delivered
        frontier, and the journaled ack (``ok=False`` marks a
        dead-letter terminal so recovery never re-sends it either)."""
        entry.status = "acked" if delivered else "dead"
        if delivered:
            self._frontier[sub_id] = max(self._frontier.get(sub_id, 0), entry.sequence)
        if self.durability is not None:
            self.durability.append(
                {"k": "ack", "sid": sub_id, "n": entry.sequence, "ok": delivered}
            )

    def _walk_transports(
        self,
        notification: Notification,
        subject: str,
        body: str,
        route: tuple[tuple[str, str], ...],
    ) -> DeliveryOutcome:
        """The transport-preference walk over *route* (``(transport,
        address)`` pairs in preference order) with bounded retries;
        returns the outcome without recording it (callers settle +
        finish).  Each transport renders its own payload from *body*."""
        self.stats.notifications += 1
        attempts = 0
        last_error = ""
        if not route:
            return DeliveryOutcome(notification, None, 0, False, error="client has no addresses")
        for position, (transport_name, address) in enumerate(route):
            if transport_name not in self.transports:
                last_error = f"unknown transport {transport_name!r}"
                continue
            if position > 0:
                self.stats.fallbacks += 1
            transport = self.transports.get(transport_name)
            for attempt in range(1, self.max_attempts + 1):
                attempts += 1
                if attempt > 1:
                    self.stats.retries += 1
                message = OutboundMessage(
                    transport=transport_name,
                    address=address,
                    subject=subject,
                    body=body,
                    notification_id=notification.notification_id,
                    attempt=attempt,
                )
                try:
                    record = transport.send(message)
                except TransportError as exc:
                    last_error = str(exc)
                    continue
                # UDP "drops" are successful sends from the engine's
                # perspective: fire-and-forget semantics.
                self.stats.delivered += 1
                self.stats.per_transport[transport_name] = (
                    self.stats.per_transport.get(transport_name, 0) + 1
                )
                return DeliveryOutcome(
                    notification, record, attempts, True, transport=transport_name
                )
        return DeliveryOutcome(notification, None, attempts, False, error=last_error)

    def _finish(self, outcome: DeliveryOutcome) -> DeliveryOutcome:
        self._bounded_append(self.outcomes, outcome)
        if not outcome.delivered:
            self._bounded_append(self.dead_letters, outcome.notification)
            self.stats.dead_lettered += 1
            if self.raise_on_dead_letter:
                raise DeliveryError(
                    f"notification {outcome.notification.notification_id} "
                    f"undeliverable: {outcome.error}"
                )
        return outcome

    # -- replay-from-sequence ------------------------------------------------------

    def replay_from(self, sub_id: str, sequence: int, registry) -> list[DeliveryOutcome]:
        """Re-deliver every retained delivery-log entry for *sub_id*
        with ``sequence >= sequence`` (a reconnecting subscriber's
        catch-up; it dedups by sequence number).  Still-pending entries
        are settled by their re-send; already-settled ones keep their
        status.  Bounded by ``history_limit`` — evicted entries are
        gone."""
        outcomes = []
        for entry in list(self._delivery_log.get(sub_id, ())):
            if entry.sequence < sequence:
                continue
            outcomes.append(self._redeliver(sub_id, entry, registry))
        return outcomes

    def _redeliver(self, sub_id: str, entry: DeliveryEntry, registry) -> DeliveryOutcome:
        """Re-send one journaled delivery from its stored rendered
        message (no match object needed)."""
        notification = Notification(
            entry.notification_id, None, None, sub_id=sub_id, sequence=entry.sequence
        )
        try:
            client = registry.get(entry.client_id)
        except UnknownClientError:
            outcome = DeliveryOutcome(
                notification, None, 0, False, error=f"client {entry.client_id!r} removed"
            )
            if entry.status == "pending":
                self._settle(sub_id, entry, False)
            return outcome
        notification = Notification(
            entry.notification_id, client, None, sub_id=sub_id, sequence=entry.sequence
        )
        outcome = self._walk_transports(
            notification, entry.subject, entry.body, _FanOut.route_of(client)
        )
        if self.durability is not None:
            self.durability.stats.replayed_deliveries += 1
        if entry.status == "pending":
            self._settle(sub_id, entry, outcome.delivered)
        return outcome

    # -- crash-recovery protocol (driven by durability.recover) --------------------

    def adopt_journal_entry(self, record: dict) -> DeliveryEntry:
        """Restore one journaled outbox record into the delivery log and
        the sequence/id counters; returns the entry for the ledger."""
        entry = DeliveryEntry(
            record["n"],
            record["nid"],
            record["cid"],
            record.get("eid", ""),
            record.get("subject", ""),
            record.get("body", ""),
        )
        sub_id = record["sid"]
        self._log_entry(sub_id, entry)
        self._next_seq[sub_id] = max(self._next_seq.get(sub_id, 1), entry.sequence + 1)
        nid = entry.notification_id
        if nid.startswith("n") and nid[1:].isdigit():
            self._next_notification = max(self._next_notification, int(nid[1:]) + 1)
        return entry

    def settle_journal_entry(self, sub_id: str, sequence: int, *, delivered: bool) -> None:
        """Apply one journaled ack: the send reached its terminal state
        before the crash."""
        for entry in reversed(self._delivery_log.get(sub_id, ())):
            if entry.sequence == sequence:
                entry.status = "acked" if delivered else "dead"
                break
        if delivered:
            self._frontier[sub_id] = max(self._frontier.get(sub_id, 0), sequence)

    def begin_replay(self, ledger: dict[str, list[DeliveryEntry]], stats) -> None:
        """Enter reconciliation mode: regenerated matches consume
        *ledger* (per-subscription journaled outbox entries, in append
        order) instead of drawing fresh sequences."""
        self._replay_ledger = ledger
        self._replay_stats = stats

    def finish_replay(self, registry) -> None:
        """Leave reconciliation mode; any journaled-but-unacked entry
        replay did not regenerate (snapshot-compacted publishes) is
        re-sent directly from its stored message — at-least-once."""
        leftovers = list(self._restored_pending)
        if self._replay_ledger is not None:
            for sub_id, queue in self._replay_ledger.items():
                for entry in queue:
                    if entry.status == "pending":
                        leftovers.append((sub_id, entry))
        self._replay_ledger = None
        for sub_id, entry in leftovers:
            self._redeliver(sub_id, entry, registry)
        self._restored_pending = []
        self._replay_stats = None

    # -- durable state -------------------------------------------------------------

    def durable_state(self) -> dict:
        """Snapshot-side state: counters, per-subscription sequences,
        delivered frontiers, and the retained delivery log."""
        subs = {}
        for sub_id in set(self._next_seq) | set(self._delivery_log) | set(self._frontier):
            subs[sub_id] = {
                "next_seq": self._next_seq.get(sub_id, 1),
                "frontier": self._frontier.get(sub_id, 0),
                "entries": [
                    [e.sequence, e.notification_id, e.client_id, e.event_id, e.subject, e.body, e.status]
                    for e in self._delivery_log.get(sub_id, ())
                ],
            }
        return {"next_notification": self._next_notification, "subs": subs}

    def restore(self, state: dict) -> None:
        """Rebuild counters and the delivery log from
        :meth:`durable_state` output; pending entries are queued for
        re-send when recovery finishes."""
        self._next_notification = int(state.get("next_notification", 1))
        for sub_id, data in state.get("subs", {}).items():
            self._next_seq[sub_id] = int(data.get("next_seq", 1))
            self._frontier[sub_id] = int(data.get("frontier", 0))
            for seq, nid, cid, eid, subject, body, status in data.get("entries", ()):
                entry = DeliveryEntry(seq, nid, cid, eid, subject, body, status)
                self._log_entry(sub_id, entry)
                if status == "pending":
                    self._restored_pending.append((sub_id, entry))

    # -- reporting ----------------------------------------------------------------

    def delivered_to(self, client_id: str) -> list[DeliveryOutcome]:
        """Delivery outcomes for one subscriber, in order."""
        return [
            outcome
            for outcome in self.outcomes
            if outcome.notification.client is not None
            and outcome.notification.client.client_id == client_id
            and outcome.delivered
        ]

    def delivery_frontiers(self) -> dict[str, int]:
        """Highest acked delivery sequence per subscription — the
        quantity crash recovery must preserve exactly."""
        return dict(self._frontier)

    def delivery_log(self, sub_id: str) -> list[DeliveryEntry]:
        """The retained (bounded) delivery log for one subscription."""
        return list(self._delivery_log.get(sub_id, ()))

    def snapshot(self) -> dict[str, object]:
        data = self.stats.snapshot()
        data["dead_letters"] = len(self.dead_letters)
        data["transports"] = self.transports.stats()
        return data

    def reset(self) -> None:
        self.outcomes.clear()
        self.dead_letters.clear()
        self.stats = _EngineStats()
        self.transports.reset()


class _FanOut:
    """What the notifications of one publication share: a
    :class:`~repro.core.provenance.MatchRenderer` and each client's
    route, keyed by client identity (the memo holds the client)."""

    __slots__ = ("renderer", "_routes")

    def __init__(self) -> None:
        self.renderer = MatchRenderer()
        self._routes: dict[int, tuple[Client, tuple[tuple[str, str], ...]]] = {}

    def route(self, client: Client) -> tuple[tuple[str, str], ...]:
        hit = self._routes.get(id(client))
        if hit is None:
            hit = self._routes[id(client)] = (client, self.route_of(client))
        return hit[1]

    @staticmethod
    def route_of(client: Client) -> tuple[tuple[str, str], ...]:
        """``(transport, address)`` pairs in the client's preference
        order."""
        return tuple(
            (name, client.address_for(name) or "") for name in client.preferred_transports()
        )
