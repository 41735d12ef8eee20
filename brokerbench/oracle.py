"""Correctness oracle: replay a run's op log against a reference engine.

The reference is the slowest, most literal configuration of the same
system: the naive matcher, the string path, exhaustive expansion and no
expansion cache, with the derived-event cap raised far enough that it
never truncates (asserted).  Match sets are compared as
``(sub_id, generality)`` sets on a sample of publishes.
"""

from __future__ import annotations

from repro.core.config import SemanticConfig
from repro.core.engine import SToPSS
from repro.model.parser import parse_event, parse_subscription
from repro.model.subscriptions import Subscription

REFERENCE_CONFIG = SemanticConfig(
    interning=False,
    interest_pruning=False,
    expansion_cache_size=0,
    max_derived_events=1 << 20,
)


def match_set(matches) -> set[tuple[str, int]]:
    return {(match.subscription.sub_id, match.generality) for match in matches}


def replay(kb, ops: list[tuple], sampled: set[int]) -> list[str]:
    """Replay *ops* — ``("sub", sub_id, text)``, ``("unsub", sub_id)`` and
    ``("pub", publish index, text, match set)`` — on a reference engine
    over *kb*, checking the publishes whose index is in *sampled*.
    Returns one message per disagreement."""
    reference = SToPSS(kb, matcher="naive", config=REFERENCE_CONFIG)
    problems: list[str] = []
    for op in ops:
        kind = op[0]
        if kind == "sub":
            parsed = parse_subscription(op[2])
            reference.subscribe(
                Subscription(parsed.predicates, sub_id=op[1], max_generality=parsed.max_generality)
            )
        elif kind == "unsub":
            reference.unsubscribe(op[1])
        elif op[1] in sampled:
            expected = match_set(reference.publish(parse_event(op[2])))
            if reference.pipeline.truncation_count:
                problems.append(f"reference truncated at publish {op[1]}; raise its cap")
                break
            if expected != op[3]:
                missing = sorted(expected - op[3])[:3]
                extra = sorted(op[3] - expected)[:3]
                problems.append(
                    f"publish {op[1]}: {len(op[3])} matches, reference {len(expected)}; "
                    f"missing {missing} extra {extra}"
                )
    return problems
