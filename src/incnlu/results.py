"""Result records produced by the pipeline after every edit."""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter


@dataclass(frozen=True, slots=True)
class EntitySpan:
    """A typed span over token indices; ``end`` is exclusive."""

    type: str
    value: str
    start: int
    end: int
    confidence: float


@dataclass
class NluResult:
    """One view of the pipeline's output. Its ranking and entities are the
    tuples the components published, shared with the board, not copies."""

    intent: str
    intent_ranking: tuple[tuple[str, float], ...] = ()
    entities: tuple[EntitySpan, ...] = ()


def rank_distribution(labels: list[str], probabilities) -> tuple[tuple[str, float], ...]:
    """Sort (label, probability) pairs descending; ties break on the label.

    ``probabilities`` is a 1-D numpy array. Every intent producer routes
    through this so tie handling is identical across classifiers.
    """
    pairs = sorted(zip(labels, probabilities.tolist()), key=itemgetter(0))
    pairs.sort(key=itemgetter(1), reverse=True)  # stable, so ties stay in label order
    return tuple(pairs)

