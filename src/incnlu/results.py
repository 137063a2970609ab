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


def label_order(labels: list[str]) -> tuple[int, ...]:
    """The indices of ``labels`` in label order: :func:`rank_distribution`'s
    order among ties. A model works it out once, as its labels are fixed."""
    return tuple(sorted(range(len(labels)), key=labels.__getitem__))


def rank_distribution(labels: list[str], probabilities, order: tuple[int, ...] | None = None
                      ) -> tuple[tuple[str, float], ...]:
    """Sort (label, probability) pairs descending; ties break on the label.

    ``probabilities`` is a 1-D numpy array, and ``order`` the labels'
    :func:`label_order`, worked out here if not given. Every intent
    producer routes through this so tie handling is identical across
    classifiers.
    """
    if order is None:
        order = label_order(labels)
    probs = probabilities.tolist()
    pairs = [(labels[i], probs[i]) for i in order]
    pairs.sort(key=itemgetter(1), reverse=True)  # stable, so ties stay in label order
    return tuple(pairs)
