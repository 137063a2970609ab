"""Result records produced by the pipeline after every edit."""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

from .iu import ENTITIES, INTENT_DISTRIBUTION


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
    intent: str
    intent_ranking: list[tuple[str, float]] = field(default_factory=list)
    entities: list[EntitySpan] = field(default_factory=list)


def rank_distribution(labels: list[str], probabilities) -> list[tuple[str, float]]:
    """Sort (label, probability) pairs descending; ties break on the label.

    ``probabilities`` is a 1-D numpy array. Every intent producer routes
    through this so tie handling is identical across classifiers.
    """
    pairs = sorted(zip(labels, probabilities.tolist()), key=itemgetter(0))
    pairs.sort(key=itemgetter(1), reverse=True)  # stable, so ties stay in label order
    return pairs


def result_from_annotations(annotations: dict) -> NluResult:
    """Assemble an NluResult from pipeline-level blackboard annotations."""
    ranking = list(annotations.get(INTENT_DISTRIBUTION, []))
    intent = ranking[0][0] if ranking else ""
    entities = list(annotations.get(ENTITIES, []))
    return NluResult(intent=intent, intent_ranking=ranking, entities=entities)
