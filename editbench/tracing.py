"""Traced edits: per-layer spans recorded from the benchmark's own code.

The traced driver does what ``IncrementalInterpreter.parse_incremental``
does, one call at a time: ``Blackboard.apply_edit``, ``begin_cycle``, each
component's ``process`` in pipeline order, then ``current_result``. It
records a span around each call. No method of any component is replaced:
``Component.fresh()`` is a shallow copy, so a patched bound method would
leak into every ``fresh_copy()`` session.

Finer layers (SIUM's add, classify and readout; the tagger's transition
matrix, features, decode and extraction; the BoW prediction) are timed by
probes: after the edit, the benchmark calls the same public functions on
the same inputs, on state of its own, and checks that they agree with the
component's view.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from incnlu.intent_bow import predict
from incnlu.iu import COUNT_VECTOR, TOKENS, EditType
from incnlu.results import rank_distribution
from incnlu.sium import SiumModel, SiumState, classify, sium_entities
from incnlu.tagging import decode, extract_entities, tag_features

clock = time.perf_counter_ns

EDIT = "edit"
SPAN_NAMES = {
    "tokenizer_whitespace": "features.tokenizer",
    "featurizer_count_vectors": "features.featurizer",
    "intent_sium": "sium.process",
    "entity_tagger_sequence": "tagging.process",
    "intent_classifier_bow": "intent_bow.process",
}
SCALING_LENGTHS = (10, 100, 1000)
SCALING_REPEATS = 5


class Spans:
    """Spans kept in memory: (edit id, name, parent, start ns, end ns).

    ``marks`` holds the calibration mark of each edit (calibration.py);
    the summaries scale every span of an edit by its factor.
    """

    def __init__(self, cal) -> None:
        self.rows: list[tuple[int, str, str | None, int, int]] = []
        self.marks: dict[int, int] = {}
        self.cal = cal

    def _factors(self) -> dict[int, float]:
        return {edit_id: self.cal.factor(mark) for edit_id, mark in self.marks.items()}

    def add(self, edit_id: int, name: str, parent: str | None, start: int, end: int) -> None:
        self.rows.append((edit_id, name, parent, start, end))

    def mean_us(self) -> dict[str, tuple[float, int]]:
        """Mean scaled duration per call of each span name, with its call count."""
        factor = self._factors()
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for edit_id, name, _, start, end in self.rows:
            total[name] += (end - start) * factor[edit_id]
            calls[name] += 1
        return {name: (total[name] / calls[name] / 1e3, calls[name]) for name in total}

    def dispatch_us(self) -> tuple[float, int]:
        """Mean self time of the edit spans: time no child span covers."""
        factor = self._factors()
        own: dict[int, float] = defaultdict(float)
        for edit_id, _, parent, start, end in self.rows:
            if parent is None:
                own[edit_id] += (end - start) * factor[edit_id]
            elif parent == EDIT:
                own[edit_id] -= (end - start) * factor[edit_id]
        return sum(own.values()) / len(own) / 1e3, len(own)

    def edit_us(self) -> list[float]:
        factor = self._factors()
        return [
            (end - start) * factor[edit_id] / 1e3
            for edit_id, name, _, start, end in self.rows
            if name == EDIT
        ]


def traced_edit(session, edit: EditType, word: str | None, edit_id: int, spans: Spans):
    """One edit through the session's pipeline, with a span per call."""
    board = session.board
    begin = clock()
    t0 = clock()
    unit = board.apply_edit(edit, word)
    spans.add(edit_id, "iu.apply_edit", EDIT, t0, clock())
    board.begin_cycle()
    for comp in session.components:
        t0 = clock()
        comp.process(board, edit, unit.word)
        spans.add(edit_id, SPAN_NAMES.get(comp.name, comp.name), EDIT, t0, clock())
    t0 = clock()
    result = session.current_result()
    spans.add(edit_id, "results.assemble", EDIT, t0, clock())
    spans.add(edit_id, EDIT, None, begin, clock())
    return unit, result


class _CountingModel(SiumModel):
    """SIUM model that counts likelihood-row lookups, for the refold count."""

    lookups = 0

    def intent_loglik(self, word: str) -> np.ndarray:
        self.lookups += 1
        return super().intent_loglik(word)


@dataclass
class ProbeCounts:
    """Work counts the probes gather over a run."""

    refolded: list[int] = field(default_factory=list)
    positions: list[int] = field(default_factory=list)
    changed: int = 0
    nonzero: list[float] = field(default_factory=list)


class Probes:
    """Per-edit calls into the layers' public functions, timed and checked."""

    def __init__(self, session, counts: ProbeCounts) -> None:
        comps = {c.name: c for c in session.components}
        self.sium = comps["intent_sium"].model
        self.counting = _CountingModel(
            **{f.name: getattr(self.sium, f.name) for f in dataclasses.fields(SiumModel)}
        )
        tagger = comps["entity_tagger_sequence"]
        self.tagger, self.tag_lower = tagger.model, tagger.params["lowercase"]
        self.bow = comps["intent_classifier_bow"].model
        self.counts = counts
        self.reset()

    def reset(self) -> None:
        self.state = SiumState(self.sium)
        self.counted = SiumState(self.counting)
        self.previous_tags: list[str] = []

    def run(self, session, edit: EditType, word: str, edit_id: int, spans: Spans) -> list[str]:
        """Time each probe after the edit; return disagreements with the views."""
        problems = []
        board = session.board
        t0 = clock()
        if edit is EditType.ADD:
            self.state.add(word)
            spans.add(edit_id, "sium.add", "sium.process", t0, clock())
            self.counted.add(word)
        else:
            self.state.revoke(word)
            spans.add(edit_id, "sium.revoke", "sium.process", t0, clock())
            before = self.counting.lookups
            self.counted.revoke(word)
            self.counts.refolded.append(self.counting.lookups - before)
        t0 = clock()
        probs = classify(self.state)
        spans.add(edit_id, "sium.classify", "sium.process", t0, clock())
        t0 = clock()
        sium_spans = sium_entities(self.state)
        spans.add(edit_id, "sium.entities", "sium.process", t0, clock())
        view = session.component_result("intent_sium")
        if view.intent_ranking != rank_distribution(self.sium.intents, probs) or view.entities != sium_spans:
            problems.append("sium probe differs from the component's view")

        tokens = list(board.annotations[TOKENS])
        if self.tag_lower:
            tokens = [t.lower() for t in tokens]
        t0 = clock()
        self.tagger.transition_matrix()
        spans.add(edit_id, "tagging.transition_matrix", "tagging.process", t0, clock())
        t0 = clock()
        [tag_features(tokens, i) for i in range(len(tokens))]
        spans.add(edit_id, "tagging.features", "tagging.process", t0, clock())
        t0 = clock()
        tags = decode(self.tagger, tokens)
        spans.add(edit_id, "tagging.decode", "tagging.process", t0, clock())
        t0 = clock()
        entities = extract_entities(tags, tokens)
        spans.add(edit_id, "tagging.extract", "tagging.process", t0, clock())
        if entities != session.component_result("entity_tagger_sequence").entities:
            problems.append("tagger probe differs from the component's view")
        self.counts.positions.append(len(tags))
        previous = self.previous_tags
        self.counts.changed += sum(i >= len(previous) or tag != previous[i] for i, tag in enumerate(tags))
        self.previous_tags = tags

        vec = np.array(board.annotations[COUNT_VECTOR])
        t0 = clock()
        ranking = predict(self.bow, vec)
        spans.add(edit_id, "intent_bow.predict", "intent_bow.process", t0, clock())
        self.counts.nonzero.append(np.count_nonzero(vec) / vec.size)
        if ranking != session.component_result("intent_classifier_bow").intent_ranking:
            problems.append("bow probe differs from the component's view")
        return problems


def scaling_probe(bundle, words: list[str], cal) -> dict[str, list[float]]:
    """Scaled cost in µs at prefix lengths 10, 100 and 1000 on one session.

    At each length the word that reaches it is added and revoked
    SCALING_REPEATS times: the add is timed through ``parse_incremental``,
    then ``decode`` and a SIUM revoke are timed on the same prefix.
    """
    session = bundle.fresh_copy()
    session.new_utterance()
    comps = {c.name: c for c in session.components}
    sium, tagger = comps["intent_sium"].model, comps["entity_tagger_sequence"]
    state = SiumState(sium)
    samples: dict[str, list[float]] = defaultdict(list)
    for n, word in enumerate(words[: max(SCALING_LENGTHS)], 1):
        if n in SCALING_LENGTHS:
            for _ in range(SCALING_REPEATS):
                _, seconds = cal.timed(session.parse_incremental, EditType.ADD, word)
                samples[f"edit_us.len{n}"].append(seconds * 1e6)
                tokens = list(session.board.annotations[TOKENS])
                if tagger.params["lowercase"]:
                    tokens = [t.lower() for t in tokens]
                _, seconds = cal.timed(decode, tagger.model, tokens)
                samples[f"tagging.decode_us.len{n}"].append(seconds * 1e6)
                state.add(word)
                _, seconds = cal.timed(state.revoke, word)
                samples[f"sium.revoke_us.len{n}"].append(seconds * 1e6)
                session.parse_incremental(EditType.REVOKE)
        session.parse_incremental(EditType.ADD, word)
        state.add(word)
    return dict(samples)
