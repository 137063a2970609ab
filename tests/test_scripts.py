"""Every short edit script, checked after every edit against batch oracles.

A script is a sequence over {ADD "Play", ADD "jazz", ADD "by", REVOKE},
run from a new utterance on the default pipeline; a REVOKE on an empty
hypothesis is part of the alphabet and is refused. Every script of length
5 is run, and every shorter one is the prefix of one of them, so checking
after every edit checks every script up to length 5. The oracles lower
the surviving words themselves and never run a session: the tagger's
spans are ``decode`` and ``extract_entities`` of those words, SIUM's
posterior is ``batch_posterior`` and its spans the per-word picks merged
here, and BoW's ranking is ``predict`` of their ``count_vector``.

The component calls are counted too: a REVOKE right after an ADD and a
redo call no component, and a refused REVOKE keeps every record. The run
is repeated with the lattice's checkpoint spacing, its record and the redo
stack at depth 2, so that five edits reach the states a long session
reaches.
"""

import itertools
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from incnlu import BufferUnderflowError, EditType, default_config, interpreter, load_dataset, tagging
from incnlu import train_pipeline
from incnlu.features import count_vector
from incnlu.intent_bow import predict
from incnlu.sium import batch_posterior, entity_pick
from incnlu.tagging import decode, extract_entities

from conftest import spy_process

DATA = Path(__file__).resolve().parent.parent / "data"
ALPHABET = ("Play", "jazz", "by", None)  # None is a REVOKE
LENGTH = 5


class _Oracles:
    """The batch views of a tuple of surviving words, computed once each."""

    def __init__(self, interp) -> None:
        comps = {c.name: c for c in interp.components}
        self.vocab = comps["featurizer_count_vectors"].vocabulary
        self.sium = comps["intent_sium"].model
        self.tagger = comps["entity_tagger_sequence"].model
        self.bow = comps["intent_classifier_bow"].model
        self._views = {}

    def __call__(self, words: tuple[str, ...]):
        views = self._views.get(words)
        if views is None:
            tokens = [w.lower() for w in words]
            posterior = dict(zip(self.sium.intents, batch_posterior(self.sium, tokens).tolist()))
            tags = decode(self.tagger, tokens)
            views = self._views[words] = (
                extract_entities(tags, tokens),
                posterior,
                self._sium_spans(tokens),
                predict(self.bow, count_vector(self.vocab, tokens)),
            )
        return views

    def _sium_spans(self, tokens):
        """(type, value, start, end, confidence) of each run of adjacent
        words whose picks name one class; its confidence is the weakest."""
        model, picks = self.sium, []
        for token in tokens:
            row = model.word_index.get(token, len(model.word_index))
            score = model.log_entity_prior + model.log_word_given_entity[row]
            probs = np.exp(score - score.max())
            picks.append(entity_pick(model, probs / probs.sum()))
        spans, i = [], 0
        for cls, run in itertools.groupby(picks, key=lambda pick: pick and pick[0]):
            n = len(list(run))
            if cls is not None:
                confidence = min(pick[1] for pick in picks[i:i + n])
                spans.append((cls, " ".join(tokens[i:i + n]), i, i + n, confidence))
            i += n
        return spans


def _span_tuples(spans):
    return [(s.type, s.value, s.start, s.end, s.confidence) for s in spans]


def _check_views(session, oracles, words):
    tagger_spans, posterior, sium_spans, bow_ranking = oracles(tuple(words))
    current = session.current_result()
    assert current.entities == session.component_result("entity_tagger_sequence").entities == tagger_spans
    assert current.intent_ranking == session.component_result("intent_classifier_bow").intent_ranking
    assert current.intent_ranking == bow_ranking
    sium = session.component_result("intent_sium")
    ranking = dict(sium.intent_ranking)
    assert ranking.keys() == posterior.keys()
    assert max(abs(ranking[k] - posterior[k]) for k in posterior) < 1e-9
    found = _span_tuples(sium.entities)
    assert [s[:4] for s in found] == [s[:4] for s in sium_spans]
    assert all(abs(a[4] - b[4]) < 1e-9 for a, b in zip(found, sium_spans))


def _run_scripts(interp):
    oracles = _Oracles(interp)
    session = interp.fresh_copy()
    calls = spy_process(session)
    for script in itertools.product(ALPHABET, repeat=LENGTH):
        session.new_utterance()
        words: list[str] = []
        redo: list[str] = []  # the words REVOKEs took back, as the redo stack holds them
        last_added = False
        for word in script:
            before = len(calls)
            if word is None and not words:
                records = dict(session.board.annotations), list(session._redo), session._before_add
                with pytest.raises(BufferUnderflowError):
                    session.parse_incremental(EditType.REVOKE)
                assert len(calls) == before
                now = session.board.annotations
                assert now.keys() == records[0].keys()
                assert all(now[key] is value for key, value in records[0].items())
                assert session._redo == records[1] and session._before_add is records[2]
                continue
            if word is None:
                session.parse_incremental(EditType.REVOKE)
                redo = [*redo, words.pop()][-interpreter.REDO_DEPTH:]
                restored, last_added = last_added, False
            else:
                restored = bool(redo) and redo[-1] == word
                redo = redo[:-1] if restored else []
                session.parse_incremental(EditType.ADD, word)
                words.append(word)
                last_added = True
            if restored:
                assert len(calls) == before, (script, word)
            else:
                assert len(calls) > before
            _check_views(session, oracles, words)
            # Reading SIUM's view runs it; only the edits' calls count above.
            del calls[:]


@pytest.fixture(scope="module")
def snips_interp():
    """The default pipeline trained with seed 13 on the bundled training set."""
    return train_pipeline(default_config(), load_dataset(DATA / "snips_train.json"), seed=13)


@pytest.mark.parametrize("model", ["toy", "snips"])
@pytest.mark.parametrize("patched", [False, True], ids=["shipped", "depth2"])
def test_every_short_script_matches_the_batch_oracles(request, model, patched):
    interp = request.getfixturevalue(f"{model}_interp")
    if not patched:
        _run_scripts(interp)
        return
    with mock.patch.object(tagging, "CHECKPOINT_EVERY", 2), \
            mock.patch.object(tagging, "RECORD_COLUMNS", 2), \
            mock.patch.object(interpreter, "REDO_DEPTH", 2):
        _run_scripts(interp)
