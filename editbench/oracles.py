"""Output checks computed apart from the streaming path.

Each check recomputes one component's answer for a whole hypothesis from
the loaded model parameters, with code of its own, and compares it with
that component's view in the session. None of it calls the program's
parse, decode, classify or predict functions.
"""

from __future__ import annotations

import numpy as np

from incnlu import EditType

TOLERANCE = 1e-9
BOW = "intent_classifier_bow"
SIUM = "intent_sium"
TAGGER = "entity_tagger_sequence"
FEATURIZER = "featurizer_count_vectors"


def _softmax(scores: np.ndarray) -> np.ndarray:
    e = np.exp(scores - scores.max())
    return e / e.sum()


def _ranked(labels: list[str], probs: np.ndarray) -> list[tuple[str, float]]:
    return sorted(zip(labels, (float(p) for p in probs)), key=lambda lp: (-lp[1], lp[0]))


class Oracles:
    """Reference answers for the BoW classifier, SIUM and the BIO tagger."""

    def __init__(self, interp) -> None:
        comps = {c.name: c for c in interp.components}
        featurizer, bow = comps[FEATURIZER], comps[BOW]
        self.bow_lower = featurizer.params["lowercase"]
        self.bow_index = featurizer.vocabulary.index
        self.bow_intents = bow.model.intents
        self.bow_weights = bow.model.weights
        self.sium = comps[SIUM].model
        tagger = comps[TAGGER]
        self.tag_lower = tagger.params["lowercase"]
        self.tags = tagger.model.tags
        self.tag_weights = tagger.model.weights
        n = len(self.tags)
        self._zero = np.zeros(n)
        # BIO: I-t may follow only B-t or I-t, and never opens the sequence.
        self._start_ok = np.array([not t.startswith("I-") for t in self.tags])
        self._pair_ok = np.array(
            [[not b.startswith("I-") or a in ("B-" + b[2:], b) for b in self.tags] for a in self.tags]
        )

    # -- references ------------------------------------------------------

    def bow(self, words: list[str]) -> list[tuple[str, float]]:
        """Softmax over the bias plus the rows of surviving in-vocabulary words."""
        scores = self.bow_weights[-1].copy()
        for word in words:
            idx = self.bow_index.get(word.lower() if self.bow_lower else word)
            if idx is not None:
                scores = scores + self.bow_weights[idx]
        return _ranked(self.bow_intents, _softmax(scores))

    def sium_posterior(self, words: list[str]) -> dict[str, float]:
        """Prior plus the summed word-given-intent rows, normalised."""
        model = self.sium
        unseen = len(model.word_index)
        rows = [model.word_index.get(w.lower() if model.lowercase else w, unseen) for w in words]
        scores = model.log_intent_prior + model.log_word_given_intent[rows].sum(axis=0)
        return dict(zip(model.intents, (float(p) for p in _softmax(scores))))

    def _features(self, tokens: list[str], i: int) -> list[str]:
        word = tokens[i]
        feats = [
            "bias", "w=" + word, "lw=" + word.lower(), "p3=" + word[:3], "s3=" + word[-3:],
            "pw=" + (tokens[i - 1] if i > 0 else "<s>"),
            "nw=" + (tokens[i + 1] if i + 1 < len(tokens) else "</s>"),
        ]
        if word.isdigit():
            feats.append("digit")
        return feats

    def tag_sequence(self, tokens: list[str]) -> list[str]:
        """Constrained Viterbi over the averaged perceptron weights."""
        if not tokens:
            return []
        w = self.tag_weights
        em = []
        for i in range(len(tokens)):
            row = np.zeros(len(self.tags))
            for feat in self._features(tokens, i):
                if feat in w:
                    row += w[feat]
            em.append(row)
        start = np.where(self._start_ok, w.get("pt=<s>", self._zero), -np.inf)
        pair = np.where(
            self._pair_ok, np.array([w.get("pt=" + t, self._zero) for t in self.tags]), -np.inf
        )
        cols = np.arange(len(self.tags))
        delta = em[0] + start
        back = []
        for row in em[1:]:
            cand = delta[:, None] + pair
            best = cand.argmax(axis=0)
            back.append(best)
            delta = cand[best, cols] + row
        path = [int(delta.argmax())]
        for best in reversed(back):
            path.append(int(best[path[-1]]))
        return [self.tags[t] for t in reversed(path)]

    def tagger_spans(self, words: list[str]) -> list[tuple[str, str, int, int]]:
        tokens = [w.lower() for w in words] if self.tag_lower else list(words)
        tags = self.tag_sequence(tokens)
        spans = []
        for i, tag in enumerate(tags):
            if tag == "O":
                continue
            kind, etype = tag[:2], tag[2:]
            if kind == "I-" and spans and spans[-1][3] == i and spans[-1][0] == etype:
                spans[-1][3] = i + 1
            else:
                spans.append([etype, "", i, i + 1])
        return [(t, " ".join(tokens[s:e]), s, e) for t, _, s, e in spans]

    # -- checks ----------------------------------------------------------

    def problems(self, interp, words: list[str]) -> list[str]:
        """Disagreements between the session's views and the references."""
        out = []
        bow_view = interp.component_result(BOW).intent_ranking
        ref = self.bow(words)
        if [l for l, _ in bow_view] != [l for l, _ in ref]:
            out.append("bow: intent order differs")
        elif any(abs(p - q) > TOLERANCE for (_, p), (_, q) in zip(bow_view, ref)):
            out.append("bow: probability off by more than 1e-9")

        sium_view = dict(interp.component_result(SIUM).intent_ranking)
        ref_post = self.sium_posterior(words)
        if sium_view.keys() != ref_post.keys() or any(
            abs(sium_view[k] - ref_post[k]) > TOLERANCE for k in ref_post
        ):
            out.append("sium: posterior off by more than 1e-9")

        tagged = [(s.type, s.value, s.start, s.end) for s in interp.component_result(TAGGER).entities]
        if tagged != self.tagger_spans(words):
            out.append("tagger: spans differ from reference Viterbi")
        return out


def snapshot(interp) -> dict:
    """Top-level result plus every component's own view."""
    views = {c.name: interp.component_result(c.name) for c in interp.components}
    views["__result__"] = interp.current_result()
    return views


class CleanSession:
    """A session fed only surviving words, never a REVOKE.

    It extends its hypothesis when the next one starts with it, and starts
    a new utterance otherwise.
    """

    def __init__(self, interp) -> None:
        self.session = interp.fresh_copy()
        self.words: list[str] | None = None

    def views(self, words: list[str]) -> dict:
        fed = self.words
        if fed is None or words[: len(fed)] != fed:
            self.session.new_utterance()
            fed = []
        for word in words[len(fed):]:
            self.session.parse_incremental(EditType.ADD, word)
        self.words = list(words)
        return snapshot(self.session)
