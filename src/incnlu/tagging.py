"""Entity tagging over the surviving prefix, re-decoded from scratch per edit.

An averaged structured perceptron scores BIO tag sequences; Viterbi with
transition constraints guarantees no decoded sequence ever places I-t after
anything but B-t or I-t. The decoder holds no state between edits, so the
entity output is a pure function of the current prefix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .components import Component, TrainingContext, read_params, write_params
from .data import TrainingDataset, bio_tags
from .errors import ConsistencyError
from .iu import ENTITIES, TOKENS, Blackboard
from .results import EntitySpan

START = "<s>"
_NEG_INF = float("-inf")


def tag_features(tokens: list[str], i: int) -> list[str]:
    """Static feature strings for position i (prev-tag added at decode time)."""
    word = tokens[i]
    feats = [
        "bias",
        f"w={word}",
        f"lw={word.lower()}",
        f"p3={word[:3]}",
        f"s3={word[-3:]}",
        f"pw={tokens[i - 1] if i > 0 else START}",
        f"nw={tokens[i + 1] if i + 1 < len(tokens) else '</s>'}",
    ]
    if word.isdigit():
        feats.append("digit")
    return feats


def _transition_mask(tags: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """(initial, pairwise) masks: 0 where allowed, -inf where BIO forbids."""
    n = len(tags)
    init = np.zeros(n)
    pair = np.zeros((n, n))
    for b, tag in enumerate(tags):
        if not tag.startswith("I-"):
            continue
        etype = tag[2:]
        init[b] = _NEG_INF
        for a, prev in enumerate(tags):
            if prev not in (f"B-{etype}", f"I-{etype}"):
                pair[a, b] = _NEG_INF
    return init, pair


def _transition_scores(
    weights: dict[str, np.ndarray], tags: list[str], mask: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """(initial, pairwise) scores: the pt= weights plus the BIO mask."""
    init_mask, pair_mask = mask
    zero = np.zeros(len(tags))
    init = weights.get(f"pt={START}", zero) + init_mask
    pair = np.array([weights.get(f"pt={tag}", zero) for tag in tags]) + pair_mask
    return init, pair


@dataclass
class TaggerModel:
    """Finalized averaged weights, one vector over tags per feature string."""

    tags: list[str]
    weights: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        # Built once, as the weights are final; read-only, as every session shares them.
        self._transitions = _transition_scores(self.weights, self.tags, _transition_mask(self.tags))
        for scores in self._transitions:
            scores.flags.writeable = False

    def transition_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        return self._transitions


def _emissions(weights: dict[str, np.ndarray], n_tags: int, feats: list[list[str]]) -> np.ndarray:
    em = np.zeros((len(feats), n_tags))
    for i, row in enumerate(feats):
        for feat in row:
            vec = weights.get(feat)
            if vec is not None:
                em[i] += vec
    return em


def _viterbi(em: np.ndarray, init: np.ndarray, pair: np.ndarray, tags: list[str]) -> list[str]:
    n_pos, n_tags = em.shape
    delta = em[0] + init
    back = np.zeros((n_pos, n_tags), dtype=np.int64)
    for i in range(1, n_pos):
        scores = delta[:, None] + pair
        back[i] = np.argmax(scores, axis=0)
        delta = scores[back[i], np.arange(n_tags)] + em[i]
    best = int(np.argmax(delta))
    path = [best]
    for i in range(n_pos - 1, 0, -1):
        best = int(back[i, best])
        path.append(best)
    path.reverse()
    return [tags[t] for t in path]


def decode(model: TaggerModel, tokens: list[str]) -> list[str]:
    """Best tag sequence for the prefix; empty prefix decodes to nothing."""
    if not tokens:
        return []
    feats = [tag_features(tokens, i) for i in range(len(tokens))]
    em = _emissions(model.weights, len(model.tags), feats)
    init, pair = model.transition_matrix()
    return _viterbi(em, init, pair, model.tags)


def _tag_set(dataset: TrainingDataset) -> list[str]:
    # "O" first, so an all-zero score row argmaxes to it.
    tags = ["O"]
    for etype in dataset.entity_types:
        tags.extend((f"B-{etype}", f"I-{etype}"))
    return tags


class _AveragedWeights:
    """Perceptron weights with the lazily-updated averaging accumulators."""

    def __init__(self, n_tags: int) -> None:
        self.n_tags = n_tags
        self.weights: dict[str, np.ndarray] = {}
        self._totals: dict[str, np.ndarray] = {}
        self._stamps: dict[str, np.ndarray] = {}
        self.step = 0

    def update(self, feat: str, tag_idx: int, delta: float) -> None:
        if feat not in self.weights:
            self.weights[feat] = np.zeros(self.n_tags)
            self._totals[feat] = np.zeros(self.n_tags)
            self._stamps[feat] = np.zeros(self.n_tags, dtype=np.int64)
        self._totals[feat][tag_idx] += (self.step - self._stamps[feat][tag_idx]) * self.weights[feat][tag_idx]
        self._stamps[feat][tag_idx] = self.step
        self.weights[feat][tag_idx] += delta

    def averaged(self) -> dict[str, np.ndarray]:
        if self.step == 0:
            return {f: v.copy() for f, v in self.weights.items()}
        out = {}
        for feat, vec in self.weights.items():
            total = self._totals[feat] + (self.step - self._stamps[feat]) * vec
            out[feat] = total / self.step
        return out


def train_tagger(dataset: TrainingDataset, epochs: int = 10, seed: int = 13,
                 lowercase: bool = True) -> TaggerModel:
    """Averaged perceptron training with per-sentence Viterbi decoding.

    A dataset with no entity annotations still yields a valid model; its
    single tag is "O" and decoding is trivially all-"O".
    """
    tags = _tag_set(dataset)
    tag_idx = {t: i for i, t in enumerate(tags)}
    mask = _transition_mask(tags)

    sentences = []
    for ex in dataset.examples:
        tokens, gold = bio_tags(ex.text, ex.entities, lowercase=lowercase)
        if tokens:
            feats = [tag_features(tokens, i) for i in range(len(tokens))]
            sentences.append((feats, gold))

    acc = _AveragedWeights(len(tags))
    rng = random.Random(seed)
    order = list(range(len(sentences)))
    for _ in range(epochs):
        rng.shuffle(order)
        for idx in order:
            feats, gold = sentences[idx]
            acc.step += 1
            em = _emissions(acc.weights, len(tags), feats)
            init, pair = _transition_scores(acc.weights, tags, mask)
            pred = _viterbi(em, init, pair, tags)
            if pred == gold:
                continue
            for i, (p, g) in enumerate(zip(pred, gold)):
                prev_p = pred[i - 1] if i > 0 else START
                prev_g = gold[i - 1] if i > 0 else START
                if p == g and prev_p == prev_g:
                    continue
                for feat in feats[i]:
                    acc.update(feat, tag_idx[g], 1.0)
                    acc.update(feat, tag_idx[p], -1.0)
                acc.update(f"pt={prev_g}", tag_idx[g], 1.0)
                acc.update(f"pt={prev_p}", tag_idx[p], -1.0)

    return TaggerModel(tags=tags, weights=acc.averaged())


def extract_entities(tags: list[str], tokens: list[str]) -> list[EntitySpan]:
    """Turn maximal B-I runs into spans; perceptron confidence is fixed at 1.

    A stray I- with no compatible predecessor opens a new span; the decoder
    never produces one, but hand-built tag lists may.
    """
    if len(tags) != len(tokens):
        raise ConsistencyError(
            f"{len(tags)} tags for {len(tokens)} tokens"
        )
    spans = []
    i = 0
    while i < len(tags):
        tag = tags[i]
        if tag == "O":
            i += 1
            continue
        etype = tag[2:]
        j = i
        while j + 1 < len(tags) and tags[j + 1] == f"I-{etype}":
            j += 1
        spans.append(
            EntitySpan(
                type=etype,
                value=" ".join(tokens[i:j + 1]),
                start=i,
                end=j + 1,
                confidence=1.0,
            )
        )
        i = j + 1
    return spans


class SequenceEntityTagger(Component):
    """Restart-incremental entity path: full re-decode of the prefix per edit."""

    name = "entity_tagger_sequence"
    provides = (ENTITIES,)
    requires = (TOKENS,)
    defaults = {"epochs": 10, "seed": 13, "lowercase": True}

    def __init__(self, params=None) -> None:
        super().__init__(params)
        self.model: TaggerModel | None = None

    def train(self, dataset, ctx: TrainingContext) -> None:
        self.model = train_tagger(
            dataset,
            epochs=self.params["epochs"],
            seed=self.params["seed"],
            lowercase=self.params["lowercase"],
        )

    def process(self, board: Blackboard, edit=None, word=None) -> None:
        if self.model is None:
            raise ConsistencyError("entity_tagger_sequence used before training or loading")
        tokens = list(board.annotations.get(TOKENS, []))
        if self.params["lowercase"]:
            tokens = [t.lower() for t in tokens]
        tags = decode(self.model, tokens)
        board.write(self.name, ENTITIES, extract_entities(tags, tokens))

    def new_utterance(self) -> None:
        pass

    def persist(self, directory: Path) -> None:
        write_params(directory, self.params)
        model = self.model
        if model is None:
            raise ConsistencyError("cannot persist an untrained entity_tagger_sequence")
        lines = ["#tags\t" + "\t".join(model.tags)]
        for feat in sorted(model.weights):
            vec = model.weights[feat]
            for t, tag in enumerate(model.tags):
                if vec[t] != 0.0:
                    lines.append(f"{feat}\t{tag}\t{float(vec[t])!r}")
        (directory / "model.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, directory: Path, params) -> "SequenceEntityTagger":
        comp = cls(read_params(directory))
        lines = (directory / "model.tsv").read_text(encoding="utf-8").splitlines()
        header = lines[0].split("\t")
        if header[0] != "#tags":
            raise ConsistencyError("tagger model file missing tag-set header")
        tags = header[1:]
        tag_idx = {t: i for i, t in enumerate(tags)}
        weights: dict[str, np.ndarray] = {}
        for line in lines[1:]:
            if not line:
                continue
            feat, tag, value = line.rsplit("\t", 2)
            if feat not in weights:
                weights[feat] = np.zeros(len(tags))
            weights[feat][tag_idx[tag]] = float(value)
        comp.model = TaggerModel(tags=tags, weights=weights)
        return comp
