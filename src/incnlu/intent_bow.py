"""Restart-incremental intent classification over prefix count vectors.

Multinomial logistic regression, trained by mini-batch gradient descent from
a zero initialization (the objective is convex, so the start point is not a
modelling choice). Every edit reclassifies the current prefix vector as if it
were a finished utterance, which is exactly what makes its final incremental
output equal the non-incremental one. The classifier keeps no session
state, so a REVOKE right after an ADD, on which the interpreter gives back
the board from before the ADD, leaves it nothing to do.

A bundle names the intents in ``intents.tsv``, one a line, and holds
the weight matrix as ``weights.f8``: its values, little-endian float64 in
C order and nothing else, exactly the trained bits. Loading takes a row
of a column per intent for every whole row the file holds, refuses any
remainder, and checks the row count against the featurizer's vocabulary.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .components import Component, TrainingContext, read_names, read_values, write_names, write_values
from .errors import ConfigError, ConsistencyError, DataError, ParameterError
from .features import CountVectorsFeaturizer, count_vector
from .iu import COUNT_VECTOR, INTENT_DISTRIBUTION, Blackboard
from .results import label_order, rank_distribution

log = logging.getLogger(__name__)


@dataclass
class LinearIntentModel:
    intents: list[str]
    weights: np.ndarray  # (vocab size + 1, intent count); last row is the bias

    def __post_init__(self) -> None:
        # Not a field: derived from the intents, which are fixed.
        self.intent_order = label_order(self.intents)


def _log_softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def softmax(scores: np.ndarray) -> np.ndarray:
    return np.exp(_log_softmax(scores))


def _penalised(weights: np.ndarray) -> np.ndarray:
    """The weights the L2 term reads: all but the bias row."""
    penalty = weights.copy()
    penalty[-1, :] = 0.0
    return penalty


def gradient(weights: np.ndarray, inputs: np.ndarray, labels: np.ndarray, l2: float) -> np.ndarray:
    """Gradient of :func:`loss`, the function training descends.

    inputs already carry the constant-1 bias column.
    """
    n = inputs.shape[0]
    probs = np.exp(_log_softmax(inputs @ weights))
    probs[np.arange(n), labels] -= 1.0
    grad = inputs.T @ probs / n
    grad += l2 * _penalised(weights)
    return grad


def loss(weights: np.ndarray, inputs: np.ndarray, labels: np.ndarray, l2: float) -> float:
    """Mean cross-entropy plus L2 on everything but the bias row. Training
    needs only its :func:`gradient`; the finite-difference check of that
    gradient differences this."""
    logp = _log_softmax(inputs @ weights)
    value = -float(logp[np.arange(inputs.shape[0]), labels].mean())
    return value + 0.5 * l2 * float((_penalised(weights) ** 2).sum())


def _augment(matrix: np.ndarray) -> np.ndarray:
    ones = np.ones((matrix.shape[0], 1), dtype=np.float64)
    return np.concatenate([matrix.astype(np.float64), ones], axis=1)


def train_classifier(
    ctx: TrainingContext,
    epochs: int = 50,
    lr: float = 0.1,
    l2: float = 1e-4,
    seed: int = 7,
    batch_size: int = 32,
) -> LinearIntentModel:
    """Fit the weights on the count vectors of the tokens the tokenizer
    left on ``ctx``, over the featurizer's vocabulary there."""
    dataset, vocab = ctx.dataset, ctx.vocabulary
    if not dataset.examples:
        raise DataError("cannot train on an empty dataset")
    intents = dataset.intents
    if len(intents) < 2:
        log.warning("training an intent classifier on a single class %r", intents)
    label_index = {intent: i for i, intent in enumerate(intents)}

    inputs = _augment(np.stack([count_vector(vocab, tokens) for tokens in ctx.tokens]))
    labels = np.array([label_index[ex.intent] for ex in dataset.examples], dtype=np.int64)

    weights = np.zeros((len(vocab) + 1, len(intents)), dtype=np.float64)
    rng = np.random.default_rng(seed)
    n = inputs.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        for lo in range(0, n, batch_size):
            batch = order[lo:lo + batch_size]
            weights = weights - lr * gradient(weights, inputs[batch], labels[batch], l2)

    return LinearIntentModel(intents=intents, weights=weights)


def predict(model: LinearIntentModel, vec: np.ndarray) -> tuple[tuple[str, float], ...]:
    """Descending (intent, probability) ranking for one count vector."""
    if vec.shape != (model.weights.shape[0] - 1,):
        raise ConsistencyError(
            f"count vector of length {vec.shape[0]} against vocabulary of "
            f"{model.weights.shape[0] - 1}"
        )
    # _augment's row, filled in one allocation instead of three.
    row = np.empty((1, vec.shape[0] + 1))
    row[0, :-1] = vec
    row[0, -1] = 1.0
    # softmax's steps on the one row of scores, with no keepdims: the same
    # bits. ndarray.max and .sum are these reductions behind a Python wrapper.
    scores = (row @ model.weights)[0]
    shifted = scores - np.maximum.reduce(scores)
    probs = np.exp(shifted - np.log(np.add.reduce(np.exp(shifted))))
    return rank_distribution(model.intents, probs, model.intent_order)


class BowIntentClassifier(Component):
    """Per-edit reclassification of the prefix count vector; it keeps no
    session state."""

    name = "intent_classifier_bow"
    provides = (INTENT_DISTRIBUTION,)
    requires = (COUNT_VECTOR,)
    defaults = {"epochs": 50, "lr": 0.1, "l2": 1e-4, "seed": 7, "batch_size": 32}

    def __init__(self, params=None) -> None:
        super().__init__(params)
        batch_size, epochs, lr, l2, seed = (
            self.params[k] for k in ("batch_size", "epochs", "lr", "l2", "seed")
        )
        if batch_size < 1:
            raise ParameterError(f"{self.name} batch_size must be at least 1, got {batch_size}")
        if epochs < 0:
            raise ParameterError(f"{self.name} epochs must be at least 0, got {epochs}")
        if not lr > 0:
            raise ParameterError(f"{self.name} lr must be positive, got {lr}")
        if not l2 >= 0:
            raise ParameterError(f"{self.name} l2 must be at least 0, got {l2}")
        if seed < 0:
            raise ParameterError(f"{self.name} seed must be at least 0, got {seed}")
        self.model: LinearIntentModel | None = None

    def train(self, dataset, ctx: TrainingContext) -> None:
        if ctx.vocabulary is None:
            raise ConfigError(
                "intent_classifier_bow needs featurizer_count_vectors earlier in the pipeline"
            )
        self.model = train_classifier(
            ctx,
            epochs=self.params["epochs"],
            lr=self.params["lr"],
            l2=self.params["l2"],
            seed=self.params["seed"],
            batch_size=self.params["batch_size"],
        )

    def process(self, board: Blackboard, edit=None, word=None) -> None:
        if self.model is None:
            raise ConsistencyError("intent_classifier_bow used before training or loading")
        vec = board.annotations.get(COUNT_VECTOR)
        if vec is None:
            raise ConfigError(
                "no count vector on the blackboard; is featurizer_count_vectors "
                "ahead of intent_classifier_bow?"
            )
        board.write(self.name, INTENT_DISTRIBUTION, predict(self.model, vec))

    def persist(self, directory: Path) -> None:
        model = self.model
        if model is None:
            raise ConsistencyError("cannot persist an untrained intent_classifier_bow")
        write_names(directory / "intents.tsv", model.intents)
        write_values(directory, "weights", model.weights, "f8")

    def restore(self, files) -> None:
        intents = read_names(files, "intents.tsv")
        if not intents:
            raise ValueError("weight matrix width does not match intents.tsv, which names no intent")
        weights = read_values(files, "weights", "f8", (-1, len(intents)))
        if not np.isfinite(weights).all():
            raise ValueError("weight matrix holds a value that is not finite")
        self.model = LinearIntentModel(intents=intents, weights=weights)

    def check_loaded(self, upstream) -> None:
        rows = self.model.weights.shape[0]
        for comp in upstream:
            if isinstance(comp, CountVectorsFeaturizer) and rows != len(comp.vocabulary) + 1:
                raise ValueError(
                    f"weight matrix has {rows} rows, not one per word of the "
                    f"featurizer's {len(comp.vocabulary)} and a bias row"
                )
