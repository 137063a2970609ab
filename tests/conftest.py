import json
from pathlib import Path

import numpy as np
import pytest

from incnlu import (
    ComponentSpec,
    EntityAnnotation,
    PipelineConfig,
    TrainingDataset,
    TrainingExample,
    default_config,
    train_pipeline,
)
from incnlu.components import TrainingContext
from incnlu.features import WhitespaceTokenizer
from incnlu.interpreter import _bundle_checksum, _read_bundle

# Small three-intent corpus for unit tests; entity values are single words
# placed by substring search so spans always align to token boundaries.
_TOY_ROWS = [
    ("play some jazz", "PlayMusic", [("jazz", "genre")]),
    ("play some blues", "PlayMusic", [("blues", "genre")]),
    ("play rock now", "PlayMusic", [("rock", "genre")]),
    ("put on some jazz", "PlayMusic", [("jazz", "genre")]),
    ("play some jazz tonight", "PlayMusic", [("jazz", "genre")]),
    ("some jazz please", "PlayMusic", [("jazz", "genre")]),
    ("weather in boston", "GetWeather", [("boston", "city")]),
    ("weather in denver", "GetWeather", [("denver", "city")]),
    ("will it rain in boston", "GetWeather", [("boston", "city")]),
    ("forecast for denver today", "GetWeather", [("denver", "city")]),
    ("book a table for two", "BookRestaurant", [("two", "party_size")]),
    ("book a table for four", "BookRestaurant", [("four", "party_size")]),
    ("book a spot for six", "BookRestaurant", [("six", "party_size")]),
    ("reserve a table for two", "BookRestaurant", [("two", "party_size")]),
]


def make_example(text: str, intent: str, entities) -> TrainingExample:
    spans = []
    for value, etype in entities:
        start = text.index(value)
        spans.append(EntityAnnotation(start=start, end=start + len(value), value=value, type=etype))
    return TrainingExample(text=text, intent=intent, entities=spans)


def toy_rows():
    return list(_TOY_ROWS)


def tokenized(dataset) -> TrainingContext:
    """The training context the tokenizer's ``train`` leaves: the tokens
    and BIO tags every later component trains from."""
    ctx = TrainingContext(dataset=dataset, seed=13)
    WhitespaceTokenizer().train(dataset, ctx)
    return ctx


def spy_process(interp):
    """Record the name of every component whose ``process`` runs, on the
    session's own component copies."""
    calls = []
    for comp in interp.components:
        real = comp.process
        comp.process = lambda *args, real=real, name=comp.name: (calls.append(name), real(*args))
    return calls


def model_files(directory):
    """The bytes of each file in ``directory``, by name: what ``incnlu.load``
    hands a component's ``load`` for its directory."""
    return {path.name: path.read_bytes() for path in Path(directory).iterdir() if path.is_file()}


def table_values(directory, stem):
    """The values of the one table file ``stem.<type>`` in ``directory``,
    read as the little-endian type its suffix names."""
    (path,) = Path(directory).glob(f"{stem}.*")
    return np.frombuffer(path.read_bytes(), "<" + path.suffix[1:])


def reseal(root):
    """Recompute a bundle's manifest checksum after editing its files, so
    that load gets past the integrity check to the edited file."""
    path = root / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["checksum"] = _bundle_checksum(_read_bundle(root))
    path.write_text(json.dumps(manifest), encoding="utf-8")


@pytest.fixture()
def toy_dataset() -> TrainingDataset:
    return TrainingDataset([make_example(*row) for row in _TOY_ROWS])


@pytest.fixture(scope="session")
def toy_interp():
    """Default pipeline trained once on the toy corpus; treat as read-only
    for assertions on models, or use fresh_copy() for parsing."""
    dataset = TrainingDataset([make_example(*row) for row in _TOY_ROWS])
    return train_pipeline(default_config(), dataset, seed=13)


@pytest.fixture(scope="session")
def sium_interp():
    """Tokenizer and SIUM, as ``configs/sium.yml`` wires them, trained once
    on the toy corpus: SIUM owns its keys, so it runs on every edit."""
    dataset = TrainingDataset([make_example(*row) for row in _TOY_ROWS])
    config = PipelineConfig(components=[ComponentSpec("tokenizer_whitespace"), ComponentSpec("intent_sium")])
    return train_pipeline(config, dataset, seed=13)
