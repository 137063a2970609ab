import io
import json
import logging
import random
import re

import pytest

from incnlu import DataError
from incnlu.cli import main
from incnlu.data import (
    NO_ENTITY,
    EntityAnnotation,
    TrainingDataset,
    TrainingExample,
    load_dataset,
    load_json,
    load_markdown,
    save_json,
    stratified_split,
)
from incnlu.features import bio_tags

from conftest import make_example, toy_rows


def _write_json(path, examples):
    payload = {"rasa_nlu_data": {"common_examples": examples}}
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestJsonFormat:
    def test_loads_examples_with_entities(self, tmp_path):
        path = _write_json(
            tmp_path / "d.json",
            [
                {
                    "text": "weather in boston",
                    "intent": "GetWeather",
                    "entities": [
                        {"start": 11, "end": 17, "value": "boston", "entity": "city"}
                    ],
                },
                {"text": "play jazz", "intent": "PlayMusic"},
            ],
        )
        ds = load_json(path)
        assert len(ds) == 2
        assert ds.intents == ["GetWeather", "PlayMusic"]
        assert ds.entity_types == ["city"]
        ann = ds.examples[0].entities[0]
        assert (ann.start, ann.end, ann.value, ann.type) == (11, 17, "boston", "city")

    def test_value_mismatch_is_repaired_from_offsets(self, tmp_path):
        # Offsets win: the stored value is replaced by the text slice.
        path = _write_json(
            tmp_path / "d.json",
            [
                {
                    "text": "weather in boston",
                    "intent": "GetWeather",
                    "entities": [
                        {"start": 11, "end": 17, "value": "Boston!!", "entity": "city"}
                    ],
                }
            ],
        )
        records = []
        logger = logging.getLogger("incnlu.data")
        handler = logging.Handler()
        handler.emit = records.append
        logger.addHandler(handler)
        propagate = logger.propagate
        logger.propagate = False
        try:
            ds = load_json(path)
        finally:
            logger.removeHandler(handler)
            logger.propagate = propagate
        assert ds.examples[0].entities[0].value == "boston"
        assert any("replaced" in rec.getMessage() for rec in records)

    def test_out_of_range_span_is_an_error(self, tmp_path):
        path = _write_json(
            tmp_path / "d.json",
            [
                {
                    "text": "hi",
                    "intent": "X",
                    "entities": [{"start": 0, "end": 9, "value": "hi", "entity": "t"}],
                }
            ],
        )
        with pytest.raises(DataError, match="out of range"):
            load_json(path)

    def test_overlapping_spans_are_an_error(self, tmp_path):
        path = _write_json(
            tmp_path / "d.json",
            [
                {
                    "text": "new york city",
                    "intent": "X",
                    "entities": [
                        {"start": 0, "end": 8, "value": "new york", "entity": "city"},
                        {"start": 4, "end": 13, "value": "york city", "entity": "city"},
                    ],
                }
            ],
        )
        with pytest.raises(DataError, match="overlapping"):
            load_json(path)

    def test_missing_wrapper_and_empty_file_are_errors(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"examples": []}', encoding="utf-8")
        with pytest.raises(DataError, match="rasa_nlu_data"):
            load_json(bad)
        with pytest.raises(DataError, match="no training examples"):
            load_json(_write_json(tmp_path / "empty.json", []))
        with pytest.raises(DataError, match="not found"):
            load_json(tmp_path / "nope.json")

    @pytest.mark.parametrize("examples", [5, "examples", {"text": "hi", "intent": "X"}])
    def test_common_examples_that_are_not_a_list_are_an_error(self, tmp_path, examples):
        path = _write_json(tmp_path / "d.json", examples)
        with pytest.raises(DataError, match="common_examples is not a list"):
            load_json(path)

    _BOSTON = {"start": 11, "end": 17, "value": "boston", "entity": "city"}

    @pytest.mark.parametrize(
        "entities, message",
        [
            (5, "entities is not a list"),
            ({"start": 11}, "entities is not a list"),
            ([{**_BOSTON, "entity": 3}], "entity type is not a non-empty string"),
            ([{**_BOSTON, "entity": ""}], "entity type is not a non-empty string"),
            ([{**_BOSTON, "entity": None}], "entity type is not a non-empty string"),
            ([{**_BOSTON, "start": True}], "entity offsets are not integers"),
            ([{**_BOSTON, "end": 16.9}], "entity offsets are not integers"),
            ([{**_BOSTON, "end": 17.0}], "entity offsets are not integers"),
            ([{**_BOSTON, "start": "11"}], "entity offsets are not integers"),
            ([{"start": 11, "end": 17, "entity": "city"}], "malformed entity annotation"),
            (["boston"], "malformed entity annotation"),
        ],
    )
    def test_malformed_entities_are_an_error_naming_the_example(self, tmp_path, entities, message):
        path = _write_json(
            tmp_path / "d.json",
            [
                {"text": "play jazz", "intent": "PlayMusic"},
                {"text": "weather in boston", "intent": "GetWeather", "entities": entities},
            ],
        )
        with pytest.raises(DataError, match=rf"d\.json example 1: {message}"):
            load_json(path)

    def test_file_that_is_not_utf8_is_an_error(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_bytes(b'{"rasa_nlu_data": {"common_examples": [{"text": "caf\xe9"}]}}')
        with pytest.raises(DataError, match=r"d\.json: not UTF-8"):
            load_json(path)


class TestMarkdownFormat:
    def test_parses_headings_and_inline_entities(self, tmp_path):
        path = tmp_path / "d.md"
        path.write_text(
            "## intent:GetWeather\n"
            "- weather in [boston](city)\n"
            "- will it snow\n"
            "\n"
            "## intent:PlayMusic\n"
            "- play [jazz](genre) now\n",
            encoding="utf-8",
        )
        ds = load_markdown(path)
        assert [ex.intent for ex in ds.examples] == ["GetWeather", "GetWeather", "PlayMusic"]
        first = ds.examples[0]
        assert first.text == "weather in boston"
        ann = first.entities[0]
        assert (ann.start, ann.end, ann.type) == (11, 17, "city")
        assert first.text[ann.start:ann.end] == ann.value == "boston"

    def test_error_messages_carry_line_numbers(self, tmp_path):
        path = tmp_path / "d.md"
        path.write_text("## intent:A\n- ok line\nrogue text\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"d\.md:3"):
            load_markdown(path)

    def test_file_that_is_not_utf8_is_an_error(self, tmp_path):
        path = tmp_path / "d.md"
        path.write_bytes(b"## intent:X\n- caf\xe9 au lait\n")
        with pytest.raises(DataError, match=r"d\.md: not UTF-8"):
            load_markdown(path)

    def test_utterance_before_heading_is_an_error(self, tmp_path):
        path = tmp_path / "d.md"
        path.write_text("- orphan utterance\n", encoding="utf-8")
        with pytest.raises(DataError, match="before any intent heading"):
            load_markdown(path)

    def test_unbalanced_brackets_are_an_error(self, tmp_path):
        path = tmp_path / "d.md"
        path.write_text("## intent:A\n- play [jazz now\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"d\.md:2.*brackets"):
            load_markdown(path)


# The toy corpus of conftest.py in the markdown form.
_TOY_MARKDOWN = """\
## intent:PlayMusic
- play some [jazz](genre)
- play some [blues](genre)
- play [rock](genre) now
- put on some [jazz](genre)
- play some [jazz](genre) tonight
- some [jazz](genre) please

## intent:GetWeather
- weather in [boston](city)
- weather in [denver](city)
- will it rain in [boston](city)
- forecast for [denver](city) today

## intent:BookRestaurant
- book a table for [two](party_size)
- book a table for [four](party_size)
- book a spot for [six](party_size)
- reserve a table for [two](party_size)
"""


# Labels a bundle or the stream output cannot hold: a bundle's names files
# keep one label a line, the stream output is tab-separated, and the null
# class is SIUM's own.
_BAD_LABELS = [
    ("Play\tMusic", "genre"),
    ("Play\nMusic", "genre"),
    ("PlayMusic", "gen\tre"),
    ("PlayMusic", NO_ENTITY),
]


class TestLabels:
    @pytest.mark.parametrize(("intent", "etype"), _BAD_LABELS)
    def test_json_form_refuses_a_label_a_bundle_cannot_hold(self, tmp_path, intent, etype):
        entity = {"start": 5, "end": 9, "value": "jazz", "entity": etype}
        path = _write_json(
            tmp_path / "d.json",
            [{"text": "play jazz", "intent": intent, "entities": [entity]}],
        )
        label = re.escape(repr(etype if intent == "PlayMusic" else intent))
        with pytest.raises(DataError, match=rf"d\.json example 0: (intent|entity type) {label}"):
            load_json(path)

    @pytest.mark.parametrize(("intent", "etype"), _BAD_LABELS)
    def test_markdown_form_refuses_a_label_a_bundle_cannot_hold(self, tmp_path, intent, etype):
        path = tmp_path / "d.md"
        path.write_text(f"## intent:{intent}\n- play [jazz]({etype})\n", encoding="utf-8")
        if "\n" in intent:
            # A markdown label ends at its line, so the rest is a line of its own.
            match = r"d\.md:2: expected a '- ' utterance line"
        else:
            label = re.escape(repr(etype if intent == "PlayMusic" else intent))
            match = rf"d\.md:2: (intent|entity type) {label}"
        with pytest.raises(DataError, match=match):
            load_markdown(path)

    @pytest.mark.parametrize("form", ["json", "markdown"])
    @pytest.mark.parametrize(("intent", "etype"), [("[intents]", "genre"), ("PlayMusic", "[x]")])
    def test_a_label_shaped_like_a_section_heading_trains_persists_and_streams(
        self, tmp_path, capsys, monkeypatch, form, intent, etype
    ):
        """No bundle file has [section] headings, so such a label is a label."""
        markdown = _TOY_MARKDOWN.replace("intent:PlayMusic", f"intent:{intent}")
        path = tmp_path / "d.md"
        path.write_text(markdown.replace("(genre)", f"({etype})"), encoding="utf-8")
        if form == "json":
            dataset, path = load_markdown(path), tmp_path / "d.json"
            save_json(dataset, path)
        bundle = tmp_path / "bundle"
        assert main(["train", "--data", str(path), "--out", str(bundle)]) == 0
        monkeypatch.setattr("sys.stdin", io.StringIO("play\nsome\njazz\n"))
        capsys.readouterr()
        assert main(["stream", "--model", str(bundle)]) == 0
        last = capsys.readouterr().out.splitlines()[-1].split("\t")
        assert last[0] == intent and last[2] == f"{etype}:jazz:2:3"

    # A lone surrogate, as the JSON escape \ud800 gives, in each field that
    # reaches the bundle's UTF-8 files: training succeeded, and the persist
    # raised a UnicodeEncodeError with the bundle half written.
    def test_json_form_refuses_a_lone_surrogate_in_the_text(self, tmp_path):
        path = _write_json(tmp_path / "d.json", [{"text": "play \ud800", "intent": "PlayMusic"}])
        with pytest.raises(DataError, match=r"d\.json example 0: utterance text .*lone surrogate"):
            load_json(path)

    def test_json_form_refuses_a_lone_surrogate_in_the_intent(self, tmp_path):
        path = _write_json(tmp_path / "d.json", [{"text": "play jazz", "intent": "Play\ud800"}])
        with pytest.raises(DataError, match=r"d\.json example 0: intent .*lone surrogate"):
            load_json(path)

    def test_json_form_refuses_a_lone_surrogate_in_an_entity_type(self, tmp_path):
        entity = {"start": 5, "end": 9, "value": "jazz", "entity": "gen\udfffre"}
        path = _write_json(
            tmp_path / "d.json", [{"text": "play jazz", "intent": "PlayMusic", "entities": [entity]}]
        )
        with pytest.raises(DataError, match=r"d\.json example 0: entity type .*lone surrogate"):
            load_json(path)

    def test_spaces_inner_brackets_and_non_ascii_are_kept(self, tmp_path):
        path = tmp_path / "d.md"
        path.write_text("## intent:Play [the] Música\n- play [jazz](gen re])\n", encoding="utf-8")
        example = load_markdown(path).examples[0]
        assert (example.intent, example.entities[0].type) == ("Play [the] Música", "gen re]")


class TestRoundTrips:
    def test_json_and_markdown_forms_load_identically(self, tmp_path, toy_dataset):
        jp, mp = tmp_path / "d.json", tmp_path / "d.md"
        save_json(toy_dataset, jp)
        mp.write_text(_TOY_MARKDOWN, encoding="utf-8")
        from_json = load_dataset(jp)
        from_md = load_dataset(mp)
        key = lambda ds: sorted(
            (ex.text, ex.intent, tuple((a.start, a.end, a.value, a.type) for a in ex.entities))
            for ex in ds.examples
        )
        assert key(from_json) == key(from_md) == key(toy_dataset)

    def test_unknown_suffix_is_an_error(self, tmp_path):
        with pytest.raises(DataError, match="suffix"):
            load_dataset(tmp_path / "d.csv")


class TestBioProjection:
    def test_single_and_multi_token_spans(self):
        text = "weather in new york"
        anns = [EntityAnnotation(start=11, end=19, value="new york", type="city")]
        tokens, tags = bio_tags(text, anns)
        assert tokens == ["weather", "in", "new", "york"]
        assert tags == ["O", "O", "B-city", "I-city"]

    def test_misaligned_span_snaps_to_token_boundaries(self):
        # span covers only part of "boston"; the whole token gets tagged
        text = "weather in boston"
        anns = [EntityAnnotation(start=11, end=14, value="bos", type="city")]
        _, tags = bio_tags(text, anns)
        assert tags == ["O", "O", "B-city"]

    def test_every_tagging_is_a_valid_bio_sequence(self):
        rng = random.Random(31)
        for ex in [make_example(*row) for row in toy_rows()]:
            _, tags = bio_tags(ex.text, ex.entities)
            prev = "O"
            for tag in tags:
                if tag.startswith("I-"):
                    assert prev in (f"B-{tag[2:]}", tag), (ex.text, tags)
                prev = tag
        # and on a shuffled-annotation copy, order of spans must not matter
        ex = make_example("weather in new york", "GetWeather", [("new york", "city")])
        anns = list(ex.entities)
        rng.shuffle(anns)
        assert bio_tags(ex.text, anns) == bio_tags(ex.text, ex.entities)


class TestStratifiedSplit:
    def _dataset(self, sizes):
        rows = []
        for intent, n in sizes.items():
            for i in range(n):
                rows.append(TrainingExample(text=f"{intent} utt {i}", intent=intent))
        return TrainingDataset(rows)

    def test_split_is_a_partition_with_per_intent_quota(self):
        ds = self._dataset({"A": 10, "B": 5, "C": 20})
        train, test = stratified_split(ds, test_fraction=0.2, seed=3)
        assert len(train) + len(test) == len(ds)
        texts = lambda d: {ex.text for ex in d.examples}
        assert texts(train) | texts(test) == texts(ds)
        assert texts(train) & texts(test) == set()
        per_intent = {i: sum(1 for ex in test.examples if ex.intent == i) for i in "ABC"}
        assert per_intent == {"A": 2, "B": 1, "C": 4}

    def test_both_halves_see_every_intent_even_when_rounding_to_zero(self):
        ds = self._dataset({"A": 2, "B": 2})
        train, test = stratified_split(ds, test_fraction=0.1, seed=0)
        assert train.intents == test.intents == ["A", "B"]

    def test_singleton_intent_is_an_error(self):
        ds = self._dataset({"A": 5, "Lonely": 1})
        with pytest.raises(DataError, match="Lonely"):
            stratified_split(ds)

    def test_bad_fraction_is_an_error(self):
        ds = self._dataset({"A": 4})
        for frac in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DataError):
                stratified_split(ds, test_fraction=frac)

    def test_same_seed_same_split(self):
        ds = self._dataset({"A": 9, "B": 7})
        a = stratified_split(ds, seed=42)
        b = stratified_split(ds, seed=42)
        c = stratified_split(ds, seed=43)
        as_texts = lambda pair: ([e.text for e in pair[0].examples], [e.text for e in pair[1].examples])
        assert as_texts(a) == as_texts(b)
        assert as_texts(a) != as_texts(c)
