"""Build the bundled SNIPS-style training corpus.

Generates 700 synthetic utterances (100 per intent, 7 intents) from hand
written templates with slot pools, and writes them as a seeded 560/140
stratified split: snips_train.json and snips_test.json.
The intent inventory and corpus size mirror the public SNIPS benchmark
subset this package's evaluation setup is modelled on; the texts themselves
are synthetic so the repository carries no third-party data.

Slot values are drawn from small pools on purpose: entity words must recur
often enough that a per-word generative model can clear its extraction
threshold, the same way city names recur in the real benchmark.

Usage: python tools/make_snips_subset.py [--out data] [--seed 13]
"""

from __future__ import annotations

import argparse
import random
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from incnlu import EntityAnnotation, TrainingDataset, TrainingExample, save_json, stratified_split

_SLOT_RE = re.compile(r"\{(\w+)\}")

CITIES = [
    "boston", "chicago", "denver", "portland", "san francisco", "new york",
    "austin", "seattle", "miami", "nashville",
]
TIME_RANGES = ["tonight", "tomorrow", "today", "this weekend", "this evening", "next friday"]
ARTISTS = [
    "nina simone", "john coltrane", "billie holiday", "miles davis",
    "etta james", "chet baker", "sam cooke", "otis redding",
]
GENRES = ["jazz", "blues", "soul", "funk", "reggae", "bluegrass", "techno", "swing"]
SERVICES = ["spotify", "deezer", "pandora", "youtube"]
PLAYLISTS = [
    "morning coffee", "road trip", "deep focus", "workout mix",
    "dinner party", "lazy sunday", "study beats", "summer hits",
]
MUSIC_ITEMS = ["song", "track", "tune", "album"]
CUISINES = ["italian", "mexican", "thai", "indian", "french", "japanese", "greek", "korean"]
RESTAURANT_TYPES = ["restaurant", "bistro", "brasserie", "pub", "diner", "steakhouse"]
PARTY_SIZES = ["two", "three", "four", "five", "six", "seven", "eight"]
RATING_VALUES = ["one", "two", "three", "four", "five", "zero"]
RATING_UNITS = ["stars", "points"]
BOOK_TITLES = [
    "the silent harbor", "winter crossing", "a brief eternity", "the glass orchard",
    "midnight cartography", "the last lighthouse", "paper mountains", "the salt garden",
]
CREATIVE_TITLES = [
    "the hidden fortress", "garden state", "night train", "the blue hour",
    "american fable", "the paper chase", "falling water", "harvest moon",
]
OBJECT_TYPES = ["movie", "book", "song", "television show", "album", "novel"]
MOVIE_NAMES = [
    "the iron harvest", "a quiet divide", "the long meadow", "stolen spring",
    "the violet hour", "second sunrise", "the hollow crown", "river and stone",
]
LOCATION_NAMES = [
    "the grand cinema", "star theatre", "the majestic", "riverside multiplex",
    "the orpheum", "city lights cinema",
]

POOLS = {
    "city": CITIES,
    "timeRange": TIME_RANGES,
    "artist": ARTISTS,
    "genre": GENRES,
    "service": SERVICES,
    "playlist": PLAYLISTS,
    "music_item": MUSIC_ITEMS,
    "cuisine": CUISINES,
    "restaurant_type": RESTAURANT_TYPES,
    "party_size_number": PARTY_SIZES,
    "rating_value": RATING_VALUES,
    "rating_unit": RATING_UNITS,
    "book_title": BOOK_TITLES,
    "creative_title": CREATIVE_TITLES,
    "object_type": OBJECT_TYPES,
    "movie_name": MOVIE_NAMES,
    "location_name": LOCATION_NAMES,
}

# Pool keys that need a different entity label in the output.
ENTITY_LABEL = {
    "book_title": "object_name",
    "creative_title": "object_name",
}

TEMPLATES = {
    "AddToPlaylist": [
        "add this {music_item} to my {playlist} playlist",
        "add {artist} to the {playlist} playlist",
        "put this {music_item} on {playlist}",
        "add the {music_item} by {artist} to {playlist}",
        "please add {artist} to {playlist}",
        "put {artist} onto my {playlist} playlist",
        "add a {music_item} to the {playlist} playlist",
    ],
    "BookRestaurant": [
        "book a {restaurant_type} for {party_size_number}",
        "book a table for {party_size_number} at a {cuisine} {restaurant_type}",
        "reserve a {restaurant_type} in {city} for {party_size_number}",
        "book a {cuisine} {restaurant_type} in {city}",
        "i need a table for {party_size_number} people {timeRange}",
        "find me a {restaurant_type} for {party_size_number} {timeRange}",
        "reserve a table at a {cuisine} place in {city}",
    ],
    "GetWeather": [
        "what is the weather in {city}",
        "will it rain in {city} {timeRange}",
        "weather forecast for {city} {timeRange}",
        "how cold will it be in {city}",
        "tell me the forecast for {timeRange} in {city}",
        "is it going to snow in {city} {timeRange}",
        "what will the weather be like {timeRange}",
    ],
    "PlayMusic": [
        "play some {genre} music",
        "play {artist} on {service}",
        "play the latest {music_item} by {artist}",
        "put on some {genre}",
        "play {genre} from {service}",
        "i want to hear {artist}",
        "play the {music_item} by {artist} on {service}",
    ],
    "RateBook": [
        "rate it {rating_value} {rating_unit}",
        "rate {book_title} {rating_value} {rating_unit}",
        "give {book_title} {rating_value} {rating_unit}",
        "give this book {rating_value} out of six {rating_unit}",
        "rate the current novel {rating_value} {rating_unit}",
        "i give {book_title} a rating of {rating_value}",
        "rate this book {rating_value} {rating_unit}",
    ],
    "SearchCreativeWork": [
        "find the {object_type} {creative_title}",
        "show me the {object_type} called {creative_title}",
        "i want to watch {creative_title}",
        "look for the {object_type} {creative_title}",
        "can you find {creative_title}",
        "search for the {object_type} named {creative_title}",
        "find me the {object_type} {creative_title}",
    ],
    "SearchScreeningEvent": [
        "what movies are playing at {location_name}",
        "is {movie_name} showing at {location_name}",
        "find movie schedules at {location_name} {timeRange}",
        "when is {movie_name} playing {timeRange}",
        "show me the showtimes for {movie_name}",
        "movie times at {location_name}",
        "where can i see {movie_name} {timeRange}",
    ],
}

# Fixed examples the walkthroughs rely on; generated first so they are
# always part of the corpus.
PINNED = {
    "BookRestaurant": "book a {restaurant_type} for {party_size_number}",
    "RateBook": "rate it {rating_value} {rating_unit}",
}
PINNED_VALUES = {
    "restaurant_type": "restaurant",
    "party_size_number": "two",
    "rating_value": "five",
    "rating_unit": "stars",
}


def fill(template: str, values: dict[str, str]) -> TrainingExample:
    text = []
    entities = []
    cursor = 0
    length = 0
    for match in _SLOT_RE.finditer(template):
        before = template[cursor:match.start()]
        text.append(before)
        length += len(before)
        slot = match.group(1)
        value = values[slot]
        entities.append(
            EntityAnnotation(
                start=length,
                end=length + len(value),
                value=value,
                type=ENTITY_LABEL.get(slot, slot),
            )
        )
        text.append(value)
        length += len(value)
        cursor = match.end()
    text.append(template[cursor:])
    return TrainingExample(text="".join(text), intent="", entities=entities)


def generate(seed: int, per_intent: int = 100) -> TrainingDataset:
    rng = random.Random(seed)
    examples = []
    for intent in sorted(TEMPLATES):
        seen = set()
        produced = 0
        if intent in PINNED:
            ex = fill(PINNED[intent], PINNED_VALUES)
            ex.intent = intent
            examples.append(ex)
            seen.add(ex.text)
            produced += 1
        templates = TEMPLATES[intent]
        attempts = 0
        while produced < per_intent:
            attempts += 1
            template = templates[(produced + attempts) % len(templates)]
            values = {
                slot: rng.choice(POOLS[slot]) for slot in _SLOT_RE.findall(template)
            }
            ex = fill(template, values)
            # Allow duplicates only once sampling has clearly saturated.
            if ex.text in seen and attempts < per_intent * 20:
                continue
            ex.intent = intent
            seen.add(ex.text)
            examples.append(ex)
            produced += 1
    return TrainingDataset(examples)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="data", help="output directory (default: data)")
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--per-intent", type=int, default=100)
    args = parser.parse_args()

    dataset = generate(args.seed, args.per_intent)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    train, test = stratified_split(dataset, test_fraction=0.2, seed=args.seed)
    save_json(train, out / "snips_train.json")
    save_json(test, out / "snips_test.json")
    print(
        f"wrote {len(dataset)} examples ({len(train)} train / {len(test)} test) "
        f"across {len(dataset.intents)} intents to {out}/"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
