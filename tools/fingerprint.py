"""Digest every output of the seed-13 pipeline, to tell when a bit moves.

Usage: python3 tools/fingerprint.py [--write]

Trains the bundle ``incnlu train --data data/snips_train.json --seed 13``
writes, and digests:

- ``bundle``: every file of that bundle, by relative path, a ``.npy``
  file as the text of its values, floats or integers;
- ``stream``: one fixed, seeded edit script over the test split, streamed
  through the loaded bundle twice: once through ``parse_incremental``, and
  once with every edit run through each component's ``process``, as a
  caller that never takes the interpreter's REVOKE-after-ADD restore or
  its redo of a revoked word does.
  After each edit it digests the ``repr`` of ``current_result()`` and of
  every ``component_result()``;
- ``report``: ``incnlu eval --report`` on the test split, without its
  ``runtime_seconds`` line.

Each has an exact digest and one over the same text with every float
literal rounded to 12 significant digits, and those below 1e-12 in
magnitude to 0: what a last-bit difference between numpy versions moves,
such as the ``eval`` report's posterior deviation of 2.2e-16, does not
show there. The committed digests, with the
Python and numpy versions and the platform they were made on, are in
``tests/fingerprint.json``; ``tests/test_fingerprint.py`` recomputes and
compares them. Without ``--write`` the tool prints the digests, names
which of ``bundle``, ``stream`` and ``report`` moved (an exact or a rounded
digest differs from the committed one), and exits 1 if any did; with it,
it rewrites the file. A change that moves outputs on purpose rewrites the
file and says why.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import random
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from incnlu import EditType, load_dataset, tokenize  # noqa: E402
from incnlu.cli import main as cli  # noqa: E402
from incnlu.interpreter import load  # noqa: E402

TRAIN = ROOT / "data" / "snips_train.json"
TEST = ROOT / "data" / "snips_test.json"
RECORD = ROOT / "tests" / "fingerprint.json"
SEED = 13
SCRIPT_SEED = 2024
SESSION_UTTERANCES = 4
MAX_REVOKE_RUN = 24
ADD, REVOKE = EditType.ADD, EditType.REVOKE
# A float literal as ``repr`` writes one: it has a point or an exponent.
_FLOAT = re.compile(r"-?\d+(?:\.\d+(?:e[-+]\d+)?|e[-+]\d+)")


def environment() -> dict:
    """What the exact digests depend on besides the code."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def _round(literal: str) -> str:
    value = float(literal)
    return format(value, ".12g") if abs(value) >= 1e-12 else "0"


class Digest:
    """A sha256 over texts, each with its float literals rounded as the
    module says if ``rounded``."""

    def __init__(self, rounded: bool) -> None:
        self.rounded = rounded
        self.sha = hashlib.sha256()

    def update(self, text: str) -> None:
        if self.rounded:
            text = _FLOAT.sub(lambda m: _round(m[0]), text)
        self.sha.update(text.encode("utf-8") + b"\0")


def _file_text(path: Path) -> str:
    """A bundle file's text; a ``.npy`` file's is its values, one row a
    line of tab-separated ``repr`` numbers (a 1-D array's row is one value),
    so the rounded digest rounds the floats."""
    if path.suffix != ".npy":
        return path.read_text(encoding="utf-8")
    values = np.load(path, allow_pickle=False)
    rows = values.reshape(values.shape[0], math.prod(values.shape[1:])).tolist()
    return "\n".join("\t".join(map(repr, row)) for row in rows)


def edit_script(seed: int = SCRIPT_SEED) -> list[tuple]:
    """The test split in sessions of SESSION_UTTERANCES utterances, as steps:
    ("new",), ("refresh",), (ADD, word) and (REVOKE, None). Every session
    starts on the empty prefix's publication, which half of them refresh
    first.

    Before a true word there may come a burst of wrong words, added and
    revoked with nesting up to three deep; after one, a redo (REVOKE, then
    the same ADD), a refresh, or a run of up to MAX_REVOKE_RUN REVOKEs whose
    words are then added again. Every session ends on its true words.
    """
    rng = random.Random(seed)
    utterances = [tokenize(ex.text, lowercase=False) for ex in load_dataset(TEST).examples]
    wrong = sorted({w for ex in load_dataset(TRAIN).examples for w in tokenize(ex.text)})
    wrong += ["zubat", "Boston", "7", "Play"]
    steps: list[tuple] = []
    for first in range(0, len(utterances), SESSION_UTTERANCES):
        steps.append(("new",))
        if rng.random() < 0.5:
            steps.append(("refresh",))
        words = [w for utt in utterances[first:first + SESSION_UTTERANCES] for w in utt]
        for n, word in enumerate(words):
            if rng.random() < 0.3:
                depth = 0
                for _ in range(rng.randint(1, 6)):
                    if depth < 3 and (depth == 0 or rng.random() < 0.5):
                        steps.append((ADD, rng.choice(wrong)))
                        depth += 1
                    else:
                        steps.append((REVOKE, None))
                        depth -= 1
                steps += [(REVOKE, None)] * depth
            steps.append((ADD, word))
            roll = rng.random()
            if roll < 0.1:
                steps += [(REVOKE, None), (ADD, word)]
            elif roll < 0.15:
                steps.append(("refresh",))
            elif roll < 0.2:
                back = rng.randint(1, min(MAX_REVOKE_RUN, n + 1))
                steps += [(REVOKE, None)] * back
                steps += [(ADD, w) for w in words[n + 1 - back:n + 1]]
    return steps


def _process_every_edit(interp, edit, word):
    board = interp.board
    unit = board.apply_edit(edit, word)
    board.begin_cycle()
    for comp in interp.components:
        comp.process(board, edit, unit.word)


def stream(interp, steps: list[tuple], digest: Digest) -> None:
    """Digest the results after each step, through ``parse_incremental``
    and again through every component's ``process``."""
    names = [comp.name for comp in interp.components]
    for every_process in (False, True):
        session = interp.fresh_copy()
        for step in steps:
            if step[0] == "new":
                session.new_utterance()
            elif step[0] == "refresh":
                session.refresh()
            elif every_process:
                _process_every_edit(session, *step)
            else:
                session.parse_incremental(*step)
            views = [session.current_result()] + [session.component_result(n) for n in names]
            digest.update("\n".join(map(repr, views)))


def fingerprint(rounded: bool = False) -> dict[str, str]:
    """The exact digests, or with ``rounded`` the 12-digit ones."""
    digests = {name: Digest(rounded) for name in ("bundle", "stream", "report")}
    with tempfile.TemporaryDirectory() as tmp:
        bundle, report = Path(tmp) / "bundle", Path(tmp) / "report.kv"
        with contextlib.redirect_stdout(io.StringIO()):
            cli(["train", "--data", str(TRAIN), "--out", str(bundle), "--seed", str(SEED)])
            cli(["eval", "--model", str(bundle), "--test", str(TEST), "--report", str(report)])
        for path in sorted(p for p in bundle.rglob("*") if p.is_file()):
            digests["bundle"].update(str(path.relative_to(bundle)))
            digests["bundle"].update(_file_text(path))
        lines = report.read_text(encoding="utf-8").splitlines()
        digests["report"].update("\n".join(l for l in lines if not l.startswith("runtime_seconds=")))
        stream(load(bundle), edit_script(), digests["stream"])
    return {name: digest.sha.hexdigest() for name, digest in digests.items()}


def recorded() -> dict:
    return json.loads(RECORD.read_text(encoding="utf-8"))


def _listed(names: list[str]) -> str:
    return " and ".join(filter(None, (", ".join(names[:-1]), names[-1])))


def moved(digests: dict, record: dict) -> str:
    """Which of the digested outputs differ between ``digests`` and
    ``record``, both as ``{"exact": ..., "rounded": ...}``, in words:
    "bundle moved, stream and report unchanged"."""
    names = list(record["exact"])
    changed = [name for name in names if any(digests[kind][name] != record[kind][name] for kind in record)]
    if not changed:
        return "same as recorded"
    kept = [name for name in names if name not in changed]
    return f"{_listed(changed)} moved" + (f", {_listed(kept)} unchanged" if kept else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="digest the seed-13 pipeline's outputs")
    parser.add_argument("--write", action="store_true", help=f"rewrite {RECORD.relative_to(ROOT)}")
    args = parser.parse_args(argv)
    digests = {"exact": fingerprint(), "rounded": fingerprint(rounded=True)}
    print(json.dumps(digests, indent=2))
    if args.write:
        record = {"environment": environment(), "digests": digests}
        RECORD.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {RECORD}")
        return 0
    record = recorded()["digests"]
    print(f"{moved(digests, record)}, against {RECORD.relative_to(ROOT)}")
    return 0 if digests == record else 1


if __name__ == "__main__":
    sys.exit(main())
