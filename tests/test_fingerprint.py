"""The committed fingerprint: every output of the seed-13 pipeline, digested
by ``tools/fingerprint.py``. A change that moves an output bit fails here."""

import importlib.util
from pathlib import Path

from incnlu.iu import EditType

from conftest import spy_process

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("fingerprint", ROOT / "tools" / "fingerprint.py")
fingerprint = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fingerprint)


def test_outputs_match_the_committed_fingerprint():
    """The exact digests are compared where Python, numpy and the machine
    are those the record was made on, else the 12-digit ones."""
    record = fingerprint.recorded()
    here = fingerprint.environment()
    exact = all(record["environment"][key] == here[key] for key in ("python", "numpy", "machine"))
    kind = "exact" if exact else "rounded"
    print(f"fingerprint: comparing the {kind} digests, recorded on "
          f"{record['environment']}, running on {here}")
    assert fingerprint.fingerprint(rounded=not exact) == record["digests"][kind]


def test_the_edit_script_takes_the_redo_path(toy_interp):
    """The script's REVOKE-then-ADD redos and its revoke runs re-add words
    with no component run, so the digests pin that path too: some of those
    ADDs republish the board a restore parked, some one a REVOKE that ran
    the components parked: of two redos in a row, at most one pops the
    record of a restore, which only the first REVOKE of a run makes. Some
    REVOKEs that empty the prefix restore its publication, too."""
    session = toy_interp.fresh_copy()
    calls = spy_process(session)
    redos = in_a_row = restored_empty = 0
    last = None  # the step before, and whether it ran a component
    for step in fingerprint.edit_script():
        calls.clear()
        if step[0] == "new":
            session.new_utterance()
        elif step[0] == "refresh":
            session.refresh()
        else:
            session.parse_incremental(*step)
        redo = step[0] is EditType.ADD and not calls
        redos += redo
        in_a_row += redo and last == (EditType.ADD, False)
        restored_empty += step[0] is EditType.REVOKE and not calls and not session.board.buffer.units
        last = step[0], bool(calls)
    assert redos > 0 and in_a_row > 0 and restored_empty > 0
