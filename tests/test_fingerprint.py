"""The committed fingerprint: every output of the seed-13 pipeline, digested
by ``tools/fingerprint.py``. A change that moves an output bit fails here."""

import importlib.util
from pathlib import Path

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
