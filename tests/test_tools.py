"""The tools and the demos, run as scripts the way a user runs them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_corpus_generator_reproduces_the_bundled_data(tmp_path):
    done = _run("tools/make_snips_subset.py", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    for name in ("snips_train.json", "snips_test.json"):
        assert (tmp_path / name).read_bytes() == (ROOT / "data" / name).read_bytes(), name


@pytest.mark.parametrize("script", ["demos/stream_walkthrough.py", "demos/compare_strategies.py"])
def test_demo_runs_to_completion(script):
    done = _run(script)
    assert done.returncode == 0, done.stderr
    assert done.stdout


_SNIPPET = '''"""Module docstring,
over two lines."""

# A comment line.
import os  # a trailing comment counts as its code line


def f(x):
    """Function docstring."""
    text = """a string
that spans two lines"""
    return (x +
            1)
'''


def test_loc_counts_lines_holding_code_tokens(tmp_path):
    path = tmp_path / "snippet.py"
    path.write_text(_SNIPPET, encoding="utf-8")
    done = _run("tools/loc.py", str(path))
    assert done.returncode == 0, done.stderr
    # import, def, the two lines of the assigned string, and the two of the return.
    assert done.stdout.splitlines() == [f"     6  {path}", "     6  total"]
