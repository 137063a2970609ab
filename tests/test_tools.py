"""The tools and the demos, run as scripts the way a user runs them; the A/B
tool's summary is checked on fixed numbers; the package is scanned for
code that only the tests call."""

import ast
import importlib.util
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


def test_prefix_probe_prints_a_row_per_length():
    """Overlapping windows, the first starting at one word, each get their
    own row; the first length's ratios are 1."""
    done = _run("tools/prefix_probe.py", "--lengths", "3,8,30", "--window", "10")
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.split() == ["prefix", "parse_incremental", "ratio", "_format_result", "ratio"]
    assert [row.split()[0] for row in rows] == ["3", "8", "30"]
    assert rows[0].split()[3] == rows[0].split()[6] == "1.00"
    prefix_probe = _load_tool("prefix_probe")
    assert prefix_probe.windows([3, 8, 30], 10) == {3: range(1, 11), 8: range(4, 14), 30: range(26, 36)}


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ab_summary_on_fixed_numbers():
    """Medians, quartiles, pairs won (ties for neither), the spread test and
    the two bound tests, for a lower-is-better and a higher-is-better
    metric. A change better than the bound beats the parent's median by
    more than the bound; one within it, such as -5.9% against 15%, is not."""
    ab = _load_tool("ab")
    assert ab.parse_seeds("41-50") == list(range(41, 51))
    assert ab.parse_seeds("41,43-44") == [41, 43, 44]
    latency = {"name": "edit_us_p50", "unit": "us", "better": "lower", "bound": 0.15}
    parent = [100.0, 104.0, 96.0, 102.0, 98.0]
    row = ab.summarize(latency, parent, [80.0, 104.0, 79.0, 81.0, 78.0])
    assert (row["parent_median"], row["parent_q1"], row["parent_q3"]) == (100.0, 98.0, 102.0)
    assert row["change_median"] == 80.0 and row["change_pct"] == -20.0
    assert (row["wins"], row["pairs"]) == (4, 5)  # the tie at 104 counts for neither
    assert row["beyond_spread"] and not row["worse_than_bound"] and row["better_than_bound"]
    row = ab.summarize(latency, parent, [94.0, 95.0, 94.1, 93.9, 94.2])
    assert row["wins"] == 5 and row["beyond_spread"] and not row["better_than_bound"]
    assert "better than bound: no" in ab.format_row(row)
    row = ab.summarize(latency, parent, [116.0, 120.0, 110.0, 118.0, 112.0])
    assert row["wins"] == 0 and row["beyond_spread"] and row["worse_than_bound"]
    assert not row["better_than_bound"]
    row = ab.summarize(latency, parent, [101.0, 103.0, 99.0, 97.0, 100.0])
    assert not row["beyond_spread"] and not row["worse_than_bound"]
    rate = {"name": "edits_per_s", "unit": "edits/s", "better": "higher", "bound": 0.15}
    row = ab.summarize(rate, [1000.0, 1100.0, 900.0], [800.0, 1200.0, 700.0])
    assert row["wins"] == 1 and row["change_pct"] == -20.0 and row["worse_than_bound"]
    assert "won 1/3" in ab.format_row(row) and not row["better_than_bound"]
    row = ab.summarize(rate, [1000.0, 1100.0, 900.0], [1200.0, 1300.0, 1100.0])
    assert row["wins"] == 3 and row["better_than_bound"] and not row["worse_than_bound"]
    assert "better than bound: yes" in ab.format_row(row)


def test_fingerprint_names_the_outputs_that_moved():
    """An output moved if its exact or its rounded digest differs."""
    fingerprint = _load_tool("fingerprint")
    record = {kind: {"bundle": "b", "stream": "s", "report": "r"} for kind in ("exact", "rounded")}

    def moved(**changed):
        digests = {kind: dict(names) for kind, names in record.items()}
        for name, kind in changed.items():
            digests[kind][name] += "!"
        return fingerprint.moved(digests, record)

    assert moved() == "same as recorded"
    assert moved(bundle="exact") == "bundle moved, stream and report unchanged"
    assert moved(stream="rounded", report="exact") == "stream and report moved, bundle unchanged"
    assert moved(bundle="exact", stream="exact", report="rounded") == "bundle, stream and report moved"


# Package definitions that nothing but the tests calls, each kept for a reason.
_TEST_ONLY_KEPT = {
    "softmax": "the reference that predict's one-row arithmetic is checked against, bit for bit",
    "loss": "the objective that the gradient check differentiates by finite differences",
}


def _names_referenced(path, count_imports):
    """Every name a ``Name`` or an ``Attribute`` in the module at ``path``
    reads, or an import alias refers to. A name only assigned is not
    read."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.alias) and count_imports:
            names.add(node.name.rpartition(".")[2])
    return names


def _definitions(tree):
    """(line, name) of each function, class and method in ``tree``, and of
    each name its module body assigns."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield node.lineno, name.id


def test_every_package_definition_has_a_caller_outside_the_tests():
    """A function, class, method or module-level name of the package that
    no code in src/, tools/ or editbench/ reads is test-only code. The
    package's re-exports in __init__.py do not count as a use, and
    dunders are exempt."""
    package = ROOT / "src" / "incnlu"
    referenced = set()
    for directory in ("src", "tools", "editbench"):
        for path in (ROOT / directory).rglob("*.py"):
            referenced |= _names_referenced(path, count_imports=path != package / "__init__.py")
    unused = []
    for path in sorted(package.glob("*.py")):
        for lineno, name in _definitions(ast.parse(path.read_text(encoding="utf-8"))):
            if name.startswith("__") and name.endswith("__"):
                continue
            if name not in referenced and name not in _TEST_ONLY_KEPT:
                unused.append(f"{path.name}:{lineno} {name}")
    assert unused == [], "only the tests call: " + ", ".join(unused)
