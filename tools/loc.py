"""Count the code lines of each module of the package.

Usage: python3 tools/loc.py [PATH ...]

A code line is a line that holds a token outside comments and docstrings,
as the stdlib ``tokenize`` module reads it. A statement that is a string
literal alone, such as a module, class or function docstring, counts as a
docstring; a line inside a multi-line token counts as a code line. With no
PATH it counts every ``.py`` file under ``src/incnlu/``; a PATH that is a
directory counts the ``.py`` files under it. It prints one line per file,
then the total.
"""

from __future__ import annotations

import argparse
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "incnlu"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold a code token."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            statement.append(tok)
        elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="count code lines per module")
    parser.add_argument("paths", nargs="*", type=Path, default=[PACKAGE])
    args = parser.parse_args(argv)
    files = []  # (path, name printed)
    for path in args.paths:
        if path.is_dir():
            files.extend((p, p.relative_to(path)) for p in sorted(path.rglob("*.py")))
        else:
            files.append((path, path))
    total = 0
    for path, name in files:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
