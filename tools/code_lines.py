"""Print the code lines of each module of a package, `src/combings` by
default, and their total: the lines that hold a token, less blank lines,
comments and the docstrings of modules, classes and functions.

    python tools/code_lines.py [package directory]
"""

import ast
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    with path.open("rb") as f:
        tokens = [tok for tok in tokenize.tokenize(f.readline) if tok.type not in LAYOUT]
    return len({row for tok in tokens for row in range(tok.start[0], tok.end[0] + 1)} - docstrings)


if __name__ == "__main__":
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parents[1] / "src/combings"
    counts = {path.name: code_lines(path) for path in sorted(root.glob("*.py"))}
    for name, count in [*counts.items(), ("total", sum(counts.values()))]:
        print(f"{count:6d}  {name}")
