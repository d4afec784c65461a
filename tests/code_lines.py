"""Count code lines: lines holding a token that is neither a comment nor
part of a docstring.

    python tests/code_lines.py src/monoidrep

prints the total over the ``.py`` files under each path given.  Blank
lines, comment lines and the lines of module, class and function
docstrings do not count; a token spanning several lines, such as a
triple-quoted string that is not a docstring, counts on each of them.
Only the standard library's ``tokenize`` and ``ast`` are used.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.COMMENT}


def _docstring_spans(tree):
    """(start, end) positions of every module, class and function docstring."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                yield ((first.lineno, first.col_offset),
                       (first.end_lineno, first.end_col_offset))


def code_lines(source):
    """The set of numbers of the code lines in the Python source text
    ``source``, counting from 1."""
    spans = list(_docstring_spans(ast.parse(source)))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        if tok.type == tokenize.STRING and any(a <= tok.start and tok.end <= b
                                               for a, b in spans):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines


def count_paths(paths):
    """Code lines over every ``.py`` file under ``paths`` (files or folders)."""
    total = 0
    for path in map(Path, paths):
        for file in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
            total += len(code_lines(file.read_text(encoding="utf-8")))
    return total


if __name__ == "__main__":
    print(count_paths(sys.argv[1:] or ["src/monoidrep"]))
