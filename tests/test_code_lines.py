"""The code-line rule of ``tests/code_lines.py``: a line counts when it
holds a token that is neither a comment nor part of a docstring."""

from code_lines import code_lines, count_paths

SOURCE = '''"""Module docstring,
on two lines."""

import os  # a code line with a comment counts


# a comment line does not
def f(x):
    """Function docstring."""
    s = """a string that is not a docstring
counts on each of its lines"""
    "nor is a string statement after the first"
    return (x +
            1)


class C:
    """Class docstring."""

    async def g(self):
        """Async function docstring."""

    def h(self): """a docstring on the line of its def"""
'''

COUNTED = [4, 8, 10, 11, 12, 13, 14, 17, 20, 23]


def test_code_lines_counts_by_the_rule():
    assert sorted(code_lines(SOURCE)) == COUNTED


def test_count_paths_sums_files_and_folders(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n", encoding="utf-8")
    assert count_paths([tmp_path / "pkg", tmp_path / "b.py"]) == len(COUNTED) + 1
