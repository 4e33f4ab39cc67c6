"""Tests of ``tools/code_lines.py``: what counts as a code line."""

import importlib
import os
import textwrap

import pytest

TOOLS = os.path.join(os.path.dirname(__file__), "..", "tools")


@pytest.fixture
def code_lines(monkeypatch):
    monkeypatch.syspath_prepend(TOOLS)
    return importlib.import_module("code_lines")


def test_docstrings_comments_and_blank_lines_count_zero(code_lines):
    """Module, class, function and coroutine docstrings, one line or
    several, comments and blank lines are not code: only the three
    definition lines count."""
    source = textwrap.dedent('''\
        """The module's docstring,
        on two lines."""

        # a comment


        class A:
            """The class's docstring."""

            def f(self):
                """The method's
                docstring."""
                # a comment


        async def g():
            """The coroutine's docstring."""
        ''')
    assert code_lines.code_lines(source) == 3


def test_other_strings_count_each_non_blank_line(code_lines):
    """A string that spans lines and is not a docstring counts on each of
    its non-blank lines, a statement that spans lines on each of its
    lines, and a line with code and a comment once."""
    source = textwrap.dedent('''\
        x = 1   # code, then a comment
        """Not a docstring: the module's first statement is x = 1,

        so these two non-blank lines count."""


        def f():
            """The docstring."""
            text = """first

            third"""
            return (text,
                    x)
        ''')
    # x = 1; the string's 2 non-blank lines; def; text's 2; return's 2
    assert code_lines.code_lines(source) == 8


def test_main_prints_each_module_and_the_total(code_lines, tmp_path, capsys):
    """One line per module of the package, by name, then the total; other
    files are skipped."""
    (tmp_path / "b.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "a.py").write_text('"""Doc."""\n\nz = 3  # z\n')
    (tmp_path / "notes.txt").write_text("not = python\n")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["a.py", "1"], ["b.py", "2"], ["total", "3"]]


def test_default_is_the_package_under_src(code_lines, capsys):
    """Without an argument it counts this checkout's package, every
    module of it, and the total is their sum."""
    package = os.path.join(os.path.dirname(__file__), "..", "src", "solitonforge")
    assert code_lines.main([]) == 0
    *rows, total = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [name for name, _ in rows] == sorted(
        name for name in os.listdir(package) if name.endswith(".py"))
    assert total[0] == "total"
    assert int(total[1]) == sum(int(count) for _, count in rows) > 0
