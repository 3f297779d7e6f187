"""``tools/code_lines.py``: what counts as a code line, and that it reads the
package."""

import pathlib
import subprocess
import sys
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "code_lines.py"

FIXTURE = textwrap.dedent(
    '''\
    """Module docstring,
    over two lines."""

    # A comment line.
    import os


    class A:
        """Class docstring."""

        x = 1  # a trailing comment keeps its line

        def f(self):
            """Function
            docstring."""
            text = """not a docstring

    # inside a string
    """
            return text


    async def g():
        """Async docstring."""
        return os.sep
    '''
)


@pytest.fixture
def code_lines(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOL.parent))
    import code_lines

    return code_lines


def test_fixture_counts(code_lines):
    # import, class, x, def f, the four lines of the string, return text,
    # async def, return os.sep.
    assert code_lines.code_lines(FIXTURE) == 11


def test_docstrings_comments_and_blanks_do_not_count(code_lines):
    assert code_lines.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0
    assert code_lines.code_lines('def f():\n    "doc"\n    return 1\n') == 2


def test_a_string_that_is_not_first_is_code(code_lines):
    assert code_lines.code_lines('x = 1\n"""a later string\nis an expression"""\n') == 3


def test_reads_the_package():
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT / "src" / "fedalign")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    *modules, total = [line.split() for line in lines]
    assert total[1] == "total"
    assert {name for _, name in modules} >= {"__init__.py", "sweep.py", "cli.py"}
    assert int(total[0]) == sum(int(n) for n, _ in modules) > 0
