"""tools/codelines.py: which lines of a module count as code."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "codelines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("codelines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
over two lines."""

# a comment
import math  # a trailing comment


class A:
    """Class docstring."""

    x = """not a docstring,
    but a value"""

    def f(self, a,
          b):
        """Function docstring."""
        return math.pi * (a
                          + b)
'''


def test_counts_lines_with_a_token_other_than_a_comment_or_a_docstring():
    # import; class; x = over two lines; def over two lines; return over two
    assert load_tool().code_lines(SOURCE) == 8


def test_counts_every_module_of_the_package(capsys):
    tool = load_tool()
    assert tool.main([str(TOOL.parents[1])]) == 0
    lines = capsys.readouterr().out.splitlines()
    modules = sorted(p.name for p in (TOOL.parents[1] / "src" / "fresnet").glob("*.py"))
    assert [line.split()[0] for line in lines] == modules + ["total"]
    counts = [int(line.split()[1]) for line in lines]
    assert counts[-1] == sum(counts[:-1])
