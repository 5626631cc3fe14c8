"""Count the code lines of the fresnet package.

    python3 tools/codelines.py [ROOT]

ROOT is a fresnet source tree (default: the one holding this script).  A
code line of ``src/fresnet/*.py`` is one that holds a token other than a
comment or a docstring (the string that opens a module, class or
function body); blank lines, comment lines and docstring lines do not
count, and a statement split over several lines counts each of them.
Prints one line per module and the total.
"""

import ast
import io
import pathlib
import sys
import tokenize

#: Tokens that are no code: layout, comments and the end of the file.
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_starts(tree) -> set:
    """(line, column) of every docstring's first character."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                starts.add((body[0].lineno, body[0].col_offset))
    return starts


def code_lines(source: str) -> int:
    docstrings = docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in SKIP or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = pathlib.Path(argv[0] if argv else pathlib.Path(__file__).parent.parent)
    total = 0
    for path in sorted((root / "src" / "fresnet").glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:16} {count:5}")
    print(f"{'total':16} {total:5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
