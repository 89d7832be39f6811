"""Count the code lines of each module of a source tree's package.

    python3 tools/lines.py [<tree>]

A code line is any line of src/mdrkfr/*.py in <tree> (by default the tree
holding this script) that is not blank, not a comment only and not part
of a docstring, the first string statement of a module, class or
function.  Prints each module's count and the total.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# tokens that leave a line without code
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree):
    """Line numbers of every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in one module's source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", nargs="?", default=str(ROOT))
    args = parser.parse_args(argv)
    counts = {path.name: code_lines(path.read_text())
              for path in sorted(Path(args.tree, "src", "mdrkfr").glob("*.py"))}
    width = max(map(len, counts))
    for name, count in counts.items():
        print(f"{name:<{width}} {count:>6,}")
    print(f"{'total':<{width}} {sum(counts.values()):>6,}")


if __name__ == "__main__":
    main()
