"""Line counts of the ``src/frameattn`` modules: all lines and code lines.

    python3 tests/code_lines.py
    python3 tests/code_lines.py --parent DIR

A code line is a line that holds a token of code: blank lines, comment
lines and the lines of docstrings (the string that opens a module, class
or function body) are not code lines. Prints, per module and in total, the
line count (as ``wc -l`` gives it) and the code-line count. With
``--parent DIR``, the root of another checkout (for example the parent
commit, made with ``git archive``), it also prints that checkout's counts
and the change; a module that one side lacks counts 0 there. Both roots
are printed first. A DIR that is this checkout itself, or that holds no
``src/frameattn``, is refused with exit code 2. Not collected by pytest.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers taken by the docstrings of a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def counts(source: str) -> tuple[int, int]:
    """(lines, code lines) of one module's source."""
    docs = docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code - docs)


def tree_counts(root: Path) -> dict[str, tuple[int, int]]:
    """Counts of every module of root/src/frameattn, by file name."""
    return {path.name: counts(path.read_text())
            for path in sorted((root / "src" / "frameattn").glob("*.py"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="root of the checkout to compare with")
    args = parser.parse_args(argv)
    if args.parent and args.parent.resolve() == ROOT:
        parser.error(f"--parent {args.parent} is this checkout")
    if args.parent and not (args.parent / "src" / "frameattn").is_dir():
        parser.error(f"--parent {args.parent} holds no src/frameattn")
    change = tree_counts(ROOT)
    parent = tree_counts(args.parent) if args.parent else {}
    rows = [(name, change.get(name, (0, 0)), parent.get(name, (0, 0)))
            for name in sorted(set(change) | set(parent))]
    total = [sum(lines) for lines in zip(*(c + p for _, c, p in rows))]
    rows.append(("total", tuple(total[:2]), tuple(total[2:])))
    if not args.parent:
        print(f"{'module':<16}{'lines':>7}{'code':>7}")
        for name, (lines, code), _ in rows:
            print(f"{name:<16}{lines:>7}{code:>7}")
        return 0
    print(f"parent: {args.parent.resolve()}\nchange: {ROOT}")
    print(f"{'module':<16}{'lines':^18}{'code':^18}")
    for name, (lines, code), (p_lines, p_code) in rows:
        print(f"{name:<16}{p_lines:>5} -> {lines:<5}{lines - p_lines:+4}"
              f"{p_code:>5} -> {code:<5}{code - p_code:+4}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
