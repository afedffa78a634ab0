"""The statements of ``src/frameattn`` that no test runs.

    python3 tests/line_trace.py

Runs the suite that ``pytest`` collects from the repository root (``tests``
and ``perfbench``) in this process, with ``sys.settrace`` recording the
lines run in ``src/frameattn`` only, and ``-p no:cacheprovider`` so that
the run writes no cache into the checkout. Code run in a subprocess or
another thread is not seen. A statement is every ``ast`` statement but a
docstring; it ran if any of its lines ran (a compound statement's lines
end before its body, a decorated definition's start at its first
decorator). Prints every statement that did not run, as ``module:line``
and its source text. Exits 0 when every test passed and every statement
ran, 1 otherwise. Not collected by pytest; it takes about twice the
suite's time.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from pathlib import Path

import pytest

from code_lines import ROOT, docstring_lines

SRC = ROOT / "src" / "frameattn"


def statements(source: str) -> list[tuple[int, int, str]]:
    """(first line, last line, text) of every statement of a module's source
    but its docstrings, in line order."""
    tree = ast.parse(source)
    docs = docstring_lines(tree)
    lines = source.splitlines()
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or node.lineno in docs:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = max(first, body[0].lineno - 1) if body else node.end_lineno
        found.append((first, last, " ".join(" ".join(lines[first - 1:last]).split())))
    return sorted(found)


def traced_run(args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """pytest's exit code for `args` and the (module, line) pairs run in SRC."""
    # One byte a source line, set once the line runs: a line event
    # allocates nothing, so the trace adds nothing to what the tests'
    # tracemalloc bounds measure (a growing set of the lines run would, at
    # each of its resizes).
    hits = {path.name: bytearray(len(path.read_bytes().splitlines()) + 1)
            for path in SRC.glob("*.py")}
    tracers = {}   # a code object's file name -> its line tracer, None outside SRC

    def tracer(lines: bytearray):
        def line(frame, event, arg):
            if event == "line":
                lines[frame.f_lineno] = 1
            return line
        return line

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in tracers:
            path = Path(name).resolve()
            tracers[name] = tracer(hits[path.name]) if path.parent == SRC else None
        return tracers[name]

    sys.settrace(call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(code), {(module, line) for module, lines in hits.items()
                       for line, hit in enumerate(lines) if hit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)
    os.chdir(ROOT)
    code, ran = traced_run(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"])
    package = sys.modules.get("frameattn")
    if package is None or Path(package.__file__).resolve().parent != SRC:
        print(f"the tests did not import frameattn from {SRC}", file=sys.stderr)
        return 2
    unran = []
    for path in sorted(SRC.glob("*.py")):
        for first, last, text in statements(path.read_text()):
            if not any((path.name, line) in ran for line in range(first, last + 1)):
                unran.append((path.name, first, text))
    print(f"\n{len(unran)} statements of {SRC.relative_to(ROOT)} ran in no test")
    for module, line, text in unran:
        print(f"{module}:{line}: {text}")
    if code:
        print(f"pytest exited {code}")
    return 1 if unran or code else 0


if __name__ == "__main__":
    raise SystemExit(main())
