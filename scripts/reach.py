#!/usr/bin/env python3
"""List the hyperreg functions, and the lines of functions, that no CLI
command line runs.

    python3 scripts/reach.py ROOT

ROOT is the root of a hyperreg checkout, holding `src/` and `fixtures/`.
Every command line of byte_identity.py's list, plus `verify all` and
`fetch --offline LABEL` (a cache miss, so no network), runs through
`hyperreg.cli.main` in this one process, with ROOT as the working
directory, stdout and stderr captured, SystemExit caught and HYPERREG_CACHE
in a temporary directory.  `sys.settrace` records which code objects of
ROOT/src/hyperreg were called and which of their lines ran.  Then every
function definition that `ast` finds there and that never ran is printed
as `module:qualname`, and every one that ran but holds statements that
never did as `module:qualname` followed by their line ranges, one function
a line; a count goes to stderr.  `raise` statements and `except` clauses
are not listed: they are the error paths, which byte_identity.py's exit-2
and exit-3 lines reach only in part.  Standard library only.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

from byte_identity import command_lines

EXTRA_ARGVS = (["verify", "all"], ["fetch", "--offline", "tiny/label/1"])
# statements judged through the ones they hold, or not at all
_NESTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_SKIPPED = (ast.Raise, ast.ExceptHandler, ast.Global, ast.Nonlocal)


def definitions(package: Path) -> dict:
    """{(file, first line): ('module:qualname', node)} of every function under
    package; the first line is the code object's, that of the first decorator
    if any."""
    out = {}
    for path in sorted(package.rglob("*.py")):
        parts = path.relative_to(package.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[(str(path), line)] = (f"{module}:{qualname}", child)
                    walk(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def _header_end(node) -> int:
    """The last line of a statement's own code: its test, iterable or context
    managers for a compound statement, all of it for a simple one."""
    if isinstance(node, (ast.If, ast.While)):
        return node.test.end_lineno
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return node.iter.end_lineno
    if isinstance(node, (ast.With, ast.AsyncWith)):
        return node.items[-1].context_expr.end_lineno
    if isinstance(node, ast.Match):
        return node.subject.end_lineno
    if isinstance(node, ast.Try):
        return node.lineno
    return node.end_lineno


def never_ran_lines(function, lines: set) -> list:
    """[(first, last)] line ranges of the statements of function that never
    ran, given the lines that did.  A statement ran when a line of its own
    code did or a statement inside it ran; nested functions and classes are
    judged on their own, and raise statements and except clauses not at all.
    Adjacent statements that never ran share one range."""
    marks = []      # (first line, last line, ran) of each statement, in order

    def visit(statements) -> bool:
        any_ran = False
        for node in statements:
            if isinstance(node, _NESTED + _SKIPPED):
                continue
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                    and isinstance(node.value.value, str):
                continue    # a docstring runs no code
            at = len(marks)
            marks.append(None)
            inner = False
            for field in ("body", "orelse", "finalbody", "handlers", "cases"):
                for child in getattr(node, field, ()):
                    inner |= visit(child.body if isinstance(child, ast.match_case)
                                   else [child])
            ran = inner or any(n in lines for n in range(node.lineno, _header_end(node) + 1))
            marks[at] = (node.lineno, node.end_lineno, ran)
            any_ran |= ran
        return any_ran

    visit(function.body)
    ranges = []
    for first, last, ran in marks:
        if ran:
            ranges.append(None)
        elif ranges and ranges[-1] is not None:
            ranges[-1] = (ranges[-1][0], max(ranges[-1][1], last))
        else:
            ranges.append((first, last))
    return [r for r in ranges if r is not None]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.strip().splitlines()[3].strip(), file=sys.stderr)
        return 2
    root = Path(args[0]).resolve()
    package = root / "src" / "hyperreg"
    if not package.is_dir():
        print(f"error: {root} has no src/hyperreg", file=sys.stderr)
        return 2
    ran, lines = set(), set()
    prefix = str(package) + os.sep

    def trace_lines(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            ran.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
            return trace_lines
        return None

    with tempfile.TemporaryDirectory() as tmp:
        argvs, _ = command_lines(root, Path(tmp))
        argvs += [list(argv) for argv in EXTRA_ARGVS]
        os.environ["HYPERREG_CACHE"] = str(Path(tmp) / "cache")
        os.chdir(root)
        sys.path.insert(0, str(root / "src"))
        sys.settrace(trace)
        try:
            from hyperreg import cli
            for cmd in argvs:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    try:
                        cli.main(cmd)
                    except SystemExit:
                        pass
        finally:
            sys.settrace(None)
    defs = definitions(package)
    by_file = {}
    for path, n in lines:
        by_file.setdefault(path, set()).add(n)
    rows, never, partial = [], 0, 0
    for (path, first), (name, node) in defs.items():
        if (path, first) not in ran:
            rows.append(name)
            never += 1
            continue
        ranges = never_ran_lines(node, by_file.get(path, set()))
        if ranges:
            rows.append(name + " " + ", ".join(str(a) if a == b else f"{a}-{b}"
                                               for a, b in ranges))
            partial += 1
    for row in sorted(rows):
        print(row)
    print(f"{len(argvs)} command lines; {len(defs)} functions, {never} never ran, "
          f"{partial} ran with lines that never ran", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
