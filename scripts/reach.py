#!/usr/bin/env python3
"""List the hyperreg functions that no CLI command line runs.

    python3 scripts/reach.py ROOT

ROOT is the root of a hyperreg checkout, holding `src/` and `fixtures/`.
Every command line of byte_identity.py's list, plus `verify all` and
`fetch --offline LABEL` (a cache miss, so no network), runs through
`hyperreg.cli.main` in this one process, with ROOT as the working
directory, stdout and stderr captured, SystemExit caught and HYPERREG_CACHE
in a temporary directory.  `sys.setprofile` records which code objects of
ROOT/src/hyperreg were called.  Then every function definition that `ast`
finds there and that never ran is printed as `module:qualname`, one a line,
and a count goes to stderr.  Standard library only.
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


def definitions(package: Path) -> dict:
    """{(file, first line): 'module:qualname'} of every function under package;
    the first line is the code object's, that of the first decorator if any."""
    out = {}
    for path in sorted(package.rglob("*.py")):
        parts = path.relative_to(package.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[(str(path), line)] = f"{module}:{qualname}"
                    walk(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    root = Path(args[0]).resolve()
    package = root / "src" / "hyperreg"
    if not package.is_dir():
        print(f"error: {root} has no src/hyperreg", file=sys.stderr)
        return 2
    ran = set()
    prefix = str(package) + os.sep

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(prefix):
            ran.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    with tempfile.TemporaryDirectory() as tmp:
        argvs, _ = command_lines(root, Path(tmp))
        argvs += [list(argv) for argv in EXTRA_ARGVS]
        os.environ["HYPERREG_CACHE"] = str(Path(tmp) / "cache")
        os.chdir(root)
        sys.path.insert(0, str(root / "src"))
        sys.setprofile(profile)
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
            sys.setprofile(None)
    defs = definitions(package)
    never = sorted(name for key, name in defs.items() if key not in ran)
    for name in never:
        print(name)
    print(f"{len(argvs)} command lines; {len(defs)} functions, {len(never)} never ran",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
