"""List the functions of `confluent_dbt` that no benchmark pool command and
no README example calls.

The commands are the ones `output_digests.py` digests, run the same way
(in-process, through its `digests`), with a profile hook that records the
code object of every Python frame started, imports of the package
included.  A function is every named `def` in the package's source files,
methods and nested functions too (lambdas and comprehensions are left
out).  Each one that no frame ran is printed as `file:line  qualname`,
then their count:

    PYTHONPATH=src python3 tools/unreached.py

The list is evidence for a review, not a deletion order: a function can
be unreached by the commands and still serve the library's callers or a
test that pins a property of it.
"""

from __future__ import annotations

import inspect
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _defined(path: Path) -> list:
    """The key of every named function compiled from the source file `path`
    (class bodies are not optimized code, so they are left out)."""
    out, todo = [], [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        todo.extend(c for c in code.co_consts if inspect.iscode(c))
        if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
            out.append(_key(code))
    return out


def _key(code) -> tuple:
    """(file, first line, qualname): the same for a code object compiled
    here and the one the interpreter ran."""
    return os.path.realpath(code.co_filename), code.co_firstlineno, code.co_qualname


def main() -> int:
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        import output_digests  # imports the package under the hook

        if output_digests.cli is None:
            print("error: cannot import confluent_dbt; run with PYTHONPATH=src "
                  "from the root of a checkout", file=sys.stderr)
            return 2
        for _ in output_digests.digests(ROOT / "perfbench" / "pool.json",
                                        ROOT / "README.md"):
            pass
    finally:
        sys.setprofile(None)
    package = Path(output_digests.cli.__file__).resolve().parent
    print(f"tracing {package}", file=sys.stderr)
    defined = {key for path in package.glob("*.py") for key in _defined(path)}
    unreached = sorted(defined - {_key(code) for code in called})
    for file, line, name in unreached:
        print(f"{Path(file).relative_to(package.parent)}:{line}  {name}")
    print(f"{len(unreached)} function(s) no command calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())
