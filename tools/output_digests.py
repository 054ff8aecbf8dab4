"""Digest the observable output of every benchmark pool command and every
README example, to show that a refactor leaves the outputs unchanged.

Each command runs in-process through `confluent_dbt.cli.main`.  Its digest
covers the exit code, stdout with every `elapsed_ms` value set to 0,
stderr, and the files the command writes (name and contents, `elapsed_ms`
zeroed).  One line per command is printed, then the total over all of them:

    PYTHONPATH=src python3 tools/output_digests.py > after.txt

Run it once on each tree (the package is imported from `PYTHONPATH`, the
command lists are read from this checkout) and compare the totals; `diff`
of the two files names the commands whose output moved.  The directory of
the package digested goes to stderr, so a run on the wrong tree shows; with
no `confluent_dbt` importable the script exits 2.  The pool file is
only read.  Pool commands each run in a fresh empty directory; the README
lines run in order in one directory, so a file one line writes (`--out
pot.json`) is read by the next, and `params.json` holds the spec fields
{"n": 1, "N": 1} for the README's `--params-file` example.

Given a saved run, only the commands whose digest differs from it, or that
only one of the two runs has, are printed, and the script exits 1 if there
is any:

    PYTHONPATH=src python3 tools/output_digests.py --against before.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import sys
import tempfile
from pathlib import Path

try:
    from confluent_dbt import cli
except ModuleNotFoundError as exc:  # PYTHONPATH=src left out
    if exc.name != "confluent_dbt":
        raise
    cli = None

ROOT = Path(__file__).resolve().parent.parent
_ELAPSED = re.compile(r'("elapsed_ms": )\d+')


def pool_commands(path: Path) -> list:
    """(id, argv) of every pool candidate, in file order."""
    pool = json.loads(path.read_text())
    return [(cid, c["argv"]) for cid, c in pool["candidates"].items()]


def readme_commands(path: Path) -> list:
    """(id, argv) of every `confluent-dbt` line of the README's sh blocks."""
    out = []
    for block in re.findall(r"```sh\n(.*?)```", path.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("confluent-dbt "):
                out.append((f"README:{' '.join(line.split())}", shlex.split(line)[1:]))
    return out


def _snapshot(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


def _zeroed(text: str) -> str:
    return _ELAPSED.sub(r"\g<1>0", text)


def run_digest(argv: list, directory: Path) -> str:
    """Digest of one in-process run of `argv` with `directory` as cwd."""
    before = _snapshot(directory)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse refusals
                code = exc.code
            except Exception as exc:  # a traceback is an output too
                code = f"raised {type(exc).__name__}: {exc}"
    finally:
        os.chdir(cwd)
    h = hashlib.sha256()
    for part in (str(code), _zeroed(out.getvalue()), err.getvalue()):
        h.update(part.encode())
        h.update(b"\0")
    for name, data in _snapshot(directory).items():
        if before.get(name) != data:
            h.update(name.encode() + b"\0")
            h.update(_zeroed(data.decode("utf-8", "replace")).encode() + b"\0")
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--pool", type=Path, default=ROOT / "perfbench" / "pool.json")
    p.add_argument("--readme", type=Path, default=ROOT / "README.md")
    p.add_argument("--against", type=Path, default=None,
                   help="a saved run: print only the commands that differ from it")
    args = p.parse_args(argv)
    saved = None
    if args.against:
        # a saved line is "<digest>  <id>"; the total line is left out
        saved = dict(
            line.split("  ", 1)[::-1]
            for line in args.against.read_text().splitlines()
            if "  " in line
        )
    if cli is None:
        print("error: cannot import confluent_dbt; run with PYTHONPATH=src "
              "from the root of a checkout", file=sys.stderr)
        return 2
    print(f"digesting {Path(cli.__file__).parent}", file=sys.stderr)
    total = hashlib.sha256()
    differ = []

    def emit(cid, digest):
        total.update(f"{digest} {cid}\n".encode())
        if saved is None or saved.pop(cid, None) != digest:
            differ.append(cid)
            print(f"{digest}  {cid}", flush=True)

    for cid, command in pool_commands(args.pool):
        with tempfile.TemporaryDirectory() as tmp:
            emit(cid, run_digest(command, Path(tmp)))
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "params.json").write_text(json.dumps({"n": 1, "N": 1}))
        for cid, command in readme_commands(args.readme):
            emit(cid, run_digest(command, Path(tmp)))
    print(f"total {total.hexdigest()}")
    if saved is None:
        return 0
    for cid in saved:  # saved but not run now
        print(f"missing  {cid}")
    count = len(differ) + len(saved)
    print(f"{count} command(s) differ from {args.against}")
    return 1 if count else 0


if __name__ == "__main__":
    sys.exit(main())
