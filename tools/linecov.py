"""Lines of src/ordrank that a pytest run never executes, with the stdlib only.

Usage, from the root of a checkout:

    python3 tools/linecov.py --out linecov.txt [--source src/ordrank] [-- PYTEST_ARGS]

The run is `pytest.main(PYTEST_ARGS)` with the `LineTrace` plugin, which
traces with `sys.settrace` (and `threading.settrace`) from before pytest
imports anything until the session ends, recording each line executed in
a `.py` file under the source directory; every other frame gets no line
events.  A module's lines with code are the line numbers of
its compiled code objects, nested ones included, so a `def` counts as run
when the module defines it.  Only this process is traced: what a test runs
in a child process (the CLI golden tests run `ordrank reproduce` that way)
reads as never run.  The report, written to the --out path and
nowhere else, lists per module how many of its lines with code never ran,
then each such line with its text.  The exit status is pytest's.
"""
from __future__ import annotations

import argparse
import dis
import sys
import threading
from pathlib import Path


def code_lines(path: Path) -> set[int]:
    """The line numbers that carry code in a Python source file."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(n for _, n in dis.findlinestarts(code) if n)  # a module starts at 0
        stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return lines


class LineTrace:
    """A pytest plugin that records the executed lines of the `.py` files
    under `source` and writes the never-executed ones to `out` when the
    session finishes."""

    def __init__(self, source: Path, out: Path):
        self.files = {str(p.resolve()): p for p in sorted(source.rglob("*.py"))}
        self.out = out
        self.hits: dict[str, set[int]] = {f: set() for f in self.files}

    def _trace(self, frame, event, _arg):
        hits = self.hits.get(frame.f_code.co_filename)
        if hits is None:
            return None

        def local(frame, event, _arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return local
        return local(frame, event, _arg)

    def start(self) -> None:
        threading.settrace(self._trace)
        sys.settrace(self._trace)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)

    def report(self) -> str:
        out = []
        for name, path in self.files.items():
            lines = code_lines(path)
            missed = sorted(lines - self.hits[name])
            out.append("%s: %d of %d lines never ran" % (path, len(missed), len(lines)))
            text = path.read_text(encoding="utf-8").splitlines()
            out += ["  %5d  %s" % (n, text[n - 1].strip()) for n in missed]
        return "\n".join(out) + "\n"

    def pytest_sessionfinish(self, session, exitstatus):
        self.stop()
        self.out.write_text(self.report(), encoding="utf-8")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, required=True, help="the report file")
    ap.add_argument("--source", type=Path, default=Path("src/ordrank"),
                    help="the directory whose .py files are traced")
    ap.add_argument("pytest_args", nargs="*", help="arguments for pytest, after --")
    args = ap.parse_args(argv)
    import pytest

    plugin = LineTrace(args.source, args.out)
    plugin.start()
    try:
        return int(pytest.main(args.pytest_args, plugins=[plugin]))
    finally:
        plugin.stop()


if __name__ == "__main__":
    sys.exit(main())
