"""List the lines of ``src/hopflab`` that no tier-1 test executes.

    python3 tools/unexecuted_lines.py [PYTEST_ARGS ...]

Runs the tier-1 pytest command (ROADMAP.md) in this process, with
``--continue-on-collection-errors`` and any further arguments passed on,
under a line tracer installed by ``sys.settrace`` and
``threading.settrace``.  The executable lines of a file are the line
numbers of every code object compiled from it (``co_lines``), nested
functions and classes included; a line counts as executed when the
tracer saw a line event on it.  Prints, per file of ``src/hopflab`` that
has any, each unexecuted line with its number and text, then one count
line, and exits 0 whatever the tests did.

Lines run only in a child process (the tests that start one with
``subprocess``) are not seen.  The tracer allocates only where it first
sees a file or a line, into sets that ``tracemalloc`` counts, so the two
tests that bound allocations, ``test_domain_mask_holds_crossing_arms_only``
and ``test_assembly_holds_only_the_system``, are the ones it can fail;
they passed under it, alone and in the whole suite, on Python 3.11.  The
pytest run's own summary is printed first.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hopflab"


def executable_lines(path: Path) -> set:
    """Line numbers that carry bytecode in any code object of a file."""
    lines = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv) -> int:
    import pytest

    prefix = str(PACKAGE) + "/"
    seen = {}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        seen.setdefault(name, set())
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(call)
    sys.settrace(call)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider",
                     "--continue-on-collection-errors", "--rootdir",
                     str(ROOT), str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        missed = sorted(executable_lines(path)
                        - seen.get(str(path), set()))
        if not missed:
            continue
        text = path.read_text(encoding="utf-8").splitlines()
        print(f"\n{path.relative_to(ROOT)}: {len(missed)} unexecuted")
        for line in missed:
            print(f"{line:6d}  {text[line - 1].rstrip()}")
        total += len(missed)
    print(f"\n{total} unexecuted lines in {PACKAGE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
