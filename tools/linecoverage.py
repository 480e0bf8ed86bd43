"""Line coverage of src/smallmodel by a pytest run, with the standard
library alone: a sys.settrace hook records the lines that run in this
process, and each module's executable lines come from its compiled code
objects. Subprocesses are not traced, so the tests that run the
``smallmodel`` command in a child process count for nothing here.

    PYTHONPATH=src:tools python -m pytest -q -p linecoverage

prints, after the test summary, each module's lines run out of its
executable lines and the numbers of the lines left unrun.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "smallmodel"
hit = {}   # code file name -> the line numbers run in it
ours = {}  # code file name -> whether it is a module of SRC


def _line(frame, event, arg):
    hit[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in ours:
        ours[name] = Path(name).resolve().parent == SRC
    if not ours[name]:
        return None
    hit.setdefault(name, set()).add(frame.f_lineno)
    return _line


def _executable(code):
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _executable(const)
    return lines


def pytest_configure(config):
    sys.settrace(_call)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    for path in sorted(SRC.glob("*.py")):
        lines = _executable(compile(path.read_text(), str(path), "exec"))
        ran = set().union(*(v for k, v in hit.items() if Path(k).resolve() == path))
        unrun = sorted(lines - ran)
        terminalreporter.write_line(f"{path.name}: {len(lines) - len(unrun)}/{len(lines)} "
                                    f"lines run; unrun: {unrun}")
