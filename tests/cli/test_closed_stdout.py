"""A reader that closes ``repro``'s stdout early ends the command quietly.

``repro bench | head -3`` and friends: once the reader is gone, the next
write (or the exit flush) fails with ``EPIPE``.  The command must exit
without a traceback on stderr, whichever subcommand was writing.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Enough calls that the DOT export outgrows any pipe buffer, so the child
#: is still writing when the reader goes away.
CALLS = 3000


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _assert_quiet(returncode, stderr):
    assert "Traceback" not in stderr, stderr
    assert "BrokenPipeError" not in stderr, stderr
    assert returncode == 1, (returncode, stderr)


def test_reader_closing_after_one_line(tmp_path):
    calls = "\n".join(f"        Lib.m{i}();" for i in range(CALLS))
    methods = "\n".join(f"    static void m{i}() {{ }}" for i in range(CALLS))
    source = tmp_path / "big.java"
    source.write_text(f"class Lib {{\n{methods}\n}}\nclass Main {{\n"
                      f"    static void main() {{\n{calls}\n    }}\n}}\n")
    child = subprocess.Popen(
        [sys.executable, "-m", "repro", "callgraph", str(source)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env())
    assert child.stdout.readline().startswith(b"digraph")
    child.stdout.close()
    stderr = child.stderr.read().decode()
    child.stderr.close()
    _assert_quiet(child.wait(timeout=120), stderr)


def test_reader_gone_before_the_first_line():
    """``bench`` output fits the buffer: the failure comes at the flush."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "bench", "--suite", "Microservices"],
            stdout=write_end, stderr=subprocess.PIPE, env=_env(), timeout=120)
    finally:
        os.close(write_end)
    _assert_quiet(completed.returncode, completed.stderr.decode())
