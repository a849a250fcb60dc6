"""A clean process that forks one fresh child per op.

``image-fresh`` and ``matrix-store`` run each op in a fresh process, as a
native-image build or an engine worker is one.  Forking from the benchmark
process itself would hand every child the benchmark's set-up garbage and
collector counters, so what an op costs would depend on the seed and on
what ran before.  The zygote instead imports the program once, never sets
anything up, and forks each child from that same small state.

Requests and replies are length-prefixed pickles over the zygote's stdin
and its original stdout (its fd 1 is pointed at stderr, so nothing an op
prints can corrupt a reply).  Closing stdin ends the zygote; every child is
reaped before the next request is read.

    python3 -m bench.zygote MODULE...   # imports MODULEs, then serves
"""

from __future__ import annotations

import importlib
import os
import pickle
import struct
import subprocess
import sys
import traceback
from pathlib import Path
from typing import BinaryIO, Callable, Optional, Sequence

_HEADER = struct.Struct("!Q")


class OpFailed(RuntimeError):
    """The op raised, or its child died, in the zygote."""


def _write_frame(stream: BinaryIO, payload: bytes) -> None:
    stream.write(_HEADER.pack(len(payload)) + payload)
    stream.flush()


def _read_frame(stream: BinaryIO) -> Optional[bytes]:
    header = stream.read(_HEADER.size)
    if not header:
        return None
    if len(header) < _HEADER.size:
        raise EOFError("truncated frame header")
    (size,) = _HEADER.unpack(header)
    payload = stream.read(size)
    if len(payload) < size:
        raise EOFError("truncated frame")
    return payload


class Zygote:
    """The parent's handle on one zygote process."""

    def __init__(self, root: Path, preload: Sequence[str]) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(Path(__file__).resolve().parent.parent)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "bench.zygote", *preload],
            cwd=root, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def call(self, function: Callable, *args):
        """``function(*args)`` in a fresh child of the zygote."""
        _write_frame(self.process.stdin, pickle.dumps((function, args)))
        payload = _read_frame(self.process.stdout)
        if payload is None:
            raise OpFailed("the zygote exited")
        ok, value = pickle.loads(payload)
        if not ok:
            raise OpFailed(value)
        return value

    def close(self) -> None:
        self.process.stdin.close()
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=30)
        self.process.stdout.close()

    def __enter__(self) -> "Zygote":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _child(request: bytes, replies: BinaryIO) -> None:
    try:
        function, args = pickle.loads(request)
        reply = pickle.dumps((True, function(*args)))
    except BaseException:  # the child's boundary: every failure becomes a reply
        reply = pickle.dumps((False, traceback.format_exc()))
    _write_frame(replies, reply)


def serve(preload: Sequence[str]) -> None:
    """Import ``preload``, then fork one child per request until stdin closes."""
    for name in preload:
        importlib.import_module(name)
    requests = sys.stdin.buffer
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    while True:
        request = _read_frame(requests)
        if request is None:
            return
        pid = os.fork()
        if pid == 0:
            try:
                _child(request, replies)
            finally:
                os._exit(0)
        _, status = os.waitpid(pid, 0)
        if status != 0:
            _write_frame(replies, pickle.dumps(
                (False, f"the op's process ended with wait status {status}")))


if __name__ == "__main__":
    serve(sys.argv[1:])
