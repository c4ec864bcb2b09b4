"""Work run in a forked child, with its result read back through a pipe.

The package uses the second core in two places: the right side of the
hyper suite (cli) and the square-zero check of a homology run (homology).
Each caller keeps one implementation of its work and runs it itself
whenever the child gives no result.
"""

from __future__ import annotations

import os
import sys
from typing import Callable, Optional


class Child:
    """work() -> bytes run in a forked child, which writes the bytes to a
    pipe and ends with ``os._exit``: 0 after writing, 1 when work raised. It
    never returns into the caller, which would report a second time.

    No child starts (pid is None) where fork is unavailable, where the pipe
    or the fork fails, or where another thread runs: the child would hold
    only this thread, and any lock another one held would stay held.
    Leaving the ``with`` block, or close(), kills and reaps a child not yet
    reaped and closes the pipe."""

    def __init__(self, work: Callable[[], bytes]):
        self.pid: Optional[int] = None
        self.read_end: Optional[int] = None
        fork = getattr(os, "fork", None)
        threading = sys.modules.get("threading")
        if fork is None or (threading is not None and threading.active_count() > 1):
            return
        ends = ()
        try:
            ends = os.pipe()
            pid = fork()
        except OSError:
            for fd in ends:
                os.close(fd)
            return
        read_end, write_end = ends
        if pid == 0:
            code = 1
            try:
                os.close(read_end)
                os.write(write_end, work())
                code = 0
            finally:
                os._exit(code)
        os.close(write_end)
        self.pid, self.read_end = pid, read_end

    def result(self) -> Optional[bytes]:
        """Read the pipe to its end and reap the child: the bytes it wrote,
        or None when no child started, or it exited non-zero or was killed."""
        if self.pid is None:
            return None
        data = b""
        while chunk := os.read(self.read_end, 64):
            data += chunk
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        return data if os.waitstatus_to_exitcode(status) == 0 else None

    def close(self) -> None:
        if self.pid is not None:
            import signal
            try:
                os.kill(self.pid, signal.SIGKILL)
                os.waitpid(self.pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass  # already reaped
            self.pid = None
        if self.read_end is not None:
            os.close(self.read_end)
            self.read_end = None

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
