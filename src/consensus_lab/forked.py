"""Calls run in a child process made with os.fork, beside the caller.

Work that shares nothing with the caller runs in the child without the
interpreter lock. There is no multiprocessing pool: a bare fork keeps
the caller's state, mocks included, and costs no import.
"""

from __future__ import annotations

import os
import pickle

__all__ = ["ForkedCall"]


class ForkedCall:
    """fn() run in a child process made with os.fork, its return value sent
    back pickled over a pipe; where os.fork does not exist, fn() runs here,
    at once.

    The child shares nothing with this process after the fork, so it runs
    beside it without the interpreter lock. It always leaves through
    os._exit, so it never returns into the caller's code or runs exit
    handlers, and it exits 0 only once the whole result is written.
    result() waits for the child and returns fn's value, or raises
    ChildProcessError if the child died without sending it; close() kills and
    reaps a child whose result was not read. A caller closes every
    ForkedCall in a finally, so a failure or a KeyboardInterrupt leaves no
    child behind.
    """

    def __init__(self, fn):
        if not hasattr(os, "fork"):
            self._pid, self._pipe, self._value = None, None, fn()
            return
        rfd, wfd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(rfd)
            os.close(wfd)
            raise
        if pid == 0:
            os.close(rfd)
            _child_main(fn, wfd)
        os.close(wfd)
        self._pid, self._pipe = pid, os.fdopen(rfd, "rb")

    def result(self):
        if self._pipe is None:
            return self._value
        data = self._pipe.read()
        self._pipe.close()
        pid = self._pid
        _, status = os.waitpid(pid, 0)
        self._pid = None
        if status:
            raise ChildProcessError(f"child process {pid} sent no result: wait status {status}")
        return pickle.loads(data)

    def close(self):
        if self._pipe is not None:
            self._pipe.close()
        if self._pid is not None:
            import signal

            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None


def _child_main(fn, wfd):
    """Body of a ForkedCall child: send fn()'s value through wfd, then
    leave without returning."""
    code = 1
    try:
        data = pickle.dumps(fn())
        with os.fdopen(wfd, "wb") as pipe:
            pipe.write(data)
        code = 0
    except Exception:
        # the parent sees the exit status; the traceback goes to fd 2
        # directly, past the stderr buffer the child shares with the parent
        import traceback

        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(code)
