"""Worker process of ``run_pipeline``'s second lane.

    python -m moegather.workbench.worker TASK_FD REPLY_FD

Reads pickled ``(function, args)`` tasks from the pipe ``TASK_FD`` until the
pipe closes; each ``function(*args)`` is a generator. For each task it writes
one pickled ``(items, error)`` reply to the pipe ``REPLY_FD``: the items the
generator yielded, and the exception that ended it early, or None. Only the
process that started the worker holds the other ends of both pipes.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys


def _portable(exc: Exception) -> Exception:
    """``exc`` if it survives a pickle round trip, else a RuntimeError with its text."""
    try:
        return pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def serve(task_fd: int, reply_fd: int) -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C stops the parent, which ends this process
    with os.fdopen(task_fd, "rb") as tasks, os.fdopen(reply_fd, "wb") as replies:
        while True:
            try:
                fn, args = pickle.load(tasks)
            except EOFError:
                return
            items, error = [], None
            try:
                items.extend(fn(*args))  # keeps what was yielded before a failure
            except Exception as exc:
                error = _portable(exc)
            pickle.dump((items, error), replies)
            replies.flush()


if __name__ == "__main__":
    serve(int(sys.argv[1]), int(sys.argv[2]))
