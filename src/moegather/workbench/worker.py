"""Worker process of ``run_pipeline``'s second lane.

    python -m moegather.workbench.worker

Reads pickled ``(function, args)`` tasks from stdin until it closes; each
``function(*args)`` is a generator. For each task it writes one pickled
``(items, error)`` reply to stdout: the items the generator yielded, and the
exception that ended it early, or None. Anything else written to stdout, by
the worker or a library it calls, goes to stderr instead.
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


def serve(tasks, replies) -> None:
    """Answer each task read from the binary stream ``tasks`` on ``replies``."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C stops the parent, which ends this process
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
    with os.fdopen(os.dup(1), "wb") as replies:
        os.dup2(2, 1)  # fd 1 now reaches stderr, so nothing printed can land in a reply
        serve(sys.stdin.buffer, replies)
