"""Crash-safe publishing of whole files (the ``crash-safe-write`` invariant).

Results stores, run manifests, registry indexes, artifact manifests and
frame-store manifests are all written through :func:`crash_safe_write`, so
a reader — or a process resuming after a crash — only ever sees the
previous complete file or the new complete file under the final name.
"""

from __future__ import annotations

import contextlib
import os
import threading
from typing import Iterator, TextIO


@contextlib.contextmanager
def crash_safe_write(path: str) -> Iterator[TextIO]:
    """Open ``path`` for writing text, published only when complete.

    The text goes to a temp file beside ``path``. On a clean exit the file
    is flushed, fsynced and then renamed over ``path``: without the fsync a
    crash between kernel buffering and writeback could publish a truncated
    file. On an error the temp file is removed and ``path`` is untouched.
    The temp name carries the process and thread ids, so two writers never
    share one.
    """
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "w") as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        # lint: allow(silent-except) -- failed cleanup of the temp file on
        # the re-raise path; the original error is what matters
        except OSError:
            pass
        raise
