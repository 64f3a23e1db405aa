"""Atomic file writes: a reader sees the old file or the new one, never a part."""

from __future__ import annotations

import os
from collections.abc import Iterable
from pathlib import Path


def write_atomic(path, chunks: Iterable) -> None:
    """Write the bytes-like ``chunks`` to ``path`` in order, replacing it at once.

    The chunks go to a temp file in the same directory, which ``os.replace``
    then renames over ``path``. If writing fails partway (a chunk or the
    iterable raises), the temp file is removed and ``path`` keeps its
    previous contents. There is no fsync: the swap is atomic for readers,
    but a crash of the host can still lose the new file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
