"""Atomic file writes (a reader sees the old file or the new one, never a part),
and the one writer and reader of the package's JSON documents."""

from __future__ import annotations

import json
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


def write_json(path, doc) -> None:
    """Write ``doc`` to ``path`` atomically as indented JSON with sorted keys."""
    write_atomic(path, [(json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")])


def read_json(path, error: type[Exception]):
    """The JSON document in ``path``; ``error`` naming it if it cannot be read or parsed."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise error(f"{path}: cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise error(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise error(f"{path} nests its JSON too deeply to read") from None
