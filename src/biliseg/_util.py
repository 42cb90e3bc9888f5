"""Small shared helpers; ``atomic_write`` is the package's only file writer."""
from __future__ import annotations

import os


def atomic_write(path, chunks) -> None:
    """Write the bytes-like items of ``chunks`` (bytes, C-contiguous arrays) to
    ``path`` in order, atomically.

    ``chunks`` is any iterable; a generator is written item by item as it
    yields, so its output is never held whole. The bytes go to ``path.tmp``,
    which then replaces ``path``; on any failure, the generator's own
    included, the temp file is removed and ``path`` is left as it was.
    """
    path = os.fspath(path)
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
