"""What the command line shares with the pipeline without loading it: the
pipeline modes, and atomic writes of output files. A command that runs no
pipeline stage (``annotate``, ``evaluate``, ``gen-synthetic``) imports this
module in place of ``config`` and ``pipeline``."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator

MODES = ("full", "full-st", "no-curriculum", "no-confmpu", "voter-ensemble", "soft-label-curriculum")


@contextmanager
def atomic_open(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """Open a temporary file beside ``path`` and move it onto ``path`` when
    the block ends. If the block raises, the temporary file is removed and
    ``path`` keeps its old bytes."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path: str | Path, text: str) -> None:
    with atomic_open(path) as f:
        f.write(text)
