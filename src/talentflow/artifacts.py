"""Atomic artifact writes: each file is written to a temp file next to
its target, then renamed over it, so a failed or interrupted write leaves
the target as it was. Text is UTF-8; tables use the `csv` default dialect.
"""

from __future__ import annotations

import csv
import os
from pathlib import Path
from typing import Callable, Iterable, Sequence


def write_atomic(path: Path, write_fn: Callable[[Path], None]) -> None:
    """Write via `write_fn` to a temp file, then rename it over `path`. On
    any failure, interruption included, the temp file is removed and
    `path` is left as it was."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path, chunks: Iterable[str]) -> None:
    """Write the concatenated `chunks` as UTF-8 text, atomically."""
    def write(p: Path) -> None:
        with open(p, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    write_atomic(Path(path), write)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> int:
    """Write a CSV table, header first, atomically, and return the number
    of data rows written. Rows as wide as a non-empty header read back as
    that many rows: `len(list(csv.DictReader(...)))` of the file."""
    count = 0

    def write(p: Path) -> None:
        nonlocal count
        with open(p, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for count, row in enumerate(rows, start=1):
                writer.writerow(row)
    write_atomic(Path(path), write)
    return count
