"""Binary artifact files: one JSON header line, then one array as an .npy body.

Bank and checkpoint files share this layout. The header's `format` names the
kind of file, and the body is written and read without pickle, so loading a
file never runs code from it. `write_text` writes the text outputs (frozen
configs, datasets, reports, CSVs). A file that cannot be written raises a
DataError naming it.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import DataError


def sha256_hex(array: np.ndarray) -> str:
    """SHA-256 of a C-contiguous array's bytes, read in place through the
    buffer protocol: the same digest as of `array.tobytes()`, with no copy."""
    if not array.flags.c_contiguous:
        raise ValueError("sha256_hex needs a C-contiguous array")
    return hashlib.sha256(array).hexdigest()


@contextmanager
def _writing(path: str | Path):
    """Make `path`'s missing parent directories, and turn an OSError inside
    (a directory, no permission, a full disk, a file where a directory
    should be) into a DataError naming `path`."""
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        yield
    except OSError as e:
        raise DataError(f"file {path} cannot be written: {type(e).__name__}: {e.strerror}")


def write_artifact(path: str | Path, header: dict, body: np.ndarray) -> None:
    """Write `header` and `body` to `path`, making its directory first;
    raises DataError when either cannot be written."""
    with _writing(path), open(path, "wb") as f:
        f.write((json.dumps(header, sort_keys=True) + "\n").encode())
        np.save(f, body, allow_pickle=False)


def write_text(path: str | Path, text: str) -> None:
    """Write `text` to `path`, making its directory first; raises DataError
    when either cannot be written."""
    with _writing(path):
        Path(path).write_text(text)


def check_writable(path: str | Path) -> None:
    """Raise DataError, naming `path`, unless it can be opened for writing.
    Opening does not change an existing file, and the file and directories
    the probe made are removed again."""
    path = Path(path)
    existed = path.exists()
    made = [d for d in path.parents if not d.exists()]  # the probe makes these, innermost first
    try:
        with _writing(path), open(path, "ab"):
            pass
        if not existed:
            path.unlink()
    finally:
        for d in made:
            if d.exists():
                d.rmdir()


def read_artifact(path: str | Path, fmt: str, what: str) -> tuple[dict, np.ndarray]:
    """The header and body of a `fmt` file (`what` names it in errors).

    Raises DataError when the file is missing or cannot be read (a
    directory, no permission), when its header is not a JSON object of that
    format, or when its body is not one whole .npy array.
    """
    try:
        with open(path, "rb") as f:
            header = json.loads(f.readline())
            if not isinstance(header, dict):
                raise DataError(f"{what} file {path} header is not a JSON object")
            if header.get("format") != fmt:
                raise DataError(f"unrecognized {what} format {header.get('format')!r} in {path}")
            return header, np.lib.format.read_array(f, allow_pickle=False)
    except FileNotFoundError:
        raise DataError(f"{what} file not found: {path}")
    except OSError as e:
        raise DataError(f"{what} file {path} cannot be read: {type(e).__name__}: {e.strerror}")
    except ValueError as e:
        raise DataError(f"{what} file {path} is malformed: {type(e).__name__}: {e}")
