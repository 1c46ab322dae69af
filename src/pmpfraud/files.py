"""The settings check and the JSON and atomic file helpers every command uses.

Every setting comes from the command line or from a file the program
reads, and every failure here names the setting or the file: a bad
setting or an unreadable or unwritable file raises ValueError.
"""
from __future__ import annotations

import contextlib
import errno
import json
import os

__all__ = ["check_setting", "check_out_dir", "read_json_object", "write_file_atomic", "write_csv_atomic"]


def check_setting(name: str, value, kind: type, ok, rule: str):
    """Raise ValueError naming ``name`` and ``value`` unless ``value`` is an
    instance of ``kind`` (a ``numbers`` class or a container type), not a
    bool, and ``ok(value)``."""
    if isinstance(value, bool) or not isinstance(value, kind) or not ok(value):
        raise ValueError(f"{name} must be {rule}, got {value!r}")


def check_out_dir(path: str) -> None:
    """Raise NotADirectoryError naming ``path`` when the directory ``path``
    cannot be made, because its nearest existing ancestor is not a
    directory. Nothing is made: a command checks its output directory
    before its work and makes it after."""
    ancestor = os.path.abspath(path)
    while not os.path.exists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if not os.path.isdir(ancestor):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), path)


def read_json_object(path: str) -> dict:
    """The JSON object stored in ``path``. Raises ValueError naming ``path``
    when the file is missing, unreadable, not JSON, or not an object."""
    try:
        with open(path, "rb") as fh:
            value = json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"{path}: file is missing") from None
    except (OSError, ValueError) as err:
        raise ValueError(f"{path}: cannot read JSON: {err}") from None
    if not isinstance(value, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(value).__name__}")
    return value


def write_file_atomic(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temp file and ``os.replace``, so
    ``path`` holds either its old contents or all of ``data``, never part.
    A failed write removes its temp file; one the system refuses then
    raises ValueError naming ``path``."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException as err:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(err, OSError):
            raise ValueError(f"{path}: cannot write: {err.strerror or err}") from None
        raise


def write_csv_atomic(path: str, header: str, rows, meta_line: str = "") -> None:
    """Atomically write an optional ``# meta_line`` comment, a header line and
    one line per preformatted row."""
    lines = ([f"# {meta_line}"] if meta_line else []) + [header, *rows]
    write_file_atomic(path, ("\n".join(lines) + "\n").encode())
