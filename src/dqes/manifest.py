"""
Run manifests: the volatile metadata (timestamps, argv, seeds, hashes) kept
out of data files so those stay byte-identical across reruns. Each output
file <f> gets a sidecar <f>.manifest.json, written after <f>.

Every output and its sidecar are written by write_output, through
write_text_atomic, so a run that fails or is killed part-way leaves each file
either absent, as it was, or complete.
"""

import hashlib
import json
import os
from collections.abc import Iterable
from datetime import datetime, timezone
from pathlib import Path

from ._version import __version__


def write_text_atomic(path, text: str | Iterable[str]) -> None:
    """Write text to a temp file next to path, then os.replace it into place.

    text is one str or an iterable of str chunks, written in order, so a large
    file need not be held in memory whole. On any error, in the writing or in
    producing a chunk, the temp file is removed and path is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as f:
            f.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def sidecar_path(data_path) -> Path:
    """<data_path>.manifest.json, where write_sidecar describes data_path."""
    return Path(str(data_path) + ".manifest.json")


def write_sidecar(data_path, fields: dict) -> Path:
    """Write <data_path>.manifest.json describing an already-written file."""
    doc = dict(fields)
    doc.setdefault("tool_version", __version__)
    doc["output_sha256"] = file_sha256(data_path)
    doc["created_utc"] = datetime.now(timezone.utc).isoformat()
    path = sidecar_path(data_path)
    write_text_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def write_output(path, text: str | Iterable[str], fields: dict) -> Path:
    """Make path's directory, write text to path atomically (one str or str
    chunks), then write its sidecar holding fields; return path as a Path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_text_atomic(path, text)
    write_sidecar(path, fields)
    return path
