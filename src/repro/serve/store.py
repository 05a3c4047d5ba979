"""The content-addressed result store behind ``GET /v1/results/{hash}``.

Finished jobs persist their canonical result document here, keyed by the
job's content hash (the same hash that dedups in-flight submissions), so
a million identical queries cost one simulation: the first run writes
the document, every later submission -- today or after a restart -- is
answered from disk byte-for-byte.

Each entry is one :mod:`repro.persist` sealed blob,
``<root>/<aa>/<hash>.sealed``, whose payload is the exact canonical
document bytes.  Its digest is the integrity envelope: every read
re-hashes the payload and treats a mismatch (torn write, bit rot,
tampering) as a miss, counting it as corrupt -- the service never
serves bytes it cannot vouch for.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Optional, Tuple, Union

from repro.persist import BlobStats

#: Default store location, relative to the working directory.
DEFAULT_STORE_DIR = ".repro-serve/results"

_HASH_RE = re.compile(r"^[0-9a-f]{64}$")


def is_content_hash(value: str) -> bool:
    """Is ``value`` shaped like one of our SHA-256 content hashes?"""
    return bool(_HASH_RE.match(value))


class ResultStore:
    """On-disk result documents by content hash (see module docstring)."""

    def __init__(self, root: Union[Path, str] = DEFAULT_STORE_DIR) -> None:
        self.root = Path(root)
        self.stats = BlobStats()

    def _path(self, content_hash: str) -> Path:
        return self.root / content_hash[:2] / f"{content_hash}.sealed"

    def get(self, content_hash: str) -> Optional[Tuple[bytes, str]]:
        """The verified ``(payload_bytes, sha256)``, or None on a miss."""
        entry = self.stats.read(self._path(content_hash))
        if entry is None:
            return None
        return entry.payload, entry.header["sha256"]

    def put(self, content_hash: str, payload: bytes) -> str:
        """Store canonical payload bytes; returns their hex digest."""
        return self.stats.write(
            self._path(content_hash), payload, {"content_hash": content_hash}
        )
