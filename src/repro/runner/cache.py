"""Content-addressed on-disk cache for experiment cell results.

A cell's cache key is the SHA-256 of its complete identity: experiment
name, unit key, canonicalized parameters, shard seed, and a fingerprint of
the :mod:`repro` source tree.  Re-running an unchanged configuration hits
the cache; changing a parameter, a seed, or any line of code under
``src/repro`` misses and recomputes.

Values are arbitrary picklable result objects (the same objects the serial
path produces), pickled into one :mod:`repro.persist` sealed blob per cell,
``<root>/<aa>/<hash>.sealed``, with the cell's provenance in its header.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from pathlib import Path
from typing import Any, Optional, Tuple

from repro.persist import BlobStats

from .registry import Unit

#: Default cache location, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

_code_fingerprint_cache: Optional[str] = None


def code_fingerprint() -> str:
    """A digest of every ``.py`` file under the :mod:`repro` package.

    Any source change -- a fixed bug, a new parameter default -- must
    invalidate cached results, since cached values are only as trustworthy
    as the code that computed them.
    """
    global _code_fingerprint_cache
    if _code_fingerprint_cache is None:
        import repro

        package_root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _code_fingerprint_cache = digest.hexdigest()
    return _code_fingerprint_cache


def unit_cache_key(unit: Unit, code_version: str) -> str:
    """The stable content address of one cell's result."""
    identity = json.dumps(
        {
            "experiment": unit.experiment,
            "key": unit.key,
            "params": dict(unit.params),
            "seed": unit.seed,
            "code_version": code_version,
        },
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(identity.encode()).hexdigest()


class ResultCache:
    """The on-disk result store (see module docstring)."""

    def __init__(
        self,
        root: Path | str = DEFAULT_CACHE_DIR,
        code_version: Optional[str] = None,
    ) -> None:
        self.root = Path(root)
        self.code_version = (
            code_version if code_version is not None else code_fingerprint()
        )
        self.stats = BlobStats()

    def _path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.sealed"

    def get(self, unit: Unit) -> Tuple[bool, Any]:
        """Look one cell up; returns ``(hit, value)``."""
        path = self._path_for(unit_cache_key(unit, self.code_version))
        entry = self.stats.read(path, decode=pickle.loads)
        if entry is None:
            return False, None
        return True, entry.payload

    def put(self, unit: Unit, value: Any, elapsed: float = 0.0) -> None:
        key = unit_cache_key(unit, self.code_version)
        provenance = {
            "experiment": unit.experiment,
            "key": unit.key,
            "params": dict(unit.params),
            "seed": unit.seed,
            "code_version": self.code_version,
            "elapsed": elapsed,
        }
        self.stats.write(
            self._path_for(key),
            pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL),
            provenance,
        )
