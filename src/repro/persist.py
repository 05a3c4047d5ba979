"""The one persistence layer under the cache, result store, board and logs.

* :func:`atomic_write` stages bytes under a private name (PID plus a
  per-process serial) and renames it over the target.
* A sealed blob is one file: a JSON header line holding the caller's
  provenance and ``sha256``, the payload's digest, then the payload.
  :func:`read_sealed` re-hashes on every read and tells a missing blob
  (``None``) from a corrupt one (:class:`CorruptBlob`).
* A journal is JSON Lines.  :func:`append_jsonl` (also behind
  :class:`JsonlWriter`) writes one whole line with one ``os.write`` to
  an ``O_APPEND`` descriptor; :func:`read_jsonl` drops a torn final line
  with a warning; :func:`rewrite_jsonl` compacts atomically.

Durability contract: writes are whole-or-nothing against process death,
by rename of a fully written staging file or by a single-write append.
There is no ``fsync``: a power loss may lose recent writes or revert a
rename.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, Callable, Dict, Iterable, List, Mapping, NamedTuple
from typing import Optional, Union

_staging_serial = itertools.count()


def atomic_write(path: Union[str, Path], data: Union[bytes, str]) -> None:
    """Write ``data`` to ``path`` whole, creating the parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    staging = path.with_name(f"{path.name}.{os.getpid()}.{next(_staging_serial)}.tmp")
    try:
        staging.write_bytes(data if isinstance(data, bytes) else data.encode())
        os.replace(staging, path)
    except BaseException:
        staging.unlink(missing_ok=True)
        raise


class Sealed(NamedTuple):
    header: Dict[str, Any]
    payload: Any


class CorruptBlob(ValueError):
    """A sealed file that exists but cannot be vouched for."""


def write_sealed(
    path: Union[str, Path],
    payload: bytes,
    header: Mapping[str, Any],
    digest: Optional[str] = None,
) -> str:
    """Seal ``payload`` under ``header``; returns the recorded digest.

    A ``digest`` the caller computed earlier (a worker's result envelope)
    is recorded as is, so bytes damaged between that seal and this write
    fail every later read instead of being re-blessed.
    """
    if digest is None:
        digest = hashlib.sha256(payload).hexdigest()
    head = json.dumps({**header, "sha256": digest}, sort_keys=True, default=str)
    atomic_write(path, head.encode() + b"\n" + payload)
    return digest


def read_sealed(path: Union[str, Path]) -> Optional[Sealed]:
    """The verified blob at ``path``, or ``None`` if there is none."""
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError:
        return None
    except OSError as error:
        raise CorruptBlob(f"unreadable: {error}") from error
    head, _, payload = raw.partition(b"\n")
    try:
        header = json.loads(head)
    except ValueError:
        header = None
    if not isinstance(header, dict):
        raise CorruptBlob("no sealed header")
    if hashlib.sha256(payload).hexdigest() != header.get("sha256"):
        raise CorruptBlob("payload does not match its sha256")
    return Sealed(header, payload)


@dataclass
class BlobStats:
    """Counters over one directory of sealed blobs (cache, result store)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Blobs that failed verification or decoding; each is also a miss
    #: and is repaired by the next store.
    corrupt: int = 0

    def as_dict(self) -> dict:
        lookups = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
            "hit_rate": round(self.hits / lookups, 4) if lookups else 0.0,
        }

    def read(
        self, path: Union[str, Path], decode: Optional[Callable[[bytes], Any]] = None
    ) -> Optional[Sealed]:
        """Counted :func:`read_sealed`; ``decode`` maps the verified payload."""
        try:
            blob = read_sealed(path)
            if blob is not None and decode is not None:
                blob = Sealed(blob.header, decode(blob.payload))
        except Exception:
            self.corrupt += 1
            blob = None
        if blob is None:
            self.misses += 1
        else:
            self.hits += 1
        return blob

    def write(self, path: Union[str, Path], payload: bytes, header: Mapping[str, Any]) -> str:
        self.stores += 1
        return write_sealed(path, payload, header)


def _jsonl_line(record: Mapping[str, Any]) -> str:
    return json.dumps(record, default=str) + "\n"


def append_jsonl(path: Union[str, Path], record: Mapping[str, Any]) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, _jsonl_line(record).encode())
    finally:
        os.close(fd)


def rewrite_jsonl(path: Union[str, Path], records: Iterable[Mapping[str, Any]]) -> None:
    atomic_write(path, "".join(_jsonl_line(record) for record in records))


class JsonlWriter:
    """A fresh journal at a path (emptied, then :func:`append_jsonl`), or
    one ``write`` plus a flush per record to an open text stream."""

    def __init__(self, target: Union[str, Path, IO[str]]) -> None:
        self._stream: Optional[IO[str]] = target if hasattr(target, "write") else None
        self._path = Path(target) if self._stream is None else None
        if self._path is not None:
            atomic_write(self._path, b"")

    def write(self, record: Mapping[str, Any]) -> None:
        if self._path is not None:
            append_jsonl(self._path, record)
        elif self._stream is not None:
            self._stream.write(_jsonl_line(record))
            self._stream.flush()
        else:
            raise ValueError("writer is closed")

    def close(self) -> None:
        self._path = self._stream = None


class TornRecordError(ValueError):
    """A JSONL line that is not valid JSON, away from the file's tail."""

    def __init__(self, path: str, line_number: int, line: Union[str, bytes]) -> None:
        super().__init__(f"{path}:{line_number}: unparseable JSONL record {line[:80]!r}")
        self.path = path
        self.line_number = line_number


def read_jsonl(source: Union[str, Path, IO[str]]) -> List[Dict[str, Any]]:
    """Read a JSON-Lines file or stream, tolerating a torn trailing record.

    A torn tail is the expected debris of a killed writer and is skipped
    with a :class:`UserWarning`; an unparseable record before the tail is
    corruption and raises :class:`TornRecordError`, since dropping
    interior records would misrepresent the log.
    """
    stream = hasattr(source, "read")
    lines = (source.read() if stream else Path(source).read_bytes()).splitlines()
    name = getattr(source, "name", "<stream>") if stream else str(source)
    records: List[Dict[str, Any]] = []
    torn: Optional[TornRecordError] = None
    for line_number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        if torn is not None:
            raise torn
        try:
            records.append(json.loads(line))
        except ValueError:
            # Only the last non-empty line may be a torn tail.
            torn = TornRecordError(name, line_number, line)
    if torn is not None:
        warnings.warn(
            f"skipping torn trailing JSONL record at {torn.path}:{torn.line_number}"
            " (interrupted writer?)",
            UserWarning,
            stacklevel=2,
        )
    return records
