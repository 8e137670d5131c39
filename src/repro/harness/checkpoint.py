"""On-disk checkpoint journal for the resilient evaluation engine.

The cell runner's unit of work is one cell of the evaluation matrix —
a ``(benchmark, configuration, seed)`` measurement or a prepare task.
The journal records each completed cell as it finishes, so an
interrupted or partially-failed run resumes from completed work instead
of re-measuring the whole matrix (cells are deterministic, so a resumed
run is bit-identical to an uninterrupted one).

Record framing is corruption-tolerant by construction: each record is
``MAGIC | u32 payload length | u32 CRC32 | pickled (key, value)``.  A torn
tail (the process died mid-append) or a bit-flipped record fails its
length/CRC/unpickle check and everything from that point on is ignored —
the cells it covered are simply re-run.  Appends are flushed + fsynced so
a completed cell survives a subsequent hard kill.
"""

from __future__ import annotations

import logging
import os
import pickle
import struct
import zlib
from pathlib import Path
from typing import Any, Iterator, Optional, Union

logger = logging.getLogger(__name__)

#: Per-record frame marker; also guards against resuming a foreign file.
RECORD_MAGIC = b"HALOCKPT"

_LEN_CRC = struct.Struct("<II")


class CheckpointJournal:
    """Append-only journal of completed evaluation cells.

    Args:
        path: Journal file; created (with parents) on first append.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    # -- writing -----------------------------------------------------------

    def append(self, key: str, value: Any) -> None:
        """Durably record that cell *key* completed with *value*."""
        payload = pickle.dumps((key, value), protocol=pickle.HIGHEST_PROTOCOL)
        frame = b"".join(
            (RECORD_MAGIC, _LEN_CRC.pack(len(payload), zlib.crc32(payload)), payload)
        )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "ab") as handle:
            handle.write(frame)
            handle.flush()
            os.fsync(handle.fileno())

    # -- reading -----------------------------------------------------------

    def _iter_records(self) -> Iterator[tuple[str, Any]]:
        """Yield valid ``(key, value)`` records until the first damaged one."""
        try:
            raw = self.path.read_bytes()
        except OSError:
            return
        pos = 0
        head = len(RECORD_MAGIC) + _LEN_CRC.size
        while pos + head <= len(raw):
            if raw[pos:pos + len(RECORD_MAGIC)] != RECORD_MAGIC:
                logger.warning(
                    "checkpoint journal %s: bad record magic at offset %d; "
                    "ignoring the rest", self.path, pos,
                )
                return
            length, crc = _LEN_CRC.unpack_from(raw, pos + len(RECORD_MAGIC))
            start = pos + head
            end = start + length
            if end > len(raw):
                logger.warning(
                    "checkpoint journal %s: torn record at offset %d; "
                    "ignoring the rest", self.path, pos,
                )
                return
            payload = raw[start:end]
            if zlib.crc32(payload) != crc:
                logger.warning(
                    "checkpoint journal %s: checksum mismatch at offset %d; "
                    "ignoring the rest", self.path, pos,
                )
                return
            try:
                key, value = pickle.loads(payload)
            except Exception:
                logger.warning(
                    "checkpoint journal %s: unreadable record at offset %d; "
                    "ignoring the rest", self.path, pos,
                )
                return
            yield key, value
            pos = end

    def load(self) -> dict[str, Any]:
        """All validly recorded cells (later records win on duplicate keys)."""
        return dict(self._iter_records())

    # -- maintenance -------------------------------------------------------

    def clear(self) -> None:
        """Delete the journal file (a fresh run starts from nothing)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass

    def __len__(self) -> int:
        return sum(1 for _ in self._iter_records())


def journal_for(
    cache_dir: Optional[Union[str, Path]], label: str
) -> CheckpointJournal:
    """The conventional journal location for one pipeline entry point.

    Lives beside the artifact cache when one is configured (so ``--resume``
    finds it without extra flags), else in the working directory.
    """
    root = Path(cache_dir) if cache_dir is not None else Path(".")
    return CheckpointJournal(root / f"checkpoint-{label}.journal")
