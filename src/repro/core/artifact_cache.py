"""On-disk cache for profiling/analysis artifacts.

Profiling is by far the most expensive phase of the evaluation pipeline
(the paper reports Pin slowdowns of up to 500×; the simulation's profiler
is likewise the dominant cost of regenerating a figure).  Its output is a
pure function of (workload, input scale, profiling/HALO/HDS parameters,
code version), so repeated ``halo plot`` / ``tools/gen_results.py``
invocations can skip the profile + analyse phases entirely by keying a
content-addressed store on exactly those inputs.

Entries are pickled bundles written atomically and durably (tmp file,
fsync, rename, directory fsync), so a
cache directory may be shared by the worker processes of the parallel
evaluation engine without locking: concurrent writers race benignly (last
rename wins, both wrote identical bytes) and readers either see a complete
entry or none.  Corrupt or unreadable entries are treated as misses and
rewritten.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

logger = logging.getLogger(__name__)

#: Bump when the pickled bundle layout changes incompatibly.
CACHE_FORMAT = 1


def _params_to_jsonable(params: Any) -> Any:
    """Canonical JSON-compatible form of a params object for hashing."""
    if params is None:
        return None
    if dataclasses.is_dataclass(params) and not isinstance(params, type):
        return {k: _params_to_jsonable(v) for k, v in sorted(dataclasses.asdict(params).items())}
    if isinstance(params, dict):
        return {str(k): _params_to_jsonable(v) for k, v in sorted(params.items())}
    if isinstance(params, (list, tuple)):
        return [_params_to_jsonable(v) for v in params]
    if isinstance(params, (str, int, float, bool)):
        return params
    raise TypeError(f"cannot canonicalise {type(params).__name__} for a cache key")


def artifact_key(
    workload: str,
    profile_scale: str,
    halo_params: Any = None,
    hds_params: Any = None,
    version: str = "",
    **extra: Any,
) -> str:
    """Content hash identifying one prepared-artifact bundle.

    The key covers everything the offline pipeline's output depends on:
    the workload name, the scale it is profiled at, the full HALO and HDS
    parameter sets, the package version (analysis code changes invalidate
    old entries) and the cache format version.
    """
    if not version:
        from .. import __version__ as version  # local import: avoid cycle at module load
    payload = {
        "format": CACHE_FORMAT,
        "version": version,
        "workload": workload,
        "profile_scale": profile_scale,
        "halo_params": _params_to_jsonable(halo_params),
        "hds_params": _params_to_jsonable(hds_params),
        "extra": _params_to_jsonable(extra) if extra else None,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/store counters for one cache handle."""

    hits: int = 0
    misses: int = 0
    stores: int = 0


class ArtifactCache:
    """Content-addressed pickle store under one root directory.

    Args:
        root: Cache directory (created on first store).
    """

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.stats = CacheStats()

    def path_for(self, key: str) -> Path:
        """Filesystem path of the entry for *key*."""
        return self.root / f"{key}.pkl"

    def get(self, key: str) -> Optional[Any]:
        """Return the cached object for *key*, or None on a miss.

        Unreadable and un-unpicklable entries count as misses.  A damaged
        pickle can fail in almost any way (a flipped byte inside a string
        raises ``UnicodeDecodeError``, inside an opcode argument
        ``ValueError`` or ``KeyError``...), so every load error is a miss.
        """
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                value = pickle.load(handle)
        except OSError:
            self.stats.misses += 1
            return None
        except Exception as exc:
            logger.warning("unreadable cache entry %s (%r); treating it as a miss", path, exc)
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return value

    def put(self, key: str, value: Any) -> Path:
        """Store *value* under *key* atomically; returns the entry path."""
        path = self.path_for(key)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except FileExistsError as exc:
            raise NotADirectoryError(
                f"artifact cache root {self.root} exists and is not a directory"
            ) from exc
        fd, tmp_name = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
                handle.flush()
                # A rename only orders against data already on disk: without
                # the fsync a crash can leave a complete-looking entry full
                # of zeros, which get() cannot tell from a damaged pickle.
                os.fsync(handle.fileno())
            os.replace(tmp_name, path)
            self._fsync_dir(self.root)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        return path

    @staticmethod
    def _fsync_dir(directory: Path) -> None:
        """Persist the rename itself (the directory entry) to disk."""
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - e.g. platforms without dir fds
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - fsync unsupported on dirs
            pass
        finally:
            os.close(fd)

    def contains(self, key: str) -> bool:
        """Whether an entry for *key* exists (no read validation)."""
        return self.path_for(key).exists()

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if self.root.is_dir():
            for entry in self.root.glob("*.pkl"):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed
