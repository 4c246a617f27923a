"""Persistent compile cache for JIT specializations.

Modeled on :class:`repro.tuning.cache.TuningCache`: a JSON document of
``key -> entry`` with a schema version guard, loaded eagerly and saved
atomically as a whole.  One entry per specialization key (see
:func:`repro.interp.jit.compiler.program_key`)::

    {
      "version": 1,
      "entries": {
        "fir@1a2b...": {
          "kernel": "fir",
          "mask_free": true,
          "features": {"tile": 0, "repeat": 0, "slice": 1, ...},
          "sha256": "<hex digest of source>",
          "source": "KNAME = 'fir'\\n..."
        }
      }
    }

Entries are integrity-checked on lookup: the stored SHA-256 must match
the stored source, or the entry is **rejected and dropped** so the
caller recompiles from the IR.  A cache can speed a run up; it must
never be able to change what a run computes.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.errors import JITError
from repro.ioutil import JsonEntryStore

__all__ = ["CompileCache", "DEFAULT_CACHE_PATH", "source_digest"]

#: default cache file used by ``repro run --backend jit --jit-cache``
DEFAULT_CACHE_PATH = ".repro-jit-cache.json"


def source_digest(source: str) -> str:
    return hashlib.sha256(source.encode()).hexdigest()


class CompileCache(JsonEntryStore):
    """In-memory view of the compile cache, JSON round-trippable."""

    error = JITError
    noun = "compile cache"

    def __init__(
        self,
        entries: dict[str, dict] | None = None,
        path: str | Path | None = None,
    ):
        super().__init__(entries, path)
        #: entries dropped by integrity checks since load (observable in
        #: tests and the CLI's cache stats)
        self.rejected = 0
        #: successful lookups since load
        self.hits = 0

    # -- access ---------------------------------------------------------
    def lookup(self, key: str) -> dict | None:
        """The verified entry for ``key``, or ``None`` on a miss.

        A structurally damaged or digest-mismatched entry counts as a
        miss *and is removed*, so the recompiled result replaces it."""
        entry = self.entries.get(key)
        if entry is None:
            return None
        source = entry.get("source") if isinstance(entry, dict) else None
        if (
            not isinstance(source, str)
            or not isinstance(entry.get("mask_free"), bool)
            or not isinstance(entry.get("features"), dict)
            or entry.get("sha256") != source_digest(source)
        ):
            self.rejected += 1
            del self.entries[key]
            return None
        self.hits += 1
        return entry

    def record(
        self, key: str, source: str, mask_free: bool, kernel_name: str,
        features: dict[str, int] | None = None,
    ) -> None:
        self.entries[key] = {
            "kernel": kernel_name,
            "mask_free": bool(mask_free),
            "features": dict(features or {}),
            "sha256": source_digest(source),
            "source": source,
        }
