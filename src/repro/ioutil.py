"""Small filesystem helpers shared across persistence layers.

:func:`atomic_write_text` is the text twin of the ``.rckp`` writer's
temp-file + :func:`os.replace` idiom (see
:mod:`repro.ops.checkpoint`): readers either see the complete previous
file or the complete new one, never a torn intermediate.  The serving
loop relies on this — many concurrent jobs share one on-disk
``TuningCache`` / ``CompileCache`` and each save must be all-or-nothing.

:class:`JsonEntryStore` is the versioned ``key -> entry`` JSON document
both of those caches persist as.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

__all__ = ["atomic_write_text", "JsonEntryStore"]


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` atomically; returns the path written.

    The bytes land in a sibling ``*.tmp`` file first and are moved over
    the target with :func:`os.replace` (atomic on POSIX and Windows for
    same-directory renames).  On any failure the temp file is removed
    and the previous contents of ``path`` are left untouched.
    """
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return target


class JsonEntryStore:
    """A ``key -> entry`` table persisted as one versioned JSON document
    (``{"version": 1, "entries": {...}}``), loaded eagerly and saved
    atomically as a whole.

    Subclasses set :attr:`error` (the exception type raised for an
    unusable file) and :attr:`noun` (what messages call the store), and
    add their own ``lookup``/``record``.
    """

    error: type[Exception]
    noun: str
    SCHEMA_VERSION = 1

    def __init__(
        self,
        entries: dict[str, dict] | None = None,
        path: str | Path | None = None,
    ):
        self.entries: dict[str, dict] = dict(entries or {})
        self.path = Path(path) if path is not None else None

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        where = f" @ {self.path}" if self.path else ""
        return f"{type(self).__name__}({len(self)} entries{where})"

    def save(self, path: str | Path | None = None) -> Path:
        """Write the store as JSON; returns the path written.

        The write is atomic (:func:`atomic_write_text`): concurrent jobs
        sharing the file see the old document or the new one, never a
        torn file.
        """
        target = Path(path) if path is not None else self.path
        if target is None:
            raise self.error(f"{self.noun} has no path to save to")
        atomic_write_text(
            target,
            json.dumps(
                {"version": self.SCHEMA_VERSION, "entries": self.entries},
                indent=2,
                sort_keys=True,
            )
            + "\n",
        )
        self.path = target
        return target

    @classmethod
    def load(cls, path: "str | Path | JsonEntryStore"):
        """Read a store file; a missing file yields an empty store bound
        to the same path (so a later :meth:`save` creates it).  A store
        passes through as-is, so every ``tuning=`` / ``jit_cache=``
        option takes an instance or a path."""
        if isinstance(path, cls):
            return path
        p = Path(path)
        if not p.exists():
            return cls(path=p)
        try:
            doc = json.loads(p.read_text())
        except json.JSONDecodeError as e:
            raise cls.error(f"{cls.noun} {p} is not valid JSON: {e}")
        if not isinstance(doc, dict) or doc.get("version") != cls.SCHEMA_VERSION:
            raise cls.error(
                f"{cls.noun} {p} has unsupported version "
                f"{doc.get('version') if isinstance(doc, dict) else doc!r}"
            )
        entries = doc.get("entries", {})
        if not isinstance(entries, dict):
            raise cls.error(f"{cls.noun} {p}: entries must be an object")
        return cls(entries=entries, path=p)
