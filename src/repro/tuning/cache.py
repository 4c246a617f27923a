"""The persistent tuning cache.

One entry per ``(topology signature, node count, payload bucket)``:
the winning algorithm plus the per-algorithm costs that decided it.
Payloads are bucketed by power of two — bucket ``b`` covers
``(2**(b-1), 2**b]`` bytes — so one autotuning sweep generalizes to
nearby sizes, exactly how MPI tuning tables are keyed.

On-disk format (``version`` guards future schema changes)::

    {
      "version": 1,
      "entries": {
        "flat(a=2e-06,b=11)|n=4|b=20": {
          "algo": "recursive_doubling",
          "costs": {"ring": 3.1e-4, "recursive_doubling": 2.9e-4, ...}
        }
      }
    }
"""

from __future__ import annotations

from repro.cluster.collectives import ALLGATHER_ALGOS
from repro.cluster.topology import Topology
from repro.errors import ClusterError
from repro.ioutil import JsonEntryStore

__all__ = ["TuningCache", "payload_bucket", "DEFAULT_CACHE_PATH"]

#: default cache file written by ``repro tune`` and read by ``repro run``
DEFAULT_CACHE_PATH = ".repro-tuning.json"


def payload_bucket(nbytes: float) -> int:
    """Power-of-two bucket index of a payload: ``2**(b-1) < nbytes <= 2**b``
    (bucket 0 holds everything up to one byte)."""
    n = int(nbytes)
    if n <= 1:
        return 0
    return (n - 1).bit_length()


class TuningCache(JsonEntryStore):
    """In-memory view of the tuning table, JSON round-trippable."""

    error = ClusterError
    noun = "tuning cache"

    # -- keying ---------------------------------------------------------
    @staticmethod
    def key(signature: str, n: int, nbytes: float) -> str:
        return f"{signature}|n={n}|b={payload_bucket(nbytes)}"

    # -- access ---------------------------------------------------------
    def lookup(self, topo: Topology, n: int, nbytes: float) -> str | None:
        """The cached winner for this bucket, or ``None`` on a miss (a
        damaged entry, or a name that is no longer a known algorithm,
        is a miss too)."""
        entry = self.entries.get(self.key(topo.signature, n, nbytes))
        if not isinstance(entry, dict):
            return None
        algo = entry.get("algo")
        return algo if algo in ALLGATHER_ALGOS else None

    def record(
        self,
        topo: Topology,
        n: int,
        nbytes: float,
        algo: str,
        costs: dict[str, float] | None = None,
    ) -> None:
        if algo not in ALLGATHER_ALGOS:
            raise ClusterError(f"cannot cache unknown algorithm {algo!r}")
        self.entries[self.key(topo.signature, n, nbytes)] = {
            "algo": algo,
            "costs": {k: float(v) for k, v in (costs or {}).items()},
        }

    def merge(self, other: TuningCache) -> None:
        """Adopt every entry of ``other`` (theirs win on conflict)."""
        self.entries.update(other.entries)
