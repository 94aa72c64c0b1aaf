"""Content-addressed tuning cache.

A tuning decision is fully determined by the CUDA source, the target
architecture, the optimization tier, the candidate configuration set, and
the launch geometry — so :class:`TuningCache` keys memoized
:class:`~repro.autotune.tdo.TuneOutcome`s by a digest of exactly those
inputs. A hit lets :class:`~repro.pipeline.Program` replay the winning
coarsening directly, skipping alternative generation, filtering, and TDO
entirely. Only a wrapper with no legal coarsening configuration is cached
as a failure (a negative entry); every other tune failure is raised.

The cache is in-memory by default; give it a directory (or set
``$REPRO_TUNING_CACHE``) to persist entries as one JSON file per key
across processes.

Multi-tenant behavior (the ``repro serve`` daemon shares one on-disk
cache across every client):

* every lookup/store is **counted** — instance totals via
  :meth:`TuningCache.stats` plus ``engine.cache.{hit,miss,evict,store,
  dump_errors,quarantined}`` counters on the installed
  :mod:`repro.obs.metrics` registry;
* the on-disk store is **bounded**: an LRU byte budget (and optional
  entry budget) is enforced at :meth:`store` time, configured by
  ``$REPRO_TUNING_CACHE_MAX`` (plain bytes, ``k``/``m``/``g`` suffixes,
  or ``<N>e`` for an entry budget). Eviction orders by file mtime —
  disk hits touch the file, so the order is LRU, and concurrent writers
  stay safe because every writer uses a private ``mkstemp`` temp and
  racing removals tolerate losing;
* a failing dump (full disk, read-only cache dir) is **loud**: warned
  once per cache instance and counted, instead of silently degrading to
  0% warm replay;
* a bad entry (torn write, corrupt JSON, stale :data:`ENTRY_SCHEMA`) is
  **quarantined**, never deleted: renamed to ``<key>.json.quarantine``
  and counted, so the key re-tunes cleanly while the evidence survives
  for postmortems.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .. import faults
from ..obs import metrics as obs_metrics
from ..obs.log import get_logger

#: on-disk entry schema version; entries written by an older (or newer)
#: schema are quarantined and re-tuned rather than misread (since 3, a
#: negative entry means only that no configuration is legal)
ENTRY_SCHEMA = 3

#: environment variable naming the on-disk cache directory
CACHE_DIR_ENV = "REPRO_TUNING_CACHE"

#: environment variable bounding the on-disk cache (LRU-evicted at store
#: time): plain bytes, a ``k``/``m``/``g``-suffixed byte count, or
#: ``<N>e`` for a maximum entry count
CACHE_MAX_ENV = "REPRO_TUNING_CACHE_MAX"

logger = get_logger("engine.cache")

_SUFFIX_BYTES = {"k": 1024, "m": 1024 ** 2, "g": 1024 ** 3}


def parse_cache_budget(text: Optional[str]
                       ) -> Tuple[Optional[int], Optional[int]]:
    """Parse a ``$REPRO_TUNING_CACHE_MAX`` value.

    Returns ``(max_bytes, max_entries)``; both ``None`` for an empty or
    malformed value (malformed values are warned about, not fatal —
    an operator typo must not take the cache down).
    """
    raw = (text or "").strip().lower()
    if not raw:
        return None, None
    try:
        if raw.endswith("e"):
            return None, max(0, int(raw[:-1]))
        if raw[-1] in _SUFFIX_BYTES:
            return max(0, int(float(raw[:-1]) * _SUFFIX_BYTES[raw[-1]])), \
                None
        return max(0, int(raw)), None
    except ValueError:
        logger.warning("ignoring malformed %s value %r", CACHE_MAX_ENV,
                       text)
        return None, None


@dataclass
class CacheEntry:
    """One memoized tuning decision.

    ``outcome`` is ``None`` only when no coarsening configuration is
    legal (the kernel runs untransformed); ``selected_config`` is the
    coarsening kwargs of the winner, used to replay the transformation
    without re-generating alternatives.
    """

    outcome: Optional[object] = None          # TuneOutcome
    selected_config: Optional[Dict[str, object]] = None


def _jsonable(value):
    if isinstance(value, tuple):
        return list(value)
    return str(value)


def arch_token(arch) -> str:
    """A stable digest input for an architecture model.

    Uses every dataclass field, not just the name, so a custom arch that
    shares a name with a stock one cannot alias its cache entries. A
    frozen arch keeps its token, so it is encoded once.
    """
    from dataclasses import asdict, is_dataclass
    frozen = is_dataclass(arch) and arch.__dataclass_params__.frozen
    token = arch.__dict__.get("_arch_token") if frozen else None
    if token is None:
        payload = asdict(arch) if is_dataclass(arch) else repr(arch)
        token = json.dumps(payload, sort_keys=True, default=_jsonable)
        if frozen:
            object.__setattr__(arch, "_arch_token", token)
    return token


def source_hash(source: str, defines: Optional[Dict[str, object]] = None
                ) -> str:
    """Digest of the CUDA source text plus preprocessor defines."""
    text = "%s\n%r" % (source, sorted((defines or {}).items()))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def tuning_key(src_hash: str, arch, tier: str,
               configs: Sequence[Dict[str, object]],
               wrapper_name: str,
               geometry: Sequence[Tuple[int, ...]]) -> str:
    """The content address of one tuning decision.

    ``wrapper_name`` encodes the kernel, grid rank, and block shape;
    ``geometry`` is the tuple of grids the alternatives were ranked over.
    """
    payload = {
        "source": src_hash,
        "arch": arch_token(arch),
        "tier": tier,
        "configs": list(configs),
        "wrapper": wrapper_name,
        "geometry": list(geometry),
    }
    text = json.dumps(payload, sort_keys=True, default=_jsonable)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- TuneOutcome (de)serialization ------------------------------------------------


def entry_to_dict(entry: CacheEntry) -> Dict[str, object]:
    from dataclasses import asdict
    outcome = None
    if entry.outcome is not None:
        outcome = asdict(entry.outcome)
    return {"schema": ENTRY_SCHEMA, "outcome": outcome,
            "selected_config": entry.selected_config}


def entry_from_dict(data: Dict[str, object]) -> CacheEntry:
    from ..autotune.filters import FilterReport
    from ..autotune.tdo import Candidate, TuneOutcome
    raw = data.get("outcome")
    outcome = None
    if raw is not None:
        filters = None
        if raw.get("filters") is not None:
            filters = FilterReport(**raw["filters"])
        outcome = TuneOutcome(
            selected_desc=raw["selected_desc"],
            selected_time=raw["selected_time"],
            candidates=[Candidate(**c) for c in raw.get("candidates", [])],
            filters=filters,
            selected_index=raw.get("selected_index", -1),
            selected_config=raw.get("selected_config"))
    return CacheEntry(outcome, data.get("selected_config"))


class TuningCache:
    """In-memory (and optionally on-disk) map of tuning keys → entries.

    ``max_bytes`` / ``max_entries`` bound the **on-disk** store with LRU
    eviction at :meth:`store` time (``max_entries`` also bounds the
    in-memory map). Both default to ``$REPRO_TUNING_CACHE_MAX``.
    """

    def __init__(self, path: Optional[str] = None,
                 max_bytes: Optional[int] = None,
                 max_entries: Optional[int] = None):
        self.path = path
        if max_bytes is None and max_entries is None:
            max_bytes, max_entries = parse_cache_budget(
                os.environ.get(CACHE_MAX_ENV))
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self._lock = threading.RLock()
        self._memory: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.dump_errors = 0
        self.quarantined = 0
        self._dump_error_logged = False
        if path:
            os.makedirs(path, exist_ok=True)

    # -- access ----------------------------------------------------------------

    def lookup(self, key: str) -> Tuple[bool, Optional[CacheEntry]]:
        """Returns ``(hit, entry)``; the entry is a private copy."""
        with self._lock:
            entry = self._memory.get(key)
            if entry is not None:
                self._memory.move_to_end(key)
                self._count_hit()
                logger.debug("memory hit for %s", key)
                return True, copy.deepcopy(entry)
        if self.path:
            entry = self._load(key)
            if entry is not None:
                self._touch(key)
                with self._lock:
                    self._memory[key] = entry
                    self._memory.move_to_end(key)
                    self._evict_memory(keep=key)
                    self._count_hit()
                logger.debug("disk hit for %s", key)
                return True, copy.deepcopy(entry)
        with self._lock:
            self.misses += 1
        obs_metrics.inc("engine.cache.miss")
        logger.debug("miss for %s", key)
        return False, None

    def store(self, key: str, entry: CacheEntry) -> None:
        logger.debug("store %s (winner: %s)", key,
                     entry.outcome.selected_desc
                     if entry.outcome is not None else "<no legal config>")
        with self._lock:
            self._memory[key] = copy.deepcopy(entry)
            self._memory.move_to_end(key)
            self.stores += 1
            self._evict_memory(keep=key)
        obs_metrics.inc("engine.cache.store")
        if self.path:
            self._dump(key, entry)
            self._evict_disk(keep=key)

    def clear(self) -> None:
        with self._lock:
            self._memory.clear()
        if self.path and os.path.isdir(self.path):
            for name in os.listdir(self.path):
                if name.endswith(".json") or name.endswith(".tmp") \
                        or name.endswith(".quarantine"):
                    try:
                        os.remove(os.path.join(self.path, name))
                    except OSError:
                        pass  # a concurrent clear/evict got there first

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def disk_entries(self) -> int:
        if not self.path or not os.path.isdir(self.path):
            return 0
        return sum(1 for name in os.listdir(self.path)
                   if name.endswith(".json"))

    def disk_bytes(self) -> int:
        """Total size of the on-disk entries, in bytes."""
        return sum(size for _, _, size in self._disk_listing())

    def stats(self) -> Dict[str, object]:
        """Counter snapshot plus occupancy, for ``/v1/cache/stats``."""
        with self._lock:
            hits, misses = self.hits, self.misses
            payload: Dict[str, object] = {
                "hits": hits,
                "misses": misses,
                "stores": self.stores,
                "evictions": self.evictions,
                "dump_errors": self.dump_errors,
                "quarantined": self.quarantined,
                "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
                "entries": len(self._memory),
            }
        payload["disk_entries"] = self.disk_entries()
        payload["disk_bytes"] = self.disk_bytes()
        payload["max_bytes"] = self.max_bytes
        payload["max_entries"] = self.max_entries
        payload["path"] = self.path
        return payload

    def _count_hit(self) -> None:
        # callers hold self._lock
        self.hits += 1
        obs_metrics.inc("engine.cache.hit")

    # -- eviction ---------------------------------------------------------------

    def _evict_memory(self, keep: str) -> None:
        # callers hold self._lock; only the entry budget applies in memory
        # (byte accounting is meaningful for the persisted JSON files).
        # ``keep`` was just move_to_end'd, so the LRU victim is never the
        # entry being stored while the budget is >= 1.
        if self.max_entries is None:
            return
        while len(self._memory) > max(1, self.max_entries):
            self._memory.popitem(last=False)
            if not self.path:
                # memory-only cache: this IS data loss, count it; with a
                # disk store the persisted entry survives and disk
                # eviction does the counting
                self.evictions += 1
                obs_metrics.inc("engine.cache.evict")

    def _disk_listing(self) -> List[Tuple[float, str, int]]:
        """``(mtime, path, size)`` per on-disk entry, oldest first."""
        if not self.path or not os.path.isdir(self.path):
            return []
        listing = []
        for name in os.listdir(self.path):
            if not name.endswith(".json"):
                continue
            full = os.path.join(self.path, name)
            try:
                status = os.stat(full)
            except OSError:
                continue  # concurrently evicted
            listing.append((status.st_mtime, full, status.st_size))
        listing.sort()
        return listing

    def _evict_disk(self, keep: str) -> None:
        """Enforce the LRU byte/entry budget over the persisted entries.

        Orders by mtime (disk hits :meth:`_touch` their file, so this is
        LRU, not FIFO) and is stable under concurrent writers: each
        eviction is one ``os.remove`` that tolerates already-gone files,
        and the entry just stored is never the victim.
        """
        if self.max_bytes is None and self.max_entries is None:
            return
        keep_path = self._file(keep)
        listing = self._disk_listing()
        total = sum(size for _, _, size in listing)
        count = len(listing)
        for mtime, full, size in listing:
            over_bytes = self.max_bytes is not None and \
                total > self.max_bytes
            over_entries = self.max_entries is not None and \
                count > self.max_entries
            if not over_bytes and not over_entries:
                return
            if full == keep_path:
                continue
            try:
                os.remove(full)
            except OSError:
                pass  # a concurrent writer evicted it; budget math below
                # still converges because the loop re-checks per victim
            else:
                logger.debug("evicted %s (%d bytes)", full, size)
                with self._lock:
                    self.evictions += 1
                obs_metrics.inc("engine.cache.evict")
            total -= size
            count -= 1

    # -- persistence -------------------------------------------------------------

    def _file(self, key: str) -> str:
        return os.path.join(self.path, key + ".json") if self.path \
            else key + ".json"

    def _touch(self, key: str) -> None:
        """Refresh an entry's mtime so disk eviction stays LRU."""
        try:
            os.utime(self._file(key), None)
        except OSError:
            pass  # entry evicted between read and touch

    def _quarantine(self, path: str, reason: str) -> None:
        """Rename a bad entry aside instead of deleting the evidence.

        The key misses (and re-tunes) exactly as if the entry were gone,
        but the bytes survive as ``<entry>.quarantine`` for postmortems
        — a corrupt entry is a bug report about some writer, and deleting
        it destroys the only copy.
        """
        try:
            os.replace(path, path + ".quarantine")
        except OSError:
            return  # concurrently evicted or already quarantined
        with self._lock:
            self.quarantined += 1
        obs_metrics.inc("engine.cache.quarantined")
        logger.warning("quarantined cache entry %s (%s); the key will "
                       "be re-tuned", path, reason)

    def _load(self, key: str) -> Optional[CacheEntry]:
        path = self._file(key)
        try:
            spec = faults.maybe_fault("engine.cache.load")
            if spec is not None and spec.kind == "truncate":
                _truncate_file(path)  # simulate reading a torn write
            with open(path) as handle:
                data = json.load(handle)
            schema = data.get("schema", 1)
            if schema != ENTRY_SCHEMA:
                self._quarantine(path, "stale schema %r" % schema)
                return None
            return entry_from_dict(data)
        except OSError:
            return None  # not on disk (or unreadable): a plain miss
        except (ValueError, KeyError, TypeError):
            self._quarantine(path, "corrupt entry")
            return None

    def _dump(self, key: str, entry: CacheEntry) -> None:
        # the temp file must be unique PER WRITER: concurrent processes
        # storing the same key with a shared name would interleave writes
        # and os.replace a corrupt file into the cache
        target = self._file(key)
        tmp = None
        try:
            spec = faults.maybe_fault("engine.cache.dump")
            fd, tmp = tempfile.mkstemp(dir=self.path,
                                       prefix=key[:16] + ".",
                                       suffix=".tmp")
            with os.fdopen(fd, "w") as handle:
                json.dump(entry_to_dict(entry), handle)
            os.replace(tmp, target)
            if spec is not None and spec.kind == "truncate":
                _truncate_file(target)  # publish a torn write
        except OSError as error:
            # a full disk or read-only cache dir silently degrades every
            # future run to 0% warm replay — say so once, count always
            with self._lock:
                self.dump_errors += 1
                first = not self._dump_error_logged
                self._dump_error_logged = True
            obs_metrics.inc("engine.cache.dump_errors")
            if first:
                logger.warning(
                    "cannot persist tuning cache entry under %s (%s); "
                    "warm replay across processes is disabled until the "
                    "cache directory is writable again", self.path, error)
            else:
                logger.debug("cache dump failed again: %s", error)
        finally:
            if tmp is not None and os.path.exists(tmp):
                try:
                    os.remove(tmp)
                except OSError:
                    pass


def _truncate_file(path: str) -> None:
    """Cut a file in half in place: the injected torn-write shape."""
    try:
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size // 2)
    except OSError:
        pass


def default_cache_path() -> Optional[str]:
    return os.environ.get(CACHE_DIR_ENV) or None
