"""Set-associative LRU cache models for the trace-driven simulator mode."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict


@dataclass
class CacheStats:
    accesses: int = 0
    hits: int = 0

    @property
    def misses(self) -> int:
        return self.accesses - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class Cache:
    """A set-associative LRU cache over (buffer_id, line) addresses."""

    def __init__(self, size_bytes: int, line_bytes: int = 128,
                 ways: int = 8):
        self.line_bytes = line_bytes
        self.ways = max(1, ways)
        self.num_sets = max(1, size_bytes // (line_bytes * self.ways))
        self._sets: Dict[int, OrderedDict] = {}
        self.stats = CacheStats()

    def access(self, buffer_id: int, byte_address: int) -> bool:
        """Access one address; returns True on hit."""
        line = byte_address // self.line_bytes
        set_index = (line ^ buffer_id * 0x9E3779B1) % self.num_sets
        tag = (buffer_id, line)
        entries = self._sets.setdefault(set_index, OrderedDict())
        self.stats.accesses += 1
        if tag in entries:
            entries.move_to_end(tag)
            self.stats.hits += 1
            return True
        entries[tag] = True
        if len(entries) > self.ways:
            entries.popitem(last=False)
        return False

    def reset_stats(self) -> None:
        self.stats = CacheStats()
