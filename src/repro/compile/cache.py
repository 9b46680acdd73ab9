"""Compiled-kernel cache keyed by normalized plan shape.

One entry per :class:`repro.compile.shapes.PlanShape` key.  Entries are
invalidated — never silently reused — when:

* the **schema epoch** moves (``Database._schema_changed`` bumps it
  whenever it clears the statement cache), or
* the **cracking layout token** recorded at compile time no longer
  matches: a kernel compiled against an uncracked column specializes its
  scan differently from one that can call ``sql.crackedselect``, so the
  appearance (or vacuum-triggered disappearance) of a cracker index
  forces respecialization.

Counters are observable through ``Database.profile`` /
``PlanCompiler.stats`` so PROFILE output can attribute compiled vs
interpreted work and tests can assert cache behaviour exactly.
"""


class KernelCache:
    """Shape-keyed store of compiled plans with hit/miss/invalidation
    accounting."""

    def __init__(self, max_entries=256):
        self.max_entries = max_entries
        self._entries = {}          # key -> (layout_token, CompiledPlan)
        self.schema_epoch = 0
        self._entry_epochs = {}     # key -> schema epoch at store time
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def __len__(self):
        return len(self._entries)

    def bump_schema(self):
        """Schema changed: every cached kernel is now suspect."""
        self.schema_epoch += 1

    def lookup(self, key, layout_token):
        """Return the cached plan or ``None`` (counting a miss).

        A stale entry (old schema epoch or changed cracking layout)
        counts one invalidation *and* one miss, and is evicted so the
        caller's fresh compile replaces it.
        """
        entry = self._entries.get(key)
        if entry is not None:
            stale = self._entry_epochs.get(key) != self.schema_epoch \
                or entry[0] != layout_token
            if not stale:
                self.hits += 1
                return entry[1]
            self.invalidations += 1
            del self._entries[key]
            self._entry_epochs.pop(key, None)
        self.misses += 1
        return None

    def store(self, key, layout_token, plan):
        if len(self._entries) >= self.max_entries and \
                key not in self._entries:
            # FIFO eviction: dict preserves insertion order.
            oldest = next(iter(self._entries))
            del self._entries[oldest]
            self._entry_epochs.pop(oldest, None)
        self._entries[key] = (layout_token, plan)
        self._entry_epochs[key] = self.schema_epoch

    def clear(self):
        self._entries.clear()
        self._entry_epochs.clear()

    def counters(self):
        return {
            "kernel_cache_hits": self.hits,
            "kernel_cache_misses": self.misses,
            "kernel_cache_invalidations": self.invalidations,
            "kernel_cache_entries": len(self._entries),
        }
