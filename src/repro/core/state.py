"""Per-process state containers used by the Omega algorithms.

The paper's pseudo-code manipulates four data structures per process ``p_i``:

* ``susp_level_i[1..n]`` — how many rounds each process has been suspected by at
  least ``n - t`` processes (:class:`SuspicionLevels`);
* ``rec_from_i[rn]`` — the ids from which an ``ALIVE(rn)`` message has been counted
  (:class:`RoundRecords`, initialised to ``{i}`` for every round);
* ``suspicions_i[rn, k]`` — how many ``SUSPICION(rn, ...)`` messages naming ``k``
  have been received (:class:`RoundRecords`);
* the round numbers ``s_rn_i`` and ``r_rn_i`` (kept as plain integers by the
  algorithm classes).

The containers only hold state.  The boundedness claims of Section 6 (Theorem 4
and Lemma 8) are checked by the algorithm after each handler that wrote a level
(:meth:`~repro.core.omega_base.RotatingStarOmegaBase._audit_levels`), into the
process's counter registry, which :mod:`repro.analysis.bounds` reads.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple


class SuspicionLevels:
    """The ``susp_level`` array with element-wise-max gossip merging.

    The array is indexed by process id and never decreases (Lemma 8 relies on this
    monotonicity).  ``merge`` implements line 5 of the algorithms and reports
    whether it wrote; ``increase`` implements line 17.
    """

    def __init__(self, process_ids: Iterable[int]) -> None:
        self._levels: Dict[int, int] = {pid: 0 for pid in process_ids}
        if not self._levels:
            raise ValueError("SuspicionLevels requires at least one process id")
        # Cached ``least_suspected`` result.  ``leader()`` is queried on every
        # delivered message, so the lexicographic minimum is recomputed only when
        # it can actually change: levels never decrease, hence an increase of a
        # *non*-leader entry leaves the minimum untouched and only an increase of
        # the cached leader's own entry invalidates the cache.
        self._leader_cache: Optional[int] = None
        # Cached ``snapshot()`` tuple; every write of a level drops it.
        self._snapshot: Optional[Tuple[Tuple[int, int], ...]] = None

    def __getitem__(self, pid: int) -> int:
        return self._levels[pid]

    def __contains__(self, pid: int) -> bool:
        return pid in self._levels

    def __len__(self) -> int:
        return len(self._levels)

    def process_ids(self) -> List[int]:
        """Return the process ids covered by the array (sorted)."""
        return sorted(self._levels)

    def as_dict(self) -> Dict[int, int]:
        """Return a copy of the array as a dictionary."""
        return dict(self._levels)

    def merge(self, other: Mapping[int, int]) -> bool:
        """Element-wise maximum with *other* (line 5: gossip absorption);
        True when an entry rose."""
        return self.merge_items(other.items())

    def merge_items(self, pairs: Iterable[Tuple[int, int]]) -> bool:
        """Like :meth:`merge` but over ``(pid, level)`` pairs.

        ALIVE messages carry their snapshot as a tuple of pairs; merging it
        directly avoids materialising a dictionary per delivered message.  A
        snapshot equal to this array's cached own raises nothing and returns
        False at once, without walking the pairs.
        """
        if pairs == self._snapshot:
            return False
        levels = self._levels
        wrote = False
        for pid, level in pairs:
            current = levels.get(pid)
            if current is None:
                # Unknown ids can only come from a mis-configured system; the paper's
                # model has a fixed, known membership, so reject them loudly.
                raise KeyError(f"unknown process id {pid} in gossiped susp_level")
            if level > current:
                levels[pid] = level
                wrote = True
                if pid == self._leader_cache:
                    self._leader_cache = None
        if wrote:
            self._snapshot = None
        return wrote

    def increase(self, pid: int) -> int:
        """Increment the entry of *pid* (line 17) and return the new value."""
        value = self._levels[pid] + 1
        self._levels[pid] = value
        self._snapshot = None
        if pid == self._leader_cache:
            self._leader_cache = None
        return value

    def minimum(self) -> int:
        """Return the smallest entry of the array."""
        return min(self._levels.values())

    def maximum(self) -> int:
        """Return the largest entry of the array."""
        return max(self._levels.values())

    def spread(self) -> int:
        """Return ``max - min`` (Lemma 8 proves this never exceeds 1 in Figure 3)."""
        return self.maximum() - self.minimum()

    def least_suspected(self) -> int:
        """Return the id elected by lines 19-21: lexicographic min of (level, id).

        The result is cached between mutations that can change it (see
        ``__init__``); the common case — a message that leaves the current
        leader's level untouched — answers from the cache in O(1).
        """
        leader = self._leader_cache
        if leader is None:
            leader = min(self._levels, key=lambda pid: (self._levels[pid], pid))
            self._leader_cache = leader
        return leader

    def snapshot(self) -> Tuple[Tuple[int, int], ...]:
        """Return an immutable snapshot suitable for embedding in an ALIVE message.

        The sorted ``(pid, level)`` tuple is cached and shared by every call
        until a level rises: :meth:`increase` and a :meth:`merge_items` that
        wrote drop it, and they are the array's only writers.
        """
        snapshot = self._snapshot
        if snapshot is None:
            snapshot = self._snapshot = tuple(sorted(self._levels.items()))
        return snapshot


class RoundRecords:
    """Per-round bookkeeping: ``rec_from`` sets and ``suspicions`` counters.

    Entries are created lazily (the paper initialises them for *every* round number
    up front, which is not implementable); a missing ``rec_from[rn]`` behaves as the
    initial ``{owner}`` and a missing ``suspicions[rn][k]`` behaves as 0.

    Garbage collection
    ------------------
    The two tables are read on different schedules, so they are freed on
    different schedules:

    * ``rec_from[rn]`` is read only while ``rn`` is at or above the receiving
      round (ALIVEs of a closed round are not counted, line 6).  The algorithm
      therefore hands a round's set back with :meth:`close_round` when it
      closes or skips the round, and ``rec_from`` holds only open rounds.
    * ``suspicions[rn]`` can still be incremented and consulted after ``rn``
      closed (a late ``SUSPICION``, the line-``*`` window).  ``purge_below(limit)``
      drops rounds strictly below ``limit``; the algorithm only calls it with
      limits below every round the window test can still consult, so collection
      never changes a decision, and tests compare GC-enabled and GC-disabled
      runs to confirm this.  It runs at every round close, so it costs what it
      drops, not what is retained: it walks the round numbers from the previous
      limit up (or the tables, when those are fewer), plus the few late
      ``SUSPICION`` rounds stored below the previous limit.
    """

    def __init__(self, owner: int) -> None:
        self.owner = owner
        self._rec_from: Dict[int, Set[int]] = {}
        self._suspicions: Dict[int, Dict[int, int]] = {}
        #: Rounds strictly below this limit have been purged.
        self.purged_below: int = 0
        #: Suspicion rounds stored although already below ``purged_below`` (a
        #: late SUSPICION); the next purge drops them.
        self._late_suspicions: Set[int] = set()

    # -- rec_from --------------------------------------------------------------
    def rec_from(self, rn: int) -> Set[int]:
        """Return the (mutable) reception set for round *rn*."""
        if rn < self.purged_below:
            # A purged round can no longer influence the algorithm; return a throwaway
            # set initialised as the paper prescribes.
            return {self.owner}
        record = self._rec_from.get(rn)
        if record is None:
            record = {self.owner}
            self._rec_from[rn] = record
        return record

    def add_reception(self, rn: int, sender: int) -> None:
        """Record that ``ALIVE(rn)`` from *sender* was counted (line 6)."""
        self.rec_from(rn).add(sender)

    def close_round(self, rn: int) -> Set[int]:
        """Forget round *rn*'s reception set and return it (``{owner}`` when the
        round holds none or was purged); no later call reads it again."""
        record = self._rec_from.pop(rn, None)
        return {self.owner} if record is None else record

    def reception_count(self, rn: int) -> int:
        """Return ``|rec_from[rn]|``."""
        if rn < self.purged_below:
            return 1
        record = self._rec_from.get(rn)
        return 1 if record is None else len(record)

    # -- suspicions -------------------------------------------------------------
    def add_suspicion(self, rn: int, suspect: int) -> int:
        """Increment ``suspicions[rn][suspect]`` (line 15) and return the new count."""
        counters = self._suspicions.get(rn)
        if counters is None:
            counters = self._suspicions[rn] = {}
            if rn < self.purged_below:
                self._late_suspicions.add(rn)
        value = counters.get(suspect, 0) + 1
        counters[suspect] = value
        return value

    def suspicion_count(self, rn: int, suspect: int) -> int:
        """Return ``suspicions[rn][suspect]`` (0 when never incremented)."""
        counters = self._suspicions.get(rn)
        if counters is None:
            return 0
        return counters.get(suspect, 0)

    def window_satisfied(
        self, rn: int, suspect: int, window_start: int, threshold: int
    ) -> bool:
        """Return True when ``suspicions[x][suspect] >= threshold`` for every round
        ``x`` in ``[window_start, rn]`` that exists (i.e. ``x >= 1``).

        This is the line-``*`` test of Figures 2 and 3; non-existing rounds
        (``x < 1``) are skipped, and rounds that were purged are treated as
        *unsatisfied* so garbage collection can only make the algorithm more
        conservative, never less.
        """
        start = max(1, window_start)
        for x in range(start, rn + 1):
            if x == rn:
                # The caller has just checked the current round's counter.
                continue
            if x < self.purged_below:
                return False
            if self.suspicion_count(x, suspect) < threshold:
                return False
        return True

    # -- garbage collection -------------------------------------------------------
    def purge_below(self, limit: int) -> int:
        """Drop bookkeeping for rounds strictly below *limit*; return #rounds dropped."""
        if limit <= self.purged_below:
            return 0
        dropped = 0
        for table in (self._rec_from, self._suspicions):
            if limit - self.purged_below <= len(table):
                # Every retained round but the late SUSPICION ones (dropped
                # below) is at or above the previous limit.
                stale = range(self.purged_below, limit)
            else:
                stale = [rn for rn in table if rn < limit]
            for rn in stale:
                if table.pop(rn, None) is not None:
                    dropped += 1
        for rn in self._late_suspicions:
            if self._suspicions.pop(rn, None) is not None:
                dropped += 1
        self._late_suspicions.clear()
        self.purged_below = limit
        return dropped

    # -- introspection --------------------------------------------------------------
    def tracked_rounds(self) -> int:
        """Return how many distinct rounds currently have bookkeeping."""
        return len(set(self._rec_from) | set(self._suspicions))

    def memory_cells(self) -> int:
        """Return an upper bound on the number of stored cells (for memory audits)."""
        cells = sum(len(record) for record in self._rec_from.values())
        cells += sum(len(counters) for counters in self._suspicions.values())
        return cells


def lexicographic_min(levels: Mapping[int, int]) -> int:
    """Return the id with the lexicographically smallest ``(level, id)`` pair.

    Exposed as a module-level helper because the baselines reuse the same election
    rule over their own counter arrays.
    """
    if not levels:
        raise ValueError("cannot elect a leader from an empty level map")
    return min(levels, key=lambda pid: (levels[pid], pid))
