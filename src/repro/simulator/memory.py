"""Line-granular cache hierarchy with write-allocate policy hooks.

The write-allocate case study (the paper's Section III / Fig. 4) is
about what happens on a **store miss**:

* ``always`` (Genoa standard stores) — read the line from below before
  modifying it (read-for-ownership): memory traffic = 2× stored data.
* ``claim`` (GCS) — the core detects that a line will be overwritten
  entirely and *claims* it in the cache without a read.  Detection is a
  streaming heuristic: after a short run of sequential full-line write
  misses the claim engages.  This is why Grace is "next-to-optimal"
  rather than exactly 1.0 — the first lines of each stream still incur
  read-for-ownership.
* ``speci2m`` (SPR) — Intel's SpecI2M converts RFO to I2M (claim) only
  when the memory interface is near saturation, and even then only for
  a fraction of lines (paper: ≤ 25 % reduction).
* **NT stores** — bypass the hierarchy through write-combine buffers;
  on SPR a fraction of WC buffers is flushed partially filled, causing
  a residual read (paper: ~10 %).

The hierarchy is a real set-associative LRU simulator so the same code
also supports layer-condition experiments on stencils; the Fig. 4
benchmark streams a working set much larger than L3 through it and
counts memory-controller traffic.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional


@dataclass
class WritePolicyStats:
    """Traffic accounting at the memory controller."""

    stored_bytes: int = 0
    loaded_bytes: int = 0
    mem_read_bytes: int = 0
    mem_write_bytes: int = 0
    store_misses: int = 0
    store_claims: int = 0
    nt_stores: int = 0

    @property
    def traffic_ratio(self) -> float:
        """(memory read + write traffic) / stored data — Fig. 4's metric."""
        if self.stored_bytes == 0:
            return 0.0
        return (self.mem_read_bytes + self.mem_write_bytes) / self.stored_bytes


class CacheLevel:
    """One set-associative, write-back, LRU cache level."""

    def __init__(self, name: str, size_bytes: int, line_bytes: int = 64,
                 ways: int = 8):
        if size_bytes % (line_bytes * ways):
            raise ValueError(
                f"{name}: size {size_bytes} not divisible by line*ways"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.ways = ways
        self.n_sets = size_bytes // (line_bytes * ways)
        #: per set: OrderedDict line_tag -> dirty flag (LRU order)
        self._sets: list[OrderedDict[int, bool]] = [
            OrderedDict() for _ in range(self.n_sets)
        ]
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _locate(self, line_addr: int) -> tuple[OrderedDict, int]:
        return self._sets[line_addr % self.n_sets], line_addr

    def lookup(self, line_addr: int) -> bool:
        """Probe without inserting; refreshes LRU on hit."""
        s, tag = self._locate(line_addr)
        if tag in s:
            s.move_to_end(tag)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, line_addr: int, dirty: bool) -> Optional[tuple[int, bool]]:
        """Insert a line; returns evicted ``(line_addr, dirty)`` if any."""
        s, tag = self._locate(line_addr)
        if tag in s:
            s[tag] = s[tag] or dirty
            s.move_to_end(tag)
            return None
        evicted = None
        if len(s) >= self.ways:
            old_tag, old_dirty = s.popitem(last=False)
            evicted = (old_tag, old_dirty)
            self.evictions += 1
        s[tag] = dirty
        return evicted

    def mark_dirty(self, line_addr: int) -> None:
        s, tag = self._locate(line_addr)
        if tag in s:
            s[tag] = True
            s.move_to_end(tag)

    def flush_stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions}


class CacheHierarchy:
    """L1→L2→L3→memory hierarchy with a configurable WA policy.

    Parameters
    ----------
    levels:
        Cache levels ordered L1 first.
    wa_policy:
        ``"always"`` | ``"claim"`` | ``"speci2m"``.
    claim_detect_lines:
        Sequential full-line write misses needed before the streaming
        detector claims lines (``claim`` policy).
    speci2m_fraction:
        Fraction of store misses converted to claims while the memory
        interface is saturated (``speci2m`` policy).
    nt_residual:
        Fraction of NT store lines that still cause a read (imperfect
        write-combining; SPR ≈ 0.10).
    """

    def __init__(
        self,
        levels: list[CacheLevel],
        line_bytes: int = 64,
        wa_policy: str = "always",
        claim_detect_lines: int = 2,
        speci2m_fraction: float = 0.0,
        nt_residual: float = 0.0,
    ):
        if wa_policy not in ("always", "claim", "speci2m"):
            raise ValueError(f"unknown write-allocate policy {wa_policy!r}")
        self.levels = levels
        self.line_bytes = line_bytes
        self.wa_policy = wa_policy
        self.claim_detect_lines = claim_detect_lines
        self.speci2m_fraction = speci2m_fraction
        self.nt_residual = nt_residual
        self.stats = WritePolicyStats()
        #: memory-interface saturation signal (set by the node model)
        self.bandwidth_saturated = False
        self._last_write_line = -2
        self._stream_run = 0
        self._store_miss_count = 0
        self._nt_line_count = 0
        self._nt_partial_carry = 0.0
        self._speci2m_carry = 0.0

    # ------------------------------------------------------------------

    def load(self, addr: int, size: int) -> None:
        """Read ``size`` bytes at ``addr`` through the hierarchy."""
        self.stats.loaded_bytes += size
        for line in self._lines(addr, size):
            self._load_line(line)

    def store(self, addr: int, size: int, non_temporal: bool = False) -> None:
        """Write ``size`` bytes at ``addr``.

        ``non_temporal=True`` models NT/streaming stores through
        write-combine buffers (no allocation in any level).
        """
        self.stats.stored_bytes += size
        for line in self._lines(addr, size):
            if non_temporal:
                self._store_line_nt(line)
            else:
                self._store_line(line)

    # ------------------------------------------------------------------

    def _lines(self, addr: int, size: int):
        first = addr // self.line_bytes
        last = (addr + size - 1) // self.line_bytes
        return range(first, last + 1)

    def _load_line(self, line: int) -> None:
        for i, lvl in enumerate(self.levels):
            if lvl.lookup(line):
                # refill upward
                for upper in self.levels[:i]:
                    self._insert(upper, line, dirty=False)
                return
        # memory read
        self.stats.mem_read_bytes += self.line_bytes
        for lvl in self.levels:
            self._insert(lvl, line, dirty=False)

    def _store_line(self, line: int) -> None:
        # hit anywhere: move to L1 dirty, no memory traffic
        for i, lvl in enumerate(self.levels):
            if lvl.lookup(line):
                lvl.mark_dirty(line)
                for upper in self.levels[:i]:
                    self._insert(upper, line, dirty=True)
                self._note_stream(line)
                return
        self.stats.store_misses += 1
        self._store_miss_count += 1
        claim = self._should_claim(line)
        if claim:
            self.stats.store_claims += 1
        else:
            self.stats.mem_read_bytes += self.line_bytes  # write-allocate RFO
        for lvl in self.levels:
            self._insert(lvl, line, dirty=True)
        self._note_stream(line)

    def _store_line_nt(self, line: int) -> None:
        self.stats.nt_stores += 1
        self._nt_line_count += 1
        self.stats.mem_write_bytes += self.line_bytes
        # imperfect write combining: a deterministic fraction of NT
        # lines is flushed partially filled and needs a merge read
        self._nt_partial_carry += self.nt_residual
        if self._nt_partial_carry >= 1.0:
            self._nt_partial_carry -= 1.0
            self.stats.mem_read_bytes += self.line_bytes

    def _should_claim(self, line: int) -> bool:
        if self.wa_policy == "claim":
            # streaming detector: consecutive-line write misses
            return self._stream_run >= self.claim_detect_lines
        if self.wa_policy == "speci2m":
            if not self.bandwidth_saturated or self.speci2m_fraction <= 0:
                return False
            self._speci2m_carry += self.speci2m_fraction
            if self._speci2m_carry >= 1.0:
                self._speci2m_carry -= 1.0
                return True
            return False
        return False

    def _note_stream(self, line: int) -> None:
        if line == self._last_write_line + 1:
            self._stream_run += 1
        elif line != self._last_write_line:
            self._stream_run = 0
        self._last_write_line = line

    def _insert(self, lvl: CacheLevel, line: int, dirty: bool) -> None:
        evicted = lvl.insert(line, dirty)
        if evicted is None:
            return
        ev_line, ev_dirty = evicted
        below = self.levels.index(lvl) + 1
        if below < len(self.levels):
            self._insert(self.levels[below], ev_line, ev_dirty)
        elif ev_dirty:
            self.stats.mem_write_bytes += self.line_bytes

    # ------------------------------------------------------------------

    def drain(self) -> None:
        """Write back all dirty lines (end-of-benchmark flush)."""
        last = self.levels[-1]
        for s in last._sets:
            for _, dirty in s.items():
                if dirty:
                    self.stats.mem_write_bytes += self.line_bytes
            s.clear()
        for lvl in self.levels[:-1]:
            for s in lvl._sets:
                s.clear()


def hierarchy_for_chip(chip_spec, scale: float = 1.0, ways: int = 8) -> CacheHierarchy:
    """Build a hierarchy from a :class:`~repro.machine.specs.ChipSpec`.

    ``scale`` shrinks capacities (keeping ratios) so benchmarks can
    stream a proportionally smaller working set in reasonable time.
    """
    mem = chip_spec.memory
    line = mem.line_bytes

    def _sz(bytes_: int) -> int:
        target = max(int(bytes_ * scale), line * ways)
        # round to a multiple of line*ways
        q = line * ways
        return max(q, (target // q) * q)

    levels = [
        CacheLevel("L1", _sz(mem.l1_bytes), line, ways),
        CacheLevel("L2", _sz(mem.l2_bytes), line, ways),
        CacheLevel("L3", _sz(mem.l3_bytes), line, ways),
    ]
    return CacheHierarchy(
        levels,
        line_bytes=line,
        wa_policy=mem.wa_policy,
        speci2m_fraction=mem.speci2m_efficiency,
        nt_residual=mem.nt_residual,
    )
