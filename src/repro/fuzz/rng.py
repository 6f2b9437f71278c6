"""Deterministic, platform-independent random draws for the fuzzer.

Every fuzzed kernel must be a *pure function* of ``(seed, persona,
mutation-vector)`` — across interpreter versions, operating systems,
and worker counts.  ``random.Random`` makes no cross-version stream
guarantees for all of its methods, so the fuzzer draws from SHA-256
instead, through the same :func:`~repro.lowering.digests.sha256_u64`
as the fault-injection harness (:mod:`repro.faults`): a
:class:`SeedStream` is keyed by an arbitrary
tuple of parts and yields a reproducible sequence of integers in
``[0, 2**64)``, from which the usual ``randint``/``choice``/``shuffle``
conveniences are derived.

Two streams with the same key parts produce identical sequences;
distinct key parts produce statistically independent ones.
"""

from __future__ import annotations

from typing import MutableSequence, Sequence, TypeVar

from ..lowering.digests import sha256_u64

T = TypeVar("T")


class SeedStream:
    """A reproducible random stream keyed by ``parts``.

    Draw *n* is ``SHA-256(key | n)`` truncated to 64 bits — a pure
    function of the key and the draw index, so the stream replays
    identically anywhere.
    """

    def __init__(self, *parts: object):
        self._key = "|".join(str(p) for p in parts)
        self._n = 0

    def u64(self) -> int:
        """The next raw draw in ``[0, 2**64)``."""
        n = self._n
        self._n += 1
        return sha256_u64(self._key, n)

    def random(self) -> float:
        """The next draw as a float in ``[0, 1)``."""
        return self.u64() / 2**64

    def randint(self, lo: int, hi: int) -> int:
        """A draw in ``[lo, hi]`` (both inclusive).

        The modulo bias is ~2**-50 for the small ranges the fuzzer
        uses — irrelevant next to reproducibility.
        """
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.u64() % (hi - lo + 1)

    def chance(self, p: float) -> bool:
        """True with probability *p* (consumes exactly one draw)."""
        return self.random() < p

    def choice(self, seq: Sequence[T]) -> T:
        """One element of a non-empty sequence."""
        if not seq:
            raise ValueError("choice from an empty sequence")
        return seq[self.u64() % len(seq)]

    def shuffle(self, items: MutableSequence[T]) -> None:
        """In-place Fisher-Yates shuffle driven by the stream."""
        for i in range(len(items) - 1, 0, -1):
            j = self.u64() % (i + 1)
            items[i], items[j] = items[j], items[i]
