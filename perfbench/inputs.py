"""Seeded workload inputs.

Every input is a pure function of the workload seed.  The fuzz-derived
inputs are *size-stratified*: a kernel's evaluation cost grows with its
instruction count, and the seeded fuzzer's sizes have a heavy tail (a
few unroll-8 blocks of 200+ instructions cost as much as a hundred
small ones).  A plain draw of 300 kernels therefore costs 10% more or
less from one seed to the next, which would swamp any change a later
commit makes.  The sampler walks the seed's fuzz stream in order and
fills a fixed, seed-independent sequence of size classes whose shares
match the fuzzer's own distribution: the seed decides *which* kernels
run, not how much work they are.
"""

from __future__ import annotations

import bisect
import json
import random
from dataclasses import dataclass
from typing import Iterator, Optional

#: instruction-count edges of the size classes
SIZE_EDGES = (16, 32, 64, 128, 200)

#: share of each size class per 100 kernels; 6,000 fuzzer draws (seeds 7
#: and 99) gave 65.5 / 17.9 / 9.2 / 4.9 / 1.6 / 1.0 %
CLASS_SHARES = (65, 18, 9, 5, 2, 1)

#: the prediction backends a serving request rotates through
SERVE_BACKENDS = ("model", "mca", "sim")

#: one request in this many is a never-seen (cold) kernel
COLD_EVERY = 10


def instruction_count(assembly: str) -> int:
    """Instruction lines of an assembly block (no labels, directives or
    comments) — a parser-free size estimate for stratification."""
    n = 0
    for line in assembly.splitlines():
        text = line.split("#", 1)[0].split("//", 1)[0].strip()
        if text and not text.endswith(":") and not text.startswith("."):
            n += 1
    return n


def size_class(assembly: str) -> int:
    return bisect.bisect_right(SIZE_EDGES, instruction_count(assembly))


def class_pattern() -> Iterator[int]:
    """The endless, seed-independent size-class sequence.

    Slot *i* takes the class furthest behind its share, so every prefix
    of the sequence holds each class in proportion.
    """
    total = sum(CLASS_SHARES)
    taken = [0] * len(CLASS_SHARES)
    i = 0
    while True:
        i += 1
        c = max(
            range(len(CLASS_SHARES)),
            key=lambda c: (CLASS_SHARES[c] * i / total - taken[c], -c),
        )
        taken[c] += 1
        yield c


def stratified_kernels(
    seed: int, count: int, *, exclude: Optional[set] = None
) -> list:
    """*count* kernels of seed's fuzz stream, filling :func:`class_pattern`.

    Each slot takes the next unused kernel of its class in stream order,
    so the result is prefix-stable.  With *exclude* (a set of
    ``(uarch, assembly digest)``), kernels already in it are skipped and
    every kernel taken is added to it — serving inputs use this so that
    no cold request can hit the cache.
    """
    from repro.fuzz import draw_fuzz_kernel
    from repro.kernels.corpus import MACHINES
    from repro.kernels.suite import KERNELS
    from repro.lowering import assembly_digest

    # entry i of generate_fuzz_corpus(seed, n), drawn one at a time
    pools = {"machines": sorted(MACHINES), "kernels": sorted(KERNELS)}
    pending: dict[int, list] = {c: [] for c in range(len(CLASS_SHARES))}
    pos = 0
    out: list = []
    pattern = class_pattern()
    while len(out) < count:
        want = next(pattern)
        while not pending[want]:
            k = draw_fuzz_kernel(seed, pos, **pools)
            pos += 1
            if exclude is not None:
                key = (k.uarch, assembly_digest(k.assembly))
                if key in exclude:
                    continue
                exclude.add(key)
            pending[size_class(k.assembly)].append(k)
        out.append(pending[want].pop(0))
    return out


@dataclass(frozen=True)
class Request:
    """One request of the serving stream."""

    rid: str
    #: index into the hot pairs, or -1 for a cold request
    hot: int
    backend: str
    body: bytes


def _body(kernel, backend: str, rid: str) -> bytes:
    return json.dumps({
        "assembly": kernel.assembly, "arch": kernel.machine,
        "backend": backend, "label": rid,
    }).encode()


@dataclass
class ServeInputs:
    """The priming bodies of the hot pairs, and the request stream."""

    prime_bodies: list[bytes]
    stream: list[Request]


def serve_inputs(seed: int, hot_pairs: int, length: int) -> ServeInputs:
    """The serving mix: hot pairs from seed's stream, cold kernels from
    seed+1's, one cold request at a seeded offset in every block of
    :data:`COLD_EVERY`, hot picks drawn uniformly.  Prefix-stable in
    *length*, and cold kernels never repeat or alias a hot kernel."""
    seen: set = set()
    hot = stratified_kernels(seed, hot_pairs, exclude=seen)
    hot_backends = [SERVE_BACKENDS[p % 3] for p in range(hot_pairs)]
    n_cold = -(-length // COLD_EVERY)
    cold = stratified_kernels(seed + 1, n_cold, exclude=seen)
    rng = random.Random(seed)
    stream: list[Request] = []
    j = 0
    for block in range(0, length, COLD_EVERY):
        offset = rng.randrange(COLD_EVERY)
        for i in range(block, min(block + COLD_EVERY, length)):
            rid = f"r{i:06d}"
            if i - block == offset:
                backend = SERVE_BACKENDS[j % 3]
                stream.append(Request(rid, -1, backend, _body(cold[j], backend, rid)))
                j += 1
            else:
                p = rng.randrange(hot_pairs)
                stream.append(
                    Request(rid, p, hot_backends[p], _body(hot[p], hot_backends[p], rid))
                )
    prime = [
        _body(k, b, f"prime-{p}")
        for p, (k, b) in enumerate(zip(hot, hot_backends))
    ]
    return ServeInputs(prime, stream)

