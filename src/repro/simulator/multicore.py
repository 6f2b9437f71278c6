"""Node-level scaling: bandwidth saturation and the Fig. 4 store study.

The memory interface of each ccNUMA domain saturates: achieved
bandwidth is ``min(n · b₁, B_max)`` for ``n`` active cores with
single-core bandwidth ``b₁``.  Store-only streams reach a lower
per-core bandwidth than load streams (the write-allocate round trip),
captured by ``store_bw_fraction``.

The store-only benchmark streams a working set far larger than L3
through the cache hierarchy of every active core, with the chip's
write-allocate policy reacting to the saturation signal:

* **SPR (SpecI2M)** engages gradually once domain utilization exceeds
  the threshold, converting at most ``speci2m_efficiency`` (≈25 %) of
  RFOs into claims; its NT stores keep a ~10 % residual read stream.
* **GCS (cache-line claim)** engages after a short streaming-detector
  warm-up — "next-to-optimal".
* **Genoa** never evades automatically; only NT stores bypass the
  write-allocate.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machine.specs import ChipSpec, get_chip_spec
from .memory import CacheHierarchy, hierarchy_for_chip


def _clamp(x: float, lo: float = 0.0, hi: float = 1.0) -> float:
    return max(lo, min(hi, x))


@dataclass
class BandwidthModel:
    """Saturating bandwidth of one ccNUMA domain."""

    bw_max: float  #: GB/s per domain
    bw_single_core: float  #: GB/s, load-stream single core
    store_bw_fraction: float = 0.4  #: store-stream fraction of b1

    def achieved(self, n_cores: int, kind: str = "load") -> float:
        """Achieved bandwidth (GB/s) for ``n_cores`` streaming cores."""
        b1 = self.bw_single_core
        if kind == "store":
            b1 *= self.store_bw_fraction
        return min(n_cores * b1, self.bw_max)

    def utilization(self, n_cores: int, kind: str = "load") -> float:
        if self.bw_max <= 0:
            return 1.0
        return _clamp(self.achieved(n_cores, kind) / self.bw_max)

    @classmethod
    def for_chip(cls, chip: str | ChipSpec) -> "BandwidthModel":
        spec = chip if isinstance(chip, ChipSpec) else get_chip_spec(chip)
        mem = spec.memory
        return cls(
            bw_max=mem.bw_sustained / mem.ccnuma_domains,
            bw_single_core=mem.bw_single_core,
        )


def measured_socket_bandwidth(chip: str | ChipSpec, n_cores: int | None = None) -> float:
    """Load-stream bandwidth of a socket with ``n_cores`` active.

    Reproduces Table I's "measured" bandwidth when run with all cores.
    """
    spec = chip if isinstance(chip, ChipSpec) else get_chip_spec(chip)
    n = n_cores if n_cores is not None else spec.cores
    domains = spec.memory.ccnuma_domains
    per_domain = BandwidthModel.for_chip(spec)
    cpd = spec.cores // domains
    total = 0.0
    remaining = n
    for _ in range(domains):
        active = min(cpd, remaining)
        if active <= 0:
            break
        total += per_domain.achieved(active)
        remaining -= active
    return total


@dataclass
class StoreBenchmarkResult:
    """One point of the Fig. 4 curves."""

    chip: str
    cores: int
    non_temporal: bool
    traffic_ratio: float
    mem_read_bytes: int
    mem_write_bytes: int
    stored_bytes: int
    utilization: float


def _domain_store_ratio(
    spec: ChipSpec,
    n_in_domain: int,
    bw: BandwidthModel,
    non_temporal: bool,
    working_set_lines: int,
    cache_scale: float,
) -> CacheHierarchy:
    """Stream the store benchmark on one core of a domain with
    ``n_in_domain`` active cores and return its hierarchy (with stats)."""
    mem = spec.memory
    hierarchy = hierarchy_for_chip(spec, scale=cache_scale)
    util = bw.utilization(n_in_domain, kind="store")
    if mem.wa_policy == "speci2m":
        ramp = _clamp(
            (util - mem.speci2m_threshold) / max(1e-9, 1.0 - mem.speci2m_threshold)
        )
        hierarchy.bandwidth_saturated = ramp > 0
        hierarchy.speci2m_fraction = mem.speci2m_efficiency * ramp
    if non_temporal:
        # WC-buffer pressure grows with concurrency; a lone core's
        # buffers drain fully (no residual reads).
        hierarchy.nt_residual = mem.nt_residual * _clamp((n_in_domain - 1) / 3.0)
    line = mem.line_bytes
    for i in range(working_set_lines):
        hierarchy.store(i * line, line, non_temporal=non_temporal)
    hierarchy.drain()
    return hierarchy


def _domain_occupancy(total_cores: int, cores: int, domains: int,
                      pinning: str) -> list[int]:
    """Active cores per ccNUMA domain under a pinning policy.

    ``block`` fills domains one after another (OMP_PLACES=cores with
    close binding); ``spread`` round-robins (scatter binding).
    """
    cpd = total_cores // domains
    if pinning == "block":
        out = []
        remaining = cores
        for _ in range(domains):
            n = min(cpd, remaining)
            out.append(n)
            remaining -= n
        return [n for n in out if n > 0]
    if pinning == "spread":
        base, extra = divmod(cores, domains)
        return [n for n in (base + (1 if d < extra else 0) for d in range(domains)) if n > 0]
    raise ValueError(f"unknown pinning {pinning!r} (block|spread)")


def run_store_benchmark(
    chip: str | ChipSpec,
    cores: int,
    non_temporal: bool = False,
    working_set_lines: int = 8192,
    cache_scale: float = 1e-4,
    pinning: str = "block",
) -> StoreBenchmarkResult:
    """Store-only (array initialization) benchmark — the paper's Fig. 4.

    ``pinning`` controls how cores map to ccNUMA domains: ``block``
    (default, fills one domain after another — the natural close
    binding on an SNC-mode SPR socket) or ``spread`` (scatter binding;
    each domain saturates later, so SpecI2M engages at higher total
    core counts).  The returned traffic ratio is the core-weighted
    average over domains; 1.0 means perfect write-allocate evasion,
    2.0 full write-allocate traffic.
    """
    spec = chip if isinstance(chip, ChipSpec) else get_chip_spec(chip)
    if not 1 <= cores <= spec.cores:
        raise ValueError(f"cores must be in [1, {spec.cores}]")
    mem = spec.memory
    bw = BandwidthModel.for_chip(spec)

    total_read = total_write = total_stored = 0
    weighted_util = 0.0
    # Identically loaded domains share one representative simulation.
    ratio_cache: dict[int, CacheHierarchy] = {}
    for active in _domain_occupancy(spec.cores, cores, mem.ccnuma_domains,
                                    pinning):
        if active not in ratio_cache:
            ratio_cache[active] = _domain_store_ratio(
                spec, active, bw, non_temporal, working_set_lines, cache_scale
            )
        h = ratio_cache[active]
        # every core in this domain behaves like the representative
        total_read += h.stats.mem_read_bytes * active
        total_write += h.stats.mem_write_bytes * active
        total_stored += h.stats.stored_bytes * active
        weighted_util += bw.utilization(active, "store") * active

    return StoreBenchmarkResult(
        chip=spec.chip,
        cores=cores,
        non_temporal=non_temporal,
        traffic_ratio=(total_read + total_write) / total_stored,
        mem_read_bytes=total_read,
        mem_write_bytes=total_write,
        stored_bytes=total_stored,
        utilization=weighted_util / cores,
    )
