"""Fig. 3 — relative prediction error of the 416-test validation corpus.

For every corpus entry, three numbers are produced:

* **measurement** — cycles/iteration on the cycle-level core simulator
  (the hardware stand-in),
* **our model** — the OSACA-style static lower bound,
* **MCA baseline** — the LLVM-MCA-style prediction on generic data.

The relative prediction error is ``RPE = (meas − pred) / meas``:
positive (right of the zero line) means the prediction is *faster* than
the measurement — the desired side for a lower-bound model.  The
histogram uses the paper's 10 % buckets with an underflow bin for
predictions more than 2× too slow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..engine import CorpusEngine, WorkUnit, resolve_engine
from ..kernels import enumerate_corpus
from ..kernels.corpus import CorpusEntry, unique_assembly_count
from .render import ascii_histogram

#: the paper's headline statistics for Fig. 3
PAPER_REFERENCE = {
    "osaca_right_side_fraction": 0.96,
    "osaca_within_10pct": 0.37,
    "osaca_within_20pct": 0.44,
    "osaca_off_by_2x": 1,
    "mca_slower_fraction": 0.75,
    "mca_off_by_2x": 14,
    "tests": 416,
    "unique_assembly": 290,
    "avg_right_rpe_osaca": {"golden_cove": 0.24, "neoverse_v2": 0.30, "zen4": 0.18},
    "avg_right_rpe_mca": {"golden_cove": 0.38, "neoverse_v2": 0.34, "zen4": 0.20},
    "global_rpe_osaca": {"golden_cove": 0.30, "neoverse_v2": 0.26, "zen4": 0.18},
    "global_rpe_mca": {"golden_cove": 0.35, "neoverse_v2": 0.52, "zen4": 0.16},
}


#: every prediction backend of the Fig. 3 comparison, in display order
ALL_BACKENDS = ("model", "sim", "mca")


@dataclass
class Fig3Record:
    entry: CorpusEntry
    measurement: float
    #: either prediction is ``None`` when its backend was subset away
    #: (``repro-bench fig3 --backends ...``)
    prediction_osaca: float | None = None
    prediction_mca: float | None = None

    @property
    def rpe_osaca(self) -> float | None:
        if self.prediction_osaca is None:
            return None
        return (self.measurement - self.prediction_osaca) / self.measurement

    @property
    def rpe_mca(self) -> float | None:
        if self.prediction_mca is None:
            return None
        return (self.measurement - self.prediction_mca) / self.measurement


@dataclass
class Fig3Result:
    records: list[Fig3Record]
    unique_assembly: int
    #: corpus entries with no usable output — the unit failed under a
    #: collect/quarantine engine run, or its measurement backend
    #: degraded away; 0 on every clean run
    skipped: int = 0

    def which_available(self) -> list[str]:
        """Prediction kinds present in the records (full run: both)."""
        return [
            w
            for w in ("osaca", "mca")
            if any(getattr(r, f"rpe_{w}") is not None for r in self.records)
        ]

    def _rpes(self, which: str) -> list[float]:
        vals = [getattr(r, f"rpe_{which}") for r in self.records]
        return [v for v in vals if v is not None]

    def summary(self, which: str) -> dict:
        x = self._rpes(which)
        if not x:
            return {"tests": 0}
        right = [v for v in x if v >= -1e-9]
        return {
            "tests": len(x),
            "right_side_fraction": len(right) / len(x),
            "within_10pct": sum(v < 0.1 for v in right) / len(x),
            "within_20pct": sum(v < 0.2 for v in right) / len(x),
            "off_by_2x": sum(v <= -1.0 for v in x),
            "avg_right_rpe": _mean(right) if right else 0.0,
            "global_rpe": _mean([abs(v) for v in x]),
        }

    def per_arch_summary(self, which: str) -> dict[str, dict]:
        out = {}
        for uarch in ("golden_cove", "zen4", "neoverse_v2"):
            sel = [
                getattr(r, f"rpe_{which}")
                for r in self.records
                if r.entry.uarch == uarch
                and getattr(r, f"rpe_{which}") is not None
            ]
            if not sel:
                continue
            right = [v for v in sel if v >= -1e-9]
            out[uarch] = {
                "avg_right_rpe": _mean(right) if right else 0.0,
                "global_rpe": _mean([abs(v) for v in sel]),
            }
        return out

    def left_side_tests(self, which: str = "osaca") -> list[str]:
        return [
            r.entry.test_id
            for r in self.records
            if getattr(r, f"rpe_{which}") is not None
            and getattr(r, f"rpe_{which}") < -1e-9
        ]

    def stratified(self, by: str, which: str = "osaca") -> dict[str, dict]:
        """Per-group RPE statistics.

        ``by`` is a CorpusEntry attribute: ``"kernel"``, ``"opt"``,
        ``"persona"``, or ``"machine"``.
        """
        groups: dict[str, list[float]] = {}
        for r in self.records:
            rpe = getattr(r, f"rpe_{which}")
            if rpe is not None:
                groups.setdefault(getattr(r.entry, by), []).append(rpe)
        out = {}
        for key, vals in sorted(groups.items()):
            out[key] = {
                "n": len(vals),
                "mean_rpe": _mean(vals),
                "mean_abs_rpe": _mean([abs(v) for v in vals]),
                "right_side_fraction": sum(v >= -1e-9 for v in vals) / len(vals),
            }
        return out


def _mean(values: list[float]) -> float:
    """Correctly rounded mean: the exact sum, rounded once, over n."""
    return math.fsum(values) / len(values)


def manifest_stats(result: Fig3Result) -> dict:
    """Accuracy statistics recorded in run-report manifests.

    Consumed by :mod:`repro.obs.report`; metric names follow its
    direction conventions (``*rpe*``/``off_by*`` lower-is-better,
    ``right_side*``/``within_*`` higher-is-better) so ``repro-report``
    can classify deltas as regressions or improvements.
    """
    stats = {
        "tests": len(result.records),
        "unique_assembly": result.unique_assembly,
        # only surfaced when nonzero so clean-run manifests are
        # byte-stable against pre-existing golden baselines
        **({"skipped": result.skipped} if result.skipped else {}),
        "per_arch_global_rpe": {
            uarch: s["global_rpe"]
            for uarch, s in result.per_arch_summary("osaca").items()
        },
    }
    for which in result.which_available():
        stats[which] = result.summary(which)
    return stats


def _normalize_backends(
    backends: tuple[str, ...] | list[str] | None,
) -> tuple[str, ...] | None:
    """Validate and canonicalize a ``--backends`` subset (None = all).

    The core-simulator measurement is the denominator of every RPE, so
    ``sim`` cannot be subset away.
    """
    if backends is None:
        return None
    names = tuple(sorted(set(backends)))
    unknown = [b for b in names if b not in ALL_BACKENDS]
    if unknown:
        raise ValueError(
            f"unknown fig3 backend(s) {unknown}; known: {list(ALL_BACKENDS)}"
        )
    if "sim" not in names:
        raise ValueError(
            "fig3 needs the 'sim' backend (the measurement every RPE is "
            "computed against)"
        )
    if set(names) == set(ALL_BACKENDS):
        return None
    return names


def corpus_units(
    corpus: list[CorpusEntry],
    iterations: int = 100,
    backends: tuple[str, ...] | None = None,
) -> list[WorkUnit]:
    """The corpus as engine work units (one per test block).

    ``backends`` subsets the per-block fan-out; the parameter is only
    included in the unit (and thus the cache key) when it actually
    deviates from the full default, so full runs keep their cache slots.

    Each distinct (uarch, assembly) unit is built once (153 for the
    paper's 416 blocks) and relabelled for every entry that repeats it.
    """
    backends = _normalize_backends(backends)
    extra = {} if backends is None else {"backends": list(backends)}
    built: dict[tuple[str, str], WorkUnit] = {}
    units = []
    for e in corpus:
        key = (e.uarch, e.assembly)
        unit = built.get(key)
        if unit is None:
            unit = built[key] = WorkUnit.make(
                "corpus",
                label=e.test_id,
                uarch=e.uarch,
                assembly=e.assembly,
                iterations=iterations,
                **extra,
            )
        else:
            unit = replace(unit, label=e.test_id)
        units.append(unit)
    return units


def run(
    machines: tuple[str, ...] = ("spr", "genoa", "gcs"),
    kernels: tuple[str, ...] | None = None,
    iterations: int = 100,
    precision: str = "dp",
    *,
    backends: tuple[str, ...] | None = None,
    engine: CorpusEngine | None = None,
) -> Fig3Result:
    corpus = enumerate_corpus(
        machines=machines, kernels=kernels, precision=precision
    )
    eng = resolve_engine(engine)
    outputs = eng.run(corpus_units(corpus, iterations, backends))
    # Under collect/quarantine error policies the engine returns None at
    # failed indices, and a degraded corpus result may lack the
    # simulator measurement (the RPE denominator) — both are skipped,
    # counted, and the remaining statistics stay exact.
    records = []
    skipped = 0
    for e, out in zip(corpus, outputs):
        if out is None or "measurement" not in out:
            skipped += 1
            continue
        records.append(
            Fig3Record(
                entry=e,
                measurement=out["measurement"],
                prediction_osaca=out.get("prediction_osaca"),
                prediction_mca=out.get("prediction_mca"),
            )
        )
    return Fig3Result(
        records=records,
        unique_assembly=unique_assembly_count(corpus),
        skipped=skipped,
    )


_LABELS = {"osaca": "our model (OSACA-style)", "mca": "LLVM-MCA baseline"}


def render(result: Fig3Result | None = None) -> str:
    result = result or run()
    blocks = []
    available = result.which_available()
    for which in available:
        label = _LABELS[which]
        values = [
            v
            for r in result.records
            if (v := getattr(r, f"rpe_{which}")) is not None
        ]
        blocks.append(ascii_histogram(
            values,
            title=f"Fig. 3 — relative prediction error, {label} "
                  f"(right of 0 = prediction faster than measurement)",
        ))
        s = result.summary(which)
        blocks.append(
            f"  tests={s['tests']}  right-side={s['right_side_fraction']*100:.0f}%  "
            f"+0-10%={s['within_10pct']*100:.0f}%  +0-20%={s['within_20pct']*100:.0f}%  "
            f"off>2x={s['off_by_2x']}  avg-right-RPE={s['avg_right_rpe']*100:.0f}%  "
            f"global-RPE={s['global_rpe']*100:.0f}%"
        )
        per = result.per_arch_summary(which)
        blocks.append(
            "  per-arch global RPE: " + ", ".join(
                f"{k}={v['global_rpe']*100:.0f}%" for k, v in per.items()
            )
        )
        blocks.append("")
    blocks.append(
        f"corpus: {len(result.records)} tests, {result.unique_assembly} unique "
        f"assembly representations (paper: 416 / 290)"
    )
    if result.skipped:
        blocks.append(
            f"WARNING: {result.skipped} corpus test(s) skipped "
            f"(failed or degraded work units; statistics above cover "
            f"the surviving tests only)"
        )
    if "osaca" in available:
        blocks.append("")
        blocks.append("per-kernel mean |RPE| (our model):")
        for kernel, s in result.stratified("kernel").items():
            blocks.append(
                f"  {kernel:10s} n={s['n']:3d}  |RPE|={s['mean_abs_rpe']*100:5.1f}%  "
                f"right-side={s['right_side_fraction']*100:3.0f}%"
            )
        left = result.left_side_tests("osaca")
        if left:
            blocks.append("our-model over-predictions (left of zero):")
            for t in sorted(set(left)):
                blocks.append(f"  {t}")
    return "\n".join(blocks)
