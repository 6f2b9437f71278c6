"""The differential harness: fan fuzzed kernels out over the backends.

Each fuzzed kernel becomes one ``"corpus"`` work unit, so a sweep
inherits the whole engine contract for free: one lowering per block
shared by every backend (:mod:`repro.lowering`), the
content-addressed cache, ``--jobs`` parallelism, bounded retries, and
the ``collect``/``quarantine`` error policies — a fuzzer-provoked
backend crash isolates to its unit instead of killing the sweep.

The differential signal is *relative spread*: for each kernel, the
model/mca/sim cycles-per-iteration predictions are compared and the
kernel is **divergent** when

    spread = (max - min) / max(|max|, epsilon) > tolerance

i.e. the backends disagree by more than ``tolerance`` relative to the
largest prediction.  Degraded units (a backend errored under
``collect``) and failed units are carried through as their own
categories — they are triage signal, not noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..engine import CorpusEngine, WorkUnit, resolve_engine
from ..engine.evaluators import CORPUS_BACKENDS, CORPUS_FIELDS
from .generator import FuzzedKernel

#: spreads below this floor are numerical noise, never divergences
EPSILON = 1e-12

#: default relative-tolerance threshold for flagging a divergence;
#: static models legitimately disagree with the simulator by a few
#: percent, so the default only flags structural disagreement
DEFAULT_TOLERANCE = 0.25

#: default per-kernel simulator iteration budget (sweeps are wide, so
#: each unit stays cheap; the corpus evaluator derives warmup from it)
DEFAULT_ITERATIONS = 60


@dataclass(frozen=True)
class Divergence:
    """One kernel on which the backends disagree beyond tolerance."""

    label: str
    signature: str
    machine: str
    kernel: str
    spread: float
    values: dict[str, float]  #: backend name -> cycles/iteration

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "signature": self.signature,
            "machine": self.machine,
            "kernel": self.kernel,
            "spread": round(self.spread, 9),
            "values": {k: round(v, 9) for k, v in sorted(self.values.items())},
        }


@dataclass
class DifferentialResult:
    """Everything a fuzz sweep produced, pre-triage."""

    seed: int
    tolerance: float
    backends: tuple[str, ...]
    corpus: list[FuzzedKernel]
    divergences: list[Divergence]
    agreements: int
    degraded: list[str] = field(default_factory=list)  #: unit labels
    engine: Optional[CorpusEngine] = None

    @property
    def checked(self) -> int:
        """Kernels with a full backend fan-out to compare."""
        return self.agreements + len(self.divergences)

    @property
    def divergence_rate(self) -> float:
        return len(self.divergences) / self.checked if self.checked else 0.0


def fuzz_units(
    corpus: Sequence[FuzzedKernel],
    *,
    backends: Sequence[str] = CORPUS_BACKENDS,
    iterations: int = DEFAULT_ITERATIONS,
) -> list[WorkUnit]:
    """One ``"corpus"`` work unit per fuzzed kernel."""
    names = [b for b in CORPUS_BACKENDS if b in backends]
    unknown = sorted(set(backends) - set(CORPUS_BACKENDS))
    if unknown:
        raise ValueError(
            f"unknown backend(s) {unknown}; known: {list(CORPUS_BACKENDS)}"
        )
    extra = {} if len(names) == len(CORPUS_BACKENDS) else {"backends": names}
    return [
        WorkUnit.make(
            "corpus",
            label=k.label,
            uarch=k.uarch,
            assembly=k.assembly,
            iterations=iterations,
            **extra,
        )
        for k in corpus
    ]


def relative_spread(values: Sequence[float]) -> float:
    """``(max - min) / max(|max|, EPSILON)`` over backend predictions."""
    hi, lo = max(values), min(values)
    return (hi - lo) / max(abs(hi), EPSILON)


def run_differential(
    corpus: Sequence[FuzzedKernel],
    *,
    seed: int,
    backends: Sequence[str] = CORPUS_BACKENDS,
    tolerance: float = DEFAULT_TOLERANCE,
    iterations: int = DEFAULT_ITERATIONS,
    engine: Optional[CorpusEngine] = None,
) -> DifferentialResult:
    """Run the backend fan-out over a fuzzed corpus and compare.

    Requires at least two backends (one prediction cannot diverge).
    The engine resolves like every other sweep (explicit, else the run
    context's, else a fresh serial one); under ``collect``/``quarantine`` policies, failed units
    surface on ``engine.failures`` and degraded units (some backends
    errored) are listed by label on the result.
    """
    names = tuple(b for b in CORPUS_BACKENDS if b in backends)
    if len(names) < 2:
        raise ValueError(
            f"differential testing needs >= 2 backends, got {list(names)}"
        )
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    eng = resolve_engine(engine)
    corpus = list(corpus)
    units = fuzz_units(corpus, backends=names, iterations=iterations)
    results = eng.run(units)

    divergences: list[Divergence] = []
    agreements = 0
    degraded: list[str] = []
    for kern, res in zip(corpus, results):
        if res is None:  # failed unit: on engine.failures, not ours
            continue
        if res.get("degraded"):
            degraded.append(kern.label)
            continue
        values = {b: float(res[CORPUS_FIELDS[b]]) for b in names}
        # round once, here: the stored value, the ranking key, and the
        # cluster maxima must all agree or tie-breaks become unstable
        spread = round(relative_spread(list(values.values())), 9)
        if spread > tolerance:
            divergences.append(
                Divergence(
                    label=kern.label,
                    signature=kern.signature,
                    machine=kern.machine,
                    kernel=kern.kernel,
                    spread=spread,
                    values=values,
                )
            )
        else:
            agreements += 1
    # rank: biggest disagreement first; label breaks ties determinately
    divergences.sort(key=lambda d: (-d.spread, d.label))
    degraded.sort()
    return DifferentialResult(
        seed=seed,
        tolerance=tolerance,
        backends=names,
        corpus=corpus,
        divergences=divergences,
        agreements=agreements,
        degraded=degraded,
        engine=eng,
    )
