"""``repro.fuzz`` — seeded kernel fuzzing + differential backend validation.

The paper's models are validated on a 416-variant corpus; this package
scales that methodology to tens of thousands of *generated* kernels and
lets the backends check each other (``docs/fuzzing.md``):

* :mod:`.rng` — SHA-256 seed streams (platform-independent draws),
* :mod:`.mutations` — the composable mutation catalog
  (:class:`MutationVector`),
* :mod:`.generator` — the seeded corpus generator
  (:func:`generate_fuzz_corpus`; every kernel a pure function of
  ``(seed, index)``),
* :mod:`.harness` — the differential sweep over the model/mca/sim
  backends via the engine (:func:`run_differential`),
* :mod:`.triage` — deterministic, gateable run-report manifests
  (:func:`build_triage_manifest`).

Entry point: ``repro-fuzz --seed S --count N`` (see ``docs/fuzzing.md``).
"""

from .generator import (
    FUZZ_ISAS,
    FuzzedKernel,
    draw_fuzz_kernel,
    fuzz_assembly,
    fuzz_kernel,
    generate_fuzz_corpus,
)
from .harness import (
    DEFAULT_ITERATIONS,
    DEFAULT_TOLERANCE,
    DifferentialResult,
    Divergence,
    fuzz_units,
    relative_spread,
    run_differential,
)
from .mutations import UNROLL_CHOICES, MutationVector, apply_mutations, draw_vector
from .rng import SeedStream
from .triage import build_triage_manifest, manifest_digest, render_triage

__all__ = [
    "DEFAULT_ITERATIONS",
    "DEFAULT_TOLERANCE",
    "FUZZ_ISAS",
    "UNROLL_CHOICES",
    "DifferentialResult",
    "Divergence",
    "FuzzedKernel",
    "MutationVector",
    "SeedStream",
    "apply_mutations",
    "build_triage_manifest",
    "draw_fuzz_kernel",
    "draw_vector",
    "fuzz_assembly",
    "fuzz_kernel",
    "fuzz_units",
    "generate_fuzz_corpus",
    "manifest_digest",
    "relative_spread",
    "render_triage",
    "run_differential",
]
