"""Hypothesis property tests for the fuzzer (ISSUE 6 satellite).

Three invariants over random seeds:

* every fuzzed kernel **parses** on its ISA front-end,
* every fuzzed kernel **lowers** to valid IR for every machine model of
  its ISA (both x86 models for x86 kernels, Neoverse V2 for AArch64),
* regeneration from the same ``(seed, persona, mutation-vector)``
  coordinates is **bit-identical**.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzz import MutationVector, draw_fuzz_kernel, fuzz_assembly
from repro.fuzz.mutations import UNROLL_CHOICES
from repro.isa import parse_kernel
from repro.kernels.corpus import MACHINES
from repro.kernels.suite import KERNELS
from repro.lowering import lower

_ALL_MACHINES = sorted(MACHINES)
_ALL_KERNELS = sorted(KERNELS)

#: machine models per ISA ("all three machine models" of the paper)
_MODELS_BY_ISA = {
    "x86": ("golden_cove", "zen4"),
    "aarch64": ("neoverse_v2",),
}

seeds = st.integers(min_value=0, max_value=2**32 - 1)
indices = st.integers(min_value=0, max_value=199)

vectors = st.builds(
    MutationVector,
    unroll=st.one_of(st.none(), st.sampled_from(UNROLL_CHOICES)),
    accumulators=st.one_of(st.none(), st.integers(1, 4)),
    shuffle=st.booleans(),
    pressure=st.integers(0, 4),
    unfold_memory=st.booleans(),
    zero_idioms=st.integers(0, 2),
)


def _draw(seed, index):
    return draw_fuzz_kernel(
        seed, index, machines=_ALL_MACHINES, kernels=_ALL_KERNELS
    )


@settings(max_examples=30, deadline=None)
@given(seed=seeds, index=indices)
def test_fuzzed_kernel_parses_on_its_isa(seed, index):
    k = _draw(seed, index)
    instructions = parse_kernel(k.assembly, k.isa)
    assert instructions, f"empty parse for {k.label}"


@settings(max_examples=15, deadline=None)
@given(seed=seeds, index=indices)
def test_fuzzed_kernel_lowers_on_every_model_of_its_isa(seed, index):
    k = _draw(seed, index)
    for uarch in _MODELS_BY_ISA[k.isa]:
        block = lower(k.assembly, uarch)
        assert block.instructions, f"{k.label} lowered empty on {uarch}"
        assert block.resolved is not None


@settings(max_examples=30, deadline=None)
@given(seed=seeds, index=indices)
def test_regeneration_is_bit_identical(seed, index):
    k = _draw(seed, index)
    again = fuzz_assembly(
        k.seed, k.index, k.kernel, k.persona, k.opt, k.uarch, k.precision,
        k.vector,
    )
    assert again == k.assembly
    # and the full draw replays too (same base point, same vector)
    k2 = _draw(seed, index)
    assert k2 == k


@settings(max_examples=25, deadline=None)
@given(seed=seeds, vector=vectors)
def test_explicit_vectors_regenerate_bit_identically(seed, vector):
    # the pure-function contract holds for *every* vector, not just
    # drawn ones: same (seed, persona, mutation-vector) -> same bytes
    a = fuzz_assembly(seed, 0, "striad", "clang", "O3", "zen4", "dp", vector)
    b = fuzz_assembly(seed, 0, "striad", "clang", "O3", "zen4", "dp", vector)
    assert a == b
    parse_kernel(a, "x86")


@settings(max_examples=10, deadline=None)
@given(seed=seeds, vector=vectors)
def test_explicit_vectors_on_aarch64(seed, vector):
    for persona, uarch in (("gcc-arm", "neoverse_v2"),
                           ("armclang", "neoverse_v2")):
        a = fuzz_assembly(seed, 0, "sum", persona, "Ofast", uarch, "dp",
                          vector)
        assert a == fuzz_assembly(seed, 0, "sum", persona, "Ofast", uarch,
                                  "dp", vector)
        assert parse_kernel(a, "aarch64")
        lower(a, uarch)
