"""Property-based tests (hypothesis) for the engine's cache key.

The key must be a faithful content address:

* deterministic — same assembly + same machine parameters → same key,
* sensitive — any port/latency/width perturbation of the machine
  model, and any semantic assembly change, produce a different key,
* insensitive — comments, blank lines, and whitespace layout do not
  change the key (the paper's 416 corpus blocks collapse to 290
  unique representations the same way).
"""

import dataclasses
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import WorkUnit, cache_key
from repro.lowering import canonicalize_assembly
from repro.machine import get_machine_model
from repro.machine.io import model_to_dict

BASE_ASM = """.L3:
    vmovupd (%rax), %ymm0
    vfmadd231pd (%rbx), %ymm1, %ymm0
    vmovupd %ymm0, (%rcx)
    addq $32, %rax
    subq $1, %rdi
    jne .L3
"""


def _unit_for(asm: str, model_dict=None, iterations=60, warmup=20) -> WorkUnit:
    """A ``predict`` unit on the simulator backend."""
    base = dict(
        assembly=asm, backend="sim",
        opts={"iterations": iterations, "warmup": warmup},
    )
    if model_dict is not None:
        base["model"] = model_dict
    else:
        base["uarch"] = "zen4"
    return WorkUnit.make("predict", **base)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

@given(st.integers(10, 200), st.integers(0, 50))
def test_same_inputs_same_key(iterations, warmup):
    a = _unit_for(BASE_ASM, iterations=iterations, warmup=warmup)
    b = _unit_for(BASE_ASM, iterations=iterations, warmup=warmup)
    assert cache_key(a) == cache_key(b)


@given(st.sampled_from(["zen4", "golden_cove", "neoverse_v2"]))
def test_key_stable_across_fresh_model_serializations(uarch):
    u = _unit_for(BASE_ASM, model_dict=model_to_dict(get_machine_model(uarch)))
    v = _unit_for(BASE_ASM, model_dict=model_to_dict(get_machine_model(uarch)))
    assert cache_key(u) == cache_key(v)


# ---------------------------------------------------------------------------
# comment / blank-line insensitivity
# ---------------------------------------------------------------------------

comment_lines = st.lists(
    st.sampled_from(
        ["", "   ", "# gcc 13.2 -O2", "// clang banner", "; listing note",
         "\t"]
    ),
    min_size=0,
    max_size=6,
)


@given(comment_lines, st.integers(0, 2 ** 32 - 1))
def test_comments_and_blank_lines_do_not_change_key(noise, seed):
    lines = BASE_ASM.splitlines()
    rng = random.Random(seed)
    for extra in noise:
        lines.insert(rng.randrange(len(lines) + 1), extra)
    noisy = "\n".join(lines)
    assert canonicalize_assembly(noisy) == canonicalize_assembly(BASE_ASM)
    assert cache_key(_unit_for(noisy)) == cache_key(_unit_for(BASE_ASM))


@given(st.integers(1, 7))
def test_indentation_does_not_change_key(width):
    reindented = "\n".join(
        (" " * width + line.strip()) if line.startswith(" ") else line
        for line in BASE_ASM.splitlines()
    )
    assert cache_key(_unit_for(reindented)) == cache_key(_unit_for(BASE_ASM))


# ---------------------------------------------------------------------------
# semantic sensitivity
# ---------------------------------------------------------------------------

SEMANTIC_EDITS = [
    ("%ymm0", "%ymm3"),      # register substitution
    ("$32", "$64"),          # stride change
    ("vfmadd231pd", "vfmadd132pd"),  # operand-order variant
    ("vmovupd (%rax)", "vmovapd (%rax)"),  # aligned vs unaligned load
    ("jne", "je"),           # branch sense
]


@given(st.sampled_from(SEMANTIC_EDITS))
def test_semantic_asm_change_changes_key(edit):
    old, new = edit
    changed = BASE_ASM.replace(old, new, 1)
    assert changed != BASE_ASM
    assert cache_key(_unit_for(changed)) != cache_key(_unit_for(BASE_ASM))


@given(st.data())
def test_instruction_deletion_changes_key(data):
    lines = [l for l in BASE_ASM.splitlines() if l.strip()]
    idx = data.draw(st.integers(1, len(lines) - 1))  # keep the label
    shorter = "\n".join(lines[:idx] + lines[idx + 1:])
    assert cache_key(_unit_for(shorter)) != cache_key(_unit_for(BASE_ASM))


# ---------------------------------------------------------------------------
# machine-model sensitivity: any port/latency/width perturbation
# ---------------------------------------------------------------------------

SCALAR_FIELDS = [
    "load_latency_gpr", "load_latency_vec", "dispatch_width",
    "retire_width", "rob_size", "scheduler_size", "load_buffer",
    "store_buffer", "load_width_bytes", "store_width_bytes",
    "simd_width_bytes",
]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(SCALAR_FIELDS),
    st.integers(1, 17),
)
def test_model_scalar_perturbation_changes_key(field, delta):
    model = get_machine_model("zen4")
    base = model_to_dict(model)
    perturbed = dataclasses.replace(
        model,
        entries=list(model.entries),
        **{field: getattr(model, field) + delta},
    )
    assert cache_key(_unit_for(BASE_ASM, model_dict=base)) != cache_key(
        _unit_for(BASE_ASM, model_dict=model_to_dict(perturbed))
    )


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_entry_latency_or_port_perturbation_changes_key(data):
    """Editing any single instruction-table entry — its latency or one
    µop's candidate port set — must invalidate the cache."""
    model = get_machine_model("zen4")
    base = model_to_dict(model)
    idx = data.draw(st.integers(0, len(base["entries"]) - 1))
    entry = base["entries"][idx]
    edited = {k: v for k, v in base.items() if k != "entries"}
    edited["entries"] = [dict(e) for e in base["entries"]]

    if entry["uops"] and data.draw(st.booleans()):
        # drop one candidate port (or change occupancy if single-port)
        uop_idx = data.draw(st.integers(0, len(entry["uops"]) - 1))
        uops = [dict(u) for u in entry["uops"]]
        if len(uops[uop_idx]["ports"]) > 1:
            uops[uop_idx] = {
                "ports": uops[uop_idx]["ports"][:-1],
                "cycles": uops[uop_idx]["cycles"],
            }
        else:
            uops[uop_idx] = {
                "ports": uops[uop_idx]["ports"],
                "cycles": uops[uop_idx]["cycles"] + 1.0,
            }
        edited["entries"][idx]["uops"] = uops
    else:
        edited["entries"][idx]["latency"] = entry.get("latency", 1.0) + data.draw(
            st.floats(0.5, 8.0, allow_nan=False, allow_infinity=False)
        )

    assert cache_key(_unit_for(BASE_ASM, model_dict=base)) != cache_key(
        _unit_for(BASE_ASM, model_dict=edited)
    )


# ---------------------------------------------------------------------------
# engine-version + backend-version invalidation
# ---------------------------------------------------------------------------

def _v1_key(unit: WorkUnit) -> str:
    """The pre-refactor ("engine_version 1") key schema, hand-computed.

    Version 1 pre-dated the unified lowering pipeline: no ``backends``
    section in the payload and ``engine_version: "1"``.  Entries stored
    under this schema must be unreachable after the refactor.
    """
    import hashlib

    from repro.engine.cachekey import _MODEL_REF_PARAMS
    from repro.lowering import (
        canonicalize_assembly as _canon,
        machine_model_digest as _mmd,
    )
    from repro.lowering import canonical_json

    keyed = {}
    for name, value in unit.params.items():
        if name == "assembly":
            keyed["assembly_digest"] = hashlib.sha256(
                _canon(value).encode()
            ).hexdigest()
        elif name in _MODEL_REF_PARAMS and isinstance(value, str):
            keyed[name] = value
            keyed[f"{name}_model_digest"] = _mmd(value)
        else:
            keyed[name] = value
    payload = canonical_json(
        {"engine_version": "1", "kind": unit.kind, "params": keyed}
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def test_engine_version_is_bumped():
    from repro.engine.cachekey import ENGINE_VERSION

    assert ENGINE_VERSION == "2"


def test_v1_cache_entries_are_not_served(tmp_path):
    """A result stored under the old key schema must never be returned
    by the refactored engine — the version bump makes it unreachable."""
    from repro.engine import CorpusEngine

    unit = WorkUnit.make(
        "corpus",
        uarch="zen4",
        assembly="vaddpd %ymm0, %ymm1, %ymm2",
        iterations=100,
    )
    stale = {"measurement": -1.0, "prediction_osaca": -1.0,
             "prediction_mca": -1.0, "bottleneck": "stale"}

    from repro.engine.cache import ResultCache

    cache = ResultCache(tmp_path)
    old_key = _v1_key(unit)
    assert old_key != cache_key(unit)
    cache.put(old_key, stale)

    [out] = CorpusEngine(jobs=1, cache_dir=tmp_path).run([unit])
    assert out != stale
    assert out["measurement"] > 0


def test_backend_version_participates_in_key(monkeypatch):
    """Bumping any dispatched backend's version must change the key for
    units of kinds that dispatch to it — and only those."""
    from repro.backends import get_backend

    sim = _unit_for(BASE_ASM)  # a predict unit on the sim backend
    micro = WorkUnit.make("microbench", chip="spr")

    before_sim = cache_key(sim)
    before_micro = cache_key(micro)
    monkeypatch.setattr(get_backend("sim"), "version", "test-bumped")
    assert cache_key(sim) != before_sim
    assert cache_key(micro) == before_micro


def test_corpus_backend_subset_changes_key():
    base = WorkUnit.make(
        "corpus", uarch="zen4", assembly=BASE_ASM, iterations=100
    )
    subset = WorkUnit.make(
        "corpus", uarch="zen4", assembly=BASE_ASM, iterations=100,
        backends=["model", "sim"],
    )
    assert cache_key(base) != cache_key(subset)
