import itertools
import json
from collections import Counter

from perfbench.inputs import (
    CLASS_SHARES, COLD_EVERY, class_pattern, instruction_count, serve_inputs,
    size_class, stratified_kernels,
)


def test_instruction_count_skips_labels_directives_and_comments():
    asm = ".Lloop:\n  # note\n  vaddpd %ymm1, %ymm2, %ymm3  # add\n  .p2align 4\n  jne .Lloop\n"
    assert instruction_count(asm) == 2
    assert instruction_count("ldr q0, [x1] // load\nb.ne .L1\n") == 2


def test_class_pattern_holds_the_shares_in_every_hundred():
    first = list(itertools.islice(class_pattern(), 300))
    for block in range(3):
        counts = Counter(first[block * 100:(block + 1) * 100])
        assert [counts[c] for c in range(len(CLASS_SHARES))] == list(CLASS_SHARES)


def test_stratified_sample_is_prefix_stable_and_fills_the_pattern():
    ks = stratified_kernels(7, 100)
    assert [k.label for k in stratified_kernels(7, 40)] == [k.label for k in ks[:40]]
    pattern = list(itertools.islice(class_pattern(), 100))
    assert [size_class(k.assembly) for k in ks] == pattern
    assert [k.label for k in stratified_kernels(8, 40)] != [k.label for k in ks[:40]]


def test_serving_stream_mix():
    inputs = serve_inputs(11, 8, 300)
    stream = inputs.stream
    assert len(stream) == 300 and len(inputs.prime_bodies) == 8
    assert [r.rid for r in stream[:2]] == ["r000000", "r000001"]
    for block in range(0, 300, COLD_EVERY):
        assert sum(r.hot < 0 for r in stream[block:block + COLD_EVERY]) == 1
    # cold kernels repeat neither each other nor a hot kernel
    cold = [json.loads(r.body) for r in stream if r.hot < 0]
    hot = {(json.loads(b)["arch"], json.loads(b)["assembly"]) for b in inputs.prime_bodies}
    keys = [(c["arch"], c["assembly"]) for c in cold]
    assert len(set(keys)) == len(keys) and not set(keys) & hot
    assert {c["backend"] for c in cold} == {"model", "mca", "sim"}
    # prefix-stable in the stream length
    assert [r.body for r in serve_inputs(11, 8, 120).stream] == [r.body for r in stream[:120]]
