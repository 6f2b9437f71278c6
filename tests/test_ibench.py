"""ibench-style microbenchmark synthesis and the model self-check."""

import pytest

from repro.bench.ibench import (
    UnbenchableEntry,
    measure_entry,
    synthesize_block,
    verify_model,
)
from repro.isa import parse_kernel
from repro.machine import get_machine_model


def entry_of(model, mnemonic, signature):
    for e in model.entries:
        if e.mnemonic == mnemonic and e.signature == signature:
            return e
    raise LookupError((mnemonic, signature))


@pytest.fixture(scope="module")
def spr():
    return get_machine_model("spr")


@pytest.fixture(scope="module")
def grace():
    return get_machine_model("grace")


class TestSynthesis:
    def test_throughput_block_parses(self, spr):
        asm = synthesize_block(spr, entry_of(spr, "vaddpd", "z,z,z"))
        instrs = parse_kernel(asm, "x86")
        assert sum(i.mnemonic == "vaddpd" for i in instrs) == 8
        # rotating destinations: all distinct for 8 <= pool
        dests = [i.register_writes()[0] for i in instrs if i.mnemonic == "vaddpd"]
        assert len(set(dests)) == 8

    def test_latency_block_chains(self, spr):
        asm = synthesize_block(spr, entry_of(spr, "vaddpd", "z,z,z"), "latency")
        instrs = [i for i in parse_kernel(asm, "x86") if i.mnemonic == "vaddpd"]
        assert len(instrs) == 2
        for i in instrs:
            assert i.register_writes()[0] in i.register_reads()

    def test_wildcard_mnemonic_unbenchable(self, spr):
        e = entry_of(spr, "j*", "l")
        with pytest.raises(UnbenchableEntry):
            synthesize_block(spr, e)

    def test_store_has_no_latency_bench(self, spr):
        e = entry_of(spr, "mov", "r,m")
        with pytest.raises(UnbenchableEntry):
            synthesize_block(spr, e, "latency")

    def test_store_throughput_block(self, spr):
        asm = synthesize_block(spr, entry_of(spr, "mov", "r,m"))
        assert asm.count("(%rax)") == 8

    def test_aarch64_sve_block(self, grace):
        asm = synthesize_block(grace, entry_of(grace, "fmla", "v,p,v,v"))
        instrs = parse_kernel(asm, "aarch64")
        assert sum(i.mnemonic == "fmla" for i in instrs) == 8

    def test_reg_offset_partitions(self, spr):
        lo = synthesize_block(spr, entry_of(spr, "vaddpd", "z,z,z"), reg_offset=1)
        hi = synthesize_block(spr, entry_of(spr, "vaddpd", "z,z,z"), reg_offset=2)
        lo_dests = {i.register_writes()[0] for i in parse_kernel(lo, "x86")
                    if i.mnemonic == "vaddpd"}
        hi_dests = {i.register_writes()[0] for i in parse_kernel(hi, "x86")
                    if i.mnemonic == "vaddpd"}
        assert not lo_dests & hi_dests


class TestMeasurement:
    @pytest.mark.parametrize("mnemonic,sig,tput,lat", [
        ("vaddpd", "z,z,z", 0.5, 2.0),
        ("vmulpd", "y,y,y", 0.5, 4.0),
        ("vdivsd", "x,x,x", 4.0, 14.0),
        ("add", "r,r", 0.2, 1.0),
    ])
    def test_spr_known_values(self, spr, mnemonic, sig, tput, lat):
        r = measure_entry(spr, entry_of(spr, mnemonic, sig))
        assert r.reciprocal_throughput == pytest.approx(tput, rel=0.3)
        assert r.latency == pytest.approx(lat, rel=0.05)

    @pytest.mark.parametrize("mnemonic,sig,tput,lat", [
        ("fadd", "q,q,q", 0.25, 2.0),
        ("fmul", "s,s,s", 0.25, 3.0),
        ("fdiv", "s,s,s", 2.5, 12.0),
    ])
    def test_grace_known_values(self, grace, mnemonic, sig, tput, lat):
        r = measure_entry(grace, entry_of(grace, mnemonic, sig))
        assert r.reciprocal_throughput == pytest.approx(tput, rel=0.3)
        assert r.latency == pytest.approx(lat, rel=0.05)

    def test_measurement_never_beats_model_bound(self, spr):
        for mnemonic, sig in [("vaddpd", "z,z,z"), ("vfmadd231pd", "y,y,y"),
                              ("imul", "r,r"), ("vdivpd", "z,z,z")]:
            r = measure_entry(spr, entry_of(spr, mnemonic, sig))
            assert r.reciprocal_throughput >= r.model_bound - 1e-6


class TestModelSelfCheck:
    """The sweeping consistency check: for a sample of every model's
    entries, the simulator can never be faster than the entry's own
    resource bound (a violation would mean the two engines disagree
    about the machine)."""

    @pytest.mark.parametrize("arch", ["spr", "zen4", "grace"])
    def test_no_violations_sampled(self, arch):
        model = get_machine_model(arch)
        report = verify_model(model, sample_every=17)
        assert report["checked"] > 10
        assert report["violations"] == [], report["violations"]
