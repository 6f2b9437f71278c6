"""What-if model variants + serialization property tests."""

from hypothesis import given, settings, strategies as st

from repro.machine import get_machine_model
from repro.machine.io import model_from_dict, model_to_dict
from repro.machine.model import InstrEntry, MachineModel, Uop
from repro.machine.whatif import elements_per_vector, widen_neoverse_v2


class TestWhatIf:
    def test_widened_model_name(self):
        assert widen_neoverse_v2(2).name == "neoverse_v2_vl256"
        assert widen_neoverse_v2(4).name == "neoverse_v2_vl512"

    def test_identity_factor(self):
        m = widen_neoverse_v2(1)
        assert m.simd_width_bytes == 16

    def test_base_model_untouched(self):
        base = get_machine_model("neoverse_v2")
        before = base.simd_width_bytes
        widen_neoverse_v2(2)
        assert base.simd_width_bytes == before

    def test_entries_shared_semantics(self):
        base = get_machine_model("neoverse_v2")
        wide = widen_neoverse_v2(2)
        assert len(wide.entries) == len(base.entries)

    def test_elements_per_vector(self):
        assert elements_per_vector(get_machine_model("neoverse_v2")) == 2
        assert elements_per_vector(widen_neoverse_v2(2)) == 4

    def test_memory_path_widened(self):
        wide = widen_neoverse_v2(2)
        assert wide.load_width_bytes == 32
        assert wide.store_width_bytes == 32


# ---------------------------------------------------------------------------
# property-based round trips for the machine-file format
# ---------------------------------------------------------------------------

_port_names = st.sampled_from(["A", "B", "C", "D"])

_entries = st.builds(
    InstrEntry,
    mnemonic=st.from_regex(r"[a-z]{2,8}", fullmatch=True),
    signature=st.sampled_from(["r,r", "x,x,x", "r,r,i", "*", "m,r"]),
    uops=st.lists(
        st.builds(
            Uop,
            ports=st.lists(_port_names, min_size=1, max_size=4, unique=True).map(tuple),
            cycles=st.sampled_from([0.5, 1.0, 2.0]),
        ),
        max_size=3,
    ).map(tuple),
    latency=st.floats(0.0, 30.0),
    throughput=st.one_of(st.none(), st.floats(0.5, 20.0)),
    divider=st.floats(0.0, 20.0),
    notes=st.sampled_from(["", "pure load", "gather"]),
)


class TestSerializationProperties:
    @given(entries=st.lists(_entries, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_preserves_entries(self, entries):
        m = MachineModel(
            name="prop", isa="x86", ports=("A", "B", "C", "D"),
            entries=entries,
        )
        m2 = model_from_dict(model_to_dict(m))
        assert len(m2.entries) == len(m.entries)
        for a, b in zip(m.entries, m2.entries):
            assert a.mnemonic == b.mnemonic
            assert a.signature == b.signature
            assert a.uops == b.uops
            assert a.latency == b.latency
            assert (a.throughput or None) == (b.throughput or None)
            assert a.divider == b.divider

    @given(
        dispatch=st.integers(1, 16),
        rob=st.integers(16, 1024),
        move_elim=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_round_trip_preserves_parameters(self, dispatch, rob, move_elim):
        m = MachineModel(
            name="prop", isa="aarch64", ports=("A",), entries=[],
            dispatch_width=dispatch, rob_size=rob,
            move_elimination=move_elim,
        )
        m2 = model_from_dict(model_to_dict(m))
        assert m2.dispatch_width == dispatch
        assert m2.rob_size == rob
        assert m2.move_elimination == move_elim
