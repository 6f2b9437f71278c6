"""The prediction-backend registry and the three built-in backends."""

import pytest

from repro.backends import (
    KIND_BACKENDS,
    Backend,
    BackendResult,
    available_backends,
    backend_version,
    get_backend,
    predict,
    predict_all,
    register_backend,
    unit_backends,
    unregister_backend,
    versions_for_unit,
)
from repro.context import current_context
from repro.lowering import lower

ASM = """
vmovupd (%rax), %ymm0
vfmadd231pd (%rbx), %ymm1, %ymm0
vmovupd %ymm0, (%rcx)
"""


class TestRegistry:
    def test_builtins_registered(self):
        assert available_backends() == ["mca", "model", "sim"]

    def test_instances_are_singletons_and_protocol_conformant(self):
        for name in available_backends():
            b = get_backend(name)
            assert b is get_backend(name)
            assert isinstance(b, Backend)
            assert b.name == name
            assert backend_version(name) == b.version

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("uica")

    def test_register_and_unregister(self):
        @register_backend
        class ConstBackend:
            name = "const"
            version = "0"

            def predict(self, block, **opts):
                return BackendResult(
                    backend=self.name,
                    version=self.version,
                    cycles_per_iteration=42.0,
                )

        try:
            assert "const" in available_backends()
            r = predict(ASM, "zen4", backend="const")
            assert r.cycles_per_iteration == 42.0
        finally:
            unregister_backend("const")
        assert "const" not in available_backends()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_backend
            class Clash:
                name = "model"
                version = "0"

                def predict(self, block, **opts):  # pragma: no cover
                    raise NotImplementedError

    def test_malformed_backends_rejected(self):
        with pytest.raises(ValueError, match="'name'"):
            register_backend(type("NoName", (), {"version": "1"}))
        with pytest.raises(ValueError, match="version"):
            register_backend(type("NoVer", (), {"name": "x"}))
        with pytest.raises(ValueError, match="predict"):
            register_backend(type("NoPred", (), {"name": "x", "version": "1"}))


class TestBuiltinBackends:
    def test_all_three_agree_with_direct_apis(self):
        from repro.analysis import analyze_kernel
        from repro.mca import mca_predict
        from repro.simulator import simulate_kernel

        block = lower(ASM, "zen4")
        assert get_backend("model").predict(
            block
        ).cycles_per_iteration == pytest.approx(
            analyze_kernel(ASM, "zen4").prediction
        )
        assert get_backend("mca").predict(
            block
        ).cycles_per_iteration == pytest.approx(
            mca_predict(ASM, "zen4").cycles_per_iteration
        )
        assert get_backend("sim").predict(
            block
        ).cycles_per_iteration == pytest.approx(
            simulate_kernel(ASM, "zen4").cycles_per_iteration
        )

    def test_result_metadata(self):
        block = lower(ASM, "zen4")
        for name in available_backends():
            r = get_backend(name).predict(block)
            assert r.backend == name
            assert r.version == backend_version(name)
            assert r.cycles_per_iteration > 0
            assert r.detail is not None
        assert get_backend("model").predict(block).bottleneck

    def test_predict_all_shares_one_lowering(self):
        def requests():
            snap = current_context().metrics.snapshot()
            return snap.get("lowering.requests", {}).get("value", 0.0)

        before = requests()
        table = predict_all(ASM, "zen4")
        assert set(table) == {"mca", "model", "sim"}
        assert requests() - before == 1

    def test_predict_all_subset_and_opts(self):
        table = predict_all(
            ASM,
            "zen4",
            backends=["sim"],
            opts={"sim": {"iterations": 37, "warmup": 5}},
        )
        assert list(table) == ["sim"]
        assert table["sim"].detail.iterations == 37

    @pytest.mark.parametrize(
        "arch, source",
        [("zen4", "# no instructions\n"), ("neoverse_v2", "// no instructions\n")],
        ids=["x86", "aarch64"],
    )
    def test_empty_body_takes_no_cycles(self, arch, source):
        """A comment-only block: every backend runs its loop over an
        empty body and answers zero."""
        table = predict_all(source, arch)
        assert set(table) == {"mca", "model", "sim"}
        for name, result in table.items():
            assert result.cycles_per_iteration == 0.0, name


class TestUnitBackends:
    def test_kind_mapping(self):
        assert unit_backends("corpus", {}) == ("mca", "model", "sim")
        assert unit_backends("topdown", {}) == ("sim",)
        assert unit_backends("microbench", {}) == ()
        # the one fixed-fan-out table holds only kinds without a
        # backend parameter; predict names its backend per unit
        assert sorted(KIND_BACKENDS) == ["corpus", "topdown"]

    def test_corpus_subset_is_sorted(self):
        assert unit_backends("corpus", {"backends": ["sim", "model"]}) == (
            "model",
            "sim",
        )

    def test_predict_kind_uses_named_backend(self):
        assert unit_backends("predict", {"backend": "mca"}) == ("mca",)
        assert unit_backends("predict", {}) == ()

    def test_versions_for_unit_tolerates_unknown(self):
        v = versions_for_unit("predict", {"backend": "nonexistent"})
        assert v == {"nonexistent": "?"}
        v = versions_for_unit("topdown", {})
        assert v == {"sim": backend_version("sim")}


class TestPredictEvaluatorKind:
    def test_predict_unit_roundtrip(self):
        from repro.engine.evaluators import evaluate

        out = evaluate(
            "predict",
            {"assembly": ASM, "uarch": "zen4", "backend": "model"},
        )
        assert out["backend"] == "model"
        assert out["cycles_per_iteration"] > 0
        assert "bottleneck" in out

    def test_corpus_subset_drops_fields(self):
        from repro.engine.evaluators import evaluate

        out = evaluate(
            "corpus",
            {
                "assembly": ASM,
                "uarch": "zen4",
                "iterations": 50,
                "backends": ["model", "sim"],
            },
        )
        assert "prediction_mca" not in out
        assert out["measurement"] > 0
        assert out["prediction_osaca"] > 0
