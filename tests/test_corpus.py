"""The 416-test validation corpus."""

import pytest

from repro.bench import fig3
from repro.kernels import enumerate_corpus
from repro.kernels.corpus import MACHINES, unique_assembly_count


@pytest.fixture(scope="module")
def corpus():
    return enumerate_corpus()


class TestCorpusShape:
    def test_paper_size(self, corpus):
        # 13 kernels x 4 levels x (3 + 3 + 2 compiler/machine pairs)
        assert len(corpus) == 416

    def test_machine_split(self, corpus):
        by_machine = {}
        for e in corpus:
            by_machine[e.machine] = by_machine.get(e.machine, 0) + 1
        assert by_machine == {"spr": 156, "genoa": 156, "gcs": 104}

    def test_unique_assembly_below_total(self, corpus):
        uniq = unique_assembly_count(corpus)
        assert 50 < uniq < 416  # compilers repeat themselves (paper: 290)

    def test_ids_unique(self, corpus):
        ids = [e.test_id for e in corpus]
        assert len(set(ids)) == len(ids)

    def test_kernel_subset_filter(self):
        sub = enumerate_corpus(kernels=("add", "sum"))
        assert len(sub) == 2 * 4 * 8
        assert {e.kernel for e in sub} == {"add", "sum"}

    def test_machine_filter(self):
        sub = enumerate_corpus(machines=("gcs",))
        assert all(e.machine == "gcs" for e in sub)
        assert len(sub) == 104

    def test_unknown_machine_names_the_known_ones(self):
        known = r"known: \['gcs', 'genoa', 'spr'\]"
        with pytest.raises(ValueError, match=rf"unknown machine 'grace'; {known}"):
            enumerate_corpus(machines=("grace",))
        with pytest.raises(ValueError, match=known):
            fig3.run(machines=("spr", "grace"))

    def test_machines_table(self):
        assert MACHINES["spr"] == ("golden_cove", "x86")
        assert MACHINES["gcs"] == ("neoverse_v2", "aarch64")

    def test_assembly_nonempty(self, corpus):
        assert all(e.assembly.strip() for e in corpus)
