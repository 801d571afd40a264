"""Filter + transfer compression (Section VI-C) as the perf model's
``pushdown_compressed`` mode: what compressing the filtered output would
buy against plain pushdown and Parquet."""


class TestPerfModelCompressedMode:
    def test_combination_beats_parquet_at_zero_selectivity(self):
        from repro.perfmodel import (
            DATASETS,
            IngestSimulation,
            SelectivityProfile,
        )

        sim = IngestSimulation()
        small = DATASETS["small"].size_bytes
        profile = SelectivityProfile.mixed(0.0)
        compressed = sim.run("pushdown_compressed", small, profile).duration
        parquet = sim.run("parquet", small, profile).duration
        assert compressed <= parquet * 1.05

    def test_combination_always_beats_plain_pushdown(self):
        from repro.perfmodel import (
            DATASETS,
            IngestSimulation,
            SelectivityProfile,
        )

        sim = IngestSimulation()
        small = DATASETS["small"].size_bytes
        for selectivity in (0.0, 0.5, 0.9):
            profile = SelectivityProfile.mixed(selectivity)
            compressed = sim.run(
                "pushdown_compressed", small, profile
            ).duration
            pushdown = sim.run("pushdown", small, profile).duration
            assert compressed < pushdown
