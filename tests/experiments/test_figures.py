"""Smoke tests for every figure entry point (tiny sizes, shape checks)."""

import math

import pytest

from repro.experiments import figures

# Tiny settings so the whole module stays fast; the real reproductions run
# from benchmarks/ with larger parameters.
TINY = dict(scale=0.02, queries_per_set=2)


class TestTable1:
    def test_rows_and_render(self):
        text, stats = figures.table1_datasets(scale=0.02)
        assert "Table 1" in text
        assert [s.name for s in stats] == ["NY-like", "LA-like", "TW-like"]
        for s in stats:
            assert s.n_objects > 0
            assert s.total_words >= s.n_objects


class TestFig7:
    def test_structure(self):
        runtime, ratio = figures.fig7_vary_epsilon(
            eps_values=(0.01, 0.25), **TINY
        )
        assert set(runtime.series) == {"SKECa", "SKECa+"}
        assert len(runtime.x_values) == 2
        # Accuracy can only degrade (weakly) as epsilon grows.
        for algo in ("SKECa", "SKECa+"):
            ratios = ratio.series[algo]
            assert all(r >= 1.0 - 1e-9 for r in ratios if not math.isnan(r))


class TestFig8:
    def test_structure(self):
        results = figures.fig8_vary_keywords(
            dataset_names=("NY",),
            ms=(2, 3),
            algorithms=("GKG", "SKECa+", "EXACT"),
            timeout=6.0,
            **TINY,
        )
        assert len(results) == 2
        runtime, ratio = results
        assert set(runtime.series) == {"GKG", "SKECa+", "EXACT"}
        exact_ratios = [r for r in ratio.series["EXACT"] if not math.isnan(r)]
        assert all(abs(r - 1.0) < 1e-6 for r in exact_ratios)


class TestFig9:
    def test_skec_at_least_as_accurate(self):
        runtime, ratio = figures.fig9_skec_vs_skecaplus(ms=(2, 3), **TINY)
        assert set(runtime.series) == {"SKEC", "SKECa+"}


class TestFig10:
    def test_structure(self):
        results = figures.fig10_vary_diameter(
            dataset_names=("LA",),
            bounds=(0.1, 0.3),
            timeout=6.0,
            **TINY,
        )
        assert len(results) == 4
        success = results[3]
        for algo, values in success.series.items():
            assert all(0.0 <= v <= 1.0 for v in values)


class TestFig11:
    def test_success_rate_monotone_in_timeout(self):
        runtime, success = figures.fig11_vary_timeout(
            timeouts=(0.05, 8.0), **TINY
        )
        for algo, values in success.series.items():
            assert values[0] <= values[1] + 1e-9


class TestFig12:
    def test_structure(self):
        results = figures.fig12_vary_frequency(
            pool_fractions=(0.5, 1.0), timeout=6.0, **TINY
        )
        assert len(results) == 4


class TestFig13:
    def test_sizes_grow(self):
        runtime, ratio = figures.fig13_scalability(
            scales=(0.01, 0.02),
            queries_per_set=2,
            algorithms=("GKG", "SKECa+"),
            timeout=6.0,
        )
        assert runtime.x_values[0] < runtime.x_values[1]


class TestFig14:
    def test_covers_ny_and_tw(self):
        results = figures.fig14_vary_epsilon_ny_tw(
            eps_values=(0.01,), **TINY
        )
        ids = [f.figure_id for f in results]
        assert any("NY" in i for i in ids)
        assert any("TW" in i for i in ids)


class TestDatasetByName:
    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            figures.dataset_by_name("berlin")

    def test_case_insensitive(self):
        ds = figures.dataset_by_name("ny", scale=0.01)
        assert ds.name == "NY-like"


class TestExtDistributed:
    def test_scaling_series(self):
        figs = figures.ext_distributed_scaling(
            scale=0.02, queries_per_set=2, worker_counts=(1, 4)
        )
        makespan, shipped = figs
        assert makespan.x_values == [1, 4]
        assert all(v >= 0 for v in makespan.series["distributed"])
        # More workers never ship fewer bytes (more messages, strip rows).
        assert shipped.series["distributed"][1] >= shipped.series["distributed"][0]
