"""Tests for the experiment harness, reporting, and figure generators."""

import numpy as np
import pytest

from repro.core.revenue import RevenueEngine
from repro.experiments.defaults import bench_dataset, bench_wtp, default_engine
from repro.experiments.figures import figure1, figure2, figure5, figure6
from repro.experiments.harness import MethodRun, run_methods, sweep_engines
from repro.experiments.reporting import (
    format_cell,
    render_series,
    render_table,
    save_csv,
)


class TestReporting:
    def test_format_cell(self):
        assert format_cell(None) == "-"
        assert format_cell(1.23456, precision=2) == "1.23"
        assert format_cell(True) == "yes"
        assert format_cell("x") == "x"
        assert format_cell(float("nan")) == "-"

    def test_render_table_alignment(self):
        text = render_table(["name", "value"], [["a", 1.5], ["bb", 22.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].index("|") == lines[2].index("|")

    def test_render_table_title(self):
        text = render_table(["x"], [[1]], title="T")
        assert text.startswith("T\n")

    def test_render_series(self):
        text = render_series("x", [1, 2], {"f": [0.1, 0.2], "g": [0.3, 0.4]})
        assert "f" in text and "g" in text
        assert text.count("\n") == 3

    def test_save_csv(self, tmp_path):
        path = tmp_path / "sub" / "out.csv"
        save_csv(path, ["a", "b"], [[1, 2], [3, 4]])
        assert path.read_text().splitlines() == ["a,b", "1,2", "3,4"]


class TestHarness:
    def test_run_methods_includes_components(self, small_wtp):
        engine = RevenueEngine(small_wtp)
        runs = run_methods(engine, ("pure_greedy",))
        assert set(runs) == {"components", "pure_greedy"}
        assert isinstance(runs["pure_greedy"], MethodRun)
        assert runs["components"].gain == 0.0

    def test_gains_relative_to_components(self, small_wtp):
        engine = RevenueEngine(small_wtp)
        runs = run_methods(engine, ("mixed_greedy",))
        base = runs["components"].revenue
        expected = (runs["mixed_greedy"].revenue - base) / base
        assert runs["mixed_greedy"].gain == pytest.approx(expected)

    def test_algo_kwargs_star(self, small_wtp):
        engine = RevenueEngine(small_wtp)
        runs = run_methods(engine, ("pure_greedy",), algo_kwargs={"*": {"k": 2}})
        assert runs["pure_greedy"].result.configuration.max_bundle_size <= 2

    def test_run_methods_accepts_specs(self, small_wtp):
        from repro.api import AlgorithmSpec

        engine = RevenueEngine(small_wtp)
        runs = run_methods(engine, (AlgorithmSpec("pure_greedy", {"k": 2}),))
        assert set(runs) == {"components", "pure_greedy"}
        assert runs["pure_greedy"].result.configuration.max_bundle_size <= 2

    def test_run_methods_rejects_conflicting_same_name_specs(self, small_wtp):
        from repro.api import AlgorithmSpec
        from repro.errors import ValidationError

        engine = RevenueEngine(small_wtp)
        with pytest.raises(ValidationError, match="keyed by name"):
            run_methods(
                engine,
                (AlgorithmSpec("pure_greedy", {"k": 2}),
                 AlgorithmSpec("pure_greedy", {"k": 3})),
            )

    def test_run_methods_validates_kwargs_before_fitting(self, small_wtp):
        from repro.errors import ValidationError

        engine = RevenueEngine(small_wtp)
        with pytest.raises(ValidationError, match="does not accept"):
            run_methods(engine, ("pure_greedy",), algo_kwargs={"pure_greedy": {"nope": 1}})

    def test_sweep_engines_shapes(self, small_wtp):
        sweep = sweep_engines(
            "theta",
            [0.0, 0.1],
            lambda theta: RevenueEngine(small_wtp, theta=theta),
            methods=("pure_greedy",),
        )
        assert sweep.values == [0.0, 0.1]
        assert len(sweep.coverage["pure_greedy"]) == 2
        assert len(sweep.gain["components"]) == 2


class TestDefaults:
    def test_bench_dataset_is_kcore10(self):
        ds = bench_dataset(n_users=200, n_items=30)
        assert np.bincount(ds.user_ids).min() >= 10

    def test_default_engine_settings(self, small_wtp):
        engine = default_engine(small_wtp)
        assert engine.theta == 0.0
        assert engine.adoption.is_deterministic
        assert engine.grid.n_levels == 100

    def test_default_engine_passes_adoption_subclasses_through(self, small_wtp):
        """The shim must not rebuild a subclass as its base class."""
        from repro.core.adoption import StepAdoption

        class TracingStep(StepAdoption):
            pass

        adoption = TracingStep(alpha=1.5)
        engine = default_engine(small_wtp, adoption=adoption)
        assert engine.adoption is adoption

    def test_default_engine_accepts_grid_and_objective(self, small_wtp):
        """grid=/objective= keep their historical pass-through."""
        from repro.core.pricing import PriceGrid
        from repro.core.revenue import Objective

        grid = PriceGrid(n_levels=7)
        objective = Objective(profit_weight=1.0)
        engine = default_engine(small_wtp, grid=grid, objective=objective)
        assert engine.grid is grid
        assert engine.objective is objective

    def test_default_engine_escape_hatch_keeps_drift_threshold(self, small_wtp):
        """grid=, objective= and adoption subclasses keep drift_threshold."""
        from repro.core.adoption import StepAdoption
        from repro.core.pricing import PriceGrid
        from repro.core.revenue import Objective

        class TracingStep(StepAdoption):
            pass

        for extra in (
            {},
            {"grid": PriceGrid(n_levels=50)},
            {"objective": Objective(profit_weight=1.0)},
            {"adoption": TracingStep()},
        ):
            engine = default_engine(small_wtp, drift_threshold=0.2, **extra)
            assert engine.drift_threshold == 0.2, extra

    def test_default_engine_rejects_unknown_options(self, small_wtp):
        from repro.errors import ValidationError

        with pytest.raises(ValidationError, match="unknown engine option"):
            default_engine(small_wtp, bogus_option=1)

    def test_default_engine_rejects_grid_n_levels_conflict(self, small_wtp):
        from repro.core.pricing import PriceGrid
        from repro.errors import ValidationError

        with pytest.raises(ValidationError, match="not both"):
            default_engine(small_wtp, n_levels=50, grid=PriceGrid(n_levels=7))

    def test_bench_wtp_uses_lambda(self):
        ds = bench_dataset(n_users=200, n_items=30)
        wtp = bench_wtp(ds)
        rated = wtp.values[wtp.values > 0]
        prices = ds.item_prices
        assert rated.max() <= 1.25 * prices.max() + 1e-9


class TestFigures:
    def test_figure1_shapes(self):
        series = figure1()
        assert "gamma=1.0" in series.series
        mid = series.x_values.index(10.0)
        assert series.series["gamma=1.0"][mid] == pytest.approx(0.5)

    def test_figure2_small_scale(self, small_wtp):
        series = figure2(
            theta_values=(0.0, 0.1), wtp=small_wtp, methods=("pure_greedy",)
        )
        assert series.x_values == [0.0, 0.1]
        cov = series.series["pure_greedy"]
        assert cov[1] >= cov[0] - 1e-9  # theta>0 helps pure bundling

    def test_figure5_k1_is_components(self, small_wtp):
        series = figure5(k_values=(1, 2), wtp=small_wtp, methods=("pure_greedy",))
        assert series.series["pure_greedy"][0] == pytest.approx(
            series.series["components"][0]
        )

    def test_figure6_traces(self, medium_wtp):
        panels = figure6(wtp=medium_wtp)
        assert set(panels) == {"mixed", "pure"}
        mixed = panels["mixed"]
        assert "mixed_matching:gain%" in mixed.series
        assert mixed.extra["mixed_greedy"] >= 0

    def test_render_smoke(self, small_wtp):
        series = figure2(theta_values=(0.0,), wtp=small_wtp, methods=("pure_greedy",))
        text = series.render()
        assert "Figure 2" in text
