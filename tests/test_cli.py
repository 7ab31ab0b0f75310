"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


class TestBundleCommand:
    def test_synthetic_run(self, capsys):
        code = main(["bundle", "--algorithm", "pure_greedy", "--users", "80",
                     "--items", "12", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "expected revenue" in out
        assert "gain over components" in out

    def test_k_flag(self, capsys):
        code = main(["bundle", "--algorithm", "mixed_greedy", "--users", "80",
                     "--items", "12", "--k", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "bundle sizes" in out

    def test_csv_roundtrip(self, tmp_path, capsys):
        ratings = tmp_path / "r.csv"
        prices = tmp_path / "p.csv"
        assert main(["generate", "--users", "60", "--items", "10",
                     "--out-ratings", str(ratings), "--out-prices", str(prices)]) == 0
        capsys.readouterr()
        code = main(["bundle", "--ratings", str(ratings), "--prices", str(prices),
                     "--algorithm", "components"])
        assert code == 0
        assert "coverage" in capsys.readouterr().out

    def test_mismatched_csv_flags(self, capsys):
        assert main(["bundle", "--ratings", "only.csv"]) == 2
        assert "together" in capsys.readouterr().err

    def test_unknown_algorithm_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["bundle", "--algorithm", "nope"])

    def test_backend_flags_forwarded(self, capsys, monkeypatch):
        """--chunk-elements/--n-workers/--state-dtype reach the
        RevenueEngine."""
        from repro.core.revenue import RevenueEngine

        captured = {}
        original = RevenueEngine.__init__

        def spy(self, wtp, *args, **kwargs):
            captured.update(kwargs)
            return original(self, wtp, *args, **kwargs)

        monkeypatch.setattr(RevenueEngine, "__init__", spy)
        code = main([
            "bundle", "--algorithm", "mixed_greedy", "--users", "60",
            "--items", "10", "--chunk-elements", "5000", "--n-workers", "3",
            "--state-dtype", "float32",
        ])
        assert code == 0
        assert "expected revenue" in capsys.readouterr().out
        assert captured["chunk_elements"] == 5000
        assert captured["n_workers"] == 3
        assert captured["state_dtype"] == "float32"
        assert "mixed_kernel" not in captured

    @pytest.mark.parametrize("flag", ["--precision", "--storage"])
    def test_wtp_backend_flags_removed(self, flag, capsys):
        with pytest.raises(SystemExit):
            main(["bundle", "--help"])
        assert flag not in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["bundle", flag, "float32"])

    def test_mixed_kernel_choices_validated(self, capsys):
        """The adoption model picks the mixed kernel; there is no flag."""
        with pytest.raises(SystemExit) as exit_info:
            main(["bundle", "--mixed-kernel", "sorted"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --mixed-kernel" in capsys.readouterr().err

    def test_sorted_kernel_run_close_to_band(self, capsys, monkeypatch):
        """A CLI run on the shipped step kernel lands within 1% of one whose
        mixed scan runs the band oracle of ``tests/mixed_oracles.py``."""
        from mixed_oracles import use_band_scan

        revenues = []
        for kernel in ("band", "sorted"):
            with monkeypatch.context() as patch:
                if kernel == "band":
                    use_band_scan(patch)
                assert main(["bundle", "--algorithm", "mixed_greedy", "--users", "80",
                             "--items", "12", "--seed", "3"]) == 0
            out = capsys.readouterr().out
            line = next(l for l in out.splitlines() if "expected revenue" in l)
            revenues.append(float(line.split(":")[1]))
        assert revenues[1] == pytest.approx(revenues[0], rel=0.01)

    def test_chunk_elements_zero_means_unchunked(self, capsys, monkeypatch):
        from repro.core.revenue import RevenueEngine

        captured = {}
        original = RevenueEngine.__init__

        def spy(self, wtp, *args, **kwargs):
            captured.update(kwargs)
            return original(self, wtp, *args, **kwargs)

        monkeypatch.setattr(RevenueEngine, "__init__", spy)
        assert main(["bundle", "--algorithm", "components", "--users", "50",
                     "--items", "8", "--chunk-elements", "0"]) == 0
        capsys.readouterr()
        assert captured["chunk_elements"] is None

    def test_parallel_run_matches_serial(self, capsys):
        outputs = []
        for workers in ("1", "4"):
            assert main(["bundle", "--algorithm", "pure_matching", "--users", "80",
                         "--items", "12", "--seed", "3", "--n-workers", workers,
                         "--chunk-elements", "400"]) == 0
            out = capsys.readouterr().out
            # Drop the wall-time line; everything else must be identical.
            outputs.append([l for l in out.splitlines() if "wall time" not in l])
        assert outputs[0] == outputs[1]


class TestSolutionRoundTripCLI:
    """bundle --save-solution + quote: the CLI-level fit/serve round trip."""

    @pytest.fixture()
    def saved(self, tmp_path, capsys):
        ratings = tmp_path / "r.csv"
        prices = tmp_path / "p.csv"
        solution = tmp_path / "menu.json"
        assert main(["generate", "--users", "80", "--items", "12", "--seed", "1",
                     "--out-ratings", str(ratings), "--out-prices", str(prices)]) == 0
        assert main(["bundle", "--ratings", str(ratings), "--prices", str(prices),
                     "--algorithm", "mixed_greedy",
                     "--save-solution", str(solution)]) == 0
        out = capsys.readouterr().out
        assert f"solution saved to {solution}" in out
        return ratings, prices, solution

    def test_quote_reproduces_fitted_revenue_bit_exactly(self, saved, capsys):
        import json

        ratings, prices, solution = saved
        stored = json.loads(solution.read_text())
        assert main(["quote", "--solution", str(solution),
                     "--ratings", str(ratings), "--prices", str(prices)]) == 0
        out = capsys.readouterr().out
        hex_line = next(l for l in out.splitlines()
                        if l.startswith("expected revenue"))
        quoted_hex = hex_line.split("hex ")[1].rstrip(")")
        assert quoted_hex == stored["metrics"]["expected_revenue_hex"]

    def test_quote_runs_no_bundling_algorithm(self, saved, capsys, monkeypatch):
        from repro.algorithms.base import BundlingAlgorithm

        ratings, prices, solution = saved

        def boom(self, engine):
            raise AssertionError("quote must not run a bundling algorithm")

        monkeypatch.setattr(BundlingAlgorithm, "fit", boom)
        assert main(["quote", "--solution", str(solution),
                     "--ratings", str(ratings), "--prices", str(prices)]) == 0
        assert "quoted users: 80" in capsys.readouterr().out

    def test_quote_mismatched_csv_flags(self, saved, capsys):
        _, _, solution = saved
        assert main(["quote", "--solution", str(solution),
                     "--ratings", "only.csv"]) == 2
        assert "together" in capsys.readouterr().err

    def test_quote_missing_solution_file(self, tmp_path, capsys):
        assert main(["quote", "--solution", str(tmp_path / "nope.json")]) == 2
        assert "cannot load solution" in capsys.readouterr().err

    def test_quote_missing_ratings_csv_is_a_cli_error(self, saved, tmp_path, capsys):
        _, prices, solution = saved
        assert main(["quote", "--solution", str(solution),
                     "--ratings", str(tmp_path / "missing.csv"),
                     "--prices", str(prices)]) == 2
        assert "cannot load ratings" in capsys.readouterr().err

    def test_quote_non_numeric_metadata_conversion_is_a_cli_error(self, saved, capsys):
        import json

        ratings, prices, solution = saved
        payload = json.loads(solution.read_text())
        payload["metadata"]["conversion"] = "high"
        # Dropping the fingerprint makes this a legacy (pre-fingerprint)
        # artifact; with it kept, load would reject the edit as tampering.
        payload.pop("fingerprint", None)
        solution.write_text(json.dumps(payload))
        assert main(["quote", "--solution", str(solution),
                     "--ratings", str(ratings), "--prices", str(prices)]) == 2
        assert "cannot quote" in capsys.readouterr().err

    def test_quote_warns_when_no_fitted_conversion_recorded(self, saved, capsys):
        import json

        ratings, prices, solution = saved
        payload = json.loads(solution.read_text())
        del payload["metadata"]["conversion"]
        # Dropping the fingerprint makes this a legacy (pre-fingerprint)
        # artifact; with it kept, load would reject the edit as tampering.
        payload.pop("fingerprint", None)
        solution.write_text(json.dumps(payload))
        assert main(["quote", "--solution", str(solution),
                     "--ratings", str(ratings), "--prices", str(prices)]) == 0
        err = capsys.readouterr().err
        assert "records no fitted conversion" in err

    def test_save_solution_bad_path_is_a_cli_error(self, tmp_path, capsys):
        assert main(["bundle", "--algorithm", "pure_greedy", "--users", "60",
                     "--items", "10",
                     "--save-solution", str(tmp_path / "no_dir" / "m.json")]) == 2
        assert "cannot save solution" in capsys.readouterr().err

    def test_quote_catalogue_mismatch_is_a_cli_error(self, saved, tmp_path, capsys):
        ratings, prices, solution = saved
        other_r = tmp_path / "other_r.csv"
        other_p = tmp_path / "other_p.csv"
        assert main(["generate", "--users", "60", "--items", "8", "--seed", "2",
                     "--out-ratings", str(other_r), "--out-prices", str(other_p)]) == 0
        capsys.readouterr()
        assert main(["quote", "--solution", str(solution),
                     "--ratings", str(other_r), "--prices", str(other_p)]) == 2
        assert "cannot quote" in capsys.readouterr().err

    def test_quote_defaults_to_fitted_conversion(self, tmp_path, capsys):
        """A solution fitted at a non-default lambda is served at that lambda."""
        import json

        ratings = tmp_path / "r.csv"
        prices = tmp_path / "p.csv"
        solution = tmp_path / "menu.json"
        assert main(["generate", "--users", "80", "--items", "12", "--seed", "1",
                     "--out-ratings", str(ratings), "--out-prices", str(prices)]) == 0
        assert main(["bundle", "--ratings", str(ratings), "--prices", str(prices),
                     "--algorithm", "pure_greedy", "--conversion", "2.0",
                     "--save-solution", str(solution)]) == 0
        capsys.readouterr()
        stored = json.loads(solution.read_text())
        assert stored["metadata"]["conversion"] == 2.0
        assert main(["quote", "--solution", str(solution),
                     "--ratings", str(ratings), "--prices", str(prices)]) == 0
        out = capsys.readouterr().out
        hex_line = next(l for l in out.splitlines()
                        if l.startswith("expected revenue"))
        assert hex_line.split("hex ")[1].rstrip(")") == \
            stored["metrics"]["expected_revenue_hex"]

    def test_invalid_k_value_is_a_cli_error(self, capsys):
        assert main(["bundle", "--algorithm", "mixed_greedy", "--users", "60",
                     "--items", "10", "--k", "-1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_k_unsupported_algorithm_rejected(self, capsys):
        assert main(["bundle", "--algorithm", "pure_matching2", "--users", "60",
                     "--items", "10", "--k", "2"]) == 2
        assert "does not support --k" in capsys.readouterr().err


class TestRefitCommand:
    """refit: warm incremental re-pricing of a saved menu across a delta."""

    def test_refit_round_trip(self, tmp_path, capsys):
        import json

        from repro.data.loaders import save_wtp_npz
        from repro.data.synthetic import amazon_books_like
        from repro.data.wtp_mapping import wtp_from_ratings

        solution = tmp_path / "menu.json"
        assert main(["bundle", "--algorithm", "mixed_greedy", "--users", "80",
                     "--items", "12", "--seed", "1",
                     "--save-solution", str(solution)]) == 0
        capsys.readouterr()
        # The same population the bundle command fitted on, as an .npz.
        dataset = amazon_books_like(n_users=80, n_items=12, seed=1)
        wtp = wtp_from_ratings(dataset)
        population = tmp_path / "population.npz"
        save_wtp_npz(wtp, population)
        delta_path = tmp_path / "delta.json"
        added = (wtp.values[:3] * 1.05).tolist()
        delta_path.write_text(
            json.dumps({"removed": [0, 5, 11, 40], "added": added})
        )
        refitted = tmp_path / "menu2.json"
        new_population = tmp_path / "population2.npz"
        code = main(["refit", "--solution", str(solution),
                     "--wtp", str(population), "--delta", str(delta_path),
                     "--drift-threshold", "1e6",
                     "--save-solution", str(refitted),
                     "--save-population", str(new_population)])
        out = capsys.readouterr().out
        assert code == 0
        assert "refit mode: warm" in out
        assert "delta: +3 users, -4 users -> 79 users" in out
        assert f"solution saved to {refitted}" in out
        assert f"post-delta population saved to {new_population}" in out
        # The refitted artifact re-loads and carries the refit provenance.
        from repro.api.solution import BundlingSolution

        reloaded = BundlingSolution.load(refitted)
        assert reloaded.fingerprint() != BundlingSolution.load(solution).fingerprint()
        from repro.data.loaders import load_wtp_npz

        assert load_wtp_npz(new_population).n_users == 79

    def test_refit_missing_solution_is_a_cli_error(self, tmp_path, capsys):
        assert main(["refit", "--solution", str(tmp_path / "nope.json"),
                     "--wtp", str(tmp_path / "nope.npz"),
                     "--delta", str(tmp_path / "nope.json")]) == 2
        assert "cannot load solution" in capsys.readouterr().err

    def test_refit_bad_delta_is_a_cli_error(self, tmp_path, capsys):
        import json

        from repro.data.loaders import save_wtp_npz
        from repro.data.synthetic import amazon_books_like
        from repro.data.wtp_mapping import wtp_from_ratings

        solution = tmp_path / "menu.json"
        assert main(["bundle", "--algorithm", "components", "--users", "60",
                     "--items", "12", "--seed", "3",
                     "--save-solution", str(solution)]) == 0
        capsys.readouterr()
        population = tmp_path / "population.npz"
        save_wtp_npz(
            wtp_from_ratings(amazon_books_like(n_users=60, n_items=12, seed=3)),
            population,
        )
        delta_path = tmp_path / "delta.json"
        delta_path.write_text(json.dumps({"bogus": True}))
        assert main(["refit", "--solution", str(solution),
                     "--wtp", str(population),
                     "--delta", str(delta_path)]) == 2
        assert "cannot load delta" in capsys.readouterr().err


class TestExperimentCommand:
    def test_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "27.00" in out

    def test_table6(self, capsys):
        assert main(["experiment", "table6"]) == 0
        assert "Born in Fire" in capsys.readouterr().out

    def test_figure1(self, capsys):
        assert main(["experiment", "figure1"]) == 0
        assert "Figure 1" in capsys.readouterr().out

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["experiment", "table99"])


class TestGenerateCommand:
    def test_writes_csvs(self, tmp_path, capsys):
        ratings = tmp_path / "ratings.csv"
        prices = tmp_path / "prices.csv"
        code = main(["generate", "--users", "50", "--items", "8", "--seed", "2",
                     "--out-ratings", str(ratings), "--out-prices", str(prices)])
        assert code == 0
        assert ratings.exists() and prices.exists()
        assert ratings.read_text().startswith("user,item,rating")
