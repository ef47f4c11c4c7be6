"""Quick-mode smoke tests for every experiment: each must run, produce
non-empty rows with its expected columns, and reproduce its headline
shape claim. (The benchmark suite asserts the full shape set; these keep
`pytest tests/` sufficient to catch experiment regressions.)"""

import re

import pytest

from repro.bench import EXPERIMENTS
from repro.bench.e02_strategies import place_externals
from repro.continuum import science_grid, Tier
from repro.datafabric import Dataset


class TestRegistry:
    def test_all_experiments_registered(self):
        assert sorted(EXPERIMENTS) == [
            "E1", "E10", "E11", "E12", "E13", "E14", "E16", "E2", "E3", "E4",
            "E5", "E6", "E7", "E8", "E9"
        ]


class TestPlaceExternals:
    def test_round_robin_over_peripherals(self):
        topo = science_grid()
        externals = [Dataset(f"d{i}", 1.0) for i in range(4)]
        placed = place_externals(topo, externals)
        sites = {site for _, site in placed}
        for site in sites:
            assert topo.site(site).tier.is_peripheral
        assert len(placed) == 4


@pytest.mark.parametrize("exp_id", sorted(EXPERIMENTS))
def test_quick_mode_produces_rows(exp_id):
    result = EXPERIMENTS[exp_id](quick=True, seed=0)
    assert result.experiment_id == exp_id
    assert result.rows, f"{exp_id} produced no rows"
    assert result.notes, f"{exp_id} recorded no notes"
    # all rows of an experiment share a coherent schema (subset of union)
    keys = set().union(*(set(r) for r in result.rows))
    assert keys


class TestHeadlineShapes:
    def test_e1_crossover_exists(self):
        result = EXPERIMENTS["E1"](quick=True)
        wins = [r["offload_wins_sim"] for r in result.rows]
        assert not wins[0] and wins[-1]

    def test_e2_greedy_wins_climate(self):
        result = EXPERIMENTS["E2"](quick=True)
        climate = [r for r in result.rows if r["workload"] == "climate"]
        best = min(climate, key=lambda r: r["makespan_s"])
        assert best["strategy"] in ("greedy-eft", "heft", "min-min", "max-min")

    def test_e4_cold_worse_than_warm(self):
        result = EXPERIMENTS["E4"](quick=True)
        rows = {r["scenario"]: r for r in result.rows}
        assert rows["keep-alive=0s"]["p95_ms"] > rows["keep-alive=60s"]["p95_ms"]

    def test_e5_cloud_collapses_at_high_latency(self):
        result = EXPERIMENTS["E5"](quick=True)
        cloud = [r for r in result.rows if r["policy"] == "cloud"]
        assert cloud[-1]["satisfaction"] < cloud[0]["satisfaction"]

    def test_e6_caches_beat_streaming(self):
        result = EXPERIMENTS["E6"](quick=True)
        stream = next(r for r in result.rows if r["policy"] == "none (stream)")
        lru = next(r for r in result.rows if r["policy"] == "lru")
        assert lru["GB_moved"] < stream["GB_moved"]

    def test_e8_adaptive_beats_static_after_shift(self):
        result = EXPERIMENTS["E8"](quick=True)
        last = result.rows[-1]
        assert last["cum_regret_adaptive"] < last["cum_regret_static"]

    def test_e10_thin_pipe_stays_local(self):
        result = EXPERIMENTS["E10"](quick=True)
        thin = [r for r in result.rows if r["bandwidth_Mbps"] == 4.0]
        assert all(r["speedup"] == 1.0 for r in thin)

    def test_e14_covers_every_family_and_intensity(self):
        from repro.bench.e14_topology_zoo import _families, _intensities

        result = EXPERIMENTS["E14"](quick=True)
        cells = {(r["family"], r["churn"]) for r in result.rows}
        expected = {(fam, i) for fam, _p in _families(True)
                    for i in _intensities(True)}
        assert cells == expected

    def test_e14_churn_widens_spread_or_lowers_crossover(self):
        """Churn must bite somewhere: for each family the high-churn
        cell shows a worse worst/best spread or an earlier offload
        crossover than the calm cell."""
        import math

        result = EXPERIMENTS["E14"](quick=True)
        by_cell = {(r["family"], r["churn"]): r for r in result.rows}
        for family, churn in by_cell:
            if churn == "none":
                continue
            calm, stormy = by_cell[(family, "none")], by_cell[(family, churn)]
            crossed_earlier = (
                not math.isnan(stormy["crossover_x"])
                and (math.isnan(calm["crossover_x"])
                     or stormy["crossover_x"] <= calm["crossover_x"])
            )
            assert stormy["spread"] > calm["spread"] or crossed_earlier

    def test_e16_staleness_cost_grows_with_lag(self):
        result = EXPERIMENTS["E16"](quick=True)
        stale = [r for r in result.rows
                 if r["mode"] == "stale" and r["partitions"] == "none"]
        assert stale == sorted(stale, key=lambda r: r["lag_s"])
        assert stale[-1]["mis"] > stale[0]["mis"]
        assert stale[-1]["waste_mb"] > stale[0]["waste_mb"]

    def test_e16_quorum_eliminates_misplacement_at_a_latency_premium(self):
        result = EXPERIMENTS["E16"](quick=True)
        quorum = [r for r in result.rows if r["mode"] == "quorum"]
        assert quorum
        assert all(r["mis"] == 0 and r["waste_mb"] == 0 for r in quorum)
        stale = [r for r in result.rows if r["mode"] == "stale"]
        assert min(r["p99_ms"] for r in quorum) > \
            max(r["p99_ms"] for r in stale)

    def test_e16_partitions_cost_availability(self):
        result = EXPERIMENTS["E16"](quick=True)
        by_cell = {(r["mode"], r["partitions"], r["lag_s"]): r
                   for r in result.rows}
        calm = sum(r["unavail_s"] for k, r in by_cell.items()
                   if k[0] == "quorum" and k[1] == "none")
        stormy = sum(r["unavail_s"] for k, r in by_cell.items()
                     if k[0] == "quorum" and k[1] == "heavy")
        assert stormy > calm

    def test_e13_no_policy_loses_work(self):
        result = EXPERIMENTS["E13"](quick=True)
        assert all(r["lost"] == 0 for r in result.rows)

    def test_e13_full_dominates_naive_at_highest_intensity(self):
        """The headline acceptance claim: breakers + hedging strictly
        beat naive retry on wasted work AND tail latency under the
        heaviest campaign."""
        result = EXPERIMENTS["E13"](quick=False)
        worst = result.rows[-1]["intensity"]
        by_policy = {r["policy"]: r for r in result.rows
                     if r["intensity"] == worst}
        naive = by_policy["naive-retry"]
        full = by_policy["backoff+breakers+hedging"]
        assert full["wasted_pct"] < naive["wasted_pct"]
        assert full["p99_turnaround_s"] < naive["p99_turnaround_s"]


class TestDeterminism:
    @pytest.mark.parametrize("exp_id", ["E1", "E2", "E6", "E7", "E10", "E13",
                                        "E14", "E16"])
    def test_same_seed_same_rows(self, exp_id):
        a = EXPERIMENTS[exp_id](quick=True, seed=3)
        b = EXPERIMENTS[exp_id](quick=True, seed=3)
        assert a.rows == b.rows


class TestCLI:
    def test_single_experiment(self, capsys):
        from repro.bench.__main__ import main

        assert main(["E1", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "E1: Gilder crossover" in out

    def test_prints_wall_time_per_experiment_before_footer(self, capsys):
        from repro.bench.__main__ import main

        assert main(["E1", "E4", "--quick", "--no-cache"]) == 0
        lines = capsys.readouterr().err.splitlines()
        per = [line for line in lines
               if re.fullmatch(r"# E\d+: \d+\.\d\d s \(\d+ shards\)", line)]
        assert [line.split(":")[0] for line in per] == ["# E1", "# E4"]
        footer = next(i for i, line in enumerate(lines)
                      if line.startswith("# suite:"))
        assert all(lines.index(line) < footer for line in per)

    def test_unknown_experiment(self, capsys):
        from repro.bench.__main__ import main

        assert main(["E42"]) == 2

    def test_save_flag(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        assert main(["E1", "--save", str(tmp_path / "out"),
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        assert (tmp_path / "out" / "e1.txt").exists()

    def test_warm_cache_replays_identically(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        args = ["E1", "--cache-dir", str(tmp_path / "cache")]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert warm == cold
        assert list((tmp_path / "cache").glob("e1-*.json"))

    def test_jobs_flag_parallel_run(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        assert main(["E1", "--jobs", "2", "--no-cache",
                     "--save", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "E1: Gilder crossover" in out
        assert (tmp_path / "out" / "e1.txt").exists()
