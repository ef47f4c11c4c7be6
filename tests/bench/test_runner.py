"""The parallel sharded runner and its content-addressed result cache."""

import json
import os

import numpy as np
import pytest

from repro.bench import EXPERIMENTS, render
from repro.bench.harness import ExperimentResult
from repro.bench.runner import (
    ResultCache,
    cache_key,
    result_from_doc,
    run_suite,
    source_digest,
)
from repro.errors import ContinuumError


class TestCacheKey:
    def test_distinct_per_config(self):
        src = "a" * 64
        keys = {
            cache_key("E1", False, 0, src),
            cache_key("E2", False, 0, src),
            cache_key("E1", True, 0, src),
            cache_key("E1", False, 1, src),
            cache_key("E1", False, 0, "b" * 64),
        }
        assert len(keys) == 5

    def test_stable_and_filename_safe(self):
        key = cache_key("E13", True, 7, "f" * 64)
        assert key == cache_key("E13", True, 7, "f" * 64)
        assert key.startswith("e13-") and key.endswith(".json")
        assert "/" not in key

    def test_source_digest_tracks_package_sources(self):
        digest = source_digest()
        assert len(digest) == 64
        assert digest == source_digest()


def _result(**rows_kwargs) -> ExperimentResult:
    result = ExperimentResult("E99", "cache test")
    result.row(**(rows_kwargs or {"x": 1.5, "label": "a", "ok": True}))
    result.note("a note")
    return result


class TestResultCache:
    def test_store_load_roundtrip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        result = _result()
        rendered = render(result)
        path = cache.store("k.json", result, rendered, meta={"seed": 0})
        assert path and os.path.exists(path)
        doc = cache.load("k.json")
        assert doc["rendered"] == rendered
        assert render(result_from_doc(doc)) == rendered

    def test_numpy_rows_roundtrip_render_identically(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        result = _result(
            bw=np.float64(123.456789e6),
            n=np.int64(42),
            wins=np.bool_(True),
            tiny=np.float64(1.23e-7),
        )
        rendered = render(result)
        assert cache.store("np.json", result, rendered, meta={}) is not None
        doc = cache.load("np.json")
        assert render(result_from_doc(doc)) == rendered

    def test_unserializable_rows_are_not_cached(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        result = _result(weird=object())
        assert cache.store("w.json", result, render(result), meta={}) is None
        assert cache.load("w.json") is None

    def test_corrupt_file_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        (tmp_path / "bad.json").write_text("{truncated")
        assert cache.load("bad.json") is None

    def test_wrong_schema_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        (tmp_path / "old.json").write_text(json.dumps({"schema": "v0"}))
        assert cache.load("old.json") is None

    @pytest.mark.parametrize("text", ["[]", "1", '"schema"', "null"])
    def test_non_object_json_is_a_miss(self, tmp_path, text):
        cache = ResultCache(str(tmp_path))
        (tmp_path / "odd.json").write_text(text)
        assert cache.load("odd.json") is None

    def test_missing_is_a_miss(self, tmp_path):
        assert ResultCache(str(tmp_path)).load("nope.json") is None


class TestRunSuiteSequential:
    def test_matches_direct_run(self, tmp_path):
        entries = run_suite(["E1"], quick=True, seed=0, jobs=1,
                            use_cache=False)
        direct = EXPERIMENTS["E1"](quick=True, seed=0)
        assert len(entries) == 1
        assert entries[0].rendered == render(direct)
        assert not entries[0].cached

    def test_unknown_experiment_raises(self):
        with pytest.raises(ContinuumError):
            run_suite(["E42"], quick=True, use_cache=False)

    def test_bad_jobs_raises(self):
        with pytest.raises(ContinuumError):
            run_suite(["E1"], quick=True, jobs=0, use_cache=False)

    def test_save_dir_writes_tables(self, tmp_path):
        run_suite(["E1"], quick=True, use_cache=False,
                  save_dir=str(tmp_path))
        assert (tmp_path / "e1.txt").read_text().startswith("E1:")

    def test_warm_cache_skips_compute_and_replays(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = run_suite(["E1"], quick=True, cache_dir=cache_dir)
        warm = run_suite(["E1"], quick=True, cache_dir=cache_dir)
        assert not cold[0].cached and warm[0].cached
        assert warm[0].rendered == cold[0].rendered
        assert render(warm[0].result) == render(cold[0].result)

    def test_cache_invalidated_by_seed(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_suite(["E13"], quick=True, seed=0, cache_dir=cache_dir)
        other = run_suite(["E13"], quick=True, seed=5, cache_dir=cache_dir)
        assert not other[0].cached


class TestShardProtocol:
    def test_e13_shards_merge_equals_run_experiment(self):
        from repro.bench import e13_resilience_policies as e13

        shards = e13.list_shards(quick=True, seed=0)
        assert len(shards) > 1
        partials = [e13.run_shard(s, quick=True, seed=0) for s in shards]
        merged = e13.merge_shards(partials, quick=True, seed=0)
        direct = e13.run_experiment(quick=True, seed=0)
        assert merged.rows == direct.rows
        assert merged.notes == direct.notes

    def test_e13_merge_is_order_insensitive(self):
        from repro.bench import e13_resilience_policies as e13

        shards = e13.list_shards(quick=True, seed=0)
        partials = [e13.run_shard(s, quick=True, seed=0) for s in shards]
        shuffled = list(reversed(partials))
        assert e13.merge_shards(shuffled, quick=True, seed=0).rows == \
            e13.merge_shards(partials, quick=True, seed=0).rows

    def test_e14_shards_merge_equals_run_experiment(self):
        from repro.bench import e14_topology_zoo as e14

        shards = e14.list_shards(quick=True, seed=0)
        assert len(shards) > 1
        partials = [e14.run_shard(s, quick=True, seed=0) for s in shards]
        merged = e14.merge_shards(partials, quick=True, seed=0)
        direct = e14.run_experiment(quick=True, seed=0)
        assert merged.rows == direct.rows
        assert merged.notes == direct.notes

    def test_e14_merge_is_order_insensitive(self):
        from repro.bench import e14_topology_zoo as e14

        shards = e14.list_shards(quick=True, seed=0)
        partials = [e14.run_shard(s, quick=True, seed=0) for s in shards]
        shuffled = list(reversed(partials))
        assert e14.merge_shards(shuffled, quick=True, seed=0).rows == \
            e14.merge_shards(partials, quick=True, seed=0).rows


class TestRunSuiteParallel:
    def test_parallel_bit_identical_to_sequential(self, tmp_path):
        seq = run_suite(["E1", "E13"], quick=True, use_cache=False, jobs=1)
        par = run_suite(["E1", "E13"], quick=True, use_cache=False, jobs=2)
        assert [e.experiment_id for e in par] == ["E1", "E13"]
        for s, p in zip(seq, par):
            assert p.rendered == s.rendered
        # E13 went through the shard fan-out
        assert par[1].shards > 1

    def test_parallel_save_matches_sequential_save(self, tmp_path):
        seq_dir, par_dir = str(tmp_path / "seq"), str(tmp_path / "par")
        run_suite(["E13"], quick=True, use_cache=False, jobs=1,
                  save_dir=seq_dir)
        run_suite(["E13"], quick=True, use_cache=False, jobs=2,
                  save_dir=par_dir)
        seq_text = open(os.path.join(seq_dir, "e13.txt")).read()
        par_text = open(os.path.join(par_dir, "e13.txt")).read()
        assert par_text == seq_text

    def test_parallel_populates_cache_for_replay(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = run_suite(["E13"], quick=True, jobs=2, cache_dir=cache_dir)
        warm = run_suite(["E13"], quick=True, jobs=1, cache_dir=cache_dir)
        assert warm[0].cached
        assert warm[0].rendered == cold[0].rendered


class TestSuiteMetrics:
    def test_sequential_collects_snapshots(self):
        from repro.bench.runner import suite_metrics_doc
        from repro.observe.metrics import snapshot_to_json, validate_suite

        entries = run_suite(["E6"], quick=True, use_cache=False,
                            collect_metrics=True)
        assert entries[0].metrics is not None
        doc = validate_suite(suite_metrics_doc(entries, quick=True, seed=0))
        assert "datafabric_cache_hits_total" in (
            doc["experiments"]["E6"]["metrics"])
        # canonical serialization is stable across reruns
        again = run_suite(["E6"], quick=True, use_cache=False,
                          collect_metrics=True)
        assert snapshot_to_json(entries[0].metrics) == snapshot_to_json(
            again[0].metrics)

    def test_parallel_metrics_bit_identical_to_sequential(self):
        from repro.observe.metrics import snapshot_to_json

        seq = run_suite(["E6", "E13"], quick=True, use_cache=False, jobs=1,
                        collect_metrics=True)
        par = run_suite(["E6", "E13"], quick=True, use_cache=False, jobs=2,
                        collect_metrics=True)
        for s, p in zip(seq, par):
            assert p.rendered == s.rendered        # tables untouched
            assert snapshot_to_json(p.metrics) == snapshot_to_json(s.metrics)

    def test_collect_metrics_bypasses_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_suite(["E1"], quick=True, cache_dir=cache_dir)     # warm it
        metered = run_suite(["E1"], quick=True, cache_dir=cache_dir,
                            collect_metrics=True)
        assert not metered[0].cached               # cached replay skipped
        assert metered[0].metrics is not None

    def test_tables_unchanged_by_collection(self):
        bare = run_suite(["E6"], quick=True, use_cache=False)
        metered = run_suite(["E6"], quick=True, use_cache=False,
                            collect_metrics=True)
        assert metered[0].rendered == bare[0].rendered

    def test_suite_doc_requires_metrics(self):
        from repro.bench.runner import suite_metrics_doc

        entries = run_suite(["E1"], quick=True, use_cache=False)
        with pytest.raises(ContinuumError, match="no metrics collected"):
            suite_metrics_doc(entries, quick=True, seed=0)
