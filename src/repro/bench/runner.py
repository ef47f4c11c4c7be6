"""Parallel sharded experiment runner with a content-addressed result cache.

The E1–E14 suite is embarrassingly parallel twice over: experiments are
independent of each other, and shootout-style experiments (E13, E14)
decompose further into independent scheduler runs. This module
fans both levels across a :class:`~concurrent.futures.ProcessPoolExecutor`
and merges partial results in deterministic experiment/shard order, so
the rendered tables are byte-identical to a sequential run.

Experiment modules may opt into sub-experiment sharding by exposing::

    list_shards(quick, seed)  -> list of picklable shard keys
    run_shard(shard, quick, seed) -> picklable partial
    merge_shards(partials, quick, seed) -> ExperimentResult

with ``run_experiment`` delegating to the same three functions — the
sequential path and the parallel path then share every line of
experiment code, which is what makes byte-identity a structural
property rather than a testing hope.

Results are memoized in a **content-addressed cache** under
``results/.cache/``: the key digests the experiment id, its config
(quick/seed), and every tracked source file under ``src/repro``. Any
code or config change misses; an unchanged experiment replays instantly
from the stored render.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro.bench.harness import ExperimentResult, render, save_rendered
from repro.errors import ContinuumError

DEFAULT_CACHE_DIR = os.path.join("results", ".cache")
_CACHE_SCHEMA = "repro-result-cache/1"
_CACHE_MAX_ENTRIES = 256


# ---------------------------------------------------------------------------
# Content addressing
# ---------------------------------------------------------------------------

def source_digest() -> str:
    """Digest of every tracked source file under ``src/repro``.

    Any change to the package — kernel, strategies, experiment bodies —
    yields a new digest and therefore a cold cache for every experiment.
    """
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    hasher = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            hasher.update(rel.encode())
            hasher.update(b"\0")
            with open(path, "rb") as handle:
                hasher.update(handle.read())
            hasher.update(b"\0")
    return hasher.hexdigest()


def cache_key(experiment_id: str, quick: bool, seed: int,
              src_digest: str) -> str:
    """Filename-safe content address for one experiment configuration."""
    config = json.dumps(
        {"schema": _CACHE_SCHEMA, "experiment": experiment_id.upper(),
         "quick": bool(quick), "seed": int(seed), "sources": src_digest},
        sort_keys=True,
    )
    digest = hashlib.sha256(config.encode()).hexdigest()
    return f"{experiment_id.lower()}-{digest[:24]}.json"


def _json_default(obj):
    """Unwrap numpy scalars so row values survive the JSON round-trip
    with their rendered form unchanged (float round-trips via repr)."""
    item = getattr(obj, "item", None)
    if item is not None:
        return obj.item()
    raise TypeError(f"not cache-serializable: {type(obj).__name__}")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".cache.tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class ResultCache:
    """Content-addressed store of rendered experiment results."""

    def __init__(self, directory: str = DEFAULT_CACHE_DIR):
        self.directory = directory

    def load(self, key: str) -> dict | None:
        """The cached document for ``key``, or None on miss/corruption."""
        path = os.path.join(self.directory, key)
        try:
            with open(path, encoding="utf-8") as handle:
                doc = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(doc, dict) or doc.get("schema") != _CACHE_SCHEMA:
            return None
        if not {"experiment_id", "title", "rows",
                "notes", "rendered"} <= doc.keys():
            return None
        return doc

    def store(self, key: str, result: ExperimentResult, rendered: str,
              meta: dict) -> str | None:
        """Persist a result; returns the path, or None when the rows do
        not survive a JSON round-trip render-identically (never cache
        something a replay would render differently)."""
        doc = {
            "schema": _CACHE_SCHEMA,
            "experiment_id": result.experiment_id,
            "title": result.title,
            "rows": result.rows,
            "notes": result.notes,
            "rendered": rendered,
            "meta": meta,
        }
        try:
            text = json.dumps(doc, default=_json_default, indent=1)
        except TypeError:
            return None
        replay = result_from_doc(json.loads(text))
        if render(replay) != rendered:
            return None
        path = os.path.join(self.directory, key)
        _atomic_write(path, text)
        self._prune()
        return path

    def _prune(self) -> None:
        """Drop the oldest entries once the cache outgrows its cap."""
        try:
            names = [n for n in os.listdir(self.directory)
                     if n.endswith(".json")]
        except OSError:
            return
        if len(names) <= _CACHE_MAX_ENTRIES:
            return
        paths = [os.path.join(self.directory, n) for n in names]
        paths.sort(key=lambda p: os.path.getmtime(p))
        for path in paths[:len(paths) - _CACHE_MAX_ENTRIES]:
            try:
                os.unlink(path)
            except OSError:
                pass


def result_from_doc(doc: dict) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from a cache document."""
    return ExperimentResult(
        experiment_id=doc["experiment_id"],
        title=doc["title"],
        rows=list(doc["rows"]),
        notes=list(doc["notes"]),
    )


# ---------------------------------------------------------------------------
# Worker entry points (module-level: must be picklable by the pool)
# ---------------------------------------------------------------------------

def _worker_run_experiment(exp_id: str, quick: bool, seed: int,
                           collect_metrics: bool = False):
    from repro.bench import EXPERIMENTS
    from repro.observe.metrics import MetricsRegistry, use_registry

    t0 = time.perf_counter()
    if collect_metrics:
        registry = MetricsRegistry()
        with use_registry(registry):
            result = EXPERIMENTS[exp_id](quick=quick, seed=seed)
        return result, time.perf_counter() - t0, registry.dump_state()
    result = EXPERIMENTS[exp_id](quick=quick, seed=seed)
    return result, time.perf_counter() - t0, None


def _worker_run_shard(exp_id: str, shard, quick: bool, seed: int,
                      collect_metrics: bool = False):
    from repro.bench import EXPERIMENTS
    from repro.observe.metrics import MetricsRegistry, use_registry
    import importlib

    module = importlib.import_module(EXPERIMENTS[exp_id].__module__)
    t0 = time.perf_counter()
    if collect_metrics:
        registry = MetricsRegistry()
        with use_registry(registry):
            partial = module.run_shard(shard, quick=quick, seed=seed)
        return partial, time.perf_counter() - t0, registry.dump_state()
    partial = module.run_shard(shard, quick=quick, seed=seed)
    return partial, time.perf_counter() - t0, None


def _shard_api(exp_id: str):
    """The (list_shards, run_shard, merge_shards) triple, or None."""
    from repro.bench import EXPERIMENTS
    import importlib

    module = importlib.import_module(EXPERIMENTS[exp_id].__module__)
    fns = tuple(getattr(module, name, None)
                for name in ("list_shards", "run_shard", "merge_shards"))
    return fns if all(fns) else None


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------

@dataclass
class SuiteEntry:
    """One experiment's outcome within a suite run."""

    experiment_id: str
    result: ExperimentResult
    rendered: str
    cached: bool = False
    wall_s: float = 0.0     # compute time (slowest shard for sharded runs)
    shards: int = 1
    metrics: dict | None = None   # canonical metrics snapshot, if collected


def run_suite(
    experiment_ids: list[str],
    *,
    quick: bool = False,
    seed: int = 0,
    jobs: int = 1,
    use_cache: bool = True,
    cache_dir: str = DEFAULT_CACHE_DIR,
    save_dir: str | None = None,
    collect_metrics: bool = False,
) -> list[SuiteEntry]:
    """Run experiments, possibly in parallel, returning entries in the
    requested order with byte-identical-to-sequential renders.

    ``jobs=1`` runs everything in-process (no pool); higher values fan
    experiments *and* their shards across worker processes. With
    ``use_cache``, unchanged experiments replay from the content-
    addressed cache without computing anything.

    ``collect_metrics`` runs every experiment under an enabled metrics
    registry and attaches the canonical per-experiment snapshot to each
    entry. Shard registries are merged in deterministic shard order with
    exact (error-free) accumulation, so the snapshot is byte-identical
    across ``--jobs`` values. Implies no result-cache use: a cached
    replay computes nothing and therefore has no metrics to report.
    """
    from repro.bench import EXPERIMENTS

    ids = [e.upper() for e in experiment_ids]
    for exp_id in ids:
        if exp_id not in EXPERIMENTS:
            raise ContinuumError(
                f"unknown experiment {exp_id!r}; known: {list(EXPERIMENTS)}"
            )
    if jobs < 1:
        raise ContinuumError(f"--jobs must be >= 1, got {jobs}")

    if collect_metrics:
        use_cache = False
    cache = ResultCache(cache_dir) if use_cache else None
    src_digest = source_digest() if use_cache else ""
    entries: dict[str, SuiteEntry] = {}
    pending: list[str] = []

    for exp_id in ids:
        if exp_id in entries or exp_id in pending:
            continue
        doc = cache.load(cache_key(exp_id, quick, seed, src_digest)) \
            if cache else None
        if doc is not None:
            meta = doc.get("meta", {})
            entries[exp_id] = SuiteEntry(
                experiment_id=exp_id,
                result=result_from_doc(doc),
                rendered=doc["rendered"],
                cached=True,
                wall_s=float(meta.get("wall_s", 0.0)),
                shards=int(meta.get("shards", 1)),
            )
        else:
            pending.append(exp_id)

    if pending:
        if jobs == 1:
            computed = _run_sequential(pending, quick, seed, collect_metrics)
        else:
            computed = _run_parallel(pending, quick, seed, jobs,
                                     collect_metrics)
        for entry in computed:
            entries[entry.experiment_id] = entry
            if cache:
                key = cache_key(entry.experiment_id, quick, seed, src_digest)
                cache.store(key, entry.result, entry.rendered, meta={
                    "quick": quick, "seed": seed,
                    "wall_s": round(entry.wall_s, 6),
                    "shards": entry.shards,
                    "sources": src_digest,
                })

    ordered = [entries[exp_id] for exp_id in ids]
    if save_dir:
        for entry in ordered:
            save_rendered(entry.rendered + "\n",
                          entry.experiment_id.lower() + ".txt", save_dir)
    return ordered


def _snapshot_from_states(states: list[dict]) -> dict:
    """Merge worker registry states in deterministic (shard) order and
    return the canonical snapshot."""
    from repro.observe.metrics import MetricsRegistry

    merged = MetricsRegistry()
    for state in states:
        merged.merge_state(state)
    return merged.snapshot()


def _run_sequential(ids: list[str], quick: bool, seed: int,
                    collect_metrics: bool = False) -> list[SuiteEntry]:
    out = []
    for exp_id in ids:
        result, wall, state = _worker_run_experiment(
            exp_id, quick, seed, collect_metrics)
        shard_api = _shard_api(exp_id)
        n_shards = len(shard_api[0](quick=quick, seed=seed)) if shard_api else 1
        snapshot = _snapshot_from_states([state]) if state is not None \
            else None
        out.append(SuiteEntry(exp_id, result, render(result),
                              wall_s=wall, shards=n_shards,
                              metrics=snapshot))
    return out


def _run_parallel(ids: list[str], quick: bool, seed: int, jobs: int,
                  collect_metrics: bool = False) -> list[SuiteEntry]:
    """Fan every pending experiment (and each shardable experiment's
    shards) across one shared pool; merge in deterministic order."""
    plans = []      # (exp_id, shard_keys | None)
    for exp_id in ids:
        shard_api = _shard_api(exp_id)
        shards = shard_api[0](quick=quick, seed=seed) if shard_api else None
        plans.append((exp_id, shards))

    out = []
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = {}
        for exp_id, shards in plans:
            if shards is None:
                futures[exp_id] = pool.submit(
                    _worker_run_experiment, exp_id, quick, seed,
                    collect_metrics)
            else:
                futures[exp_id] = [
                    pool.submit(_worker_run_shard, exp_id, shard, quick,
                                seed, collect_metrics)
                    for shard in shards
                ]
        # Merge in the deterministic id order, not completion order.
        for exp_id, shards in plans:
            if shards is None:
                result, wall, state = futures[exp_id].result()
                snapshot = _snapshot_from_states([state]) \
                    if state is not None else None
                out.append(SuiteEntry(exp_id, result, render(result),
                                      wall_s=wall, shards=1,
                                      metrics=snapshot))
            else:
                done = [f.result() for f in futures[exp_id]]
                partials = [partial for partial, _wall, _state in done]
                wall = max(w for _p, w, _s in done)
                merge = _shard_api(exp_id)[2]
                result = merge(partials, quick=quick, seed=seed)
                snapshot = None
                if collect_metrics:
                    snapshot = _snapshot_from_states(
                        [state for _p, _w, state in done])
                out.append(SuiteEntry(exp_id, result, render(result),
                                      wall_s=wall, shards=len(partials),
                                      metrics=snapshot))
    return out


def suite_metrics_doc(entries: list[SuiteEntry], *, quick: bool,
                      seed: int) -> dict:
    """Assemble per-experiment snapshots into one suite metrics file
    (schema ``repro-metrics-suite/1``); raises if any entry lacks one."""
    from repro.observe.metrics import SUITE_SCHEMA

    experiments = {}
    for entry in entries:
        if entry.metrics is None:
            raise ContinuumError(
                f"no metrics collected for {entry.experiment_id} "
                f"(was the suite run with collect_metrics?)")
        experiments[entry.experiment_id] = entry.metrics
    return {
        "schema": SUITE_SCHEMA,
        "config": {"quick": bool(quick), "seed": int(seed)},
        "experiments": experiments,
    }
