"""Layer attribution for the traced benchmark run.

Two instruments, both installed from here so that no program file
changes:

- :class:`EntryPoints` wraps each layer's public entry points. Every
  call is counted and recorded as a span (name, start, end, parent) on
  the host clock; the spans export as a Chrome trace. A re-entrant call
  (an override calling ``super()``) counts once.
- :func:`self_times` maps a ``cProfile`` profile onto layers by source
  file. Time spent in code outside the package (builtins, numpy, the
  standard library) is charged to the layers that called it, in
  proportion to the time each caller spent there.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
import weakref
from collections import Counter

import repro
from repro.observe.span import Span

#: Layers, named after the package's modules, in report order.
LAYERS = ("simcore", "scheduler", "cost", "context", "strategies",
          "netsim", "datafabric", "resilience", "faults", "controlplane",
          "continuum", "workflow", "other")

_CORE_FILES = {"scheduler.py": "scheduler", "refdispatch.py": "scheduler",
               "placement.py": "scheduler", "cost.py": "cost",
               "context.py": "context"}

#: (layer, module, class or None for a module function, attribute)
ENTRY_POINTS = (
    ("simcore", "repro.simcore.simulation", "Simulator", "run"),
    ("cost", "repro.core.cost", "CostModel", "estimate_batch"),
    ("context", "repro.core.context", "SchedulingContext", "reserve"),
    ("context", "repro.core.context", "SchedulingContext",
     "estimate_finish_at"),
    ("strategies", "repro.core.strategies.base", "PlacementStrategy",
     "select_sites"),
    ("netsim", "repro.netsim.network", "FlowNetwork", "transfer"),
    ("netsim", "repro.netsim.fairness", None, "max_min_fair_rates"),
    ("netsim", "repro.netsim.fairness", None, "weighted_max_min_rates"),
    ("netsim", "repro.netsim.fairness", None, "equal_share_rates"),
    ("datafabric", "repro.datafabric.transfer", "TransferService", "stage"),
    ("datafabric", "repro.datafabric.catalog", "ReplicaCatalog",
     "nearest_source"),
    ("controlplane", "repro.controlplane.cluster", "ControlPlane", "advance"),
    ("controlplane", "repro.controlplane.cluster", "ControlPlane", "submit"),
    ("controlplane", "repro.controlplane.runtime", "ControlRuntime",
     "placement_read"),
    ("resilience", "repro.resilience.breaker", "BreakerRegistry", "blocked"),
    ("resilience", "repro.resilience.breaker", "BreakerRegistry",
     "blocked_targets"),
    ("faults", "repro.faults.campaign", "TaskChaos", "fate"),
)

_LABEL_LAYER = {(f"{cls}.{attr}" if cls else attr): layer
                for layer, _module, cls, attr in ENTRY_POINTS}

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def layer_of_file(filename: str) -> str | None:
    """The layer a source file belongs to; ``"trace"`` for the
    benchmark's own files and ``None`` for code outside the package."""
    path = os.path.abspath(filename) if filename[:1] not in ("~", "<") \
        else filename
    if path.startswith(_BENCH_DIR):
        return "trace"
    if not path.startswith(_REPRO_DIR):
        return None
    top, _, rest = path[len(_REPRO_DIR):].replace(os.sep, "/").partition("/")
    if top == "core":
        if rest.startswith("strategies/"):
            return "strategies"
        return _CORE_FILES.get(rest, "other")
    return top if top in LAYERS else "other"


def layer_of_label(label: str) -> str:
    """The layer an entry-point label (as counted) belongs to."""
    return _LABEL_LAYER.get(label, "other")


def self_times(stats: dict) -> dict[str, float]:
    """Host self seconds per layer from ``pstats.Stats(...).stats``.

    The ``"trace"`` entry is the benchmark's own instrumentation."""
    own = {func: layer_of_file(func[0]) for func in stats}
    memo: dict = {}

    def shares(func) -> dict[str, float]:
        layer = own.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        memo[func] = {"other": 1.0}          # guards recursive cycles
        callers = stats[func][4] if func in stats else {}
        weights = {c: v[2] for c, v in callers.items()}
        if sum(weights.values()) <= 0:
            weights = {c: v[0] for c, v in callers.items()}
        total = sum(weights.values())
        out: dict[str, float] = {}
        if total > 0:
            for caller, w in weights.items():
                for lyr, f in shares(caller).items():
                    out[lyr] = out.get(lyr, 0.0) + f * w / total
        memo[func] = out or {"other": 1.0}
        return memo[func]

    times: dict[str, float] = {}
    for func, entry in stats.items():
        tt = entry[2]
        for lyr, f in shares(func).items():
            times[lyr] = times.get(lyr, 0.0) + tt * f
    return times


class EntryPoints:
    """Counts and spans around every entry point in :data:`ENTRY_POINTS`.

    Use as a context manager; the program is restored on exit."""

    def __init__(self):
        self._t0 = time.perf_counter()
        self.calls: Counter = Counter()
        self.row_builds = 0
        self.planes: dict[int, object] = {}
        # [label, layer, begin, end, parent index]; plain lists keep the
        # cost of recording inside this file, where the profile
        # attributes it to the benchmark rather than to a layer
        self._records: list[list] = []
        self._stack: list = []
        self._rows: dict[int, weakref.ref] = {}
        self._patches: list = []

    # -- hooks on results --------------------------------------------------
    def _after(self, label: str, args, result) -> None:
        if label == "CostModel.estimate_batch":
            # a memo hit hands back arrays an earlier call already built
            arr = result.stage_time_s
            ref = self._rows.get(id(arr))
            if ref is None or ref() is not arr:
                self.row_builds += 1
                self._rows[id(arr)] = weakref.ref(arr)
        elif label.startswith("ControlPlane."):
            self.planes[id(args[0])] = args[0]

    # -- spans -------------------------------------------------------------
    def _open(self, label: str, layer: str) -> int:
        self.calls[label] += 1
        parent = self._stack[-1][1] if self._stack else None
        idx = len(self._records)
        self._records.append([label, layer, time.perf_counter() - self._t0,
                              None, parent])
        self._stack.append((label, idx))
        return idx

    def _close(self, idx: int) -> None:
        while self._stack:
            if self._stack.pop()[1] == idx:
                break
        self._records[idx][3] = time.perf_counter() - self._t0

    def spans(self, limit: int | None = None) -> list[Span]:
        """The recorded spans (the first ``limit`` in begin order), in
        the form :func:`repro.observe.to_chrome_trace` exports."""
        out = []
        for i, (label, layer, begin, end, parent) in enumerate(
                self._records[:limit]):
            if end is not None:
                out.append(Span(name=label, category=layer, begin_s=begin,
                                span_id=i + 1, end_s=end,
                                parent_id=None if parent is None
                                else parent + 1))
        return out

    @property
    def span_count(self) -> int:
        return len(self._records)

    def _wrap(self, label: str, layer: str, fn):
        stack = self._stack
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if stack and stack[-1][0] == label:
                    return (yield from fn(*args, **kwargs))
                idx = self._open(label, layer)
                try:
                    return (yield from fn(*args, **kwargs))
                finally:
                    self._close(idx)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == label:
                return fn(*args, **kwargs)
            idx = self._open(label, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self._after(label, args, result)
            return result
        return wrapper

    # -- install / restore -------------------------------------------------
    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "EntryPoints":
        network = importlib.import_module("repro.netsim.network")
        for layer, module_name, cls_name, attr in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if cls_name is None:
                orig = getattr(module, attr)
                wrapped = self._wrap(attr, layer, orig)
                self._patch(module, attr, wrapped)
                # FlowNetwork binds its allocator as a default argument
                # and compares it by identity: swap every reference so
                # the traced run takes the same branches
                if getattr(network, attr, None) is orig:
                    self._patch(network, attr, wrapped)
                init = network.FlowNetwork.__init__
                if orig in (init.__defaults__ or ()):
                    self._patch(init, "__defaults__", tuple(
                        wrapped if d is orig else d
                        for d in init.__defaults__))
                continue
            base = getattr(module, cls_name)
            todo, seen = [base], set()
            while todo:
                cls = todo.pop()
                if cls in seen:
                    continue
                seen.add(cls)
                todo.extend(cls.__subclasses__())
                if attr in vars(cls):
                    label = f"{base.__name__}.{attr}"
                    self._patch(cls, attr,
                                self._wrap(label, layer, vars(cls)[attr]))
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    @property
    def messages(self) -> int:
        """Control-plane messages sent by every plane the run touched."""
        return sum(p.messages_sent for p in self.planes.values())
