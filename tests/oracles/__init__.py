"""Frozen oracles for the differential tests and the benchmarks.

Each module keeps one copy of an implementation the production path
replaced, so an optimised layer can be checked against it:

- :mod:`tests.oracles.dispatch` — the scalar placement loop and
  :func:`~tests.oracles.dispatch.scalar_oracle`, which injects it into
  scheduler runs;
- :mod:`tests.oracles.kernel` — the binary-heap event queue and the
  seed event kernel;
- :mod:`tests.oracles.fairness` — scalar max-min, weighted max-min and
  equal-share solvers;
- :mod:`tests.oracles.commit` — the control-plane leader's per-index
  commit scan.

``python -m tests.oracles`` runs ``python -m repro.bench`` on the
scalar dispatch oracle (see :mod:`tests.oracles.__main__`).
"""
