"""Render experiment tables with the scalar dispatch oracle injected.

Takes the arguments of ``python -m repro.bench``; run from the
repository root::

    PYTHONPATH=src python -m tests.oracles E2 E13 --quick --save /tmp/scalar

Each experiment is computed in this process (``--no-cache --jobs 1``
are forced), so neither a cached wave table nor a worker process
without the oracle can stand in for the oracle run.
"""

import sys

from repro.bench.__main__ import main
from tests.oracles.dispatch import scalar_oracle

if __name__ == "__main__":
    with scalar_oracle():
        status = main([*sys.argv[1:], "--no-cache", "--jobs", "1"])
    sys.exit(status)
