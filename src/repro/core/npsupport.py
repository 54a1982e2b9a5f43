"""Optional numpy: one place to gate every vectorized code path.

The core's optional numpy paths -- batch selectivity estimation
(:func:`repro.core.estimate.estimate_selectivity_batch`) and the array
kernel's diagnostics (``KernelPartition.csr_arrays`` and its invariant
audit) -- go through :func:`get_numpy`.  TSBUILD's scoring never uses
numpy, so a build's output is the same with or without it.  The gate
makes sure that

* environments without numpy degrade to the pure-python fallbacks
  automatically, and
* the fallbacks stay testable on machines that *do* have numpy: setting
  ``REPRO_NO_NUMPY=1`` makes :func:`get_numpy` report numpy as absent,
  which is how the CI matrix proves the fallback paths without
  uninstalling anything.

The environment variable is read on every call (not cached at import
time) so tests can flip it with ``monkeypatch.setenv``.
"""

from __future__ import annotations

import os

try:  # pragma: no cover - exercised via get_numpy()
    import numpy as _numpy
except ImportError:  # pragma: no cover - container always has numpy
    _numpy = None


def get_numpy():
    """The numpy module, or None when absent or disabled.

    ``REPRO_NO_NUMPY`` (any non-empty value) simulates an environment
    without numpy; see docs/PERFORMANCE.md.
    """
    if os.environ.get("REPRO_NO_NUMPY"):
        return None
    return _numpy


def have_numpy() -> bool:
    return get_numpy() is not None
