"""Fixtures shared by the test-suite (``tests/``) and the benchmark harnesses.

The DSE scoring path is picked by the code, not by an option: the compiled
sweep kernel sweeps every full-horizon program when numpy imports and the
kernel loads, and the pure-Python ``replay_program`` sweeps everything else.
Comparisons of the two sweeps force the reference with ``reference_sweep``.
"""

from __future__ import annotations

import pytest


@pytest.fixture
def reference_sweep(monkeypatch):
    """Mark the compiled sweep kernel unavailable for one test.

    This is the state of a host without numpy or a C compiler: every
    program is swept by ``replay_program`` and every record names
    ``"python"``.
    """
    from repro.dse import engine

    monkeypatch.setattr(engine, "_kernel", False)


@pytest.fixture
def kernel_sweep():
    """Require the compiled sweep kernel; skip (not fail) where numpy or a C
    compiler is missing, since the pure-Python reference is the fallback."""
    from repro.dse import engine

    if not engine.numpy_available() or engine._sweep_kernel() is None:
        pytest.skip("no numpy or no C compiler: the compiled sweep kernel is unavailable")


@pytest.fixture(params=["python", "numpy"])
def backend(request):
    """Each sweep in turn: ``"python"`` forces the reference, ``"numpy"``
    requires the kernel."""
    request.getfixturevalue("reference_sweep" if request.param == "python" else "kernel_sweep")
    return request.param
