"""Fixtures shared by the test modules."""

import pytest

from repro.columnar import vector


@pytest.fixture(params=["numpy", "fallback"])
def backend(request, monkeypatch):
    """Run the test on each column representation a scan can hand out.

    ``"numpy"`` loads NumPy, so constructors build typed vectors and the
    kernels' NumPy arms run, whichever test ran before this one; it
    skips only on a platform without NumPy (not installed, or
    ``REPRO_NO_NUMPY`` set). ``"fallback"`` patches NumPy away for the
    test: constructors hand out plain lists and every kernel takes its
    generic arm.
    """
    if request.param == "fallback":
        monkeypatch.setattr(vector, "_np", None)
    elif vector.numpy_module() is None:
        pytest.skip("no NumPy on this platform (missing, or REPRO_NO_NUMPY set)")
    return request.param
