import fockmzi  # noqa: F401  # before numpy, so BLAS runs one thread here as it does in the CLI
import numpy as np
import pytest


def _blas_is_openblas() -> bool:
    try:
        return "openblas" in str(np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]).lower()
    except (AttributeError, KeyError, TypeError):
        return False


@pytest.fixture(scope="session")
def assert_same_products():
    """Compare two results that run the same products on different numbers of rows.

    OpenBLAS's kernels at these sizes give each output row the same sums
    whatever the row count, so the results must be equal.  Other BLAS builds
    (MKL, Accelerate, another kernel's tail handling) need not, so there the
    comparison takes a tolerance.
    """
    exact = _blas_is_openblas()

    def check(got, want, rtol, atol=0.0):
        if exact:
            assert np.array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=rtol, atol=atol)

    return check
