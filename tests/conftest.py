"""Fixtures shared across the test modules."""

import pytest

from qmetallic.asymptotics import DEFAULT_PRECISION, singularity_report


@pytest.fixture(scope="session")
def shared_report():
    """shared_report(n, bits) is singularity_report(n, bits), built once in
    the session: several tests read the report of every n <= 48, and the
    package keeps none between calls.  Only for tests that patch nothing
    the report reads."""
    built = {}

    def get(n, bits=DEFAULT_PRECISION):
        if (n, bits) not in built:
            built[n, bits] = singularity_report(n, bits)
        return built[n, bits]

    return get
