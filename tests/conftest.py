"""Shared test set-up: hypothesis storage and the pinned report digests.

hypothesis caches the constants it finds in local modules under its storage
directory, `.hypothesis/` in the working directory by default, even when
every test runs with `database=None`.  Unless HYPOTHESIS_STORAGE_DIRECTORY
is already set, point it at a temporary directory that is removed when the
test run ends.

`pinned_digest` checks report bytes against the SHA-256 table in
`report_digests.json`, so that byte identity is a test, not a claim.
"""

import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__


def pytest_configure(config):
    if not os.environ.get("HYPOTHESIS_STORAGE_DIRECTORY"):
        storage = tempfile.TemporaryDirectory(prefix="limsup-lab-hypothesis-")
        os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = storage.name
        config.add_cleanup(storage.cleanup)


DIGESTS = Path(__file__).with_name("report_digests.json")


@pytest.fixture
def pinned_digest():
    """check(name, payload): the report bytes hash to row `name` of report_digests.json.

    The table records the numpy version it was made with; under another
    version the check fails and names both, since float kernels may round
    differently there.  The table was made with numpy's AVX-512 kernels, so
    a mismatch also says whether this run's dispatch has them.  A change
    that moves report bytes on purpose updates the row in the same commit.
    """
    table = json.loads(DIGESTS.read_text())
    found = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    avx512 = "has" if any(t == "X86_V4" or t.startswith("AVX512") for t in found) else "lacks"

    def check(name: str, payload: bytes) -> None:
        assert np.__version__ == table["numpy"], (
            f"report digests were made under numpy {table['numpy']}, "
            f"this run has numpy {np.__version__}: recompute the table"
        )
        got = hashlib.sha256(payload).hexdigest()
        assert got == table["reports"][name], (
            f"report {name!r} moved: sha256 {got}, table has {table['reports'][name]}; "
            f"numpy's runtime dispatch {avx512} AVX-512 (SIMD targets found: {found})"
        )

    return check
