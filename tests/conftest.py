"""Keep hypothesis's storage out of the checkout.

hypothesis caches the constants it finds in local modules under its storage
directory, `.hypothesis/` in the working directory by default, even when
every test runs with `database=None`.  Unless HYPOTHESIS_STORAGE_DIRECTORY
is already set, point it at a temporary directory that is removed when the
test run ends.
"""

import os
import tempfile


def pytest_configure(config):
    if not os.environ.get("HYPOTHESIS_STORAGE_DIRECTORY"):
        storage = tempfile.TemporaryDirectory(prefix="limsup-lab-hypothesis-")
        os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = storage.name
        config.add_cleanup(storage.cleanup)
