"""Keep every test here on one copy of ``dualvc``.

The benchmark's ``perfbench/core.load_program`` drops ``dualvc`` from
``sys.modules`` and imports it afresh.  When pytest runs ``perfbench/tests``
in the same process as these tests, modules imported here would then differ
from the ones ``sys.modules`` names: a worker pool cannot pickle
``harness.run_instance``, and ``monkeypatch`` on a dotted path patches the
other copy.  So the modules are recorded once imported and put back before
each test.
"""

import sys

import pytest

import dualvc.cli  # noqa: F401  (with the package, every dualvc module)

_SNAPSHOT = {name: module for name, module in sys.modules.items()
             if name == "dualvc" or name.startswith("dualvc.")}


@pytest.fixture(autouse=True)
def _one_dualvc():
    sys.modules.update(_SNAPSHOT)
