"""Every call site that the benchmark's traced run wraps must exist.

perfbench/layers.py lists, per layer span, the ``module:attr`` or
``module:Class.attr`` names it wraps. A refactor that drops or renames one
breaks the traced benchmark run; this test catches it in the unit suite.
The plan file is loaded by path and only read.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _plan_sites() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("_perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(name, site) for name, sites, _ in module.PLAN for site in sites]


@pytest.mark.parametrize("name,site", _plan_sites(), ids=lambda v: v)
def test_plan_site_resolves(name, site):
    modname, _, path = site.partition(":")
    importlib.import_module(modname)
    # Look the module up in sys.modules: the package attribute chartcot.layout
    # is the re-exported function, not the module.
    owner = sys.modules[modname]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    # The tracer replaces class attributes in the class's own namespace.
    raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    assert raw is not None, f"{name}: {site} no longer exists"
    assert callable(raw) or isinstance(raw, classmethod), f"{name}: {site} is not callable"
