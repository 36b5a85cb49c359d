"""The benchmark's probes name functions that exist.

``perfbench/tracer.py`` wraps each probed function by its module and
attribute; a rename or deletion in ``comoto`` would otherwise surface
only when a traced benchmark run fails to install its probes.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
PROBES = tracer.OUTER + tracer.INNER


@pytest.mark.parametrize("probe", PROBES, ids=[f"{p.module}.{p.attr}" for p in PROBES])
def test_probe_target_resolves(probe):
    target = importlib.import_module(probe.module)
    for part in probe.attr.split("."):
        target = getattr(target, part)
    assert callable(target)
