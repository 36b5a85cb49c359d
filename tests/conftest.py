"""Shared fixtures: the packaged 7-DOF arm, a hand-checkable planar chain,
the packaged run config, which sets every value the library takes, and the
held-out report script, whose criterion-5 clauses the acceptance test uses."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from comoto.benchmark import load_config
from comoto.costs import CostContext
from comoto.kinematics import ChainSpec, default_chain

CFG = load_config()

HELDOUT_REPORT = Path(__file__).resolve().parents[1] / "scripts" / "heldout_report.py"


def load_heldout_report():
    """``scripts/heldout_report.py`` as a module."""
    spec = importlib.util.spec_from_file_location("heldout_report", HELDOUT_REPORT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cost_context(chain: ChainSpec, goal_config, **fields) -> CostContext:
    """A ``CostContext`` with the packaged config's ``eps_m``."""
    return CostContext(chain=chain, goal_config=goal_config, eps_m=CFG.eps_m, **fields)


def planar_chain(lengths=(1.0, 1.0), limit=2.0 * np.pi) -> ChainSpec:
    """Links of the given lengths in the world XY plane (alpha = d = offset = 0).

    FK is trivial by hand: joint angles accumulate, each link adds
    (L cos, L sin, 0) in the world frame.
    """
    dh = np.array([[L, 0.0, 0.0, 0.0] for L in lengths])
    lims = np.array([[-limit, limit]] * len(lengths))
    return ChainSpec(dh=dh, joint_limits=lims, name="planar")


@pytest.fixture(scope="session")
def arm() -> ChainSpec:
    return default_chain()


@pytest.fixture()
def planar2() -> ChainSpec:
    return planar_chain((1.0, 1.0))
