"""Shared fixtures: the packaged 7-DOF arm, a hand-checkable planar chain,
and the packaged run config, which sets every value the library takes."""

from __future__ import annotations

import numpy as np
import pytest

from comoto.benchmark import load_config
from comoto.costs import CostContext
from comoto.kinematics import ChainSpec, default_chain

CFG = load_config()


def cost_context(chain: ChainSpec, goal_config, **fields) -> CostContext:
    """A ``CostContext`` with the packaged config's ``eps_m`` and ``sigma_floor``."""
    return CostContext(
        chain=chain, goal_config=goal_config, eps_m=CFG.eps_m, sigma_floor=CFG.sigma_floor, **fields
    )


def planar_chain(lengths=(1.0, 1.0), limit=2.0 * np.pi) -> ChainSpec:
    """Links of the given lengths in the world XY plane (alpha = d = offset = 0).

    FK is trivial by hand: joint angles accumulate, each link adds
    (L cos, L sin, 0) in the world frame.
    """
    dh = np.array([[L, 0.0, 0.0, 0.0] for L in lengths])
    lims = np.array([[-limit, limit]] * len(lengths))
    return ChainSpec(dh=dh, base_pose=np.eye(4), joint_limits=lims, name="planar")


@pytest.fixture(scope="session")
def arm() -> ChainSpec:
    return default_chain()


@pytest.fixture()
def planar2() -> ChainSpec:
    return planar_chain((1.0, 1.0))
