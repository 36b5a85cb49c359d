"""Forward kinematics, Jacobians, and trajectory containers.

The FK oracle here recomputes every frame with independently written
homogeneous transforms; the Jacobian oracle is central finite
differences of the FK positions.
"""

from __future__ import annotations

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import planar_chain

import comoto.kinematics as kinematics
from comoto.errors import ContractViolation
from comoto.kinematics import (
    ChainSpec,
    Frames,
    JointTrajectory,
    all_point_jacobians_batch,
    chain_from_dict,
    default_chain,
    fk_eef,
    fk_points_batch,
    frame_origins_and_axes,
    load_trajectory,
    save_trajectory,
    solve_position_ik,
    _batch_frames,
    _eef_jacobians,
    _point_jacobians,
)
from comoto.metrics import FK_BLOCK


def robot_points(chain: ChainSpec, q: np.ndarray) -> np.ndarray:
    """The (n+1, 3) robot points of one configuration."""
    return frame_origins_and_axes(chain, q)[0]


def point_jacobians(chain: ChainSpec, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One configuration's points and (n+1, 3, n) Jacobians."""
    points, axes = frame_origins_and_axes(chain, q)
    return points, _point_jacobians(points[None], axes[None])[0]


def oracle_fk(chain: ChainSpec, q: np.ndarray) -> np.ndarray:
    """Frame origins via explicit matrix products, written from scratch."""
    points = [chain.base_pose[:3, 3].copy()]
    T = chain.base_pose.copy()
    for i in range(chain.n_joints):
        a, alpha, d, off = chain.dh[i]
        th = q[i] + off
        rz = np.array(
            [
                [math.cos(th), -math.sin(th), 0, 0],
                [math.sin(th), math.cos(th), 0, 0],
                [0, 0, 1, 0],
                [0, 0, 0, 1],
            ]
        )
        tz = np.eye(4)
        tz[2, 3] = d
        tx = np.eye(4)
        tx[0, 3] = a
        rx = np.array(
            [
                [1, 0, 0, 0],
                [0, math.cos(alpha), -math.sin(alpha), 0],
                [0, math.sin(alpha), math.cos(alpha), 0],
                [0, 0, 0, 1],
            ]
        )
        T = T @ rz @ tz @ tx @ rx
        points.append(T[:3, 3].copy())
    return np.asarray(points)


def random_config(chain: ChainSpec, rng: np.random.Generator) -> np.ndarray:
    lo, hi = chain.joint_limits[:, 0], chain.joint_limits[:, 1]
    return lo + (hi - lo) * rng.random(chain.n_joints)


def test_fk_matches_transform_oracle(arm):
    rng = np.random.default_rng(7)
    for _ in range(50):
        q = random_config(arm, rng)
        got = robot_points(arm, q)
        want = oracle_fk(arm, q)
        assert np.max(np.abs(got - want)) <= 1e-12


def test_fk_planar_hand_values(planar2):
    p = robot_points(planar2, np.array([0.0, 0.0]))
    assert np.allclose(p, [[0, 0, 0], [1, 0, 0], [2, 0, 0]], atol=1e-15)
    p = robot_points(planar2, np.array([np.pi / 2, 0.0]))
    assert np.allclose(p, [[0, 0, 0], [0, 1, 0], [0, 2, 0]], atol=1e-15)
    # elbow bends back to the world x direction
    p = robot_points(planar2, np.array([np.pi / 2, -np.pi / 2]))
    assert np.allclose(p, [[0, 0, 0], [0, 1, 0], [1, 1, 0]], atol=1e-15)
    assert np.allclose(fk_eef(planar2, np.array([0.0, 0.0])), [2, 0, 0], atol=1e-15)


def test_jacobian_planar_hand_values(planar2):
    _, jacs = point_jacobians(planar2, np.array([0.0, 0.0]))
    assert np.allclose(jacs[2], [[0, 0], [2, 1], [0, 0]], atol=1e-15)
    # the first frame origin does not move with any joint before it
    _, jacs = point_jacobians(planar2, np.array([0.3, -0.2]))
    assert np.array_equal(jacs[0], np.zeros((3, 2)))


def test_jacobians_match_finite_differences(arm):
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(20):
        q = random_config(arm, rng)
        points, jacs = point_jacobians(arm, q)
        assert np.array_equal(points, robot_points(arm, q))
        for k in range(arm.n_joints + 1):
            fd = np.zeros((3, arm.n_joints))
            for j in range(arm.n_joints):
                qp, qm = q.copy(), q.copy()
                qp[j] += h
                qm[j] -= h
                fd[:, j] = (robot_points(arm, qp)[k] - robot_points(arm, qm)[k]) / (2 * h)
            assert np.max(np.abs(jacs[k] - fd)) <= 1e-6


def test_batch_fk_matches_single(arm):
    rng = np.random.default_rng(3)
    Q = np.stack([random_config(arm, rng) for _ in range(9)])
    batch = fk_points_batch(arm, Q)
    assert batch.shape == (9, arm.n_joints + 1, 3)
    for k in range(9):
        assert np.max(np.abs(batch[k] - robot_points(arm, Q[k]))) <= 1e-12
    points, jacs = all_point_jacobians_batch(arm, Q)
    assert np.max(np.abs(points - batch)) == 0.0
    for k in range(9):
        _, single = point_jacobians(arm, Q[k])
        assert np.max(np.abs(jacs[k] - single)) <= 1e-12


def loop_transforms(chain: ChainSpec, q: np.ndarray) -> np.ndarray:
    """The (n, 4, 4) DH transforms of ``q``, one joint at a time."""
    ct, st = np.cos(q + chain.dh[:, 3]), np.sin(q + chain.dh[:, 3])
    transforms = []
    for i, (a, alpha, d, _) in enumerate(chain.dh):
        ca, sa = math.cos(alpha), math.sin(alpha)
        transforms.append(
            [
                [ct[i], -st[i] * ca, st[i] * sa, a * ct[i]],
                [st[i], ct[i] * ca, -ct[i] * sa, a * st[i]],
                [0.0, sa, ca, d],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
    return np.array(transforms)


def loop_frames(chain: ChainSpec, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frame origins and joint axes from one 4x4 DH transform per joint.

    The same arithmetic as the vectorised FK, one configuration and one
    joint at a time, so the two must agree bit for bit.
    """
    T = chain.base_pose
    points, axes = [T[:3, 3]], []
    for A in loop_transforms(chain, q):
        axes.append(T[:3, 2])
        T = T @ A
        points.append(T[:3, 3])
    return np.asarray(points), np.asarray(axes)


def random_dh_chain(rng: np.random.Generator, n: int) -> ChainSpec:
    lengths = rng.uniform(-0.5, 0.5, (n, 2))
    angles = rng.uniform(-np.pi, np.pi, (n, 2))
    dh = np.column_stack([lengths[:, 0], angles[:, 0], lengths[:, 1], angles[:, 1]])
    rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    base = np.eye(4)
    base[:3, :3] = rot
    base[:3, 3] = rng.standard_normal(3)
    return ChainSpec(dh=dh, base_pose=base, joint_limits=np.array([[-np.pi, np.pi]] * n))


@pytest.mark.parametrize("N", [1, 3, FK_BLOCK - 1, FK_BLOCK, FK_BLOCK + 1, 3000])
def test_batch_frames_bit_identical_to_per_joint_loop(arm, N):
    # Bytes, not values, so that the sign of every exact zero is pinned too,
    # in each DH transform as well as in the points and axes.
    # Past the first row, every third configuration puts each joint at
    # theta = 0 (sin theta exactly 0) and every third at theta = pi/2 in
    # floating point; on the planar chain alpha = 0 adds exact zeros to
    # every product with sin alpha.
    rng = np.random.default_rng(N)
    for chain in (arm, random_dh_chain(rng, 5), planar_chain((1.0, 0.5, 0.25))):
        offsets = chain.dh[:, 3]
        Q = rng.uniform(-np.pi, np.pi, (N, chain.n_joints))
        Q[1::3] = -offsets
        Q[2::3] = np.pi / 2 - offsets
        if N > 1:
            assert np.all(np.sin(Q[1] + offsets) == 0.0)
        frames = Frames(chain, (N,))
        points, axes = frames(Q)
        assert points.shape == (N, chain.n_joints + 1, 3) and axes.shape == (N, chain.n_joints, 3)
        for k in range(N):
            assert frames._dh[k].tobytes() == loop_transforms(chain, Q[k]).tobytes()
            want_points, want_axes = loop_frames(chain, Q[k])
            assert points[k].tobytes() == want_points.tobytes()
            assert axes[k].tobytes() == want_axes.tobytes()
        # _batch_frames runs one Frames on the whole batch.
        assert [a.tobytes() for a in _batch_frames(chain, Q)] == [points.tobytes(), axes.tobytes()]
        # Every row through one single-configuration Frames, whose chain
        # product runs np.dot where the batch runs np.matmul: the random rows,
        # the theta = 0 rows, whose DH entries -sin(theta) cos(alpha) hold
        # -0.0, and the theta = pi/2 rows.
        single = Frames(chain)
        for k in range(N):
            single_points, single_axes = single(Q[k])
            assert single._dh.tobytes() == frames._dh[k].tobytes()
            assert single_points.tobytes() == points[k].tobytes()
            assert single_axes.tobytes() == axes[k].tobytes()
            if k == 1:
                assert np.signbit(single._dh[single._dh == 0.0]).any()


def test_single_frames_reused_returns_each_configurations_bits(arm):
    rng = np.random.default_rng(31)
    q1, q2 = (random_config(arm, rng) for _ in range(2))
    frames = Frames(arm)
    first = [a.tobytes() for a in frames(q1)]
    second = [a.tobytes() for a in frames(q2)]
    again = [a.tobytes() for a in frames(q1)]
    assert first == again != second
    assert second == [a.tobytes() for a in frame_origins_and_axes(arm, q2)]
    for wrong in (q1[:-1], q1[None]):
        with pytest.raises(ContractViolation):
            frames(wrong)


def test_batch_frames_reused_returns_each_batchs_bits(arm):
    rng = np.random.default_rng(37)
    Q1, Q2 = (rng.uniform(-np.pi, np.pi, (20, arm.n_joints)) for _ in range(2))
    frames = Frames(arm, (20,))
    first = [a.tobytes() for a in frames(Q1)]
    second = [a.tobytes() for a in frames(Q2)]
    again = [a.tobytes() for a in frames(Q1)]
    assert first == again != second
    assert second == [a.tobytes() for a in _batch_frames(arm, Q2)]
    for wrong in (Q1[:19], Q1[0]):
        with pytest.raises(ContractViolation):
            frames(wrong)


def reference_point_jacobians(points: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """The point Jacobians' earlier formulation: levers, cross products and
    mask over the last axis of an (N, n+1, n, 3) array, returned transposed."""
    n = axes.shape[1]
    lever = points[:, :, None, :] - points[:, None, :n, :]
    zx, zy, zz = (axes[:, None][..., c] for c in range(3))
    lx, ly, lz = (lever[..., c] for c in range(3))
    cross = np.empty(lever.shape)
    cross[..., 0] = zy * lz - zz * ly
    cross[..., 1] = zz * lx - zx * lz
    cross[..., 2] = zx * ly - zy * lx
    mask = np.arange(n)[None, :] < np.arange(n + 1)[:, None]
    cross *= mask[None, :, :, None]
    return np.swapaxes(cross, 2, 3)


def assert_point_jacobians_match_reference(chain: ChainSpec, Q: np.ndarray, rng) -> np.ndarray:
    """Bytes, shape and strides of ``_point_jacobians`` against the reference,
    and the bytes of the distance pullback's contraction over each."""
    points, axes = _batch_frames(chain, Q)
    got, want = _point_jacobians(points, axes), reference_point_jacobians(points, axes)
    assert got.shape == want.shape == (len(Q), chain.n_joints + 1, 3, chain.n_joints)
    assert got.strides == want.strides
    assert got.tobytes() == want.tobytes()
    v = rng.standard_normal((len(Q), chain.n_joints + 1, 3))
    contract = "tpan,tpa->tn"
    assert np.einsum(contract, got, v).tobytes() == np.einsum(contract, want, v).tobytes()
    return want


def with_zero_and_right_angle_rows(chain: ChainSpec, Q: np.ndarray) -> np.ndarray:
    """``Q`` with every third row past the first at theta = 0 and every third at pi/2."""
    Q = Q.copy()
    Q[1::3] = -chain.dh[:, 3]
    Q[2::3] = np.pi / 2 - chain.dh[:, 3]
    return Q


@pytest.mark.parametrize("N", [1, 3, 20, FK_BLOCK + 1])
def test_point_jacobians_bit_identical_to_last_axis_formula(arm, N):
    # The masked entries are signed zeros (the product's sign times 0.0);
    # the theta = 0 and pi/2 rows and the planar chain's alpha = 0 add exact
    # zeros inside the products as well.
    rng = np.random.default_rng(100 + N)
    for chain in (arm, planar_chain((1.0, 0.5, 0.25))):
        Q = with_zero_and_right_angle_rows(chain, rng.uniform(-np.pi, np.pi, (N, chain.n_joints)))
        want = assert_point_jacobians_match_reference(chain, Q, rng)
        assert np.any((want == 0.0) & np.signbit(want)) and np.any((want == 0.0) & ~np.signbit(want))


@settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    database=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
)
@given(n=st.integers(2, 7), N=st.integers(1, 24), seed=st.integers(0, 2**16))
def test_point_jacobians_bit_identical_on_random_chains(n, N, seed):
    rng = np.random.default_rng(seed)
    chain = random_dh_chain(rng, n)
    Q = with_zero_and_right_angle_rows(chain, rng.uniform(-np.pi, np.pi, (N, n)))
    assert_point_jacobians_match_reference(chain, Q, rng)


@pytest.mark.parametrize("N", [1, 20, FK_BLOCK + 1])
def test_eef_jacobians_are_the_last_point_row_bit_for_bit(arm, N):
    # Bytes and the (3, n) layout of each configuration's block: the layout
    # fixes the summation order of the eef pullbacks' einsum, so the
    # contraction must agree to the bit as well.
    rng = np.random.default_rng(N)
    for chain in (arm, random_dh_chain(rng, 5)):
        Q = rng.uniform(-np.pi, np.pi, (N, chain.n_joints))
        points, axes = _batch_frames(chain, Q)
        got = _eef_jacobians(points, axes)
        want = _point_jacobians(points, axes)[:, -1]
        assert got.shape == want.shape == (N, 3, chain.n_joints)
        assert got.strides[1:] == want.strides[1:]
        assert got.tobytes() == want.tobytes()
        v = rng.standard_normal((N, 3))
        assert (
            np.einsum("tan,ta->tn", got, v).tobytes()
            == np.einsum("tan,ta->tn", want, v).tobytes()
        )


def test_ik_bit_identical_to_all_point_jacobian_slice(arm, monkeypatch):
    rng = np.random.default_rng(23)
    q_seed = np.array([0.0, 0.7, 0.0, -1.2, 0.0, 0.9, 0.0])
    targets = [fk_eef(arm, arm.clamp(q_seed + 0.4 * rng.standard_normal(7))) for _ in range(4)]
    got = [solve_position_ik(arm, target, q_seed) for target in targets]
    monkeypatch.setattr(
        kinematics, "_eef_jacobians", lambda points, axes: _point_jacobians(points, axes)[:, -1]
    )
    for target, q in zip(targets, got):
        assert q.tobytes() == solve_position_ik(arm, target, q_seed).tobytes()


def test_axes_are_world_z_of_parent_frames(planar2):
    _, axes = frame_origins_and_axes(planar2, np.array([0.4, -0.9]))
    assert np.allclose(axes, [[0, 0, 1], [0, 0, 1]], atol=1e-15)


def test_chain_validation():
    eye = np.eye(4)
    lims = np.array([[-1.0, 1.0], [-1.0, 1.0]])
    with pytest.raises(ContractViolation):
        ChainSpec(dh=np.zeros((1, 4)), base_pose=eye, joint_limits=lims[:1])
    with pytest.raises(ContractViolation):
        ChainSpec(dh=np.zeros((2, 3)), base_pose=eye, joint_limits=lims)
    bad = np.eye(4)
    bad[0, 0] = 2.0
    with pytest.raises(ContractViolation):
        ChainSpec(dh=np.zeros((2, 4)), base_pose=bad, joint_limits=lims)
    with pytest.raises(ContractViolation):
        ChainSpec(dh=np.zeros((2, 4)), base_pose=eye, joint_limits=np.array([[1.0, -1.0], [0.0, 1.0]]))


def test_clamp_projects_onto_limits(planar2):
    q = np.array([100.0, -100.0])
    clamped = planar2.clamp(q)
    assert np.array_equal(clamped, [2 * np.pi, -2 * np.pi])


def test_config_dimension_checked(planar2):
    with pytest.raises(ContractViolation):
        robot_points(planar2, np.zeros(3))


def test_joint_trajectory_validation():
    with pytest.raises(ContractViolation):
        JointTrajectory(np.zeros((2, 3)), dt=0.1)
    with pytest.raises(ContractViolation):
        JointTrajectory(np.zeros((4, 3)), dt=0.0)
    bad = np.zeros((4, 3))
    bad[2, 1] = np.nan
    with pytest.raises(ContractViolation, match="finite"):
        JointTrajectory(bad, dt=0.1)
    bad[2, 1] = np.inf
    with pytest.raises(ContractViolation, match="finite"):
        JointTrajectory(bad, dt=0.1)
    for dt, t0 in ((np.nan, 0.0), (np.inf, 0.0), (0.1, np.nan), (0.1, -np.inf), ("0.1", 0.0), (0.1, None)):
        with pytest.raises(ContractViolation, match="finite"):
            JointTrajectory(np.zeros((4, 3)), dt=dt, t0=t0)
    with pytest.raises(ContractViolation, match="rectangular array of numbers"):
        JointTrajectory([[0.0, 0.0], [0.0], [0.0, 0.0]], 0.1)
    with pytest.raises(ContractViolation, match="rectangular array of numbers"):
        JointTrajectory([["a", 0.0]] * 3, 0.1)
    source = np.zeros((4, 3))
    traj = JointTrajectory(source, dt=0.5, t0=1.0)
    assert traj.n_waypoints == 4
    assert traj.n_joints == 3
    assert np.allclose(traj.times, [1.0, 1.5, 2.0, 2.5])
    assert traj.duration == pytest.approx(1.5)
    # Frozen, and the waypoints are a read-only copy: nothing changes past the checks.
    source[0, 0] = 9.0
    assert traj.waypoints[0, 0] == 0.0
    with pytest.raises(ValueError, match="read-only"):
        traj.waypoints[1, 0] = np.nan
    for name, value in (("waypoints", np.ones((4, 3))), ("dt", -1.0), ("t0", np.nan)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(traj, name, value)


def test_ik_reaches_forward_kinematics_targets(arm):
    rng = np.random.default_rng(19)
    q_seed = np.array([0.0, 0.7, 0.0, -1.2, 0.0, 0.9, 0.0])
    for _ in range(10):
        q_true = q_seed + 0.3 * rng.standard_normal(arm.n_joints)
        q_true = arm.clamp(q_true)
        target = fk_eef(arm, q_true)
        q = solve_position_ik(arm, target, q_seed)
        assert np.linalg.norm(fk_eef(arm, q) - target) <= 1e-4
        assert np.array_equal(q, solve_position_ik(arm, target, q_seed))


@pytest.mark.parametrize(
    "data, message",
    [
        ({}, "^chain is missing keys 'name', 'dh', 'joint_limits'$"),
        ({"name": "arm", "dh": np.zeros((2, 4))}, "^chain is missing key 'joint_limits'$"),
        ({"dh": np.zeros((2, 4)), "joint_limits": np.tile([-1, 1], (2, 1))}, "^chain is missing key 'name'$"),
        ({"dh": np.zeros((2, 4)), "limits": []}, "^unknown chain key 'limits'$"),
        ({"base_pose": {"xyz": [0, 0, 0], "rpy": [0, 0, 0]}}, "^unknown chain key 'base_pose'$"),
        ([], r"^chain file must be a mapping, got list$"),
    ],
    ids=["empty", "no-limits", "no-name", "unknown-key", "base-pose", "not-a-mapping"],
)
def test_chain_from_dict_rejects_missing_and_unknown_keys(data, message):
    # These used to raise a bare KeyError or AttributeError.  A chain file has
    # no base pose: every chain's base sits at the world origin.
    with pytest.raises(ContractViolation, match=message):
        chain_from_dict(data)


def test_default_chain_loads_seven_joints():
    chain = default_chain()
    assert chain.n_joints == 7 and chain.name == "iiwa7"
    assert np.array_equal(chain.base_pose, np.eye(4))  # every chain's base sits at the origin
    assert np.all(chain.joint_limits[:, 0] < chain.joint_limits[:, 1])


def test_trajectory_csv_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    traj = JointTrajectory(rng.standard_normal((6, 4)), dt=0.125, t0=1.0)
    path = tmp_path / "traj.csv"
    save_trajectory(traj, path)
    back = load_trajectory(path)
    assert np.array_equal(back.waypoints, traj.waypoints)
    assert back.dt == traj.dt
    assert back.t0 == traj.t0


FINITE = {"allow_nan": False, "allow_infinity": False}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(3, 12),
    n_joints=st.integers(1, 7),
    dt=st.floats(1e-6, 10.0, **FINITE),
    t0=st.floats(-1e4, 1e4, **FINITE),
    data=st.data(),
)
def test_trajectory_file_round_trips_bit_for_bit(tmp_path_factory, n, n_joints, dt, t0, data):
    # The file's times are t0 + k * dt rounded; dt and t0 must come back as written.
    values = st.lists(st.floats(-10.0, 10.0, **FINITE), min_size=n * n_joints, max_size=n * n_joints)
    traj = JointTrajectory(np.reshape(data.draw(values), (n, n_joints)), dt=dt, t0=t0)
    path = tmp_path_factory.mktemp("round_trip") / "traj.csv"
    save_trajectory(traj, path)
    back = load_trajectory(path)
    assert back.waypoints.tobytes() == traj.waypoints.tobytes()
    assert np.float64(back.dt).tobytes() == np.float64(dt).tobytes()
    assert np.float64(back.t0).tobytes() == np.float64(t0).tobytes()
    assert back.times.tobytes() == traj.times.tobytes()


def test_load_trajectory_rejects_bad_files(tmp_path):
    short = tmp_path / "short.csv"
    short.write_text("# dt=0.1 t0=0.0\ntime,q0\n0.0,0.0\n0.1,0.1\n")
    with pytest.raises(ContractViolation, match="fewer than 3 waypoints"):
        load_trajectory(short)
    uneven = tmp_path / "uneven.csv"
    uneven.write_text("# dt=0.1 t0=0.0\ntime,q0\n0.0,0.0\n0.1,0.1\n0.3,0.2\n")
    with pytest.raises(ContractViolation):
        load_trajectory(uneven)
    for timing in ("# dt=0.1", "# dt=abc t0=0.0", "# dt=0.2 t0=0.0", "# dt=0.1 t0=1.0"):
        mismatched = tmp_path / "mismatched.csv"
        mismatched.write_text(timing + "\ntime,q0\n0.0,0.0\n0.1,0.1\n0.2,0.2\n")
        with pytest.raises(ContractViolation):
            load_trajectory(mismatched)


def test_load_trajectory_rejects_a_file_without_its_timing_line(tmp_path):
    traj = JointTrajectory(np.zeros((4, 2)), dt=0.125, t0=1.0)
    path = tmp_path / "headerless.csv"
    save_trajectory(traj, path)
    path.write_text(path.read_text().split("\n", 1)[1])  # the timing line is the first
    with pytest.raises(ContractViolation, match=f"^{re.escape(str(path))}: first line must read"):
        load_trajectory(path)
