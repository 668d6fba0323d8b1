"""Peg-transfer world: kinematics, grasp logic, scripts, the RP controller."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from it2pf.clustering import SubtractiveParams, subtractive_cluster
from it2pf.core import (
    BasisConsequent,
    Channel,
    IT2Gaussian,
    IT2PFModel,
    Normalization,
    ParameterError,
    RulePremise,
    TypeReductionConfig,
    materialize_ticks,
)
from it2pf.identify import TrainConfig
from it2pf.pegsim import (
    BlockState,
    DemonstrationError,
    OperatorHistory,
    OperatorScript,
    PegRunConfig,
    PegWorld,
    PegWorldConfig,
    RPController,
    ScriptController,
    build_scripts,
    demonstration_ticks,
    episode_seed,
    record_demonstrations,
    run_episode,
)


def _const_model(channel, n, values, center=0.0, sigma=10.0, delta=0.1,
                 dt=0.01):
    """Single-rule model emitting a constant n-vector everywhere."""
    d = 3 * n
    prem = RulePremise(tuple(IT2Gaussian(center, sigma, delta)
                             for _ in range(d)))
    # degree 0: beta is [M, C, K, f], here zero but for f = values
    beta = np.zeros((d + 1, n))
    beta[-1] = values
    cons = BasisConsequent(0, beta)
    norm = Normalization(np.zeros(d), np.ones(d))
    return IT2PFModel(channel=channel, dt=dt, rules=[(prem, cons)],
                      norm=norm, tr_config=TypeReductionConfig())


class TestConfigAndScripts:
    def test_config_validation(self):
        with pytest.raises(ParameterError):
            PegWorldConfig(start_peg=2, target_peg=2)
        with pytest.raises(ParameterError):
            PegWorldConfig(target_peg=99)
        with pytest.raises(ParameterError):
            PegWorldConfig(dt=0.0)

    def test_partner_recipe_sets_only_its_fields(self):
        for subtractive in (SubtractiveParams(),
                            SubtractiveParams(r_b=0.9, accept_ratio=0.6,
                                              reject_ratio=0.2)):
            base = TrainConfig(degree=2, huber_k=2.0, irls_max_iter=7,
                               max_cluster_points=900,
                               subtractive=subtractive)
            cfg = PegRunConfig(rp_degree=1, rp_delta=0.3, rp_r_a=0.4,
                               rp_max_cluster_points=700, rp_force_p=12,
                               rp_width_scale=1.5).train_config(base)
            assert (cfg.degree, cfg.delta, cfg.subtractive, cfg.force_p,
                    cfg.max_cluster_points, cfg.width_scale) == \
                (1, 0.3, replace(subtractive, r_a=0.4), 12, 700, 1.5)
            assert replace(cfg, degree=2, delta=base.delta,
                           subtractive=base.subtractive, force_p=None,
                           max_cluster_points=900, width_scale=1.0) == base

    def test_partner_r_b_left_unset_is_one_and_a_half_its_r_a(self):
        # the default partner clusters with r_b = 1.5 * 0.35, not 1.5 * 0.5
        sub = PegRunConfig().train_config(TrainConfig()).subtractive
        points = np.random.default_rng(0).uniform(size=(300, 4))
        got = subtractive_cluster(points, sub)
        assert sub.r_b is None
        assert got == subtractive_cluster(points, replace(sub, r_b=1.5 * 0.35))
        assert got != subtractive_cluster(points, replace(sub, r_b=0.75))

    def test_episode_seeds_of_run_peg(self):
        # the seeds in the episodes CSV of run-peg at master seed 3
        assert [episode_seed(3, e) for e in range(3)] == \
            [23757, 23758, 23759]

    def test_peg_grid_layout(self):
        cfg = PegWorldConfig(peg_spacing=0.06, peg_rows=2, peg_cols=3)
        pegs = cfg.peg_positions()
        assert pegs.shape == (6, 3)
        assert np.allclose(pegs[0], [0.0, 0.0, 0.0])
        assert np.allclose(pegs[5], [0.12, 0.06, 0.0])

    def test_script_times_must_increase(self):
        with pytest.raises(ParameterError):
            OperatorScript((((0.0, (0, 0, 0)), (0.0, (1, 1, 1)))),
                           ((0.0, 0.5),))

    def test_script_interpolation_endpoints(self):
        s = OperatorScript(((0.0, (0.0, 0.0, 0.0)), (1.0, (1.0, 0.0, 0.0))),
                           ((0.0, 0.1), (1.0, 0.9)))
        assert np.allclose(s.position(-1.0), [0.0, 0.0, 0.0])
        assert np.allclose(s.position(2.0), [1.0, 0.0, 0.0])
        # minimum-jerk midpoint is the halfway point
        assert np.allclose(s.position(0.5), [0.5, 0.0, 0.0])
        assert s.theta(0.5) == pytest.approx(0.5)
        assert s.duration == 1.0
        # an endpoint is the script's own keyframe, so it is read-only
        with pytest.raises(ValueError):
            s.position(2.0)[0] = 5.0
        assert np.array_equal(s.position(2.0), [1.0, 0.0, 0.0])


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def _reference_move(world, current, target):
    """PegWorld._move_toward as np.linalg.norm writes it."""
    step = np.asarray(target, dtype=float) - current
    dist = np.linalg.norm(step)
    limit = world.cfg.max_speed * world.cfg.dt
    if dist > limit:
        step *= limit / dist
    return current + step


def _reference_slew(world, current, target):
    """PegWorld._slew_theta as np.clip writes it."""
    limit = world.cfg.max_theta_rate * world.cfg.dt
    step = np.clip(float(target) - current, -limit, limit)
    return float(np.clip(current + step, 0.0, world.cfg.theta_max))


_WORLD = PegWorld(PegWorldConfig())
_STEP = _WORLD.cfg.max_speed * _WORLD.cfg.dt
_SLEW = _WORLD.cfg.max_theta_rate * _WORLD.cfg.dt
# limits hit exactly, zero steps, signed zeros and non-finite values
_EDGES = st.sampled_from([0.0, -0.0, _STEP, -_STEP, _SLEW, -_SLEW,
                          _WORLD.cfg.theta_max, math.nan, math.inf,
                          -math.inf])
_VALUES = st.one_of(_EDGES, st.floats(-1.0, 1.0),
                    st.floats(allow_nan=True, allow_infinity=True))


class TestTickArithmetic:
    """The world step's float arithmetic equals the numpy forms it
    replaces bit for bit, NaN and infinities included."""

    @settings(max_examples=300, deadline=None)
    @given(_VALUES, _VALUES, st.booleans())
    def test_slew_theta(self, current, offset, from_current):
        target = current + offset if from_current else offset
        with np.errstate(all="ignore"):
            want = _reference_slew(_WORLD, current, target)
        got = _WORLD._slew_theta(current, target)
        assert type(got) is float and _bits(got) == _bits(want)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
           st.lists(_VALUES, min_size=3, max_size=3), st.booleans())
    def test_move_toward(self, current, offset, from_current):
        current = np.array(current)
        target = current + offset if from_current else np.array(offset)
        with np.errstate(all="ignore"):
            want = _reference_move(_WORLD, current.copy(), target)
            got = _WORLD._move_toward(current.copy(), target)
        assert _bits(got) == _bits(want)

    def test_moves_that_hit_the_limit_exactly(self):
        current = np.array([0.01, -0.02, 0.03])
        for target in (current + [_STEP, 0.0, 0.0], current - [0.0, _STEP, 0],
                       current, current + [0.0, 0.0, math.nan]):
            want = _reference_move(_WORLD, current.copy(), target)
            got = _WORLD._move_toward(current.copy(), target)
            assert _bits(got) == _bits(want)


class TestWorldKinematics:
    def test_speed_clamp(self):
        cfg = PegWorldConfig()
        world = PegWorld(cfg)
        start = world.left_pos.copy()
        world.step(start + [1.0, 0.0, 0.0], cfg.theta_max,
                   world.right_pos, cfg.theta_max)
        moved = np.linalg.norm(world.left_pos - start)
        assert moved == pytest.approx(cfg.max_speed * cfg.dt, rel=1e-12)

    def test_theta_slew_and_clip(self):
        cfg = PegWorldConfig()
        world = PegWorld(cfg)
        world.step(world.left_pos, 0.0, world.right_pos, cfg.theta_max)
        expect = cfg.theta_max - cfg.max_theta_rate * cfg.dt
        assert world.left_theta == pytest.approx(expect, rel=1e-12)
        for _ in range(200):
            world.step(world.left_pos, -1.0, world.right_pos, 10.0)
        assert world.left_theta == 0.0
        assert world.right_theta == cfg.theta_max

    def test_idle_world_keeps_block_on_peg(self):
        cfg = PegWorldConfig()
        world = PegWorld(cfg)
        for _ in range(100):
            event = world.step(world.left_pos, world.left_theta,
                               world.right_pos, world.right_theta)
            assert event is None
        assert world.block_state is BlockState.ON_PEG
        assert np.allclose(world.block_pos, cfg.peg_positions()[cfg.start_peg])

    def test_grasp_handover_place_sequence(self):
        cfg = PegWorldConfig()
        world = PegWorld(cfg)
        block = world.block_pos.copy()
        world.left_pos = block.copy()
        world.right_pos = np.array([0.2, 0.2, 0.2])
        # left closes on the block
        for _ in range(60):
            world.step(block, 0.0, world.right_pos, cfg.theta_max)
        assert world.block_state is BlockState.HELD_BOTH \
            or world.block_state is BlockState.HELD_LEFT
        assert world.block_state is BlockState.HELD_LEFT
        # right arrives and closes: both hold
        world.right_pos = world.block_pos.copy()
        for _ in range(60):
            world.step(world.left_pos, 0.0, world.block_pos, 0.0)
        assert world.block_state is BlockState.HELD_BOTH
        # left opens: right carries
        for _ in range(60):
            world.step(world.left_pos, cfg.theta_max, world.block_pos, 0.0)
        assert world.block_state is BlockState.HELD_RIGHT
        # carry over the target peg and release
        target = cfg.peg_positions()[cfg.target_peg]
        event = None
        for _ in range(2000):
            event = world.step(world.left_pos, cfg.theta_max, target,
                               0.0 if np.linalg.norm(world.block_pos - target)
                               > cfg.place_radius * 0.5 else cfg.theta_max)
            if event:
                break
        assert event == "placed"
        assert world.block_state is BlockState.PLACED

    def test_release_away_from_target_drops(self):
        cfg = PegWorldConfig()
        world = PegWorld(cfg)
        world.left_pos = world.block_pos.copy()
        for _ in range(60):
            world.step(world.block_pos, 0.0, world.right_pos, cfg.theta_max)
        assert world.block_state is BlockState.HELD_LEFT
        event = None
        for _ in range(60):  # opening takes several ticks at the slew limit
            event = world.step(world.block_pos, cfg.theta_max,
                               world.right_pos, cfg.theta_max)
            if event:
                break
        assert event == "dropped"

    def test_held_block_tracks_holder(self):
        cfg = PegWorldConfig()
        world = PegWorld(cfg)
        world.left_pos = world.block_pos + [0.0, 0.0, 0.002]
        for _ in range(60):
            world.step(world.left_pos, 0.0, world.right_pos, cfg.theta_max)
        assert world.block_state is BlockState.HELD_LEFT
        offset = world.block_pos - world.left_pos
        away = world.left_pos + [0.05, 0.02, 0.03]
        for _ in range(400):
            world.step(away, 0.0, world.right_pos, cfg.theta_max)
            assert np.allclose(world.block_pos, world.left_pos + offset,
                               atol=1e-12)


class TestScriptedEpisodes:
    def test_default_scripts_complete(self):
        cfg = PegWorldConfig()
        left, right = build_scripts(cfg)
        rep = run_episode(cfg, left, ScriptController(right, cfg.dt),
                          run_full=True)
        assert rep.completed
        assert rep.completion_time <= 27.0
        assert rep.handover_error < cfg.grasp_radius

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_jittered_scripts_complete(self, seed):
        cfg = PegWorldConfig()
        left, right = build_scripts(cfg, seed=seed)
        rep = run_episode(cfg, left, ScriptController(right, cfg.dt),
                          run_full=True)
        assert rep.completed

    def test_demonstration_channels(self):
        cfg = PegWorldConfig()
        left, right = build_scripts(cfg, seed=0)
        mt_ticks, ga_ticks = demonstration_ticks(cfg, left, right)
        mt = materialize_ticks(Channel.MOTION, cfg.dt, *mt_ticks)
        ga = materialize_ticks(Channel.GESTURE, cfg.dt, *ga_ticks)
        assert mt.channel is Channel.MOTION and mt.n == 3 and mt.m == 3
        assert ga.channel is Channel.GESTURE and ga.n == 1 and ga.m == 1
        assert mt.n_samples == ga.n_samples
        # one tick per dt of the left script, minus the dropped tail tick
        assert mt.n_samples == int(round(left.duration / cfg.dt)) - 1

    def test_demonstration_replays_world_trace(self):
        cfg = PegWorldConfig()
        left, right = build_scripts(cfg, seed=0)
        (t, tid, L, Lv, R), _ = demonstration_ticks(cfg, left, right)
        rep = run_episode(cfg, left, ScriptController(right, cfg.dt),
                          run_full=True)
        assert np.array_equal(L, rep.trace["left_pos"])
        assert np.array_equal(R, rep.trace["right_pos"])
        # recorded velocity is the backward difference of recorded position
        assert np.allclose(Lv[1:], (L[1:] - L[:-1]) / cfg.dt, atol=1e-12)

    def test_impossible_grasp_raises(self):
        cfg = PegWorldConfig(grasp_radius=1e-9)
        left, right = build_scripts(cfg)
        with pytest.raises(DemonstrationError):
            demonstration_ticks(cfg, left, right)

    def test_merged_demonstrations_are_distinct_trials(self):
        cfg = PegWorldConfig()
        mt, ga = record_demonstrations(cfg, 3, seed=0)
        assert mt.trials().shape[0] == 3
        assert ga.trials().shape[0] == 3


class TestRPController:
    def _controllers(self, tau=0.05):
        mt = _const_model(Channel.MOTION, 3, [0.1, 0.2, 0.3])
        ga = _const_model(Channel.GESTURE, 1, [0.4])
        return RPController(mt, ga, tau=tau)

    def test_channel_validation(self):
        mt = _const_model(Channel.MOTION, 3, [0.0, 0.0, 0.0])
        ga = _const_model(Channel.GESTURE, 1, [0.0])
        with pytest.raises(ParameterError):
            RPController(ga, ga)
        with pytest.raises(ParameterError):
            RPController(mt, mt)
        with pytest.raises(ParameterError):
            RPController(mt, ga, tau=0.001)
        ga_slow = _const_model(Channel.GESTURE, 1, [0.0], dt=0.02)
        with pytest.raises(ParameterError):
            RPController(mt, ga_slow)

    def test_command_requires_reset(self):
        rp = self._controllers()
        with pytest.raises(ParameterError):
            rp.command(OperatorHistory(), 0)

    def test_tick_zero_holds_initial_command(self):
        rp = self._controllers()
        rp.reset([1.0, 2.0, 3.0], 0.5)
        hist = OperatorHistory()
        hist.append([0, 0, 0], [0, 0, 0], 0.0, 0.0)
        pos, th, degen = rp.command(hist, 0)
        assert np.allclose(pos, [1.0, 2.0, 3.0]) and th == 0.5
        assert not degen

    def test_first_order_lowpass_step(self):
        rp = self._controllers(tau=0.05)
        rp.reset([0.0, 0.0, 0.0], 0.0)
        hist = OperatorHistory()
        for _ in range(2):
            hist.append([0, 0, 0], [0, 0, 0], 0.0, 0.0)
        pos, th, _ = rp.command(hist, 1)
        alpha = 0.01 / 0.05
        assert np.allclose(pos, alpha * np.array([0.1, 0.2, 0.3]), atol=1e-12)
        assert th == pytest.approx(alpha * 0.4, abs=1e-12)

    def test_converges_to_model_output(self):
        rp = self._controllers(tau=0.05)
        rp.reset([0.0, 0.0, 0.0], 0.0)
        hist = OperatorHistory()
        hist.append([0, 0, 0], [0, 0, 0], 0.0, 0.0)
        for k in range(1, 400):
            hist.append([0, 0, 0], [0, 0, 0], 0.0, 0.0)
            pos, th, _ = rp.command(hist, k)
        assert np.allclose(pos, [0.1, 0.2, 0.3], atol=1e-6)
        assert th == pytest.approx(0.4, abs=1e-6)

    def test_degenerate_firing_holds_last_command(self):
        # narrow premises centered far from any reachable state
        mt = _const_model(Channel.MOTION, 3, [9.0, 9.0, 9.0], center=100.0,
                          sigma=1e-3)
        ga = _const_model(Channel.GESTURE, 1, [9.0], center=100.0, sigma=1e-3)
        rp = RPController(mt, ga, tau=0.05)
        rp.reset([1.0, 1.0, 1.0], 0.7)
        hist = OperatorHistory()
        for _ in range(5):
            hist.append([0, 0, 0], [0, 0, 0], 0.0, 0.0)
        for k in range(1, 5):
            pos, th, degen = rp.command(hist, k)
            assert degen
            assert np.allclose(pos, [1.0, 1.0, 1.0], atol=1e-15)
            assert th == 0.7


class TestEpisodeInvariants:
    def test_trace_invariants_scripted_run(self):
        cfg = PegWorldConfig()
        left, right = build_scripts(cfg, seed=1)
        rep = run_episode(cfg, left, ScriptController(right, cfg.dt),
                          run_full=True)
        tr = rep.trace
        T = tr["t"].shape[0]
        for key in ("left_pos", "right_pos", "block_pos"):
            assert tr[key].shape == (T, 3)
        # time advances by exactly one dt per tick
        assert np.allclose(np.diff(tr["t"]), cfg.dt, atol=1e-9)
        # speed limits hold every tick
        for key in ("left_pos", "right_pos", "block_pos"):
            steps = np.linalg.norm(np.diff(tr[key], axis=0), axis=1)
            assert np.all(steps <= cfg.max_speed * cfg.dt + 1e-9)
        # exactly one block: when held, it coincides with a holder (fixed
        # grasp offset); on the start peg it is exact, once placed it rests
        # within the placement radius of the target peg
        pegs = cfg.peg_positions()
        for k in range(T):
            s = BlockState(tr["state"][k])
            b = tr["block_pos"][k]
            if s is BlockState.ON_PEG:
                assert np.linalg.norm(pegs[cfg.start_peg] - b) < 1e-9
            elif s is BlockState.PLACED:
                assert np.linalg.norm(pegs[cfg.target_peg] - b) \
                    <= cfg.place_radius + 1e-9
            elif s in (BlockState.HELD_LEFT, BlockState.HELD_BOTH):
                assert np.linalg.norm(b - tr["left_pos"][k]) \
                    <= cfg.grasp_radius + 1e-9
            else:
                assert np.linalg.norm(b - tr["right_pos"][k]) \
                    <= cfg.grasp_radius + 1e-9

    def test_timeout_reports_phase(self):
        cfg = PegWorldConfig(timeout=1.0)
        hold = OperatorScript(((0.0, cfg.left_home),),
                              ((0.0, cfg.theta_max),))
        rep = run_episode(cfg, hold, ScriptController(hold, cfg.dt))
        assert not rep.completed
        assert rep.phase == "grasp"
        assert math.isnan(rep.completion_time)
