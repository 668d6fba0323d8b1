"""Kinematic bimanual peg-transfer world.

The left gripper follows a scripted operator; the right gripper is driven
either by a second script (for recording demonstrations) or by a learned
Robotic Partner controller that maps the observed operator state to
partner commands through two fuzzy models (motion and gripper channels).

Units: meters, seconds, radians.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .clustering import SubtractiveParams
from .core import (Channel, FuzzyModelError, IT2PFModel, ParameterError,
                   materialize_ticks)
from .envsim import _minjerk
from .seeds import substream


class DemonstrationError(FuzzyModelError):
    """A demonstration script failed its dry run."""


class BlockState(enum.Enum):
    ON_PEG = 0
    HELD_LEFT = 1
    HELD_BOTH = 2
    HELD_RIGHT = 3
    PLACED = 4


@dataclass(frozen=True)
class PegWorldConfig:
    peg_spacing: float = 0.06
    peg_rows: int = 2
    peg_cols: int = 3
    start_peg: int = 0
    target_peg: int = 5
    grasp_radius: float = 0.005
    place_radius: float = 0.010
    theta_max: float = math.radians(60.0)
    theta_close: float = math.radians(10.0)
    max_speed: float = 0.2
    max_theta_rate: float = math.radians(300.0)
    dt: float = 0.01
    timeout: float = 30.0
    left_home: tuple = (-0.06, 0.0, 0.06)
    right_home: tuple = (0.18, 0.06, 0.06)

    def __post_init__(self):
        if self.peg_rows * self.peg_cols < 2:
            raise ParameterError("need at least 2 pegs")
        if not (0 <= self.start_peg < self.peg_rows * self.peg_cols
                and 0 <= self.target_peg < self.peg_rows * self.peg_cols):
            raise ParameterError("peg indices out of range")
        if self.start_peg == self.target_peg:
            raise ParameterError("start and target peg must differ")
        if self.dt <= 0 or self.max_speed <= 0:
            raise ParameterError("dt and max_speed must be > 0")

    def peg_positions(self) -> np.ndarray:
        pegs = [(self.peg_spacing * i, self.peg_spacing * j, 0.0)
                for j in range(self.peg_rows) for i in range(self.peg_cols)]
        return np.array(pegs)


# ---------------------------------------------------------------------------
# Scripted operator
# ---------------------------------------------------------------------------

def _interp_keys(keys, t):
    """Minimum-jerk interpolation through (time, value) keyframes."""
    if t <= keys[0][0]:
        return np.asarray(keys[0][1], dtype=float)
    if t >= keys[-1][0]:
        return np.asarray(keys[-1][1], dtype=float)
    for (t0, v0), (t1, v1) in zip(keys, keys[1:]):
        if t0 <= t < t1:
            tau = (t - t0) / (t1 - t0)
            v0 = np.asarray(v0, dtype=float)
            v1 = np.asarray(v1, dtype=float)
            return v0 + (v1 - v0) * _minjerk(tau)
    return np.asarray(keys[-1][1], dtype=float)


@dataclass(frozen=True)
class OperatorScript:
    """Keyframed gripper trajectory: positions and opening angles."""

    pos_keys: tuple    # ((t, (x, y, z)), ...)
    theta_keys: tuple  # ((t, theta), ...)

    def __post_init__(self):
        for keys, name in ((self.pos_keys, "pos_keys"),
                           (self.theta_keys, "theta_keys")):
            times = [k[0] for k in keys]
            if len(times) < 1 or any(b <= a for a, b in zip(times, times[1:])):
                raise ParameterError(f"{name} times must be strictly increasing")

    @property
    def duration(self) -> float:
        return max(self.pos_keys[-1][0], self.theta_keys[-1][0])

    def position(self, t) -> np.ndarray:
        return _interp_keys(self.pos_keys, t)

    def theta(self, t) -> float:
        return float(_interp_keys(self.theta_keys, t))


# ---------------------------------------------------------------------------
# World
# ---------------------------------------------------------------------------

class PegWorld:
    """Mutable scene state; all motion is velocity-clamped kinematics."""

    def __init__(self, cfg: PegWorldConfig):
        self.cfg = cfg
        self.pegs = cfg.peg_positions()
        self.left_pos = np.array(cfg.left_home, dtype=float)
        self.right_pos = np.array(cfg.right_home, dtype=float)
        self.left_theta = cfg.theta_max
        self.right_theta = cfg.theta_max
        self.block_pos = self.pegs[cfg.start_peg].copy()
        self.block_state = BlockState.ON_PEG
        self._offset_left = np.zeros(3)
        self._offset_right = np.zeros(3)
        self.time = 0.0

    def _move_toward(self, current, target):
        step = np.asarray(target, dtype=float) - current
        dist = np.linalg.norm(step)
        limit = self.cfg.max_speed * self.cfg.dt
        if dist > limit:
            step *= limit / dist
        return current + step

    def _slew_theta(self, current, target):
        limit = self.cfg.max_theta_rate * self.cfg.dt
        step = np.clip(float(target) - current, -limit, limit)
        return float(np.clip(current + step, 0.0, self.cfg.theta_max))

    def step(self, left_target, left_theta_target, right_target,
             right_theta_target):
        """Advance one tick; returns ('placed'|'dropped'|None)."""
        cfg = self.cfg
        self.left_pos = self._move_toward(self.left_pos, left_target)
        self.right_pos = self._move_toward(self.right_pos, right_target)
        self.left_theta = self._slew_theta(self.left_theta, left_theta_target)
        self.right_theta = self._slew_theta(self.right_theta,
                                            right_theta_target)
        self.time += cfg.dt

        # block follows its holder at the grasp-time offset
        if self.block_state in (BlockState.HELD_LEFT, BlockState.HELD_BOTH):
            self.block_pos = self.left_pos + self._offset_left
        elif self.block_state == BlockState.HELD_RIGHT:
            self.block_pos = self.right_pos + self._offset_right

        left_closed = self.left_theta < cfg.theta_close
        right_closed = self.right_theta < cfg.theta_close
        left_near = np.linalg.norm(self.left_pos - self.block_pos) \
            <= cfg.grasp_radius
        right_near = np.linalg.norm(self.right_pos - self.block_pos) \
            <= cfg.grasp_radius

        event = None
        # grasps before releases so a simultaneous handover keeps the block
        if self.block_state == BlockState.ON_PEG:
            if left_closed and left_near:
                self._offset_left = self.block_pos - self.left_pos
                self.block_state = BlockState.HELD_LEFT
            elif right_closed and right_near:
                self._offset_right = self.block_pos - self.right_pos
                self.block_state = BlockState.HELD_RIGHT
        elif self.block_state == BlockState.HELD_LEFT:
            if right_closed and right_near:
                self._offset_right = self.block_pos - self.right_pos
                self.block_state = BlockState.HELD_BOTH
        if self.block_state == BlockState.HELD_BOTH:
            if not left_closed:
                self.block_state = BlockState.HELD_RIGHT
            elif not right_closed:
                self.block_state = BlockState.HELD_LEFT
        if self.block_state == BlockState.HELD_LEFT and not left_closed:
            event = "dropped"
        elif self.block_state == BlockState.HELD_RIGHT and not right_closed:
            target = self.pegs[cfg.target_peg]
            if np.linalg.norm(self.block_pos - target) <= cfg.place_radius:
                self.block_state = BlockState.PLACED
                event = "placed"
            else:
                event = "dropped"
        return event


# ---------------------------------------------------------------------------
# Controllers
# ---------------------------------------------------------------------------

class OperatorHistory:
    """Observed left-gripper states, appended tick by tick."""

    def __init__(self):
        self.pos = []
        self.vel = []
        self.theta = []
        self.theta_rate = []

    def append(self, pos, vel, theta, theta_rate):
        self.pos.append(np.asarray(pos, dtype=float).copy())
        self.vel.append(np.asarray(vel, dtype=float).copy())
        self.theta.append(float(theta))
        self.theta_rate.append(float(theta_rate))

    def __len__(self):
        return len(self.pos)


class ScriptController:
    """Plays back a fixed right-gripper script (used for demonstrations)."""

    def __init__(self, script: OperatorScript, dt: float):
        self.script = script
        self.dt = dt

    def reset(self, right_pos, right_theta):
        pass

    def command(self, history, k):
        t = k * self.dt
        return self.script.position(t), self.script.theta(t), False


class RPController:
    """Learned Robotic Partner: fuzzy models map operator state to commands.

    The feature vector fed to each model is the causal shift
    [x(k-1), v(k-1), v(k)] of the operator history; commands pass through a
    first-order low-pass with time constant tau.
    """

    def __init__(self, motion_model: IT2PFModel, gripper_model: IT2PFModel,
                 tau: float = None):
        if motion_model.channel != Channel.MOTION:
            raise ParameterError("motion model must be the h_mt channel")
        if gripper_model.channel != Channel.GESTURE:
            raise ParameterError("gripper model must be the h_ga channel")
        if abs(motion_model.dt - gripper_model.dt) > 1e-12:
            raise ParameterError("channel models disagree on dt")
        self.motion_model = motion_model
        self.gripper_model = gripper_model
        self.dt = motion_model.dt
        self.tau = 3.0 * self.dt if tau is None else tau
        if self.tau < self.dt:
            raise ParameterError("tau must be >= dt")
        self._pos_cmd = None
        self._theta_cmd = None

    def reset(self, right_pos, right_theta):
        self._pos_cmd = np.asarray(right_pos, dtype=float).copy()
        self._theta_cmd = float(right_theta)

    def command(self, history: OperatorHistory, k: int):
        if self._pos_cmd is None:
            raise ParameterError("controller not reset")
        if k < 1 or len(history) <= k:
            return self._pos_cmd.copy(), self._theta_cmd, False
        pos_raw, d1 = self.motion_model.predict(
            history.pos[k - 1], history.vel[k - 1], history.vel[k])
        th_raw, d2 = self.gripper_model.predict(
            [history.theta[k - 1]], [history.theta_rate[k - 1]],
            [history.theta_rate[k]])
        # a degenerate firing means the operator state is outside every
        # rule's support; hold the last command instead of chasing the
        # fallback average
        alpha = self.dt / self.tau
        if not d1:
            self._pos_cmd = self._pos_cmd + alpha * (pos_raw - self._pos_cmd)
        if not d2:
            self._theta_cmd = self._theta_cmd + alpha * (float(th_raw[0])
                                                         - self._theta_cmd)
        return self._pos_cmd.copy(), self._theta_cmd, bool(d1 or d2)


# ---------------------------------------------------------------------------
# Episodes
# ---------------------------------------------------------------------------

@dataclass
class EpisodeReport:
    completed: bool
    completion_time: float
    handover_error: float
    phase: str
    trace: dict = field(default_factory=dict)


_PHASE_BY_STATE = {
    BlockState.ON_PEG: "grasp",
    BlockState.HELD_LEFT: "handover",
    BlockState.HELD_BOTH: "handover",
    BlockState.HELD_RIGHT: "carry",
    BlockState.PLACED: "done",
}


def run_episode(cfg: PegWorldConfig, left_script: OperatorScript, rp,
                seed: int = 0, run_full: bool = False) -> EpisodeReport:
    """Simulate one episode until placement, drop, or timeout.

    rp is any controller with reset()/command(); run_full keeps simulating
    to the end of the left script even after placement (used when recording
    demonstrations).
    """
    world = PegWorld(cfg)
    history = OperatorHistory()
    rp.reset(world.right_pos, world.right_theta)
    dt = cfg.dt
    end_time = left_script.duration if run_full else cfg.timeout
    max_ticks = int(round(end_time / dt))

    trace = {key: [] for key in
             ("t", "left_pos", "left_theta", "right_pos", "right_theta",
              "block_pos", "state", "degenerate")}
    completed = False
    completion_time = float("nan")
    handover_error = float("nan")
    fail_phase = ""

    prev_left = world.left_pos.copy()
    prev_theta = world.left_theta
    for k in range(max_ticks):
        t = k * dt
        lp = left_script.position(t)
        lth = left_script.theta(t)
        # the controller sees the state the left gripper will hold this tick
        exec_left = world._move_toward(world.left_pos, lp)
        exec_theta = world._slew_theta(world.left_theta, lth)
        if k == 0:
            history.append(exec_left, np.zeros(3), exec_theta, 0.0)
        else:
            history.append(exec_left, (exec_left - prev_left) / dt, exec_theta,
                           (exec_theta - prev_theta) / dt)
        prev_left, prev_theta = exec_left.copy(), exec_theta

        rp_pos, rp_theta, degen = rp.command(history, k)
        state_before = world.block_state
        event = world.step(lp, lth, rp_pos, rp_theta)

        if state_before == BlockState.HELD_LEFT \
                and world.block_state == BlockState.HELD_BOTH \
                and math.isnan(handover_error):
            handover_error = float(np.linalg.norm(world.right_pos
                                                  - world.block_pos))

        trace["t"].append(world.time)
        trace["left_pos"].append(world.left_pos.copy())
        trace["left_theta"].append(world.left_theta)
        trace["right_pos"].append(world.right_pos.copy())
        trace["right_theta"].append(world.right_theta)
        trace["block_pos"].append(world.block_pos.copy())
        trace["state"].append(world.block_state.value)
        trace["degenerate"].append(bool(degen))

        if event == "placed" and not completed:
            completed = True
            completion_time = world.time
            if not run_full:
                break
        if event == "dropped":
            fail_phase = "place" if state_before == BlockState.HELD_RIGHT \
                else "handover"
            break

    if not completed and not fail_phase:
        fail_phase = _PHASE_BY_STATE[world.block_state]
    for key in ("left_pos", "right_pos", "block_pos"):
        trace[key] = np.array(trace[key])
    for key in ("t", "left_theta", "right_theta"):
        trace[key] = np.array(trace[key])
    trace["state"] = np.array(trace["state"], dtype=int)
    trace["degenerate"] = np.array(trace["degenerate"], dtype=bool)
    return EpisodeReport(completed, completion_time, handover_error,
                         "done" if completed else fail_phase, trace)


# ---------------------------------------------------------------------------
# Demonstrations
# ---------------------------------------------------------------------------

def demonstration_ticks(cfg: PegWorldConfig, left_script: OperatorScript,
                        right_script: OperatorScript, trial: int = 0):
    """Per-tick channel records of one scripted demonstration.

    Returns two (t, trial_id, x, v, y) tuples, one per channel (h_mt then
    h_ga).  Raises DemonstrationError if the scripts fail a dry run.
    """
    dry = run_episode(cfg, left_script,
                      ScriptController(right_script, cfg.dt), run_full=True)
    if not dry.completed:
        raise DemonstrationError(
            f"scripted dry run failed in phase {dry.phase!r}")
    tr = dry.trace
    L, R = tr["left_pos"], tr["right_pos"]
    dt = cfg.dt
    Lv = np.zeros_like(L)
    Lv[1:] = (L[1:] - L[:-1]) / dt
    th_l = tr["left_theta"]
    th_r = tr["right_theta"]
    th_lv = np.zeros_like(th_l)
    th_lv[1:] = (th_l[1:] - th_l[:-1]) / dt
    tid = np.full(L.shape[0], trial, dtype=int)
    mt = (tr["t"], tid, L, Lv, R)
    ga = (tr["t"], tid, th_l[:, None], th_lv[:, None], th_r[:, None])
    return mt, ga


# ---------------------------------------------------------------------------
# Default task scripts
# ---------------------------------------------------------------------------

def build_scripts(cfg: PegWorldConfig, seed: int = None):
    """Default left/right scripts for the transfer task.

    The left path keeps moving whenever the right hand moves so the
    partner-state map stays single valued; the left gripper angle carries a
    slow 'squeeze' signature ahead of the handover and a late drift that
    cues the release above the target peg.  A seed adds small waypoint
    jitter (distinct demonstrations and test episodes).
    """
    pegs = cfg.peg_positions()
    start = pegs[cfg.start_peg]
    target = pegs[cfg.target_peg]
    H = np.array([0.06, 0.03, 0.05])
    deg = math.radians

    def jit(scale=0.003):
        if seed is None:
            return np.zeros(3)
        return scale * rng.standard_normal(3)

    rng = substream(seed if seed is not None else 0, 23)

    grasp = start + (0.0, 0.0, 0.002)
    Hj = H + jit()
    left_pos = (
        (0.0, np.array(cfg.left_home)),
        (1.5, start + np.array([0.0, 0.0, 0.03]) + jit()),
        (2.5, grasp),
        (3.4, grasp),
        (4.6, start + np.array([0.0, 0.0, 0.04]) + jit()),
        (8.6, Hj),
        (9.6, Hj),
        (11.6, np.array([0.03, 0.0, 0.09]) + jit()),
        (14.0, np.array([0.0, 0.0, 0.07]) + jit()),
        (14.2, np.array([0.0, 0.0, 0.068])),
    )
    left_theta = (
        (0.0, deg(55)), (2.5, deg(55)), (3.2, deg(6)), (3.4, deg(6)),
        (8.4, deg(5)), (9.0, deg(3)), (9.4, deg(3)), (10.2, deg(35)),
        (11.8, deg(35)), (13.8, deg(50)), (14.2, deg(51)),
    )
    # the left grips the block from 2 mm above, so the block rides 2 mm
    # below the left tool tip; aim the right tool straight at the block
    handover_offset = np.array([0.0005, 0.0, -0.002])
    above_target = target + np.array([0.0, 0.0, 0.03])
    place = target + np.array([0.0, 0.0, 0.002])
    staging = np.array([0.12, 0.05, 0.06]) + jit()
    right_pos = (
        (0.0, np.array(cfg.right_home)),
        (2.4, staging),
        (4.6, staging),
        (8.6, Hj + handover_offset),
        (9.6, Hj + handover_offset),
        (12.2, above_target),
        (12.8, place),
        (13.9, place),
        (14.2, target + np.array([0.0, 0.0, 0.03])),
    )
    right_theta = (
        (0.0, deg(55)), (8.4, deg(55)), (9.0, deg(4)), (13.3, deg(4)),
        (13.9, deg(55)), (14.2, deg(55)),
    )
    # keep the two right-hold waypoints identical despite jitter
    return (OperatorScript(left_pos, left_theta),
            OperatorScript(right_pos, right_theta))


def demonstrations_ticks(cfg: PegWorldConfig, n_demos: int, seed: int):
    """Per-tick records of n jittered demonstrations, demo d as trial d.

    Each demo plays build_scripts with its own seed, derived from seed
    here and nowhere else.  Returns one (t, trial_id, x, v, y) tuple per
    channel (h_mt then h_ga), each the concatenation of
    demonstration_ticks over the demos.
    """
    if n_demos < 1:
        raise ParameterError("need at least one demonstration")
    demos = []
    for d in range(n_demos):
        left, right = build_scripts(cfg, seed=seed * 1009 + d)
        demos.append(demonstration_ticks(cfg, left, right, trial=d))
    return tuple(tuple(np.concatenate(cols) for cols in zip(*channel))
                 for channel in zip(*demos))


def record_demonstrations(cfg: PegWorldConfig, n_demos: int, seed: int):
    """n jittered demonstrations, merged into per-channel datasets."""
    mt, ga = demonstrations_ticks(cfg, n_demos, seed)
    return (materialize_ticks(Channel.MOTION, cfg.dt, *mt),
            materialize_ticks(Channel.GESTURE, cfg.dt, *ga))


# ---------------------------------------------------------------------------
# The Robotic Partner experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PegRunConfig:
    """The peg-transfer experiment: its world, demonstrations and episodes,
    and the Robotic Partner's recipe, the rp_* training settings and the
    controller's tau."""

    world: PegWorldConfig = field(default_factory=PegWorldConfig)
    n_demos: int = 5
    n_episodes: int = 20
    tau: float = 0.03
    rp_degree: int = 0
    rp_delta: float = 0.1
    rp_r_a: float = 0.35
    rp_max_cluster_points: int = 1500
    rp_force_p: int = 30
    rp_width_scale: float = 1.0

    def train_config(self, base):
        """The TrainConfig base with the Robotic Partner's settings."""
        return replace(base, degree=self.rp_degree, delta=self.rp_delta,
                       subtractive=SubtractiveParams(r_a=self.rp_r_a),
                       max_cluster_points=self.rp_max_cluster_points,
                       force_p=self.rp_force_p,
                       width_scale=self.rp_width_scale)


def episode_seed(master: int, e: int) -> int:
    """The seed of run-peg's episode e (its script and its run) under the
    master seed."""
    return master * 7919 + e
