"""Simulated planar pressing bench: a robotic finger presses a soft
silicone-like surface at scanned locations and three depth levels.

Ground truth is a Hunt-Crossley contact: normal force k(x1,x2)*d^eta plus
penetration-dependent damping, with the stiffness field varying spatially
as a sum of Gaussian bumps.  The nonlinearity puts the data strictly
outside the linear Kelvin-Voigt class.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Channel, Dataset, ParameterError, materialize_ticks
from .seeds import substream


@dataclass(frozen=True)
class GaussianBump:
    amplitude: float
    center: tuple
    width: float

    def __post_init__(self):
        if self.width <= 0:
            raise ParameterError("bump width must be > 0")


@dataclass(frozen=True)
class SiliconeEnv:
    """Spatially varying nonlinear contact surface."""

    base_stiffness: float = 800.0       # N / m^eta
    bumps: tuple = ()
    damping: float = 5.0                # N s / m^(eta+1)
    exponent: float = 1.5
    surface_height: float = 0.0

    def __post_init__(self):
        if self.damping < 0:
            raise ParameterError("damping must be >= 0")
        if self.exponent < 1:
            raise ParameterError("contact exponent must be >= 1")
        amps = sum(min(b.amplitude, 0.0) for b in self.bumps)
        if self.base_stiffness + amps <= 0:
            raise ParameterError("stiffness field must stay positive")

    def stiffness(self, x1, x2):
        k = np.full(np.broadcast(np.asarray(x1), np.asarray(x2)).shape,
                    self.base_stiffness, dtype=float)
        for b in self.bumps:
            d2 = (np.asarray(x1) - b.center[0]) ** 2 \
                + (np.asarray(x2) - b.center[1]) ** 2
            k = k + b.amplitude * np.exp(-d2 / (2.0 * b.width ** 2))
        return k


def default_env() -> SiliconeEnv:
    base = 800.0
    bumps = (
        GaussianBump(+0.40 * base, (0.05, 0.05), 0.04),
        GaussianBump(-0.35 * base, (0.14, 0.06), 0.05),
        GaussianBump(+0.30 * base, (0.10, 0.14), 0.045),
    )
    return SiliconeEnv(base_stiffness=base, bumps=bumps)


def contact_force(env: SiliconeEnv, position, velocity) -> np.ndarray:
    """Normal contact force vector (only the vertical component is nonzero)."""
    X = np.asarray(position, dtype=float).reshape(1, -1)
    V = np.asarray(velocity, dtype=float).reshape(1, -1)
    return np.array([0.0, 0.0, _normal_force_batch(env, X, V)[0]])


def _normal_force_batch(env, X, V):
    d = np.maximum(0.0, env.surface_height - X[:, 2])
    k = env.stiffness(X[:, 0], X[:, 1])
    F = k * d ** env.exponent + env.damping * d ** env.exponent * (-V[:, 2])
    return np.where(d > 0, np.maximum(F, 0.0), 0.0)


def _grid(nx, ny, x0, x1, y0, y1):
    xs = np.linspace(x0, x1, nx)
    ys = np.linspace(y0, y1, ny)
    return tuple((float(x), float(y)) for y in ys for x in xs)


@dataclass(frozen=True)
class PressProtocol:
    """Scan protocol: trials_per_level presses per depth level."""

    depths: tuple = (0.002, 0.005, 0.008)   # m, strictly increasing
    trials_per_level: int = 50
    grid: tuple = field(default_factory=lambda: _grid(5, 5, 0.02, 0.18,
                                                      0.02, 0.18))
    dt: float = 0.01
    press_duration: float = 0.8
    hold_duration: float = 0.5
    clearance: float = 0.005
    position_noise: float = 1e-4   # m
    force_noise: float = 0.05      # N
    location_jitter: float = 0.002
    seed: int = 0

    def __post_init__(self):
        d = np.asarray(self.depths)
        if d.size == 0 or np.any(d <= 0) or np.any(np.diff(d) <= 0):
            raise ParameterError("need one or more depths, increasing and > 0")
        if self.trials_per_level < 1:
            raise ParameterError("trials_per_level must be >= 1")
        if not self.grid:
            raise ParameterError("grid must hold at least one location")
        if self.dt <= 0:
            raise ParameterError("dt must be > 0")


def _minjerk(tau):
    return 10 * tau ** 3 - 15 * tau ** 4 + 6 * tau ** 5


def _minjerk_rate(tau):
    return 30 * tau ** 2 - 60 * tau ** 3 + 30 * tau ** 4


def _press_profile(protocol, depth):
    """Vertical position/velocity time series of one press."""
    dt = protocol.dt
    T1, Th = protocol.press_duration, protocol.hold_duration
    z_top = protocol.clearance
    z_bot = -depth
    t = dt * np.arange(int(round((2 * T1 + Th) / dt)) + 1)
    z = np.empty_like(t)
    vz = np.empty_like(t)
    for i, ti in enumerate(t):
        if ti < T1:
            tau = ti / T1
            z[i] = z_top + (z_bot - z_top) * _minjerk(tau)
            vz[i] = (z_bot - z_top) * _minjerk_rate(tau) / T1
        elif ti < T1 + Th:
            z[i] = z_bot
            vz[i] = 0.0
        else:
            tau = min((ti - T1 - Th) / T1, 1.0)
            z[i] = z_bot + (z_top - z_bot) * _minjerk(tau)
            vz[i] = (z_top - z_bot) * _minjerk_rate(tau) / T1
    return t, z, vz


def _central_diff(X, dt):
    V = np.empty_like(X)
    V[1:-1] = (X[2:] - X[:-2]) / (2 * dt)
    V[0] = (X[1] - X[0]) / dt
    V[-1] = (X[-1] - X[-2]) / dt
    return V


def generate_trial(env: SiliconeEnv, protocol: PressProtocol, level: int,
                   location, seed: int):
    """One press trial; returns (t, x_recorded, v_recorded, y_recorded).

    Recorded positions carry additive Gaussian noise; recorded velocities
    are central differences of the recorded positions; recorded force is
    the true contact force plus measurement noise.
    """
    if not (0 <= level < len(protocol.depths)):
        raise ParameterError(f"invalid depth level {level}")
    depth = protocol.depths[level]
    rng = substream(seed, 7)
    t, z, vz = _press_profile(protocol, depth)
    T = t.shape[0]
    X = np.empty((T, 3))
    X[:, 0] = location[0]
    X[:, 1] = location[1]
    X[:, 2] = env.surface_height + z
    V = np.zeros((T, 3))
    V[:, 2] = vz
    y_true = _normal_force_batch(env, X, V)

    X_rec = X + protocol.position_noise * rng.standard_normal(X.shape)
    V_rec = np.column_stack([_central_diff(X_rec[:, j], protocol.dt)
                             for j in range(3)])
    y_rec = y_true + protocol.force_noise * rng.standard_normal(T)
    return t, X_rec, V_rec, y_rec[:, None]


def generate_benchmark_ticks(env: SiliconeEnv, protocol: PressProtocol):
    """Per-tick records of the full scan: (t, trial_id, x, v, y) arrays.

    Trial k of level L has trial_id = L * trials_per_level + k and its own
    seed substream, so generation parallelizes without changing output.
    """
    grid = protocol.grid
    rng_loc = substream(protocol.seed, 11)
    n_levels = len(protocol.depths)
    jitters = protocol.location_jitter * rng_loc.standard_normal(
        (n_levels * protocol.trials_per_level, 2))
    ts, tids, Xs, Vs, Ys = [], [], [], [], []
    for level in range(n_levels):
        for j in range(protocol.trials_per_level):
            tid = level * protocol.trials_per_level + j
            base = grid[tid % len(grid)]
            loc = (base[0] + jitters[tid, 0], base[1] + jitters[tid, 1])
            t, X, V, Y = generate_trial(env, protocol, level, loc,
                                        seed=protocol.seed * 1000003 + tid)
            ts.append(t)
            tids.append(np.full(t.shape[0], tid))
            Xs.append(X)
            Vs.append(V)
            Ys.append(Y)
    return (np.concatenate(ts), np.concatenate(tids), np.vstack(Xs),
            np.vstack(Vs), np.vstack(Ys))


def generate_benchmark(env: SiliconeEnv, protocol: PressProtocol) -> Dataset:
    """Full scan as a training-pair dataset (150 trials by default)."""
    t, tid, X, V, Y = generate_benchmark_ticks(env, protocol)
    return materialize_ticks(Channel.ENVIRONMENT, protocol.dt, t, tid, X, V, Y)
