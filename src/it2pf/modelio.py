"""Persistence and configuration: CSV dataset files, structured-text model
files, and the experiment configuration format.

All formats are decimal text with a leading format-version field.  Floats
are serialized with Python's shortest round-trip repr, so read(write(x))
is bit-exact.  File writes are atomic (write temp, then rename).
"""
from __future__ import annotations

import configparser
import json
import math
import os
import tempfile
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .baselines import LKVModel
from .bench import MODEL_NAMES, Split
from .core import (Channel, Dataset, FuzzyModelError, IT2Gaussian, IT2PFModel,
                   Normalization, PolynomialConsequent, RulePremise,
                   TypeReductionConfig, materialize_ticks)
from .envsim import (GaussianBump, PressProtocol, SiliconeEnv, _grid,
                     default_env)
from .identify import TrainConfig
from .pegsim import PegWorldConfig

DATASET_FORMAT = "it2pf-dataset-v1"
MODEL_FORMAT = "it2pf-model-v1"
LKV_FORMAT = "it2pf-lkv-v1"


class FormatError(FuzzyModelError):
    """Malformed or wrong-version persisted file."""


class ConfigError(FuzzyModelError):
    """Invalid experiment configuration."""


def _fmt(x) -> str:
    return repr(float(x))


def atomic_write_text(path, text):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Dataset CSV
# ---------------------------------------------------------------------------

def write_dataset_csv(path, channel: Channel, dt, t, trial_id, x, v, y):
    """Per-tick dataset file; v_next is materialized again on read."""
    t = np.asarray(t, dtype=float)
    trial_id = np.asarray(trial_id, dtype=int)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if x.shape[0] == 1 and t.shape[0] > 1:
        x, v, y = x.T, v.T, y.T
    n, m = x.shape[1], y.shape[1]
    lines = [f"#{DATASET_FORMAT} channel={channel.value} dt={_fmt(dt)} "
             f"n={n} m={m}"]
    cols = (["t", "trial_id"] + [f"x{i+1}" for i in range(n)]
            + [f"v{i+1}" for i in range(n)] + [f"y{i+1}" for i in range(m)])
    lines.append(",".join(cols))
    for k in range(t.shape[0]):
        row = [_fmt(t[k]), str(int(trial_id[k]))]
        row += [_fmt(u) for u in x[k]]
        row += [_fmt(u) for u in v[k]]
        row += [_fmt(u) for u in y[k]]
        lines.append(",".join(row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_dataset_ticks(path):
    """Parse a dataset file back into per-tick arrays."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if not header.startswith(f"#{DATASET_FORMAT} "):
            raise FormatError(f"{path}: not a {DATASET_FORMAT} file")
        meta = {}
        for tok in header.split()[1:]:
            key, _, val = tok.partition("=")
            meta[key] = val
        try:
            channel = Channel(meta["channel"])
            dt = float(meta["dt"])
            n = int(meta["n"])
            m = int(meta["m"])
        except (KeyError, ValueError) as exc:
            raise FormatError(f"{path}: bad metadata header: {exc}") from exc
        colhdr = fh.readline().rstrip("\n")
        want = 2 + 2 * n + m
        if len(colhdr.split(",")) != want:
            raise FormatError(f"{path}: expected {want} columns")
        rows = []
        for lineno, line in enumerate(fh, start=3):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != want:
                raise FormatError(
                    f"{path}:{lineno}: expected {want} fields, got {len(parts)}")
            try:
                rows.append([float(u) for u in parts])
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise FormatError(f"{path}: no data rows")
    data = np.array(rows)
    t = data[:, 0]
    trial = data[:, 1].astype(int)
    x = data[:, 2:2 + n]
    v = data[:, 2 + n:2 + 2 * n]
    y = data[:, 2 + 2 * n:]
    return channel, dt, t, trial, x, v, y


def read_dataset_csv(path) -> Dataset:
    channel, dt, t, trial, x, v, y = read_dataset_ticks(path)
    return materialize_ticks(channel, dt, t, trial, x, v, y)


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

def save_model(path, model):
    if isinstance(model, LKVModel):
        doc = {"format": LKV_FORMAT, "K": model.K.tolist(),
               "C": model.C.tolist()}
    elif isinstance(model, IT2PFModel):
        doc = {
            "format": MODEL_FORMAT,
            "channel": model.channel.value,
            "dt": model.dt,
            "epsilon_floor": model.epsilon_floor,
            "tr_config": {"b_lower": model.tr_config.b_lower,
                          "b_upper": model.tr_config.b_upper},
            "norm": {"mean": model.norm.mean.tolist(),
                     "scale": model.norm.scale.tolist()},
            "delta": model.delta,
            "rules": [
                {
                    "centers": prem.centers.tolist(),
                    "sigmas": prem.sigmas.tolist(),
                    "deltas": prem.deltas.tolist(),
                    "degree": cons.degree,
                    "coeffs_M": cons.coeffs_M.tolist(),
                    "coeffs_C": cons.coeffs_C.tolist(),
                    "coeffs_K": cons.coeffs_K.tolist(),
                    "coeffs_f": cons.coeffs_f.tolist(),
                }
                for prem, cons in model.rules
            ],
        }
    else:
        raise FormatError(f"cannot persist model of type {type(model).__name__}")
    atomic_write_text(path, json.dumps(doc, indent=1) + "\n")


def _field(doc, key, path):
    try:
        return doc[key]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"{path}: missing field {key!r}") from exc


def load_model(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: malformed document: {exc}") from exc
    fmt = _field(doc, "format", path)
    if fmt == LKV_FORMAT:
        try:
            return LKVModel(np.array(_field(doc, "K", path), dtype=float),
                            np.array(_field(doc, "C", path), dtype=float))
        except (ValueError, FuzzyModelError) as exc:
            raise FormatError(f"{path}: {exc}") from exc
    if fmt != MODEL_FORMAT:
        raise FormatError(f"{path}: unsupported format {fmt!r} "
                          f"(expected {MODEL_FORMAT})")
    try:
        tr = _field(doc, "tr_config", path)
        norm = _field(doc, "norm", path)
        rules = []
        for r in _field(doc, "rules", path):
            sets = tuple(IT2Gaussian(c, s, d) for c, s, d in
                         zip(_field(r, "centers", path),
                             _field(r, "sigmas", path),
                             _field(r, "deltas", path)))
            cons = PolynomialConsequent(
                int(_field(r, "degree", path)),
                np.array(_field(r, "coeffs_M", path), dtype=float),
                np.array(_field(r, "coeffs_C", path), dtype=float),
                np.array(_field(r, "coeffs_K", path), dtype=float),
                np.array(_field(r, "coeffs_f", path), dtype=float))
            rules.append((RulePremise(sets), cons))
        return IT2PFModel(
            Channel(_field(doc, "channel", path)),
            float(_field(doc, "dt", path)),
            tuple(rules),
            Normalization(np.array(_field(norm, "mean", path), dtype=float),
                          np.array(_field(norm, "scale", path), dtype=float)),
            TypeReductionConfig(float(_field(tr, "b_lower", path)),
                                float(_field(tr, "b_upper", path))),
            float(_field(doc, "epsilon_floor", path)),
        )
    except FormatError:
        raise
    except (ValueError, TypeError, FuzzyModelError) as exc:
        raise FormatError(f"{path}: invalid model content: {exc}") from exc


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PegRunConfig:
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


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    bench_seeds: tuple
    train: TrainConfig = field(default_factory=TrainConfig)
    env: SiliconeEnv = field(default_factory=default_env)
    protocol: PressProtocol = field(default_factory=PressProtocol)
    split: Split = field(default_factory=Split)
    bench_models: tuple = MODEL_NAMES
    curve_fractions: tuple = (0.02, 0.05, 0.10, 0.25, 0.50)
    curve_seeds: int = 5
    peg: PegRunConfig = field(default_factory=PegRunConfig)


def _words(s):
    return s.replace(",", " ").split()


def _parse_floats(s):
    return tuple(float(u) for u in _words(s))


def _parse_ints(s):
    return tuple(int(u) for u in _words(s))


def _parse_bool(s):
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[s.lower()]
    except KeyError:
        raise ConfigError(f"not a boolean: {s!r}") from None


def _parse_bumps(s):
    bumps = []
    for part in s.split(";"):
        part = part.strip()
        if not part:
            continue
        vals = _parse_floats(part)
        if len(vals) != 4:
            raise ConfigError(
                f"bump needs 4 numbers (amp cx cy width): {part!r}")
        bumps.append(GaussianBump(vals[0], (vals[1], vals[2]), vals[3]))
    return tuple(bumps)


def _parse_grid(s):
    vals = _parse_floats(s)
    if len(vals) != 6:
        raise ConfigError("grid needs 6 numbers: nx ny x0 x1 y0 y1")
    return _grid(int(vals[0]), int(vals[1]), *vals[2:])


def _parse_models(s):
    names = tuple(_words(s))
    unknown = sorted(set(names) - set(MODEL_NAMES))
    if unknown:
        raise ConfigError(f"unknown model name(s) {unknown}; "
                          f"expected some of {list(MODEL_NAMES)}")
    return names


def _keys(section, target, parser, *keys):
    return {(section, key): (parser, f"{target}.{key}") for key in keys}


# Every accepted INI key: (section, key) -> (parser, the dotted
# ExperimentConfig fields it sets).  A field that the file does not set keeps
# its dataclass default; the benchmark's split seeds default to the five
# seeds from the master seed on (parse_config).
_CONFIG_KEYS = {
    ("seeds", "master"): (int, "seed train.seed protocol.seed split.seed"),
    **_keys("train", "train", int, "degree", "irls_max_iter",
            "fcm_max_iter", "force_p", "max_rules", "max_cluster_points"),
    **_keys("train", "train", float, "delta", "huber_k", "irls_tol",
            "fcm_fuzzifier", "fcm_tol", "width_floor", "epsilon_floor"),
    **_keys("train", "train", _parse_bool, "drop_weak_rules"),
    **_keys("train", "train.tr_config", float, "b_lower", "b_upper"),
    **_keys("clustering", "train.subtractive", float, "r_a", "r_b",
            "accept_ratio", "reject_ratio"),
    **_keys("env", "env", float, "base_stiffness", "damping", "exponent",
            "surface_height"),
    **_keys("env", "env", _parse_bumps, "bumps"),
    **_keys("protocol", "protocol", int, "trials_per_level"),
    **_keys("protocol", "protocol", float, "dt", "press_duration",
            "hold_duration", "clearance", "position_noise", "force_noise",
            "location_jitter"),
    **_keys("protocol", "protocol", _parse_floats, "depths"),
    **_keys("protocol", "protocol", _parse_grid, "grid"),
    **_keys("split", "split", float, "fraction"),
    ("benchmark", "models"): (_parse_models, "bench_models"),
    ("benchmark", "seeds"): (_parse_ints, "bench_seeds"),
    ("benchmark", "fractions"): (_parse_floats, "curve_fractions"),
    ("benchmark", "curve_seeds"): (int, "curve_seeds"),
    **_keys("peg", "peg", int, "n_demos", "n_episodes", "rp_degree",
            "rp_max_cluster_points", "rp_force_p"),
    **_keys("peg", "peg", float, "tau", "rp_delta", "rp_r_a",
            "rp_width_scale"),
    **_keys("peg", "peg.world", float, "timeout", "grasp_radius",
            "place_radius"),
}
_SECTIONS = {section for section, _ in _CONFIG_KEYS}


def parse_config(path) -> ExperimentConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        if not cp.read(path):
            raise ConfigError(f"cannot read config file {path!r}")
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    values = {}
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, text in cp[section].items():
            if (section, key) not in _CONFIG_KEYS:
                raise ConfigError(
                    f"{path}: unknown key {key!r} in [{section}]")
            parser, targets = _CONFIG_KEYS[section, key]
            try:
                value = parser(text)
            except (ValueError, FuzzyModelError) as exc:
                raise ConfigError(f"{path}: [{section}] {key}: {exc}") from exc
            for target in targets.split():
                _put(values, target, value)
    if "seed" not in values:
        raise ConfigError(f"{path}: [seeds] master is required; "
                          "seeds must be explicit")
    seed = values["seed"]
    values.setdefault("bench_seeds", tuple(range(seed, seed + 5)))
    try:
        return _build(ExperimentConfig, values)
    except (ValueError, FuzzyModelError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _put(values, target, value):
    """Store value at the dotted target, one nested dict per dot."""
    *parents, name = target.split(".")
    for parent in parents:
        values = values.setdefault(parent, {})
    values[name] = value


def _build(factory, values):
    """factory(**values), each nested dict of values built first by the
    default factory of its field; [env] values override default_env()."""
    if factory is default_env:
        return replace(default_env(), **values)
    nested = {f.name: f.default_factory for f in fields(factory)}
    return factory(**{key: _build(nested[key], v) if isinstance(v, dict)
                      else v for key, v in values.items()})


# ---------------------------------------------------------------------------
# Report CSVs
# ---------------------------------------------------------------------------

def benchmark_report_csv(report) -> str:
    lines = ["#it2pf-benchmark-v1"]
    lines.append("model,seed,fraction,trial_id,rmse,mae")
    for r in report.rows:
        lines.append(f"{r['model']},{r['seed']},{_fmt(r['fraction'])},"
                     f"{r['trial_id']},{_fmt(r['rmse'])},{_fmt(r['mae'])}")
    lines.append("#aggregate")
    lines.append("model,seed,fraction,srmse,smae,pooled_rmse,pooled_mae")
    for a in report.aggregates:
        lines.append(f"{a['model']},{a['seed']},{_fmt(a['fraction'])},"
                     f"{_fmt(a['srmse'])},{_fmt(a['smae'])},"
                     f"{_fmt(a['pooled_rmse'])},{_fmt(a['pooled_mae'])}")
    for f in report.failures:
        lines.append(f"#failure,{f['model']},{f['seed']},{f['error']}")
    return "\n".join(lines) + "\n"


def learning_curve_csv(curve) -> str:
    lines = ["#it2pf-learning-curve-v1"]
    lines.append("fraction,seed,rmse,error")
    for c in curve["cells"]:
        val = _fmt(c["rmse"]) if math.isfinite(c["rmse"]) else "nan"
        lines.append(f"{_fmt(c['fraction'])},{c['seed']},{val},{c['error']}")
    lines.append("#summary")
    lines.append("fraction,median_rmse,q25,q75,n_ok")
    for s in curve["summary"]:
        med = _fmt(s["median_rmse"]) if math.isfinite(s["median_rmse"]) \
            else "nan"
        q25 = _fmt(s["q25"]) if math.isfinite(s["q25"]) else "nan"
        q75 = _fmt(s["q75"]) if math.isfinite(s["q75"]) else "nan"
        lines.append(f"{_fmt(s['fraction'])},{med},{q25},{q75},{s['n_ok']}")
    return "\n".join(lines) + "\n"


def episode_report_csv(episodes) -> str:
    """episodes: list of (seed, EpisodeReport)."""
    lines = ["#it2pf-peg-episodes-v1"]
    lines.append("seed,completed,completion_time,handover_error,phase")
    for seed, rep in episodes:
        ct = _fmt(rep.completion_time) if math.isfinite(rep.completion_time) \
            else "nan"
        he = _fmt(rep.handover_error) if math.isfinite(rep.handover_error) \
            else "nan"
        lines.append(f"{seed},{int(rep.completed)},{ct},{he},{rep.phase}")
    return "\n".join(lines) + "\n"


def trace_csv(trace) -> str:
    lines = ["#it2pf-peg-trace-v1"]
    lines.append("t,lx,ly,lz,ltheta,rx,ry,rz,rtheta,bx,by,bz,state,degenerate")
    for k in range(trace["t"].shape[0]):
        row = [_fmt(trace["t"][k])]
        row += [_fmt(u) for u in trace["left_pos"][k]]
        row.append(_fmt(trace["left_theta"][k]))
        row += [_fmt(u) for u in trace["right_pos"][k]]
        row.append(_fmt(trace["right_theta"][k]))
        row += [_fmt(u) for u in trace["block_pos"][k]]
        row.append(str(int(trace["state"][k])))
        row.append(str(int(trace["degenerate"][k])))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
