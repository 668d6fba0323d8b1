"""Persistence and configuration: CSV dataset files, structured-text model
files, report tables, and the experiment configuration format.

All formats are decimal text with a leading format-version field.  Every
CSV file and report is written by one table writer (_table).  Floats are
serialized with Python's shortest round-trip repr, so read(write(x)) is
bit-exact.  File writes are atomic (write temp, then rename).
"""
from __future__ import annotations

import configparser
import json
import os
import tempfile
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .baselines import LKVModel
from .bench import MODEL_NAMES, Split
from .core import (BasisConsequent, Channel, Dataset, FuzzyModelError,
                   IT2Gaussian, IT2PFModel, Normalization, RulePremise,
                   TypeReductionConfig, _tick_arrays, basis_size,
                   consequent_basis, materialize_ticks, regressor_matrix)
from .envsim import (GaussianBump, PressProtocol, SiliconeEnv, _grid,
                     default_env)
from .identify import TrainConfig
from .pegsim import PegRunConfig

DATASET_FORMAT = "it2pf-dataset-v1"
MODEL_FORMAT = "it2pf-model-v2"
MODEL_FORMAT_V1 = "it2pf-model-v1"  # read only: the paper's M, C, K, f
LKV_FORMAT = "it2pf-lkv-v1"


class FormatError(FuzzyModelError):
    """Malformed or wrong-version persisted file."""


class ConfigError(FuzzyModelError):
    """Invalid experiment configuration."""


def _fmt(x) -> str:
    return repr(float(x))


def _cell(u) -> str:
    """One table cell: text as is, an int or a bool as an integer, any other
    number as a float by _fmt (so nan, inf and -inf are spelled by repr)."""
    if isinstance(u, float):  # first, as most cells are floats
        return _fmt(u)
    if isinstance(u, str):
        return u
    if isinstance(u, (int, np.integer, np.bool_)):
        return str(int(u))
    return _fmt(u)


def _table(first, columns, rows) -> str:
    """Text of one table: the first line, the column line (none when there
    are no columns), then one line of comma-separated cells per row.  A row
    is a sequence of cells, or a dict whose cells are taken in column order,
    so a table of dicts takes its column line and its rows from one list."""
    lines = [first]
    if columns:
        lines.append(",".join(columns))
    for row in rows:
        if isinstance(row, dict):
            row = [row[c] for c in columns]
        lines.append(",".join(map(_cell, row)))
    return "\n".join(lines) + "\n"


def _joined_rows(*blocks):
    """Rows of cells from column blocks of one length each: a 1-D block
    gives one cell per row, a 2-D block one cell per column."""
    blocks = [np.column_stack((b,)) for b in blocks]
    for k in range(blocks[0].shape[0]):
        yield sum((b[k].tolist() for b in blocks), [])


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
    t, trial_id, x, v, y = _tick_arrays(t, trial_id, x, v, y)
    n, m = x.shape[1], y.shape[1]
    columns = (["t", "trial_id"] + [f"x{i+1}" for i in range(n)]
               + [f"v{i+1}" for i in range(n)] + [f"y{i+1}" for i in range(m)])
    atomic_write_text(path, _table(
        f"#{DATASET_FORMAT} channel={channel.value} dt={_fmt(dt)} n={n} m={m}",
        columns, _joined_rows(t, trial_id, x, v, y)))


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
        if n < 1 or m < 1:
            raise FormatError(f"{path}: header needs n >= 1 and m >= 1")
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
                row = [float(u) for u in parts]
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
            if not row[1].is_integer():
                raise FormatError(f"{path}:{lineno}: trial_id {parts[1]!r} "
                                  "is not an integer")
            rows.append(row)
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
            "rules": [
                {
                    "centers": prem.centers.tolist(),
                    "sigmas": prem.sigmas.tolist(),
                    "deltas": prem.deltas.tolist(),
                    "degree": cons.degree,
                    "beta": cons.beta.tolist(),
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


def _v1_theta(rule, degree, norm, path):
    """A v1 rule's coeffs_M/C/K (m, n, B) and coeffs_f (m, B), checked
    against the degree and the n of z's normalization norm, as theta (R, m)
    in regressor_matrix's layout."""
    n = len(norm.mean) // 3
    M, C, K, f = (np.array(_field(rule, key, path), dtype=float) for key in
                  ("coeffs_M", "coeffs_C", "coeffs_K", "coeffs_f"))
    m, B = (len(f) if f.ndim else 0), basis_size(3 * n, degree)
    if f.shape != (m, B) or any(a.shape != (m, n, B) for a in (M, C, K)):
        raise FormatError(f"{path}: v1 coefficients must have shapes "
                          f"(m, {n}, {B}) and (m, {B}) at degree {degree}")
    return np.hstack([a.reshape(m, -1) for a in (M, C, K, f)]).T


def _v1_betas(thetas, norm, dt, degree):
    """beta = T theta of v1 rules' thetas, one (q, m) block each.  T is the
    regressor regressed on Phi at fixed points, exactly as it lies in Phi's
    span; at degree 0 it is I."""
    theta = np.hstack(thetas)
    if degree > 0:
        n3 = norm.mean.shape[0]
        Zn = np.random.default_rng(0).standard_normal(
            (2 * basis_size(n3, degree + 1), n3))
        rows = (Zn, *np.split(Zn * norm.scale + norm.mean, 3, axis=1), dt,
                degree)
        T = np.linalg.lstsq(consequent_basis(*rows), regressor_matrix(*rows),
                            rcond=None)[0]
        theta = T @ theta
    return np.split(theta, len(thetas), axis=1)


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
    if fmt not in (MODEL_FORMAT, MODEL_FORMAT_V1):
        raise FormatError(f"{path}: unsupported format {fmt!r} "
                          f"(expected {MODEL_FORMAT})")
    try:
        tr = _field(doc, "tr_config", path)
        norm = _field(doc, "norm", path)
        norm = Normalization(
            np.array(_field(norm, "mean", path), dtype=float),
            np.array(_field(norm, "scale", path), dtype=float))
        dt = float(_field(doc, "dt", path))
        premises, degrees, coeffs = [], [], []
        for r in _field(doc, "rules", path):
            premises.append(RulePremise(tuple(
                IT2Gaussian(c, s, d) for c, s, d in
                zip(_field(r, "centers", path), _field(r, "sigmas", path),
                    _field(r, "deltas", path)))))
            degrees.append(int(_field(r, "degree", path)))
            coeffs.append(_field(r, "beta", path) if fmt == MODEL_FORMAT
                          else _v1_theta(r, degrees[-1], norm, path))
        if fmt == MODEL_FORMAT_V1 and coeffs:  # all rules' thetas to beta
            coeffs = _v1_betas(coeffs, norm, dt, degrees[0])
        return IT2PFModel(
            Channel(_field(doc, "channel", path)), dt,
            tuple((prem, BasisConsequent(degree, beta)) for prem, degree, beta
                  in zip(premises, degrees, coeffs)),
            norm,
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
    words = s.replace(",", " ").split()
    if not words:
        raise ConfigError("needs at least one value")
    return words


def _parse_floats(s):
    return tuple(float(u) for u in _words(s))


def _parse_seed(s):
    seed = int(s)
    if seed < 0:
        raise ConfigError(f"seeds must be >= 0, got {seed}")
    return seed


def _parse_seeds(s):
    return tuple(_parse_seed(u) for u in _words(s))


def _parse_count(s):
    count = int(s)
    if count < 1:
        raise ConfigError(f"must be >= 1, got {count}")
    return count


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
    ("seeds", "master"): (_parse_seed, "seed protocol.seed split.seed"),
    **_keys("train", "train", int, "degree", "irls_max_iter",
            "fcm_max_iter", "force_p", "max_cluster_points"),
    **_keys("train", "train", float, "delta", "huber_k", "irls_tol",
            "fcm_fuzzifier", "fcm_tol", "width_floor", "epsilon_floor"),
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
    ("benchmark", "seeds"): (_parse_seeds, "bench_seeds"),
    ("benchmark", "fractions"): (_parse_floats, "curve_fractions"),
    ("benchmark", "curve_seeds"): (_parse_count, "curve_seeds"),
    **_keys("peg", "peg", _parse_count, "n_episodes"),
    **_keys("peg", "peg", int, "n_demos", "rp_degree",
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
    failures = [("#failure", f["model"], f["seed"], f["error"])
                for f in report.failures]
    return (_table("#it2pf-benchmark-v1",
                   ("model", "seed", "fraction", "trial_id", "rmse", "mae"),
                   report.rows)
            + _table("#aggregate",
                     ("model", "seed", "fraction", "srmse", "smae",
                      "pooled_rmse", "pooled_mae"),
                     report.aggregates + failures))


def learning_curve_csv(curve) -> str:
    return (_table("#it2pf-learning-curve-v1",
                   ("fraction", "seed", "rmse", "error"), curve["cells"])
            + _table("#summary",
                     ("fraction", "median_rmse", "q25", "q75", "n_ok"),
                     curve["summary"]))


def episode_report_csv(episodes) -> str:
    """episodes: list of (seed, EpisodeReport)."""
    return _table("#it2pf-peg-episodes-v1",
                  ("seed", "completed", "completion_time", "handover_error",
                   "phase"),
                  ({"seed": seed, **vars(rep)} for seed, rep in episodes))


def trace_csv(trace) -> str:
    return _table("#it2pf-peg-trace-v1",
                  ("t", "lx", "ly", "lz", "ltheta", "rx", "ry", "rz", "rtheta",
                   "bx", "by", "bz", "state", "degenerate"),
                  _joined_rows(*(trace[key] for key in (
                      "t", "left_pos", "left_theta", "right_pos",
                      "right_theta", "block_pos", "state", "degenerate"))))


def predictions_csv(t, trial_id, pred) -> str:
    """A model's predictions pred (N, m) over the dataset rows (t, trial_id)."""
    return _table("#it2pf-predictions-v1",
                  ["t", "trial_id"] + [f"yhat{i+1}"
                                       for i in range(pred.shape[1])],
                  _joined_rows(t, trial_id, pred))


def fit_report_csv(training_rmse, fit=None) -> str:
    """train --report: the training RMSE, then what the fuzzy fit did, from
    its FitReport fit; those cells are empty for lkv, which has none."""
    counts = [""] * 7 if fit is None else [
        len(fit.rule_iterations), fit.dropped_rules, fit.degenerate_samples,
        fit.fcm_iterations, fit.fcm_converged, sum(fit.irls_capped),
        sum(fit.svd_steps)]
    return _table("#it2pf-fit-report-v2", (), zip(
        ("training_rmse", "rules_kept", "rules_dropped", "degenerate_samples",
         "fcm_iterations", "fcm_converged", "irls_capped_rules", "svd_steps"),
        [training_rmse] + counts))
