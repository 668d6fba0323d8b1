"""Persistence formats, experiment configuration, and the command line."""

import json
import os
import warnings

import numpy as np
import pytest

from it2pf import identify
from it2pf.clustering import SubtractiveParams
from it2pf.core import Channel, materialize_ticks
from it2pf.baselines import LKVModel, fit_lkv
from it2pf.bench import BenchmarkReport
from it2pf.cli import main
from it2pf.envsim import GaussianBump, default_env
from it2pf.identify import TrainConfig, train
from it2pf.modelio import (
    _CONFIG_KEYS,
    ConfigError,
    FormatError,
    benchmark_report_csv,
    episode_report_csv,
    learning_curve_csv,
    load_model,
    parse_config,
    read_dataset_csv,
    read_dataset_ticks,
    save_model,
    trace_csv,
    write_dataset_csv,
)
from it2pf.pegsim import EpisodeReport, PegWorldConfig, record_demonstrations

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def _linear_ticks(n_trials=6, n_ticks=40, seed=0):
    rng = np.random.default_rng(seed)
    t, tid, X, V, Y = [], [], [], [], []
    for j in range(n_trials):
        amp = rng.uniform(0.5, 1.5)
        phase = rng.uniform(0, np.pi)
        for k in range(n_ticks):
            tk = k * 0.01
            x = amp * np.sin(2 * np.pi * tk + phase)
            v = amp * 2 * np.pi * np.cos(2 * np.pi * tk + phase)
            t.append(tk), tid.append(j)
            X.append([x]), V.append([v]), Y.append([3.0 * x + 2.0 * v])
    return (np.array(t), np.array(tid), np.array(X), np.array(V),
            np.array(Y))


class TestDatasetCSV:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        path = str(tmp_path / "d.csv")
        t, tid, X, V, Y = _linear_ticks()
        # perturb with awkward floats that need full repr precision
        X = X * (1.0 / 3.0)
        write_dataset_csv(path, Channel.ENVIRONMENT, 0.01, t, tid, X, V, Y)
        ch, dt, t2, tid2, X2, V2, Y2 = read_dataset_ticks(path)
        assert ch is Channel.ENVIRONMENT and dt == 0.01
        assert np.array_equal(t, t2) and np.array_equal(tid, tid2)
        assert np.array_equal(X, X2)
        assert np.array_equal(V, V2)
        assert np.array_equal(Y, Y2)

    def test_read_materializes_training_pairs(self, tmp_path):
        path = str(tmp_path / "d.csv")
        ticks = _linear_ticks()
        write_dataset_csv(path, Channel.ENVIRONMENT, 0.01, *ticks)
        ds = read_dataset_csv(path)
        ref = materialize_ticks(Channel.ENVIRONMENT, 0.01, *ticks)
        assert np.array_equal(ds.x, ref.x)
        assert np.array_equal(ds.v_next, ref.v_next)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("#other-format v=1\nt,trial_id,x1,v1,y1\n")
        with pytest.raises(FormatError):
            read_dataset_ticks(str(path))

    def test_short_row_rejected(self, tmp_path):
        path = str(tmp_path / "d.csv")
        write_dataset_csv(path, Channel.ENVIRONMENT, 0.01, *_linear_ticks())
        text = open(path).read().rstrip("\n")
        truncated = text.rsplit(",", 1)[0] + "\n"
        (tmp_path / "trunc.csv").write_text(truncated)
        with pytest.raises(FormatError):
            read_dataset_ticks(str(tmp_path / "trunc.csv"))

    def test_non_numeric_field_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("#it2pf-dataset-v1 channel=e dt=0.01 n=1 m=1\n"
                        "t,trial_id,x1,v1,y1\n0.0,0,oops,0.0,0.0\n")
        with pytest.raises(FormatError, match=":3: could not convert .*oops"):
            read_dataset_ticks(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("#it2pf-dataset-v1 channel=e dt=0.01 n=1 m=1\n"
                        "t,trial_id,x1,v1,y1\n")
        with pytest.raises(FormatError, match="no data rows"):
            read_dataset_ticks(str(path))

    @pytest.mark.parametrize("trial_id", ["0.5", "1.7", "nan"])
    def test_non_integer_trial_id_rejected(self, tmp_path, trial_id):
        path = tmp_path / "d.csv"
        path.write_text("#it2pf-dataset-v1 channel=e dt=0.01 n=1 m=1\n"
                        "t,trial_id,x1,v1,y1\n0.0,0,0.0,0.0,0.0\n"
                        f"0.01,{trial_id},0.0,0.0,0.0\n")
        with pytest.raises(FormatError,
                           match=f":4: trial_id '{trial_id}' is not an integer"):
            read_dataset_ticks(str(path))


    @pytest.mark.parametrize("n,m", [(0, 1), (-1, 1), (1, 0)])
    def test_header_without_x_or_y_columns_rejected(self, tmp_path,
                                                   small_config, capsys,
                                                   n, m):
        path = tmp_path / "d.csv"
        path.write_text(f"#it2pf-dataset-v1 channel=e dt=0.01 n={n} m={m}\n"
                        "t,trial_id,x1,v1\n0.0,0,0.0,0.0\n0.01,0,0.0,0.0\n")
        with pytest.raises(FormatError, match="n >= 1 and m >= 1"):
            read_dataset_ticks(str(path))
        for model in ("it2pfml", "lkv"):
            assert main(["train", "--config", small_config, "--data",
                         str(path), "--out", str(tmp_path / "m.json"),
                         "--model", model]) == 1
            assert "error:format" in capsys.readouterr().err


class TestModelIO:
    def _trained(self):
        ds = materialize_ticks(Channel.ENVIRONMENT, 0.01, *_linear_ticks())
        model, _ = train(ds, TrainConfig(degree=1, delta=0.2, force_p=4))
        return ds, model

    def test_fuzzy_model_roundtrip_preserves_predictions(self, tmp_path):
        ds, model = self._trained()
        path = str(tmp_path / "m.json")
        save_model(path, model)
        loaded = load_model(path)
        p1, d1 = model.predict_batch(ds.x, ds.v, ds.v_next)
        p2, d2 = loaded.predict_batch(ds.x, ds.v, ds.v_next)
        assert np.max(np.abs(p1 - p2)) <= 1e-15
        assert np.array_equal(d1, d2)
        assert loaded.channel is model.channel
        assert all(np.array_equal(a.deltas, b.deltas)
                   for (a, _), (b, _) in zip(loaded.rules, model.rules))

    def test_v2_file_is_byte_stable(self, tmp_path):
        _, model = self._trained()
        paths = [str(tmp_path / f"m{k}.json") for k in range(2)]
        save_model(paths[0], model)
        save_model(paths[1], load_model(paths[0]))
        with open(paths[0]) as fh0, open(paths[1]) as fh1:
            first, second = fh0.read(), fh1.read()
        assert first == second
        doc = json.loads(first)
        assert doc["format"] == "it2pf-model-v2" and "delta" not in doc
        # n = 1, degree 1: beta has 10 rows for the 16 of [M, C, K, f]
        assert [np.shape(r["beta"]) for r in doc["rules"]] == \
            [(10, 1)] * model.p

    @pytest.mark.parametrize("degree,q,p", [(0, 10, 3), (1, 55, 5)])
    def test_v1_files_still_load(self, tmp_path, degree, q, p):
        # each file was written by the v1 writer (commit 04bf6c2) from a 5 %
        # pressing split, next to that release's predictions at 40 held-out
        # rows; v1 holds the paper's M, C, K, f, read here into beta
        path = os.path.join(DATA, f"press_v1_degree{degree}")
        with open(path + "_predictions.json") as fh:
            ref = json.load(fh)
        rows = [np.array(ref[key]) for key in ("x", "v", "v_next")]
        model = load_model(path + ".json")
        Y, degen = model.predict_batch(*rows)
        assert model._theta.shape == (q, p) and not degen.any()
        assert np.max(np.abs(Y - ref["y"])) <= \
            1e-12 * np.max(np.abs(ref["y"]))
        if degree == 0:  # beta is theta
            assert np.array_equal(Y, ref["y"])
        save_model(str(tmp_path / "v2.json"), model)
        Y2, _ = load_model(str(tmp_path / "v2.json")).predict_batch(*rows)
        assert np.array_equal(Y2, Y)

    @pytest.mark.parametrize("key,cut", [
        ("coeffs_M", (slice(None), slice(None), slice(1, None))),
        ("coeffs_C", (slice(1, None),)),
        ("coeffs_f", (slice(None), slice(1, None)))],
        ids=["M-basis", "C-outputs", "f-basis"])
    def test_mis_shaped_v1_coefficients_rejected(self, tmp_path, key, cut):
        # one coefficient array of a v1 golden's first rule loses a basis
        # column or an output row
        with open(os.path.join(DATA, "press_v1_degree1.json")) as fh:
            doc = json.load(fh)
        rule = doc["rules"][0]
        rule[key] = np.array(rule[key])[cut].tolist()
        path = tmp_path / "bad_v1.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="v1 coefficients"):
            load_model(str(path))

    def test_lkv_roundtrip(self, tmp_path):
        ds = materialize_ticks(Channel.ENVIRONMENT, 0.01, *_linear_ticks())
        model = fit_lkv(ds)
        path = str(tmp_path / "lkv.json")
        save_model(path, model)
        loaded = load_model(path)
        assert isinstance(loaded, LKVModel)
        assert np.array_equal(loaded.K, model.K)
        assert np.array_equal(loaded.C, model.C)

    def test_unsupported_object_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            save_model(str(tmp_path / "x.json"), {"not": "a model"})

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{ not json")
        with pytest.raises(FormatError):
            load_model(str(path))

    def test_unknown_format_version_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"format": "it2pf-model-v999"}))
        with pytest.raises(FormatError):
            load_model(str(path))

    def test_missing_field_rejected(self, tmp_path):
        ds, model = self._trained()
        path = str(tmp_path / "m.json")
        save_model(path, model)
        doc = json.load(open(path))
        del doc["rules"][0]["sigmas"]
        (tmp_path / "broken.json").write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            load_model(str(tmp_path / "broken.json"))


class TestConfig:
    def test_minimal_config_uses_defaults(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[seeds]\nmaster = 3\n")
        cfg = parse_config(str(path))
        assert cfg.seed == 3
        assert cfg.split.fraction == 0.10
        assert cfg.bench_seeds == (3, 4, 5, 6, 7)
        assert cfg.curve_fractions == (0.02, 0.05, 0.10, 0.25, 0.50)
        assert cfg.peg.rp_degree == 0
        assert cfg.peg.rp_force_p == 30
        assert cfg.peg.n_demos == 5 and cfg.peg.n_episodes == 20

    def test_overrides(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[seeds]\nmaster = 0\n"
            "[train]\ndegree = 0\ndelta = 0.05\nforce_p = 3\n"
            "[protocol]\ntrials_per_level = 2\n"
            "[benchmark]\nmodels = lkv tsfmb\nseeds = 7 8\n"
            "[peg]\nn_demos = 2\nrp_width_scale = 1.5\n")
        cfg = parse_config(str(path))
        assert cfg.train.degree == 0 and cfg.train.delta == 0.05
        assert cfg.train.force_p == 3
        assert cfg.protocol.trials_per_level == 2
        assert cfg.bench_models == ("lkv", "tsfmb")
        assert cfg.bench_seeds == (7, 8)
        assert cfg.peg.n_demos == 2
        assert cfg.peg.rp_width_scale == 1.5

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[seeds]\nmaster = 0\n[train]\ndegreee = 2\n")
        with pytest.raises(ConfigError):
            parse_config(str(path))

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[seeds]\nmaster = 0\n[surprise]\nx = 1\n")
        with pytest.raises(ConfigError):
            parse_config(str(path))

    def test_master_seed_required(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[train]\ndegree = 1\n")
        with pytest.raises(ConfigError):
            parse_config(str(path))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(str(tmp_path / "nope.ini"))

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("master = 0\n")
        with pytest.raises(ConfigError):
            parse_config(str(path))

    def test_invalid_value_reported_as_config_error(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[seeds]\nmaster = 0\n[split]\nfraction = 1.5\n")
        with pytest.raises(ConfigError):
            parse_config(str(path))

    def test_env_key_overrides_default_env(self, tmp_path):
        plain = tmp_path / "plain.ini"
        plain.write_text("[seeds]\nmaster = 0\n")
        damped = tmp_path / "damped.ini"
        damped.write_text("[seeds]\nmaster = 0\n[env]\ndamping = 5.0\n")
        assert parse_config(str(damped)) == parse_config(str(plain))
        assert parse_config(str(plain)).env == default_env()

    def test_unknown_model_name_rejected(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[seeds]\nmaster = 0\n"
                        "[benchmark]\nmodels = lkv itpfml\n")
        with pytest.raises(ConfigError, match="itpfml"):
            parse_config(str(path))

    def test_every_key_reaches_its_field(self, tmp_path):
        lines, section = [], None
        for (sec, key), (text, _, _) in EVERY_KEY.items():
            if sec != section:
                lines.append(f"[{sec}]")
                section = sec
            lines.append(f"{key} = {text}")
        path = tmp_path / "exp.ini"
        path.write_text("\n".join(lines) + "\n")
        cfg = parse_config(str(path))
        minimal = tmp_path / "min.ini"
        minimal.write_text("[seeds]\nmaster = 0\n")
        default = parse_config(str(minimal))
        for (sec, key), (_, target, want) in EVERY_KEY.items():
            got, was = cfg, default
            for name in target.split("."):
                got, was = getattr(got, name), getattr(was, name)
            assert got == want and type(got) is type(want), (sec, key)
            assert was != want, (sec, key)
        # the master seed also seeds the protocol and the split
        assert cfg.protocol.seed == cfg.split.seed == 7

    def test_accepted_keys_are_pinned(self):
        assert set(_CONFIG_KEYS) == set(EVERY_KEY)


# Every accepted INI key: (section, key) -> (text, field, parsed value),
# each value different from the default.
EVERY_KEY = {
    ("seeds", "master"): ("7", "seed", 7),
    ("train", "degree"): ("0", "train.degree", 0),
    ("train", "delta"): ("0.15", "train.delta", 0.15),
    ("train", "huber_k"): ("2.0", "train.huber_k", 2.0),
    ("train", "irls_max_iter"): ("40", "train.irls_max_iter", 40),
    ("train", "irls_tol"): ("1e-7", "train.irls_tol", 1e-7),
    ("train", "fcm_fuzzifier"): ("1.5", "train.fcm_fuzzifier", 1.5),
    ("train", "fcm_tol"): ("1e-5", "train.fcm_tol", 1e-5),
    ("train", "fcm_max_iter"): ("150", "train.fcm_max_iter", 150),
    ("train", "width_floor"): ("0.002", "train.width_floor", 0.002),
    ("train", "b_lower"): ("0.3", "train.tr_config.b_lower", 0.3),
    ("train", "b_upper"): ("0.7", "train.tr_config.b_upper", 0.7),
    ("train", "epsilon_floor"): ("1e-10", "train.epsilon_floor", 1e-10),
    ("train", "force_p"): ("6", "train.force_p", 6),
    ("train", "max_cluster_points"): ("1000", "train.max_cluster_points",
                                      1000),
    ("clustering", "r_a"): ("0.4", "train.subtractive.r_a", 0.4),
    ("clustering", "r_b"): ("0.7", "train.subtractive.r_b", 0.7),
    ("clustering", "accept_ratio"): ("0.6", "train.subtractive.accept_ratio",
                                     0.6),
    ("clustering", "reject_ratio"): ("0.2", "train.subtractive.reject_ratio",
                                     0.2),
    ("env", "base_stiffness"): ("900", "env.base_stiffness", 900.0),
    ("env", "damping"): ("7.5", "env.damping", 7.5),
    ("env", "exponent"): ("1.25", "env.exponent", 1.25),
    ("env", "surface_height"): ("0.001", "env.surface_height", 0.001),
    ("env", "bumps"): ("100 0.1 0.1 0.05; -50 0.05 0.15 0.03", "env.bumps",
                       (GaussianBump(100.0, (0.1, 0.1), 0.05),
                        GaussianBump(-50.0, (0.05, 0.15), 0.03))),
    ("protocol", "depths"): ("0.001 0.004", "protocol.depths", (0.001, 0.004)),
    ("protocol", "trials_per_level"): ("3", "protocol.trials_per_level", 3),
    ("protocol", "dt"): ("0.02", "protocol.dt", 0.02),
    ("protocol", "press_duration"): ("0.4", "protocol.press_duration", 0.4),
    ("protocol", "hold_duration"): ("0.2", "protocol.hold_duration", 0.2),
    ("protocol", "clearance"): ("0.004", "protocol.clearance", 0.004),
    ("protocol", "position_noise"): ("2e-4", "protocol.position_noise", 2e-4),
    ("protocol", "force_noise"): ("0.1", "protocol.force_noise", 0.1),
    ("protocol", "location_jitter"): ("0.001", "protocol.location_jitter",
                                      0.001),
    ("protocol", "grid"): ("3 2 0.0 0.1 0.0 0.1", "protocol.grid",
                           ((0.0, 0.0), (0.05, 0.0), (0.1, 0.0),
                            (0.0, 0.1), (0.05, 0.1), (0.1, 0.1))),
    ("split", "fraction"): ("0.3", "split.fraction", 0.3),
    ("benchmark", "models"): ("lkv, pfmb", "bench_models", ("lkv", "pfmb")),
    ("benchmark", "seeds"): ("11 12", "bench_seeds", (11, 12)),
    ("benchmark", "fractions"): ("0.1 0.3", "curve_fractions", (0.1, 0.3)),
    ("benchmark", "curve_seeds"): ("3", "curve_seeds", 3),
    ("peg", "n_demos"): ("3", "peg.n_demos", 3),
    ("peg", "n_episodes"): ("4", "peg.n_episodes", 4),
    ("peg", "tau"): ("0.05", "peg.tau", 0.05),
    ("peg", "rp_degree"): ("1", "peg.rp_degree", 1),
    ("peg", "rp_delta"): ("0.15", "peg.rp_delta", 0.15),
    ("peg", "rp_r_a"): ("0.3", "peg.rp_r_a", 0.3),
    ("peg", "rp_max_cluster_points"): ("1200", "peg.rp_max_cluster_points",
                                       1200),
    ("peg", "rp_force_p"): ("20", "peg.rp_force_p", 20),
    ("peg", "rp_width_scale"): ("1.5", "peg.rp_width_scale", 1.5),
    ("peg", "timeout"): ("25", "peg.world.timeout", 25.0),
    ("peg", "grasp_radius"): ("0.004", "peg.world.grasp_radius", 0.004),
    ("peg", "place_radius"): ("0.02", "peg.world.place_radius", 0.02),
}


class TestTableGoldens:
    """Each table format against its literal text: floats in shortest
    round-trip form, nan spelled "nan", flags and trial ids as integers."""

    def test_dataset(self, tmp_path):
        path = tmp_path / "d.csv"
        write_dataset_csv(str(path), Channel.MOTION, 0.01,
                          [0.0, 0.01, 0.02], [3, 3, 4],
                          [[0.1, -2.0], [1 / 3, 0.0], [1e-20, 5.0]],
                          [[0.0, 1.0], [0.5, -0.25], [2.0, 3.0]],
                          [[1.5], [float("nan")], [-7.0]])
        assert path.read_text() == (
            "#it2pf-dataset-v1 channel=h_mt dt=0.01 n=2 m=1\n"
            "t,trial_id,x1,x2,v1,v2,y1\n"
            "0.0,3,0.1,-2.0,0.0,1.0,1.5\n"
            "0.01,3,0.3333333333333333,0.0,0.5,-0.25,nan\n"
            "0.02,4,1e-20,5.0,2.0,3.0,-7.0\n")

    def test_benchmark_report(self):
        report = BenchmarkReport(
            rows=[{"model": "lkv", "seed": 2, "fraction": 0.1,
                   "trial_id": 17, "rmse": 0.25, "mae": float("nan")}],
            aggregates=[{"model": "lkv", "seed": 2, "fraction": 0.1,
                         "srmse": 0.25, "smae": float("nan"),
                         "pooled_rmse": 1 / 3, "pooled_mae": 1e-5}],
            failures=[{"model": "it2pfml", "seed": 2,
                       "error": "rule 0: too few samples"}])
        assert benchmark_report_csv(report) == (
            "#it2pf-benchmark-v1\n"
            "model,seed,fraction,trial_id,rmse,mae\n"
            "lkv,2,0.1,17,0.25,nan\n"
            "#aggregate\n"
            "model,seed,fraction,srmse,smae,pooled_rmse,pooled_mae\n"
            "lkv,2,0.1,0.25,nan,0.3333333333333333,1e-05\n"
            "#failure,it2pfml,2,rule 0: too few samples\n")

    def test_learning_curve(self):
        nan = float("nan")
        curve = {
            "cells": [{"fraction": 0.02, "seed": 0, "rmse": nan,
                       "error": "rule 1: no samples"},
                      {"fraction": 0.5, "seed": 0, "rmse": 0.0557,
                       "error": ""}],
            "summary": [{"fraction": 0.02, "median_rmse": nan, "q25": nan,
                         "q75": nan, "n_ok": 0},
                        {"fraction": 0.5, "median_rmse": 0.0557,
                         "q25": 0.05, "q75": 0.0625, "n_ok": 1}]}
        assert learning_curve_csv(curve) == (
            "#it2pf-learning-curve-v1\n"
            "fraction,seed,rmse,error\n"
            "0.02,0,nan,rule 1: no samples\n"
            "0.5,0,0.0557,\n"
            "#summary\n"
            "fraction,median_rmse,q25,q75,n_ok\n"
            "0.02,nan,nan,nan,0\n"
            "0.5,0.0557,0.05,0.0625,1\n")

    def test_episode_report(self):
        nan = float("nan")
        episodes = [(7919, EpisodeReport(True, 13.399999999999759, 0.0005,
                                         "done")),
                    (7920, EpisodeReport(False, nan, nan, "place"))]
        assert episode_report_csv(episodes) == (
            "#it2pf-peg-episodes-v1\n"
            "seed,completed,completion_time,handover_error,phase\n"
            "7919,1,13.399999999999759,0.0005,done\n"
            "7920,0,nan,nan,place\n")

    def test_trace(self):
        trace = {"t": np.array([0.01, 0.02]),
                 "left_pos": np.array([[-0.06, 0.0, 0.06], [0.1, 0.2, 0.3]]),
                 "left_theta": np.array([1.0, 0.5]),
                 "right_pos": np.array([[0.18, 0.06, 0.06], [1 / 3, 0, 1]]),
                 "right_theta": np.array([1.0471975511965976, 0.0]),
                 "block_pos": np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.5]]),
                 "state": np.array([0, 3]),
                 "degenerate": np.array([False, True])}
        assert trace_csv(trace) == (
            "#it2pf-peg-trace-v1\n"
            "t,lx,ly,lz,ltheta,rx,ry,rz,rtheta,bx,by,bz,state,degenerate\n"
            "0.01,-0.06,0.0,0.06,1.0,0.18,0.06,0.06,1.0471975511965976,"
            "0.0,0.0,0.0,0,0\n"
            "0.02,0.1,0.2,0.3,0.5,0.3333333333333333,0.0,1.0,0.0,"
            "0.0,0.0,2.5,3,1\n")

    # two ticks of trial 0 and one of trial 2 keep a successor on read
    GOLDEN_DATA = ("#it2pf-dataset-v1 channel=e dt=0.01 n=1 m=1\n"
                   "t,trial_id,x1,v1,y1\n"
                   "0.0,0,0.25,1.0,0.0\n"
                   "0.01,0,-1.5,0.5,0.0\n"
                   "0.02,0,9.0,9.0,0.0\n"
                   "0.5,2,0.1,0.2,0.0\n"
                   "0.51,2,9.0,9.0,0.0\n")

    def test_predictions(self, tmp_path):
        data, model = tmp_path / "d.csv", tmp_path / "lkv.json"
        data.write_text(self.GOLDEN_DATA)
        model.write_text(json.dumps({"format": "it2pf-lkv-v1",
                                     "K": [[2.0]], "C": [[0.5]]}))
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model), "--data", str(data),
                     "--out", str(out)]) == 0
        assert out.read_text() == ("#it2pf-predictions-v1\n"
                                   "t,trial_id,yhat1\n"
                                   "0.0,0,1.0\n"
                                   "0.01,0,-2.75\n"
                                   "0.5,2,0.30000000000000004\n")

    def test_fit_report(self, tmp_path):
        data, ini = tmp_path / "d.csv", tmp_path / "exp.ini"
        data.write_text(self.GOLDEN_DATA)
        ini.write_text("[seeds]\nmaster = 0\n")
        report = tmp_path / "fit.csv"
        # y = 0 is fitted exactly by K = C = 0
        assert main(["train", "--config", str(ini), "--data", str(data),
                     "--out", str(tmp_path / "m.json"), "--model", "lkv",
                     "--report", str(report)]) == 0
        assert report.read_text() == ("#it2pf-fit-report-v2\n"
                                      "training_rmse,0.0\n"
                                      "rules_kept,\n"
                                      "rules_dropped,\n"
                                      "degenerate_samples,\n"
                                      "fcm_iterations,\n"
                                      "fcm_converged,\n"
                                      "irls_capped_rules,\n"
                                      "svd_steps,\n")


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(
        "[seeds]\nmaster = 0\n"
        "[train]\ndegree = 1\ndelta = 0.2\nforce_p = 3\n"
        "[protocol]\ntrials_per_level = 4\ngrid = 2 2 0.04 0.16 0.04 0.16\n"
        "[split]\nfraction = 0.5\n"
        "[benchmark]\nmodels = lkv tsfmb\nseeds = 0 1\n")
    return str(path)


class TestCLI:
    def test_gen_train_predict_pipeline(self, tmp_path, small_config, capsys):
        data = str(tmp_path / "env.csv")
        assert main(["gen-env", "--config", small_config, "--out", data]) == 0
        model = str(tmp_path / "model.json")
        report = str(tmp_path / "fit.txt")
        assert main(["train", "--config", small_config, "--data", data,
                     "--out", model, "--model", "it2pfml",
                     "--report", report]) == 0
        pred = str(tmp_path / "pred.csv")
        assert main(["predict", "--model", model, "--data", data,
                     "--out", pred]) == 0
        out = capsys.readouterr().out
        assert "rmse=" in out

        # the stored fit report matches a fresh evaluation of the saved model
        stored = float(open(report).read().splitlines()[1].split(",")[1])
        ds = read_dataset_csv(data)
        loaded = load_model(model)
        p, _ = loaded.predict_batch(ds.x, ds.v, ds.v_next)
        fresh = float(np.sqrt(np.mean(np.sum((p - ds.y) ** 2, axis=1))))
        assert abs(stored - fresh) <= 1e-9 * max(1.0, abs(fresh))

    def test_non_finite_predictions_are_an_input_error(self, tmp_path,
                                                      small_config, capsys):
        model, data = str(tmp_path / "model.json"), str(tmp_path / "d.csv")
        t, tid, X, V, Y = _linear_ticks()
        write_dataset_csv(data, Channel.ENVIRONMENT, 0.01, t, tid, X, V, Y)
        assert main(["train", "--config", small_config, "--data", data,
                     "--out", model]) == 0
        X[[3, 50, 90, 130, 170], 0] = 1e200
        write_dataset_csv(data, Channel.ENVIRONMENT, 0.01, t, tid, X, V, Y)
        pred = tmp_path / "pred.csv"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")    # no RuntimeWarning escapes
            code = main(["predict", "--model", model, "--data", data,
                         "--out", str(pred)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error:input: 5 of 234 rows")
        assert not pred.exists()

    def test_fit_report_of_a_fuzzy_fit(self, tmp_path, small_config):
        data, report = str(tmp_path / "env.csv"), tmp_path / "fit.txt"
        assert main(["gen-env", "--config", small_config, "--out", data]) == 0
        assert main(["train", "--config", small_config, "--data", data,
                     "--out", str(tmp_path / "m.json"), "--model", "it2pfml",
                     "--report", str(report)]) == 0
        model, fit = train(read_dataset_csv(data),
                           parse_config(small_config).train)
        rows = dict(line.split(",")
                    for line in report.read_text().splitlines()[1:])
        assert {key: value for key, value in rows.items()
                if key != "training_rmse"} == {
            "rules_kept": str(model.p),
            "rules_dropped": str(fit.dropped_rules),
            "degenerate_samples": str(fit.degenerate_samples),
            "fcm_iterations": str(fit.fcm_iterations),
            "fcm_converged": str(int(fit.fcm_converged)),
            "irls_capped_rules": str(sum(fit.irls_capped)),
            "svd_steps": str(sum(fit.svd_steps))}
        assert float(rows["training_rmse"]) == pytest.approx(
            fit.training_rmse, rel=1e-12)

    def test_benchmark_runs_are_byte_identical(self, tmp_path, small_config):
        data = str(tmp_path / "env.csv")
        main(["gen-env", "--config", small_config, "--out", data])
        out1 = str(tmp_path / "bench1.csv")
        out2 = str(tmp_path / "bench2.csv")
        assert main(["benchmark", "--config", small_config, "--data", data,
                     "--out", out1]) == 0
        assert main(["benchmark", "--config", small_config, "--data", data,
                     "--out", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_learning_curve_output_is_pinned(self, tmp_path):
        # the golden was written by the learning curve's own fit loop
        # (commit 6e5aeac); its 0.1 cells train on 80 samples for 100
        # coefficients and fail
        ini = tmp_path / "curve.ini"
        ini.write_text(
            "[seeds]\nmaster = 0\n"
            "[train]\ndegree = 1\ndelta = 0.2\nforce_p = 2\n"
            "[protocol]\ntrials_per_level = 2\n"
            "grid = 2 2 0.04 0.16 0.04 0.16\n"
            "press_duration = 0.3\nhold_duration = 0.2\n"
            "[benchmark]\nfractions = 0.1 0.35 0.67\ncurve_seeds = 3\n")
        data, out = str(tmp_path / "env.csv"), tmp_path / "curve.csv"
        assert main(["gen-env", "--config", str(ini), "--out", data]) == 0
        assert main(["learning-curve", "--config", str(ini), "--data", data,
                     "--out", str(out)]) == 0
        with open(os.path.join(DATA, "learning_curve_v1.csv"), "rb") as fh:
            assert out.read_bytes() == fh.read()

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[train]\ndegree = 1\n")
        code = main(["gen-env", "--config", str(bad),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "error:config" in capsys.readouterr().err

    @pytest.mark.parametrize("command,section", [
        ("gen-env", "[seeds]\nmaster = -2\n"),
        ("benchmark", "[seeds]\nmaster = 0\n[benchmark]\nseeds = 0 -1\n"),
        ("gen-env", "[seeds]\nmaster = 0\n"
                    "[protocol]\ngrid = 0 2 0.02 0.18 0.02 0.18\n"),
        ("gen-env", "[seeds]\nmaster = 0\n[protocol]\ndepths =\n"),
    ], ids=["negative-master-seed", "negative-benchmark-seed", "empty-grid",
            "no-depths"])
    def test_bad_seed_or_protocol_is_a_config_error(
            self, tmp_path, small_config, capsys, command, section):
        bad = tmp_path / "bad.ini"
        bad.write_text(section)
        args = ["--config", str(bad), "--out", str(tmp_path / "out.csv")]
        if command == "benchmark":
            data = str(tmp_path / "env.csv")
            main(["gen-env", "--config", small_config, "--out", data])
            args += ["--data", data]
        assert main([command] + args) == 1
        assert "error:config" in capsys.readouterr().err

    @pytest.mark.parametrize("command,section", [
        ("benchmark", "[benchmark]\nseeds =\n"),
        ("benchmark", "[benchmark]\nmodels =\n"),
        ("learning-curve", "[benchmark]\nfractions =\n"),
        ("learning-curve", "[benchmark]\ncurve_seeds = 0\n"),
        ("learning-curve", "[benchmark]\ncurve_seeds = -2\n"),
        ("run-peg", "[peg]\nn_episodes = 0\n"),
        ("train", "[train]\nmax_rules = 3\n"),
        ("train", "[train]\ndrop_weak_rules = false\n"),
    ], ids=["no-benchmark-seeds", "no-models", "no-fractions", "zero-curve-seeds",
            "negative-curve-seeds", "no-episodes", "max-rules-key",
            "drop-weak-rules-key"])
    def test_empty_run_or_removed_key_is_a_config_error(
            self, tmp_path, capsys, command, section):
        # the config is read first, so no data or model file is needed
        bad = tmp_path / "bad.ini"
        bad.write_text("[seeds]\nmaster = 0\n" + section)
        out = tmp_path / "out.csv"
        args = [command, "--config", str(bad), "--out", str(out)]
        if command == "run-peg":
            args += ["--mt-model", "mt.json", "--ga-model", "ga.json"]
        else:
            args += ["--data", "env.csv"]
        assert main(args) == 1
        assert "error:config" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [
        "max_cluster_points = -1", "irls_max_iter = -3", "fcm_max_iter = -1",
        "width_floor = -1", "epsilon_floor = 0", "force_p = 0"])
    def test_bad_train_value_is_a_config_error(self, tmp_path, capsys,
                                               value):
        # rejected when the config is read, before any data file
        bad = tmp_path / "bad.ini"
        bad.write_text("[seeds]\nmaster = 0\n[train]\n" + value + "\n")
        out = tmp_path / "m.json"
        assert main(["train", "--config", str(bad), "--data", "env.csv",
                     "--out", str(out)]) == 1
        assert "error:config" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-demo", "train-rp"])
    @pytest.mark.parametrize("value", [
        "rp_max_cluster_points = -1", "rp_force_p = 0", "rp_delta = 2",
        "rp_delta = 1", "rp_r_a = 0", "rp_degree = -1", "rp_width_scale = 0",
        "n_demos = 0", "tau = 0.005"])
    def test_bad_peg_value_is_a_config_error(self, tmp_path, capsys, command,
                                             value):
        # rejected when the config is read, before any data file
        bad = tmp_path / "bad.ini"
        bad.write_text("[seeds]\nmaster = 0\n[peg]\n" + value + "\n")
        outs = [tmp_path / "mt.out", tmp_path / "ga.out"]
        args = [command, "--config", str(bad), "--out-mt", str(outs[0]),
                "--out-ga", str(outs[1])]
        if command == "train-rp":
            args += ["--mt", "mt.csv", "--ga", "ga.csv"]
        assert main(args) == 1
        assert "error:config" in capsys.readouterr().err
        assert not any(out.exists() for out in outs)

    def test_format_error_exit_code(self, tmp_path, small_config, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("#wrong\n")
        code = main(["train", "--config", small_config, "--data", str(bad),
                     "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert "error:format" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", ["interleaved", "t-not-increasing",
                                       "spacing"])
    def test_faulty_tick_records_are_a_structure_error(
            self, tmp_path, small_config, capsys, fault):
        t, tid, X, V, Y = _linear_ticks()
        if fault == "interleaved":    # trial 0's last ticks after trial 1's
            order = np.r_[0:20, 40:80, 20:40, 80:t.size]
            t, tid, X, V, Y = t[order], tid[order], X[order], V[order], \
                Y[order]
        elif fault == "t-not-increasing":
            t[[5, 6]] = t[[6, 5]]
        else:
            t = np.where(tid == 2, 1.5 * t, t)
        data = str(tmp_path / "bad.csv")
        write_dataset_csv(data, Channel.ENVIRONMENT, 0.01, t, tid, X, V, Y)
        code = main(["train", "--config", small_config, "--data", data,
                     "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert "error:structure" in capsys.readouterr().err

    def test_fcm_fault_exit_code(self, tmp_path, small_config, capsys,
                                 monkeypatch):
        # doubled memberships from the second FCM iteration on make its
        # objective rise, as a numerical fault would
        from it2pf import clustering
        real, calls = clustering._memberships_from_d2, []

        def faulty(d2, expo):
            calls.append(None)
            return real(d2, expo) * (1.0 if len(calls) == 1 else 2.0)

        data = str(tmp_path / "env.csv")
        main(["gen-env", "--config", small_config, "--out", data])
        monkeypatch.setattr(clustering, "_memberships_from_d2", faulty)
        code = main(["train", "--config", small_config, "--data", data,
                     "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert "error:training" in capsys.readouterr().err

    def test_unknown_model_name_exit_code(self, tmp_path, small_config,
                                          capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text(open(small_config).read().replace(
            "models = lkv tsfmb", "models = lkv itpfml"))
        data = str(tmp_path / "env.csv")
        main(["gen-env", "--config", small_config, "--out", data])
        out = tmp_path / "report.csv"
        code = main(["benchmark", "--config", str(bad), "--data", data,
                     "--out", str(out)])
        assert code == 1
        assert "error:config" in capsys.readouterr().err
        assert not out.exists()

    def test_gen_demo_writes_the_recorded_demonstrations(self, tmp_path):
        cfg_path = tmp_path / "peg.ini"
        cfg_path.write_text("[seeds]\nmaster = 3\n[peg]\nn_demos = 2\n")
        mt, ga = str(tmp_path / "mt.csv"), str(tmp_path / "ga.csv")
        assert main(["gen-demo", "--config", str(cfg_path), "--out-mt", mt,
                     "--out-ga", ga]) == 0
        recorded = record_demonstrations(PegWorldConfig(), 2, seed=3)
        for path, want in zip((mt, ga), recorded):
            got = read_dataset_csv(path)
            assert got.channel is want.channel
            for name in ("x", "v", "v_next", "y", "trial_id", "t"):
                assert np.array_equal(getattr(got, name),
                                      getattr(want, name)), name

    def test_gen_demo_without_demos_is_an_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "peg.ini"
        cfg_path.write_text("[seeds]\nmaster = 0\n[peg]\nn_demos = 0\n")
        code = main(["gen-demo", "--config", str(cfg_path),
                     "--out-mt", str(tmp_path / "mt.csv"),
                     "--out-ga", str(tmp_path / "ga.csv")])
        assert code == 1
        assert "error:config" in capsys.readouterr().err

    def test_train_rp_keeps_the_clustering_keys(self, tmp_path,
                                                monkeypatch):
        cfg_path = tmp_path / "peg.ini"
        cfg_path.write_text("[seeds]\nmaster = 0\n[peg]\nn_demos = 2\n"
                            "[clustering]\nr_b = 0.9\naccept_ratio = 0.6\n"
                            "reject_ratio = 0.2\n")
        cfg = str(cfg_path)
        mt, ga = str(tmp_path / "mt.csv"), str(tmp_path / "ga.csv")
        assert main(["gen-demo", "--config", cfg, "--out-mt", mt,
                     "--out-ga", ga]) == 0
        real, seen = identify.subtractive_cluster, []

        def recorded(points, params):
            seen.append(params)
            return real(points, params)

        monkeypatch.setattr(identify, "subtractive_cluster", recorded)
        assert main(["train-rp", "--config", cfg, "--mt", mt, "--ga", ga,
                     "--out-mt", str(tmp_path / "mt.json"),
                     "--out-ga", str(tmp_path / "ga.json")]) == 0
        # the partner's r_a, and the file's r_b and ratios, for both models
        assert seen == [SubtractiveParams(0.35, 0.9, 0.6, 0.2)] * 2

    def test_peg_pipeline_smoke(self, tmp_path, capsys):
        cfg_path = tmp_path / "peg.ini"
        cfg_path.write_text("[seeds]\nmaster = 0\n"
                            "[peg]\nn_demos = 2\nn_episodes = 2\n")
        cfg = str(cfg_path)
        mt = str(tmp_path / "mt.csv")
        ga = str(tmp_path / "ga.csv")
        assert main(["gen-demo", "--config", cfg, "--out-mt", mt,
                     "--out-ga", ga]) == 0
        mt_m = str(tmp_path / "mt.json")
        ga_m = str(tmp_path / "ga.json")
        assert main(["train-rp", "--config", cfg, "--mt", mt, "--ga", ga,
                     "--out-mt", mt_m, "--out-ga", ga_m]) == 0
        out = str(tmp_path / "episodes.csv")
        assert main(["run-peg", "--config", cfg, "--mt-model", mt_m,
                     "--ga-model", ga_m, "--out", out,
                     "--trace-dir", str(tmp_path)]) == 0
        text = open(out).read()
        assert text.startswith("#it2pf-peg-episodes-v1")
        assert "completed" in capsys.readouterr().out
        # episode 0's trace, bit for bit as commit 5ce339a wrote it
        golden = os.path.join(DATA, "run_peg_trace_master0_ep0.csv")
        with open(golden, "rb") as fh:
            assert (tmp_path / "trace_000.csv").read_bytes() == fh.read()
