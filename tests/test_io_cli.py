"""Persistence formats, experiment configuration, and the command line."""

import json

import numpy as np
import pytest

from it2pf.core import Channel, materialize_ticks
from it2pf.baselines import LKVModel, fit_lkv
from it2pf.cli import main
from it2pf.envsim import GaussianBump, default_env
from it2pf.identify import TrainConfig, train
from it2pf.modelio import (
    _CONFIG_KEYS,
    ConfigError,
    FormatError,
    load_model,
    parse_config,
    read_dataset_csv,
    read_dataset_ticks,
    save_model,
    write_dataset_csv,
)
from it2pf.pegsim import PegWorldConfig, record_demonstrations


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
        path.write_text("#it2pf-dataset-v1 channel=env dt=0.01 n=1 m=1\n"
                        "t,trial_id,x1,v1,y1\n0.0,0,oops,0.0,0.0\n")
        with pytest.raises(FormatError):
            read_dataset_ticks(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("#it2pf-dataset-v1 channel=env dt=0.01 n=1 m=1\n"
                        "t,trial_id,x1,v1,y1\n")
        with pytest.raises(FormatError):
            read_dataset_ticks(str(path))


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
        assert loaded.delta == model.delta

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
        assert cfg.train.seed == 3
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
        # the master seed also seeds training, the protocol and the split
        assert cfg.train.seed == cfg.protocol.seed == cfg.split.seed == 7

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
    ("train", "max_rules"): ("8", "train.max_rules", 8),
    ("train", "max_cluster_points"): ("1000", "train.max_cluster_points",
                                      1000),
    ("train", "drop_weak_rules"): ("false", "train.drop_weak_rules", False),
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

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[train]\ndegree = 1\n")
        code = main(["gen-env", "--config", str(bad),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "error:config" in capsys.readouterr().err

    def test_format_error_exit_code(self, tmp_path, small_config, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("#wrong\n")
        code = main(["train", "--config", small_config, "--data", str(bad),
                     "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert "error:format" in capsys.readouterr().err

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
        assert "error:parameter" in capsys.readouterr().err

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
                     "--ga-model", ga_m, "--out", out]) == 0
        text = open(out).read()
        assert text.startswith("#it2pf-peg-episodes-v1")
        assert "completed" in capsys.readouterr().out
