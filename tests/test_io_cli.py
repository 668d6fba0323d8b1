"""Persistence formats, experiment configuration, and the command line."""

import json

import numpy as np
import pytest

from it2pf.core import Channel, materialize_ticks
from it2pf.baselines import LKVModel, fit_lkv
from it2pf.cli import main
from it2pf.identify import TrainConfig, train
from it2pf.modelio import (
    ConfigError,
    FormatError,
    load_model,
    parse_config,
    read_dataset_csv,
    read_dataset_ticks,
    save_model,
    write_dataset_csv,
)


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

    def test_invalid_value_reported_as_config_error(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[seeds]\nmaster = 0\n[split]\nfraction = 1.5\n")
        with pytest.raises(ConfigError):
            parse_config(str(path))


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
