"""Command-line surface tying the pipeline together.

Every command reads an experiment config file; all randomness is derived
from the config's explicit master seed, so repeated runs yield
byte-identical outputs.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .bench import (MODEL_NAMES, fit_named_model, learning_curve, rmse,
                    run_benchmark)
from .clustering import SubtractiveParams
from .core import Channel, FuzzyModelError, InputDomainError, ParameterError, \
    ShapeError, StructuralError, TrainingError
from .envsim import generate_benchmark_ticks
from .identify import train
from .modelio import (ConfigError, FormatError, atomic_write_text,
                      benchmark_report_csv, episode_report_csv,
                      learning_curve_csv, parse_config, read_dataset_csv,
                      load_model, save_model, trace_csv, write_dataset_csv,
                      _fmt)
from .pegsim import (RPController, build_scripts, demonstrations_ticks,
                     run_episode)

_ERROR_CATEGORY = (
    (ConfigError, "config"),
    (FormatError, "format"),
    (TrainingError, "training"),
    (InputDomainError, "input"),
    (ShapeError, "shape"),
    (ParameterError, "parameter"),
    (StructuralError, "structure"),
    (FuzzyModelError, "runtime"),
)


def _rp_train_config(cfg):
    peg = cfg.peg
    return replace(cfg.train, degree=peg.rp_degree, delta=peg.rp_delta,
                   subtractive=SubtractiveParams(r_a=peg.rp_r_a),
                   max_cluster_points=peg.rp_max_cluster_points,
                   force_p=peg.rp_force_p,
                   width_scale=peg.rp_width_scale)


def _cmd_gen_env(args):
    cfg = parse_config(args.config)
    t, tid, X, V, Y = generate_benchmark_ticks(cfg.env, cfg.protocol)
    write_dataset_csv(args.out, Channel.ENVIRONMENT, cfg.protocol.dt, t, tid,
                      X, V, Y)
    print(f"wrote {args.out}: {len(np.unique(tid))} trials, "
          f"{t.shape[0]} ticks")
    return 0


def _cmd_train(args):
    cfg = parse_config(args.config)
    dataset = read_dataset_csv(args.data)
    model = fit_named_model(args.model, dataset, cfg.train)
    save_model(args.out, model)
    pred, _ = model.predict_batch(dataset.x, dataset.v, dataset.v_next)
    training_rmse = rmse(pred, dataset.y)
    print(f"trained {args.model} on {dataset.n_samples} samples; "
          f"training_rmse={_fmt(training_rmse)}")
    if args.report:
        atomic_write_text(
            args.report,
            f"#it2pf-fit-report-v1\ntraining_rmse,{_fmt(training_rmse)}\n")
    return 0


def _cmd_predict(args):
    model = load_model(args.model)
    dataset = read_dataset_csv(args.data)
    pred, _ = model.predict_batch(dataset.x, dataset.v, dataset.v_next)
    lines = ["#it2pf-predictions-v1"]
    lines.append("t,trial_id," + ",".join(f"yhat{i+1}"
                                          for i in range(pred.shape[1])))
    for k in range(pred.shape[0]):
        lines.append(f"{_fmt(dataset.t[k])},{int(dataset.trial_id[k])},"
                     + ",".join(_fmt(u) for u in pred[k]))
    atomic_write_text(args.out, "\n".join(lines) + "\n")
    print(f"rmse={_fmt(rmse(pred, dataset.y))}")
    return 0


def _cmd_benchmark(args):
    cfg = parse_config(args.config)
    dataset = read_dataset_csv(args.data)
    report = run_benchmark(dataset, cfg.bench_models, cfg.split,
                           cfg.bench_seeds, cfg.train)
    atomic_write_text(args.out, benchmark_report_csv(report))
    print(f"wrote {args.out}: {len(report.aggregates)} model-seed cells, "
          f"{len(report.failures)} failures")
    return 0


def _cmd_learning_curve(args):
    cfg = parse_config(args.config)
    dataset = read_dataset_csv(args.data)

    def factory(train_set, seed):
        model, _ = train(train_set, replace(cfg.train, seed=seed))
        return model

    curve = learning_curve(dataset, factory, cfg.curve_fractions,
                           cfg.curve_seeds, seed_base=cfg.seed)
    atomic_write_text(args.out, learning_curve_csv(curve))
    print(f"wrote {args.out}")
    return 0


def _cmd_gen_demo(args):
    cfg = parse_config(args.config)
    world = cfg.peg.world
    mt, ga = demonstrations_ticks(world, cfg.peg.n_demos, cfg.seed)
    write_dataset_csv(args.out_mt, Channel.MOTION, world.dt, *mt)
    write_dataset_csv(args.out_ga, Channel.GESTURE, world.dt, *ga)
    print(f"wrote {args.out_mt} and {args.out_ga}: {cfg.peg.n_demos} demos")
    return 0


def _cmd_train_rp(args):
    cfg = parse_config(args.config)
    rp_cfg = _rp_train_config(cfg)
    mt = read_dataset_csv(args.mt)
    ga = read_dataset_csv(args.ga)
    mt_model, _ = train(mt, rp_cfg)
    ga_model, _ = train(ga, rp_cfg)
    save_model(args.out_mt, mt_model)
    save_model(args.out_ga, ga_model)
    print(f"trained RP models: motion p={mt_model.p}, gripper p={ga_model.p}")
    return 0


def _cmd_run_peg(args):
    cfg = parse_config(args.config)
    world = cfg.peg.world
    controller = RPController(load_model(args.mt_model),
                              load_model(args.ga_model), tau=cfg.peg.tau)
    episodes = []
    for e in range(cfg.peg.n_episodes):
        seed = cfg.seed * 7919 + e
        left, _ = build_scripts(world, seed=seed)
        rep = run_episode(world, left, controller, seed=seed)
        episodes.append((seed, rep))
        if args.trace_dir:
            atomic_write_text(f"{args.trace_dir}/trace_{e:03d}.csv",
                              trace_csv(rep.trace))
    atomic_write_text(args.out, episode_report_csv(episodes))
    n_ok = sum(1 for _, r in episodes if r.completed)
    times = [r.completion_time for _, r in episodes if r.completed]
    mean_t = float(np.mean(times)) if times else float("nan")
    print(f"wrote {args.out}: {n_ok}/{len(episodes)} completed, "
          f"mean completion time {mean_t:.2f} s")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="it2pf",
        description="Interval type-2 polynomial fuzzy modelling toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-env", help="generate the pressing benchmark data")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_env)

    p = sub.add_parser("train", help="train a model on a dataset file")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--model", default="it2pfml", choices=MODEL_NAMES)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="run a saved model over a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("benchmark", help="multi-model comparison report")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_benchmark)

    p = sub.add_parser("learning-curve", help="test error vs training fraction")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_learning_curve)

    p = sub.add_parser("gen-demo", help="record peg-transfer demonstrations")
    p.add_argument("--config", required=True)
    p.add_argument("--out-mt", required=True)
    p.add_argument("--out-ga", required=True)
    p.set_defaults(func=_cmd_gen_demo)

    p = sub.add_parser("train-rp", help="train the Robotic Partner models")
    p.add_argument("--config", required=True)
    p.add_argument("--mt", required=True)
    p.add_argument("--ga", required=True)
    p.add_argument("--out-mt", required=True)
    p.add_argument("--out-ga", required=True)
    p.set_defaults(func=_cmd_train_rp)

    p = sub.add_parser("run-peg", help="evaluate the Robotic Partner")
    p.add_argument("--config", required=True)
    p.add_argument("--mt-model", required=True)
    p.add_argument("--ga-model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace-dir", default=None)
    p.set_defaults(func=_cmd_run_peg)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except FuzzyModelError as exc:
        for cls, category in _ERROR_CATEGORY:
            if isinstance(exc, cls):
                print(f"error:{category}: {exc}", file=sys.stderr)
                return 1
        raise
    except OSError as exc:
        print(f"error:io: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
