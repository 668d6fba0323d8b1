"""Interval type-2 polynomial fuzzy modelling toolkit."""

from .core import (Channel, Dataset, FiringInterval, FuzzyModelError,
                   InputDomainError, IT2Gaussian, IT2PFModel, Normalization,
                   ParameterError, PolynomialConsequent, RulePremise,
                   ShapeError, StructuralError, TrainingError,
                   TypeReductionConfig, concat_datasets, eval_consequent,
                   eval_membership, firing_interval, materialize_ticks,
                   regressor_matrix, type_reduce)
from .clustering import (ClusterResult, SubtractiveParams, build_premises,
                         fcm_refine, subtractive_cluster)
from .identify import (FitReport, TrainConfig, assemble_regressor,
                       robust_fit_rule, train)
from .baselines import LKVModel, fit_lkv, fit_pfmb, fit_tsfmb, predict_lkv
from .envsim import (GaussianBump, PressProtocol, SiliconeEnv, contact_force,
                     default_env, generate_benchmark, generate_trial)
from .bench import (BenchmarkReport, Split, learning_curve, mae, rmse,
                    run_benchmark, split_trials)
from .pegsim import (BlockState, DemonstrationError, EpisodeReport,
                     OperatorScript, PegWorld, PegWorldConfig, RPController,
                     build_scripts, record_demonstration,
                     record_demonstrations, run_episode)

__version__ = "0.1.0"
