"""Interval type-2 polynomial fuzzy modelling toolkit."""

from .core import (BasisConsequent, Channel, Dataset, FiringInterval,
                   FuzzyModelError, InputDomainError, IT2Gaussian, IT2PFModel,
                   Normalization, ParameterError, RulePremise, ShapeError,
                   StructuralError, TrainingError, TypeReductionConfig,
                   eval_membership, firing_interval, materialize_ticks,
                   regressor_matrix, type_reduce)
from .clustering import (ClusterResult, SubtractiveParams, build_premises,
                         fcm_refine, subtractive_cluster)
from .identify import (FitReport, TrainConfig, cluster_rules,
                       robust_fit_rule, train)
from .baselines import LKVModel, fit_lkv, fit_pfmb, fit_tsfmb
from .envsim import (GaussianBump, PressProtocol, SiliconeEnv, contact_force,
                     default_env, generate_benchmark, generate_trial)
from .bench import (BenchmarkReport, Split, learning_curve, mae, rmse,
                    run_benchmark, split_trials)
from .pegsim import (BlockState, DemonstrationError, EpisodeReport,
                     OperatorScript, PegWorld, PegWorldConfig, RPController,
                     build_scripts, record_demonstrations, run_episode)

__version__ = "0.1.0"
