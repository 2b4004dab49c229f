"""The FairPrep lifecycle: the paper's primary contribution.

Compose an :class:`Experiment` from exchangeable components (resampler,
missing-value handler, scaler, learner, pre/post intervention, model
selector), run it under a fixed seed, and collect the full fairness +
accuracy metric bundle — with test-set isolation enforced by construction.
"""

from .components import (
    Learner,
    MissingValueHandler,
    PostProcessor,
    PreProcessor,
    Resampler,
    component_fingerprint,
    constructor_params,
)
from .distributed import DistributedExecutor
from .executors import (
    EXECUTOR_BACKENDS,
    ExecutionPlan,
    Executor,
    ParallelExecutor,
    SerialExecutor,
    make_executor,
    register_executor,
)
from .experiment import (
    Experiment,
    FeaturizedSplits,
    FittedLearner,
    PreparedData,
    TrainedCandidates,
)
from .featurization import Featurizer
from .interventions import (
    CalibratedEqOddsPostProcessor,
    DIRemover,
    EqOddsPostProcessor,
    NoIntervention,
    RejectOptionPostProcessor,
    ReweighingPreProcessor,
)
from .learners import (
    DECISION_TREE_GRID,
    LOGISTIC_REGRESSION_GRID,
    AdversarialDebiasingLearner,
    DecisionTree,
    KNearestNeighbors,
    LogisticRegression,
    NaiveBayes,
    PrejudiceRemoverLearner,
)
from .missing_values import (
    CompleteCaseAnalysis,
    DatawigImputer,
    LearnedImputer,
    ModeImputer,
    NoMissingValues,
)
from .resamplers import (
    BootstrapResampler,
    ClassBalancingResampler,
    NoResampling,
    StratifiedSampler,
)
from .plan import RunConfig, route_intervention
from .results import CandidateResult, ResultsStore, RunResult, results_to_rows
from .runner import GridSpec, export_best, open_store_dataset, run_grid
from .selection import (
    AccuracySelector,
    BestModelSelector,
    ConstrainedSelector,
    FunctionSelector,
)
from .standard_experiments import (
    AdultExperiment,
    GermanCreditExperiment,
    PaymentOptionGenderExperiment,
    PropublicaExperiment,
    RicciExperiment,
)

__all__ = [
    "AccuracySelector",
    "AdultExperiment",
    "AdversarialDebiasingLearner",
    "BestModelSelector",
    "BootstrapResampler",
    "CalibratedEqOddsPostProcessor",
    "CandidateResult",
    "ClassBalancingResampler",
    "CompleteCaseAnalysis",
    "ConstrainedSelector",
    "DatawigImputer",
    "DECISION_TREE_GRID",
    "DIRemover",
    "DecisionTree",
    "DistributedExecutor",
    "EqOddsPostProcessor",
    "EXECUTOR_BACKENDS",
    "ExecutionPlan",
    "Executor",
    "Experiment",
    "Featurizer",
    "FeaturizedSplits",
    "FittedLearner",
    "FunctionSelector",
    "GermanCreditExperiment",
    "GridSpec",
    "KNearestNeighbors",
    "Learner",
    "LearnedImputer",
    "LOGISTIC_REGRESSION_GRID",
    "LogisticRegression",
    "MissingValueHandler",
    "ModeImputer",
    "NaiveBayes",
    "NoIntervention",
    "NoMissingValues",
    "NoResampling",
    "ParallelExecutor",
    "PaymentOptionGenderExperiment",
    "PostProcessor",
    "PreProcessor",
    "PreparedData",
    "PrejudiceRemoverLearner",
    "PropublicaExperiment",
    "RejectOptionPostProcessor",
    "Resampler",
    "ResultsStore",
    "ReweighingPreProcessor",
    "RicciExperiment",
    "RunConfig",
    "RunResult",
    "SerialExecutor",
    "StratifiedSampler",
    "TrainedCandidates",
    "component_fingerprint",
    "constructor_params",
    "make_executor",
    "open_store_dataset",
    "register_executor",
    "results_to_rows",
    "route_intervention",
    "export_best",
    "run_grid",
]
