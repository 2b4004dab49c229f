"""The determinism contract the fitted-learner cache relies on.

Executors fit a learner once per (seed, pre-processor, learner) and share
the fit across post-processing runs, which is only sound if fitting twice
on the same data and seed gives the same model. Every built-in learner is
held to that here, byte for byte, on predictions and scores.
"""

import pytest

from repro.core import (
    AdversarialDebiasingLearner,
    DecisionTree,
    Featurizer,
    KNearestNeighbors,
    LogisticRegression,
    NaiveBayes,
    PrejudiceRemoverLearner,
    ReweighingPreProcessor,
)
from repro.datasets import load_dataset
from repro.learn import StandardScaler

LEARNERS = {
    "lr-tuned": lambda: LogisticRegression(
        tuned=True, param_grid={"penalty": ["l2", "l1"], "alpha": [0.0001, 0.001]}
    ),
    "lr": lambda: LogisticRegression(tuned=False),
    "dt-tuned": lambda: DecisionTree(
        tuned=True, param_grid={"max_depth": [3, 5], "min_samples_leaf": [1, 10]}
    ),
    "dt": lambda: DecisionTree(tuned=False),
    "naive-bayes": NaiveBayes,
    "knn-tuned": lambda: KNearestNeighbors(tuned=True, neighbor_grid=[3, 5]),
    "adversarial-debiasing": AdversarialDebiasingLearner,
    "prejudice-remover": PrejudiceRemoverLearner,
}


@pytest.fixture(scope="module", params=["unweighted", "reweighed"])
def train_data(request):
    frame, spec = load_dataset("germancredit", n=300)
    featurizer = Featurizer(spec, StandardScaler()).fit(frame)
    data = featurizer.transform(frame)
    if request.param == "unweighted":
        return data
    reweighing = ReweighingPreProcessor().fit(
        data, featurizer.privileged_groups, featurizer.unprivileged_groups, 0
    )
    return reweighing.transform_train(data)


@pytest.mark.parametrize("name", sorted(LEARNERS))
def test_refit_on_same_data_and_seed_is_byte_identical(name, train_data):
    factory = LEARNERS[name]
    first = factory().fit_model(train_data, 7)
    second = factory().fit_model(train_data, 7)
    features = train_data.features
    assert first.predict(features).tobytes() == second.predict(features).tobytes()
    scores = first.predict_scores(features)
    assert scores is not None
    assert scores.tobytes() == second.predict_scores(features).tobytes()


def test_same_learner_instance_refits_identically(train_data):
    learner = LEARNERS["lr-tuned"]()
    first = learner.fit_model(train_data, 3)
    params = dict(learner.last_search_.best_params_)
    second = learner.fit_model(train_data, 3)
    assert learner.last_search_.best_params_ == params
    features = train_data.features
    assert first.predict_scores(features).tobytes() == (
        second.predict_scores(features).tobytes()
    )
