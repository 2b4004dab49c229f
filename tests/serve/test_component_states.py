"""Every registered component's state: pinned bytes, round trips, refusal
to serialize before fit.

``CASES`` fits one instance of every class in ``SERIALIZABLE`` on fixed
seeded inputs. ``STATE_GOLDENS`` holds, per class, the sha256 of that
instance's packed state (``_pack``, then ``json.dumps(sort_keys=True)``)
followed by each hoisted array's dtype, shape and bytes in hoisting order,
so a change to a key, its order, a dtype or a value changes the digest.
They were recorded with NumPy 2.4.6 before the declared state fields
replaced the hand-written ``to_state``/``from_state`` pairs.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core import constructor_params
from repro.core.featurization import ColumnEncoder, Featurizer
from repro.core.interventions import (
    CalibratedEqOddsPostProcessor,
    DIRemover,
    EqOddsPostProcessor,
    NoIntervention,
    RejectOptionPostProcessor,
    ReweighingPreProcessor,
)
from repro.core.learners import _FittedModel
from repro.core.missing_values import (
    CompleteCaseAnalysis,
    DatawigImputer,
    LearnedImputer,
    ModeImputer,
    NoMissingValues,
    _PredictorEncoder,
)
from repro.datasets import load_dataset
from repro.fairness import BinaryLabelDataset
from repro.fairness.postprocessing import (
    CalibratedEqOddsPostprocessing,
    EqOddsPostprocessing,
    RejectOptionClassification,
)
from repro.fairness.preprocessing import DisparateImpactRemover, Reweighing
from repro.frame import Column
from repro.learn import (
    DecisionTreeClassifier,
    FrequencyEncoder,
    GaussianNB,
    KNeighborsClassifier,
    LabelEncoder,
    LogisticRegressionGD,
    MinMaxScaler,
    NoOpScaler,
    OneHotEncoder,
    SGDClassifier,
    SimpleImputer,
    StandardScaler,
    SVDEmbeddingEncoder,
    TargetEncoder,
)
from repro.serialize import SERIALIZABLE
from repro.serve.artifacts import _pack, _unpack

PRIV = [{"sex": 1.0}]
UNPRIV = [{"sex": 0.0}]


# ----------------------------------------------------------------------
# fixed seeded inputs
# ----------------------------------------------------------------------
def numeric(seed=0, n=120):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4)) * [1.0, 3.0, 0.5, 10.0]
    y = (X[:, 0] + 0.3 * X[:, 1] + rng.normal(scale=0.5, size=n) > 0).astype(int)
    return X, y


def categorical(seed=0, n=120):
    rng = np.random.default_rng(seed)
    first = rng.choice(["a", "b", "c", None], size=n, p=[0.4, 0.3, 0.2, 0.1])
    second = rng.choice(["x", "y"], size=n)
    columns = [Column.categorical("first", first), Column.categorical("second", second)]
    y = (rng.random(n) < np.where(second == "x", 0.7, 0.3)).astype(float)
    return columns, y


def biased(seed=0, n=400):
    rng = np.random.default_rng(seed)
    sex = (rng.random(n) < 0.5).astype(np.float64)
    labels = (rng.random(n) < np.where(sex == 1.0, 0.6, 0.3)).astype(np.float64)
    features = np.column_stack(
        [
            rng.normal(labels * 2.0, 1.0),
            rng.normal(sex, 1.0),
            rng.integers(0, 2, n).astype(np.float64),
        ]
    )
    return BinaryLabelDataset(
        features=features,
        labels=labels,
        protected_attributes=sex,
        protected_attribute_names=["sex"],
        feature_names=["signal", "proxy", "flag"],
    )


def predicted(seed=0):
    truth = biased(seed)
    rng = np.random.default_rng(seed + 100)
    noise = rng.uniform(0.0, 0.55, truth.num_instances)
    scores = 0.35 * truth.labels + 0.1 * truth.protected_attributes.ravel() + noise
    labels = (scores > 0.5).astype(np.float64)
    return truth, truth.with_predictions(labels=labels, scores=scores)


def adult():
    return load_dataset("adult", n=400, seed=3)


def germancredit():
    return load_dataset("germancredit", n=200, seed=3)


def _frame_handler(handler):
    frame, spec = adult()
    return handler.fit(frame, spec.feature_columns, 7)


def _post(component):
    truth, prediction = predicted()
    return component.fit(truth, prediction, PRIV, UNPRIV, 7)


def _pre(component):
    return component.fit(biased(), PRIV, UNPRIV, 7)


def _predictor_encoder():
    frame, spec = germancredit()
    numeric, categorical = spec.numeric_features, spec.categorical_features
    return _PredictorEncoder(
        numeric, categorical, StandardScaler(), OneHotEncoder()
    ).fit(frame)


def _featurizer():
    frame, spec = germancredit()
    return Featurizer(spec, numeric_scaler=MinMaxScaler()).fit(frame)


def _fitted_model():
    X, y = numeric(5)
    tree = DecisionTreeClassifier(max_depth=3).fit(X, y.astype(np.float64))
    return _FittedModel(tree, favorable=1.0, unfavorable=0.0)


def _roc():
    truth, prediction = predicted()
    return RejectOptionClassification(
        UNPRIV, PRIV, num_class_thresh=10, num_ROC_margin=5
    ).fit(truth, prediction)


CASES = {
    "StandardScaler": lambda: StandardScaler().fit(numeric()[0]),
    "MinMaxScaler": lambda: MinMaxScaler(feature_range=(-1.0, 2.0)).fit(numeric()[0]),
    "NoOpScaler": lambda: NoOpScaler().fit(numeric()[0]),
    "OneHotEncoder": lambda: OneHotEncoder().fit(categorical()[0]),
    "LabelEncoder": lambda: LabelEncoder().fit(["no", "yes", "maybe", "yes"]),
    "FrequencyEncoder": lambda: FrequencyEncoder().fit(categorical()[0]),
    "TargetEncoder": lambda: TargetEncoder(smoothing=4.0).fit(*categorical()),
    "SVDEmbeddingEncoder": lambda: SVDEmbeddingEncoder(n_components=3).fit(
        categorical()[0]
    ),
    "SimpleImputer": lambda: SimpleImputer(strategy="median").fit(
        np.where(numeric()[0] > 1.5, np.nan, numeric()[0])
    ),
    "GaussianNB": lambda: GaussianNB().fit(*numeric(1)),
    "KNeighborsClassifier": lambda: KNeighborsClassifier(n_neighbors=3).fit(
        *numeric(2, n=30)
    ),
    "SGDClassifier": lambda: SGDClassifier(max_iter=5, random_state=3).fit(*numeric(3)),
    "LogisticRegressionGD": lambda: LogisticRegressionGD(
        max_iter=20, random_state=3
    ).fit(*numeric(4)),
    "DecisionTreeClassifier": lambda: DecisionTreeClassifier(max_depth=4).fit(
        *numeric(5)
    ),
    "Reweighing": lambda: Reweighing(UNPRIV, PRIV).fit(biased()),
    "DisparateImpactRemover": lambda: DisparateImpactRemover(
        repair_level=0.8, sensitive_attribute="sex"
    ).fit(biased()),
    "RejectOptionClassification": _roc,
    "EqOddsPostprocessing": lambda: EqOddsPostprocessing(UNPRIV, PRIV, seed=7).fit(
        *predicted()
    ),
    "CalibratedEqOddsPostprocessing": lambda: CalibratedEqOddsPostprocessing(
        UNPRIV, PRIV, cost_constraint="fnr", seed=7
    ).fit(*predicted()),
    "NoIntervention": lambda: NoIntervention(),
    "ReweighingPreProcessor": lambda: _pre(ReweighingPreProcessor()),
    "DIRemover": lambda: _pre(DIRemover(0.5)),
    "RejectOptionPostProcessor": lambda: _post(
        RejectOptionPostProcessor(num_class_thresh=10, num_ROC_margin=5)
    ),
    "CalibratedEqOddsPostProcessor": lambda: _post(CalibratedEqOddsPostProcessor()),
    "EqOddsPostProcessor": lambda: _post(EqOddsPostProcessor()),
    "CompleteCaseAnalysis": lambda: _frame_handler(CompleteCaseAnalysis()),
    "NoMissingValues": lambda: _frame_handler(NoMissingValues()),
    "ModeImputer": lambda: _frame_handler(ModeImputer()),
    "LearnedImputer": lambda: _frame_handler(LearnedImputer(n_neighbors=5)),
    "DatawigImputer": lambda: _frame_handler(
        DatawigImputer(target_columns=["workclass", "age"], max_depth=4)
    ),
    "_PredictorEncoder": _predictor_encoder,
    "Featurizer": _featurizer,
    "_FittedModel": _fitted_model,
}


STATE_GOLDENS = {
    "CalibratedEqOddsPostProcessor": "d061f1484524ca2553faebeced3ce5831f80093c1e097e9123a51c3207a33e10",
    "CalibratedEqOddsPostprocessing": "6bf00a3e18c224a616371f77cfe27fe804af6033f96b7eef21944731491ca568",
    "CompleteCaseAnalysis": "aa552b7d9607592da72ac0a770aa594f0e548e70fb2afcbf7cd17949db5c864a",
    "DIRemover": "354cf767aa268ffbd69f40cc54cb36424d2597fc97639eddc42518f5f1d31456",
    "DatawigImputer": "232a72567ca5d20e3808ed6cfbe88cc6777fbff9bd0bd9aebc338c5388670de2",
    "DecisionTreeClassifier": "fb620fefb6fddbaf518381937cbb93dc5f57e6636ff62679d1edacc0a5aef04a",
    "DisparateImpactRemover": "ef90d873aee6227602f139a8bd30bdce74d4b56ca92eb82000d9b346d55e7d22",
    "EqOddsPostProcessor": "6155ed7b454ebbcba0958e344ba7a32ad113fb643fb82f3dd7bfc97a996a20eb",
    "EqOddsPostprocessing": "15a6a27b2ee4c7cd43f4db717d6e73256bf57ec7d05db351ecf7ae87e53110fb",
    "Featurizer": "af26d4ddb319493c0ab2acbef1fc8155a529f79fe26698d43d5f4eb8b3aaece3",
    "FrequencyEncoder": "20585da033d8b82b04991f6869c69476cab5dea06f94aa34da834ead1c00d924",
    "GaussianNB": "26caebf598fd1acf4f402462d14597fd865269d1b73aca514d9cef67b083f22f",
    "KNeighborsClassifier": "28a8960cc59dd26225971c2aaae12a5a5b790567ca0c92af66ec3c9ac37afe4a",
    "LabelEncoder": "7734b9136b4524098a6b902505b1c08d7553bfdf480406ea219f44cb837d4d99",
    "LearnedImputer": "2475114a6626834988d413fd70270d5ae855acba7250a68faf8841e195f2cc08",
    "LogisticRegressionGD": "512a5c4652a452204a997f7f0ccb26dfa949c05d77837169840486c4fc0c49ef",
    "MinMaxScaler": "8d21c5c183971bbc19ae753bc2c2336bce6139491592dbd95071a9fcb7deb864",
    "ModeImputer": "0460a61a84011bd944417176b915be491f85c44e685757b4ce8c75a9758b5112",
    "NoIntervention": "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
    "NoMissingValues": "aa552b7d9607592da72ac0a770aa594f0e548e70fb2afcbf7cd17949db5c864a",
    "NoOpScaler": "91344568f5bd6e8a9b1ee63d56c6a0b06f8631ba428b6854deb20fb1ff80fbe3",
    "OneHotEncoder": "fb0ee1f3ea7f978a719559c6d84b67484208aa2ec0cded64ba3b54542858f364",
    "RejectOptionClassification": "d0ccf892c2bc62a46202a802d87d54d140a02a281952eb2177c9a13692ebb613",
    "RejectOptionPostProcessor": "3070d2cd7a991f65dbb47d1611aeb669d748877c730b6d39a0a595d6bcb1c8c0",
    "Reweighing": "e3b8d12dded174485e95415840b3aaa3b09c6ff3fdd0cf00308eaf9cfa56a289",
    "ReweighingPreProcessor": "f773b367fced36169bd7570fb4e5847f5afaf9f0d84cf7bccbc0467e125ead5b",
    "SGDClassifier": "7edfd5daa62c526aa6c26d89cbadd97835c2087e2b19d960a58aaeaef8ba2767",
    "SVDEmbeddingEncoder": "e4060c28da70012b4089f0be800157118a1ff62fa4ccd29288beb4e43133c8e4",
    "SimpleImputer": "4908d4ed794ab231fa58c6c6b3412ba87dfc1962e3f651e5f0797abe5c496010",
    "StandardScaler": "ffe2d5155e3a589c8e8c8c9f43174d9e3fc82787071b9d9868c2740f1c37690b",
    "TargetEncoder": "f8fd3de692eb85ac16b8222bcd5b863bb192a92b7a2cf52a38e68c2fe8586e6d",
    "_FittedModel": "bc2f3899a270820da772714c45befedadb66cbdb487e7fa7524da9a6fd45a4f4",
    "_PredictorEncoder": "c32859cba692b811280214e237294e30342da96513d1541011067b598dc25a9f",
}


def state_digest(component) -> str:
    arrays = {}
    packed = _pack(component.to_state(), arrays)
    digest = hashlib.sha256(json.dumps(packed, sort_keys=True).encode())
    for key, array in arrays.items():
        digest.update(f"{key}:{array.dtype.str}:{array.shape}".encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def through_json(component):
    """Rebuild a component from its state as an artifact load sees it:
    packed, written as JSON, read back and unpacked."""
    arrays = {}
    packed = json.loads(json.dumps(_pack(component.to_state(), arrays)))
    return type(component).from_state(_unpack(packed, arrays))


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    return request.param, CASES[request.param]()


def test_every_registered_class_has_a_case():
    assert sorted(SERIALIZABLE) == sorted(CASES)


def test_every_case_has_a_golden():
    assert sorted(STATE_GOLDENS) == sorted(CASES)


def test_state_matches_golden(case):
    name, component = case
    assert state_digest(component) == STATE_GOLDENS[name]


def test_round_trip_packs_to_the_same_state(case):
    _, component = case
    assert state_digest(through_json(component)) == state_digest(component)


# constructor arguments that are unfitted encoder templates: the fitted
# state carries the encoder fit from them, which does not name the template
# (a Featurizer's default None stands for a configured OneHotEncoder); a
# fitted scaler comes back as its template, an unfitted clone of it
_TEMPLATES = {
    "Featurizer": {"categorical_encoder"},
    "_PredictorEncoder": {"encoder"},
}


def test_round_trip_keeps_constructor_params(case):
    name, component = case
    restored = through_json(component)
    skip = _TEMPLATES.get(name, set())
    # components compare by class and parameters (their repr), as their
    # fingerprints do
    expected = {k: repr(v) for k, v in constructor_params(component).items() if k not in skip}
    actual = {k: repr(v) for k, v in constructor_params(restored).items() if k not in skip}
    assert actual == expected
    if hasattr(component, "get_params"):
        assert restored.get_params() == component.get_params()


def test_minmax_feature_range_comes_back_a_tuple():
    restored = through_json(CASES["MinMaxScaler"]())
    assert restored.get_params() == {"feature_range": (-1.0, 2.0)}
    assert isinstance(restored.feature_range, tuple)


# an unfitted instance of every class whose state comes from a fit
UNFITTED = {
    "StandardScaler": StandardScaler,
    "MinMaxScaler": MinMaxScaler,
    "NoOpScaler": NoOpScaler,
    "OneHotEncoder": OneHotEncoder,
    "LabelEncoder": LabelEncoder,
    "FrequencyEncoder": FrequencyEncoder,
    "TargetEncoder": TargetEncoder,
    "SVDEmbeddingEncoder": SVDEmbeddingEncoder,
    "SimpleImputer": SimpleImputer,
    "GaussianNB": GaussianNB,
    "KNeighborsClassifier": KNeighborsClassifier,
    "SGDClassifier": SGDClassifier,
    "LogisticRegressionGD": LogisticRegressionGD,
    "DecisionTreeClassifier": DecisionTreeClassifier,
    "Reweighing": lambda: Reweighing(UNPRIV, PRIV),
    "DisparateImpactRemover": DisparateImpactRemover,
    "RejectOptionClassification": lambda: RejectOptionClassification(UNPRIV, PRIV),
    "EqOddsPostprocessing": lambda: EqOddsPostprocessing(UNPRIV, PRIV),
    "CalibratedEqOddsPostprocessing": lambda: CalibratedEqOddsPostprocessing(
        UNPRIV, PRIV
    ),
    "ReweighingPreProcessor": ReweighingPreProcessor,
    "DIRemover": DIRemover,
    "RejectOptionPostProcessor": RejectOptionPostProcessor,
    "CalibratedEqOddsPostProcessor": CalibratedEqOddsPostProcessor,
    "EqOddsPostProcessor": EqOddsPostProcessor,
    "CompleteCaseAnalysis": CompleteCaseAnalysis,
    "NoMissingValues": NoMissingValues,
    "ModeImputer": ModeImputer,
    "LearnedImputer": LearnedImputer,
    "DatawigImputer": DatawigImputer,
    "_PredictorEncoder": lambda: _PredictorEncoder(
        ["a"], ["b"], StandardScaler(), OneHotEncoder()
    ),
    "Featurizer": lambda: Featurizer(germancredit()[1]),
    "_FittedModel": lambda: _FittedModel(DecisionTreeClassifier(), 1.0, 0.0),
}


def test_every_class_but_the_identity_needs_a_fit():
    assert sorted(set(SERIALIZABLE) - set(UNFITTED)) == ["NoIntervention"]


@pytest.mark.parametrize("name", sorted(UNFITTED))
def test_unfitted_state_raises(name):
    with pytest.raises(RuntimeError):
        UNFITTED[name]().to_state()


def test_column_encoder_without_columns_needs_no_fit():
    assert ColumnEncoder([], [], None, None).to_state()["scaler_"] is None
