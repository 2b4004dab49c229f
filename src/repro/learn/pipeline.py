"""Estimator pipeline with ``step__param`` routing for grid search."""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .base import BaseEstimator, clone


class Pipeline(BaseEstimator):
    """Chain of (name, transformer) steps ending in an estimator.

    Transformers are fit in sequence on the training data; downstream data
    flows through the already-fitted transformers — preserving the isolation
    property when the pipeline is applied to validation/test splits.
    """

    def __init__(self, steps: List[Tuple[str, BaseEstimator]]):
        if not steps:
            raise ValueError("pipeline needs at least one step")
        names = [name for name, _ in steps]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate step names: {names}")
        for name in names:
            if "__" in name:
                raise ValueError(f"step name {name!r} must not contain '__'")
        self.steps = steps

    # -- parameter routing ------------------------------------------------
    def get_params(self):
        params = {"steps": self.steps}
        for name, step in self.steps:
            for key, value in step.get_params().items():
                params[f"{name}__{key}"] = value
        return params

    def set_params(self, **params) -> "Pipeline":
        step_map = dict(self.steps)
        for key, value in params.items():
            if key == "steps":
                self.steps = value
                continue
            if "__" not in key:
                raise ValueError(
                    f"pipeline parameters must be 'step__param', got {key!r}"
                )
            step_name, _, param = key.partition("__")
            if step_name not in step_map:
                raise ValueError(
                    f"unknown pipeline step {step_name!r}; steps: {list(step_map)}"
                )
            step_map[step_name].set_params(**{param: value})
        return self

    def _clone(self) -> "Pipeline":
        return Pipeline([(name, clone(step)) for name, step in self.steps])

    # -- fitting / prediction ---------------------------------------------
    @property
    def _final(self) -> BaseEstimator:
        return self.steps[-1][1]

    def fit(self, X, y=None, sample_weight=None) -> "Pipeline":
        data = X
        for _, transformer in self.steps[:-1]:
            data = transformer.fit_transform(data, y)
        if sample_weight is not None:
            self._final.fit(data, y, sample_weight=sample_weight)
        else:
            self._final.fit(data, y)
        return self

    def _transform_upstream(self, X):
        data = X
        for _, transformer in self.steps[:-1]:
            data = transformer.transform(data)
        return data

    def predict(self, X) -> np.ndarray:
        return self._final.predict(self._transform_upstream(X))

    def predict_proba(self, X) -> np.ndarray:
        return self._final.predict_proba(self._transform_upstream(X))

    def decision_function(self, X) -> np.ndarray:
        return self._final.decision_function(self._transform_upstream(X))

    def transform(self, X) -> np.ndarray:
        data = X
        for _, step in self.steps:
            data = step.transform(data)
        return data

    def score(self, X, y, sample_weight=None) -> float:
        return self._final.score(self._transform_upstream(X), y, sample_weight)

    @property
    def classes_(self):
        return self._final.classes_


def make_pipeline(*estimators: BaseEstimator) -> Pipeline:
    """Pipeline with auto-generated step names (lowercased class names)."""
    names = []
    for estimator in estimators:
        base = type(estimator).__name__.lower()
        name = base
        suffix = 1
        while name in names:
            suffix += 1
            name = f"{base}{suffix}"
        names.append(name)
    return Pipeline(list(zip(names, estimators)))
