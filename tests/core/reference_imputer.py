"""Frozen copy of ``LearnedImputer.handle_missing`` before its one-pass form.

This version mode-fills every predictor column, encodes every row of the
frame, predicts each modelled target's missing rows, fills targets of the
``"fallback"`` kind, and then mode-fills whatever feature values are
still missing. ``tests/core/test_imputer_golden.py`` compares the live
handler against it frame for frame; never edit it to make them pass.
"""

from repro.learn import nearest_neighbor_indices


def reference_handle_missing(imputer, frame):
    """``imputer.handle_missing(frame)`` as the frozen version computed it,
    read from a fitted ``LearnedImputer``'s state."""
    out = frame
    completed_predictors = imputer._fallback.handle_missing(frame)
    full_matrix = None  # encoded lazily, once, shared by every target
    for target in imputer._targets:
        column = out.col(target)
        mask = column.missing_mask()
        if not mask.any():
            continue
        spec = imputer._models[target]
        if spec["kind"] == "fallback":
            out = out.with_column(
                column.fill_missing(imputer._fallback._fill_values[target])
            )
            continue
        if full_matrix is None:
            full_matrix = imputer._encoder.transform(completed_predictors)
        X = imputer._encoder.submatrix(full_matrix, exclude=target)[mask]
        if spec["kind"] == "classifier":
            predictions = spec["model"].predict(X)
            out = out.with_column(column.set_where(mask, predictions))
        else:
            neighbors = nearest_neighbor_indices(
                spec["train_X"],
                X,
                imputer.n_neighbors,
                train_sq=spec["train_sq"],
            )
            predictions = spec["train_y"][neighbors].mean(axis=1)
            out = out.with_column(column.set_where(mask, predictions))
    # any remaining missing feature values (non-target columns) get the
    # fallback statistics so downstream featurization never sees NaN
    residual = [
        name for name in imputer._feature_columns if out.col(name).has_missing()
    ]
    for name in residual:
        out = out.with_column(
            out.col(name).fill_missing(imputer._fallback._fill_values[name])
        )
    return out
