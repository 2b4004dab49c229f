"""Serving demo: train → export to a registry → reload → score → monitor.

Trains the adult-dataset tuned decision-tree pipeline with mode imputation,
publishes the fitted pipeline into a file-backed model registry, reloads it
the way a serving process would, scores the held-out batch through the
frame path and one record through the compiled records path, and prints
the sliding-window fairness metrics (with four-fifths-rule alerting) the
runtime monitor collects along the way.

Run with:  python examples/serving_demo.py
"""

import tempfile

from repro.core import DecisionTree, Experiment, ModeImputer
from repro.datasets import load_dataset
from repro.frame import train_validation_test_masks
from repro.serve import FairnessMonitor, ModelRegistry, ScoringEngine

ADULT_ROWS = 4000  # scaled down so the tuned grid finishes in seconds
SEED = 42


def main() -> None:
    frame, spec = load_dataset("adult", n=ADULT_ROWS)
    print(f"dataset: {spec.name}  rows={frame.num_rows}  "
          f"protected={spec.default_protected}")

    # ---- 1. train the tuned pipeline -------------------------------------
    experiment = Experiment(
        frame=frame,
        spec=spec,
        random_seed=SEED,
        learner=DecisionTree(tuned=True),
        missing_value_handler=ModeImputer(),
    )
    prepared = experiment.prepare()
    trained = experiment.train_candidates(prepared)
    result = experiment.evaluate(prepared, trained)
    print(f"trained: {result.best_candidate.learner}  "
          f"params={result.best_candidate.best_params}")
    print(f"test accuracy (in-process): "
          f"{result.test_metrics['overall__accuracy']:.4f}")

    with tempfile.TemporaryDirectory() as root:
        # ---- 2. export into the registry and tag it production -----------
        registry = ModelRegistry(root)
        record = experiment.export_pipeline(
            prepared, trained, result, registry=registry, tags=["production"]
        )
        print(f"\npublished model {record['model_id']} "
              f"(schema {record['schema_fingerprint']})")

        # ---- 3. reload as a serving process would ------------------------
        pipeline = ModelRegistry(root).load_pipeline("production")
        monitor = FairnessMonitor(
            pipeline.protected_attribute,
            window_size=2000,
            min_observations=50,
        )
        engine = ScoringEngine(pipeline, monitor=monitor)

        # ---- 4. score the held-out batch ---------------------------------
        _, _, test_mask = train_validation_test_masks(
            frame.num_rows, 0.7, 0.1, SEED
        )
        raw_test = frame.mask(test_mask)
        batch = engine.score_frame(raw_test)
        favorable = float((batch.labels == 1.0).mean())
        print(f"\nscored {batch.num_scored} held-out rows; "
              f"favorable rate {favorable:.4f}")
        metrics = engine.evaluate_frame(raw_test)
        assert metrics["overall__accuracy"] == result.test_metrics["overall__accuracy"]
        print("reloaded accuracy matches the in-process run exactly: "
              f"{metrics['overall__accuracy']:.4f}")

        # ---- 5. one record, no frame: the compiled records path ---------
        record_row = {c: raw_test.col(c).values[0] for c in raw_test.columns}
        out = engine.score_record(record_row)
        print(f"\nsingle-record fast path: label={out['label']} "
              f"score={out['score']:.4f} decision={out['decision']!r}")

        # ---- 6. monitored fairness metrics -------------------------------
        print("\nmonitored window (last "
              f"{int(monitor.snapshot()['window'])} records):")
        for name, value in sorted(monitor.snapshot().items()):
            print(f"  {name:32s} {value: .4f}")
        alerts = monitor.check()
        if alerts:
            print("\nALERTS:")
            for alert in alerts:
                print(f"  ! {alert.describe()}")
        else:
            print("\nno fairness alerts in the current window")


if __name__ == "__main__":
    main()
