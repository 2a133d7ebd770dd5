"""A miniature ML serving system with online GDPR deletion requests.

This example plays through the deployment story of Figure 1 in the paper:
a model is trained once in a (heavyweight) offline pipeline and deployed
behind a request loop. Prediction requests and *deletion requests* then
arrive online; deletions are applied to the deployed model in place, with
latencies in the same ballpark as predictions -- no retraining pipeline
involved.

Deletion requests arrive as *raw* user records (the values a point query
against the user database would return); the serving-side preprocessor
encodes them with the training-time quantile proposals.

    python examples/gdpr_deletion_service.py
"""

from repro import HedgeCutClassifier
from repro.datasets.registry import load_dataset_with_preprocessor, load_raw
from repro.evaluation import train_test_split
from repro.serving import RequestMix, ServingSimulator


def main() -> None:
    # ---- offline training pipeline -------------------------------------
    dataset, preprocessor = load_dataset_with_preprocessor(
        "purchase", n_rows=3000, seed=11
    )
    raw = load_raw("purchase", n_rows=3000, seed=11)
    train, test = train_test_split(dataset, test_fraction=0.2, seed=11)
    model = HedgeCutClassifier(n_trees=15, epsilon=0.001, seed=11)
    model.fit(train)
    print(
        f"deployed a {len(model.trees)}-tree model; "
        f"budget for {model.deletion_budget} online deletions"
    )

    # ---- an online deletion request with raw values ---------------------
    # The user asks to be forgotten. The serving system fetches the user's
    # raw record with a point query and encodes it on the fly. We pick a
    # row from the training portion deterministically here; a real system
    # would lock this to the user id.
    user_row = 5
    raw_values = {name: raw.numeric[name][user_row] for name in raw.numeric}
    raw_values.update(
        {name: raw.categorical[name][user_row] for name in raw.categorical}
    )
    encoded = preprocessor.encode_record(raw_values, label=int(raw.labels[user_row]))
    try:
        report = model.unlearn(encoded)
        print(
            f"online deletion applied: {report.leaves_updated} leaves updated, "
            f"{report.variant_switches} split switches"
        )
    except Exception as error:  # e.g. the row landed in the test split
        print(f"deletion request rejected: {error}")

    # ---- mixed serving workload ----------------------------------------
    pool = [train.record(row) for row in range(model.remaining_deletion_budget)]
    simulator = ServingSimulator.for_model(
        model, test, unlearn_pool=pool, seed=11, record_latencies=True
    )
    report = simulator.run(RequestMix(n_requests=2000, unlearn_fraction=0.001))

    print(
        f"served {report.n_predictions} predictions and "
        f"{report.n_unlearnings} deletions "
        f"at {report.requests_per_second:,.0f} requests/second"
    )
    print(
        "prediction latency:  p50 "
        f"{report.latency_percentile(50):.0f} µs, "
        f"p99 {report.latency_percentile(99):.0f} µs"
    )
    if report.unlearning_latencies_us:
        print(
            "unlearning latency:  p50 "
            f"{report.latency_percentile(50, kind='unlearning'):.0f} µs, "
            f"max {report.latency_percentile(100, kind='unlearning'):.0f} µs"
        )


if __name__ == "__main__":
    main()
