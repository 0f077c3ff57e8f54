"""Extension: calibration of the inter-arrival probability estimator.

The function-centric optimizer is only as good as its probabilities;
this bench scores them (Brier skill vs the base rate, reliability bins,
top-band hit rate) on the calibrated trace. Shape: the estimator has
clearly positive skill overall, near-perfect skill on timer functions,
and its reliability bins track the diagonal.
"""

from repro.core.forecast_eval import evaluate_estimator
from repro.experiments.reporting import format_table


def test_estimator_calibration(bench_trace):
    report = evaluate_estimator(bench_trace)
    print()
    print(
        f"Estimator calibration: Brier={report.brier_score:.4f} "
        f"(base rate {report.brier_of_base_rate:.4f}), "
        f"skill={report.skill:.3f}, "
        f"top-band hit rate={report.top_band_hit_rate:.3f}, "
        f"n={report.n_predictions}"
    )
    print(
        format_table(
            [
                {"mean_predicted": mp, "observed_frequency": obs, "n": n}
                for mp, obs, n in report.reliability
            ],
            title="Reliability (predicted-probability bins vs outcomes)",
        )
    )
    assert report.skill > 0.1
    assert report.n_predictions > 1000
    # Large bins must sit near the diagonal.
    for mean_pred, observed, n in report.reliability:
        if n > 200:
            assert abs(mean_pred - observed) < 0.25
