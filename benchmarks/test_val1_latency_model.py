"""Validation V1 — the analytic tail-latency model vs queueing ground truth.

DESIGN.md §2 claims the closed-form ``t0 / (1 - knee * rho)`` latency
model is a faithful stand-in for a real server's queueing behaviour.
This benchmark measures p99 latency from the discrete-event queue across
a utilization sweep, fits the closed form to the measurements, and
prints both curves side by side.

Shape to confirm: both curves are monotone and convex in utilization;
the fitted knee lands in the (0.5, 1.05) range bracketing the analytic
default (0.85); the hyperbola tracks the measurements within tens of
percent across the sweep — the fidelity class the controllers need.
"""

from repro.analysis import format_table
from repro.sim.queueing import calibrate_knee, p99_curve

RHOS = [0.2, 0.4, 0.6, 0.75, 0.85, 0.92]


def measure_and_fit():
    curve = p99_curve(
        service_rate_total=100.0, rhos=RHOS, num_requests=30_000, seed=7,
    )
    t0, knee = calibrate_knee(curve)
    return curve, t0, knee


def test_val1_latency_model(benchmark, emit):
    curve, t0, knee = benchmark.pedantic(measure_and_fit, rounds=1, iterations=1)

    rows = [
        [rho, measured * 1000.0, t0 / (1.0 - knee * rho) * 1000.0]
        for rho, measured in curve
    ]
    emit("val1_latency_model", format_table(
        ["utilization", "measured p99 (ms)", "fitted hyperbola (ms)"],
        rows, precision=2,
        title=f"V1 — queue-measured p99 vs t0/(1-knee*rho) "
              f"(fitted knee {knee:.2f}, analytic default 0.85)",
    ))

    measured = [p for _, p in curve]
    assert measured == sorted(measured)
    increments = [b - a for a, b in zip(measured, measured[1:])]
    assert increments == sorted(increments)  # convex blow-up
    assert 0.5 < knee < 1.05
    for rho, p in curve:
        predicted = t0 / (1.0 - knee * rho)
        assert abs(predicted - p) / p < 0.5
