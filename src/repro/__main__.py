"""Command-line interface: regenerate paper artifacts from the terminal.

Usage::

    python -m repro list                  # what can be regenerated
    python -m repro placement             # Fig 14's assignment (fast)
    python -m repro preferences           # Figs 9-11 table
    python -m repro fit                   # Fig 8 goodness-of-fit table
    python -m repro motivation            # Figs 1-4 tables
    python -m repro evaluate              # Figs 12-13 (takes ~1 min)
    python -m repro tco                   # Fig 15 (takes ~1 min)
    python -m repro validate              # fit diagnostics, all apps
    python -m repro admission             # admission boundaries
    python -m repro run                   # one crash-safe policy sweep
    python -m repro guard                 # guarded sweep / chaos campaign

All commands accept ``--seed`` (default 7) for the profiling/fitting
randomness.  ``run`` additionally takes ``--checkpoint-dir`` and
``--resume``: with a checkpoint directory the sweep persists completed
cells as it goes, and a killed run continues where it stopped —
bit-identical to an uninterrupted one (``docs/RECOVERY.md``).  ``guard``
runs a policy sweep under the runtime safety invariants
(``docs/GUARDS.md``) — ``--guard-mode enforce`` fails on the first
violation, ``--ledger`` writes the violation ledger — or, with
``--campaign``, hunts for violations with a coverage-guided chaos
campaign over random fault schedules.  The
benchmark harness (``pytest benchmarks/``) remains the canonical
reproduction path — the CLI is the quick look.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis import format_table
from repro.errors import ConfigError
from repro.evaluation import (
    evaluate_all_policies,
    fig15_tco,
    fig1_diurnal_overshoot,
    fig2_power_overshoot,
    fig3_capped_throughput,
    fig4_load_spectrum,
    fig8_goodness_of_fit,
    fig9_10_11_preferences,
    fit_catalog,
    placement_for_policy,
    policy_sweep,
)
from repro.sim.cluster import Durability, run_sweeps

COMMANDS = ("list", "placement", "preferences", "fit", "motivation",
            "evaluate", "tco", "validate", "admission", "run", "guard")


def cmd_list(_catalog, _args) -> None:
    print("Available commands:")
    for name in COMMANDS[1:]:
        print(f"  {name}")


def cmd_placement(catalog, _args) -> None:
    decision = placement_for_policy(catalog, "pocolo")
    rows = [[be, lc] for be, lc in decision.mapping.items()]
    print(format_table(["BE app", "LC server"], rows,
                       title="POColo placement (Fig 14's assignment)"))


def cmd_preferences(catalog, _args) -> None:
    rows = [
        [r.app_name, r.kind.upper(),
         f"{r.direct_cores:.2f}:{r.direct_ways:.2f}",
         f"{r.indirect_cores:.2f}:{r.indirect_ways:.2f}"]
        for r in fig9_10_11_preferences(catalog)
    ]
    print(format_table(["app", "kind", "direct (F9)", "indirect (F11)"],
                       rows, title="Preference vectors, cores:ways"))


def cmd_fit(catalog, _args) -> None:
    rows = [
        [r.app_name, r.kind.upper(), r.r2_perf, r.r2_power, r.n_samples]
        for r in fig8_goodness_of_fit(catalog)
    ]
    print(format_table(["app", "kind", "R2 perf", "R2 power", "samples"],
                       rows, title="Fig 8 — goodness of fit"))


def cmd_motivation(catalog, _args) -> None:
    points, capacity = fig1_diurnal_overshoot()
    over = sum(1 for p in points if p.power_colocated_w > capacity + 1e-9)
    print(f"Fig 1: {over}/24 diurnal hours overshoot the {capacity:.0f} W capacity")
    draws = fig2_power_overshoot()
    print(format_table(
        ["BE app", "colocated W"], [[n, w] for n, w in draws.items()],
        precision=1, title="\nFig 2 — uncapped colocation power (cap 132 W)",
    ))
    print(format_table(
        ["BE app", "drop under cap"],
        [[r.be_name, f"{r.drop_fraction:.1%}"] for r in fig3_capped_throughput()],
        title="\nFig 3 — throughput cost of the power cap",
    ))
    curves = fig4_load_spectrum()
    rows = [
        [level, lstm_t, rnn_t]
        for (level, lstm_t), (_, rnn_t) in zip(curves["lstm"], curves["rnn"])
    ]
    print(format_table(["xapian load", "lstm", "rnn"], rows,
                       title="\nFig 4 — BE throughput across the load range"))


def cmd_evaluate(catalog, args) -> None:
    print("Running the three-policy cluster evaluation...")
    evals = evaluate_all_policies(
        catalog, placement_seeds=range(args.seeds), duration_s=25.0
    )
    servers = list(catalog.lc_apps)
    rows = [
        [policy] + [ev.be_throughput_by_server[s] for s in servers]
        + [ev.cluster_be_throughput]
        for policy, ev in evals.items()
    ]
    print(format_table(["policy"] + servers + ["cluster"], rows,
                       title="\nFig 12 — BE throughput by server"))
    rows = [
        [policy] + [ev.power_utilization_by_server[s] for s in servers]
        + [ev.cluster_power_utilization]
        for policy, ev in evals.items()
    ]
    print(format_table(["policy"] + servers + ["cluster"], rows,
                       title="\nFig 13 — power utilization by server"))


def cmd_validate(catalog, _args) -> None:
    import numpy as np

    from repro.core.profiler import (
        default_profiling_grid,
        profile_best_effort,
        profile_latency_critical,
    )
    from repro.core.validation import diagnose_fit, leontief_samples

    grid = default_profiling_grid(catalog.spec)
    rng = np.random.default_rng(42)
    rows = []
    for name, app in catalog.lc_apps.items():
        diag = diagnose_fit(
            profile_latency_critical(app, grid, load_fraction=0.3, rng=rng)
        )
        rows.append([name, "LC", diag.residual_trend,
                     "OK" if diag.trustworthy else "; ".join(diag.warnings)])
    for name, app in catalog.be_apps.items():
        diag = diagnose_fit(profile_best_effort(app, grid, rng))
        rows.append([name, "BE", diag.residual_trend,
                     "OK" if diag.trustworthy else "; ".join(diag.warnings)])
    diag = diagnose_fit(leontief_samples())
    rows.append(["leontief*", "stress", diag.residual_trend,
                 "OK" if diag.trustworthy else f"{len(diag.warnings)} warnings"])
    print(format_table(["app", "kind", "imbalance trend", "verdict"], rows,
                       title="Fit diagnostics (leontief* = synthetic violator)"))


def cmd_admission(catalog, _args) -> None:
    from repro.core.admission import AdmissionController

    lc_names = list(catalog.lc_apps)
    rows = []
    for be_name, be_fit in catalog.be_fits.items():
        row = [be_name]
        for lc_name in lc_names:
            lc = catalog.lc_apps[lc_name]
            controller = AdmissionController(
                lc_model=catalog.lc_fits[lc_name].model,
                peak_load=lc.peak_load,
                provisioned_power_w=lc.peak_server_power_w(),
                spec=catalog.spec,
                min_be_throughput=0.10,
            )
            row.append(f"{controller.admission_boundary(be_fit.model, 50):.0%}")
        rows.append(row)
    print(format_table(["BE app"] + lc_names, rows,
                       title="Admission boundaries (highest LC load still admitting)"))


def cmd_tco(catalog, args) -> None:
    print("Pricing the four policies...")
    ev = fig15_tco(catalog, placement_seeds=range(args.seeds), duration_s=25.0)
    rows = [
        [name, b.servers_usd / 1e6, b.power_infra_usd / 1e6,
         b.energy_usd / 1e6, b.total_usd / 1e6]
        for name, b in ev.breakdowns.items()
    ]
    print(format_table(
        ["policy", "servers $M", "infra $M", "energy $M", "total $M"],
        rows, precision=2, title="\nFig 15 — amortized monthly TCO",
    ))
    print("\nPOColo savings:",
          {k: f"{v:.1%}" for k, v in ev.savings_of_pocolo.items()})


def cmd_run(catalog, args) -> None:
    checkpoint_path = None
    if args.checkpoint_dir:
        checkpoint_path = str(
            Path(args.checkpoint_dir)
            / f"{args.policy}-seed{args.seed}.ckpt"
        )
    durability = Durability(checkpoint_path, args.resume, args.checkpoint_every)
    if checkpoint_path is not None:
        print(f"Checkpointing to {checkpoint_path}"
              + (" (resuming)" if args.resume else ""))
    budget = None
    if args.budget_tree:
        from repro.budget.arbiter import BudgetConfig

        budget = BudgetConfig(
            arbiter_period_s=args.arbiter_period,
            lease_s=args.lease,
            rack_size=args.rack_size,
            fairness=args.fairness,
        )
        print(f"Hierarchical budget tree: racks of {budget.rack_size}, "
              f"{budget.arbiter_period_s:g}s arbiter period, "
              f"{budget.lease_s:g}s leases, {budget.fairness} fairness")
    sweep = policy_sweep(catalog, args.policy, duration_s=args.duration, budget=budget)
    result = run_sweeps([sweep], durability=durability)[0]
    servers = result.servers()
    throughput = result.be_throughput_by_server()
    power = result.power_utilization_by_server()
    placement = result.be_names_by_server()
    rows = [
        [s, placement[s] or "-", throughput[s], power[s]]
        for s in servers
    ]
    print(format_table(
        ["LC server", "BE app", "BE throughput", "power util"], rows,
        title=f"\nPolicy {args.policy!r} — per-server operating point",
    ))
    print(f"\ncluster BE throughput  {result.cluster_be_throughput():.3f}")
    print(f"cluster power util     {result.cluster_power_utilization():.3f}")
    print(f"cluster SLO violations {result.cluster_violation_fraction():.3f}")
    if result.budget_report is not None:
        from repro.analysis.reporting import format_budget_degradation

        print()
        print(format_budget_degradation(
            [(args.policy, result.budget_report)],
        ))


def cmd_guard(catalog, args) -> None:
    from repro.guard.invariants import GuardConfig

    guard = GuardConfig(mode=args.guard_mode)
    if args.campaign:
        from repro.evaluation.pipeline import cluster_plans, placement_for_policy
        from repro.guard.campaign import (
            CampaignConfig,
            ColocationCaseRunner,
            run_campaign,
        )

        if guard.enforcing:
            raise ConfigError(
                "--campaign needs --guard-mode record (the campaign "
                "observes violations; enforce mode would abort its cases)"
            )
        placement = placement_for_policy(catalog, args.policy, seed=args.seed)
        plan = cluster_plans(catalog, placement, args.policy)[0]
        runner = ColocationCaseRunner(
            lc_app=plan.lc_app,
            manager_factory=plan.manager_factory,
            spec=catalog.spec,
            provisioned_power_w=plan.provisioned_power_w,
            be_app=plan.be_app,
            duration_s=args.duration,
            guard=guard,
        )
        print(f"Hunting invariant violations on {plan.lc_app.name} "
              f"({args.rounds} rounds)...")
        campaign = run_campaign(runner, CampaignConfig(
            seed=args.seed, rounds=args.rounds, horizon_s=args.duration,
        ))
        print(f"cases run        {campaign.cases_run}")
        print(f"corpus size      {campaign.corpus_size}")
        print(f"coverage points  {campaign.coverage_points}")
        print(f"violations       {len(campaign.violations)}")
        for case in campaign.violations:
            print(f"\n{', '.join(case.invariants)} — minimal reproducer "
                  f"({case.shrink_evaluations} shrink evals):")
            for line in case.shrunk.describe():
                print(f"  {line}")
        if not campaign.found:
            print("\nNo violations found — the control stack held its "
                  "contracts across the searched fault schedules.")
        return
    sweep = policy_sweep(catalog, args.policy, duration_s=args.duration, guard=guard)
    result = run_sweeps([sweep], durability=Durability(ledger_path=args.ledger))[0]
    reports = [
        o.result.guard_report for o in result.outcomes
        if o.result.guard_report is not None
    ]
    checks = sum(r.checks for r in reports)
    total = sum(r.total_violations for r in reports)
    by_invariant: dict = {}
    for report in reports:
        for violation in report.violations:
            by_invariant[violation.invariant] = (
                by_invariant.get(violation.invariant, 0) + 1
            )
    rows = [[name, count] for name, count in sorted(by_invariant.items())]
    if rows:
        print(format_table(["invariant", "violations"], rows,
                           title=f"Guarded {args.policy!r} sweep"))
    print(f"\n{len(reports)} cells, {checks} invariant checks, "
          f"{total} violations ({args.guard_mode} mode)")
    if args.ledger:
        print(f"ledger written to {args.ledger}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate Pocolo (IISWC 2020) paper artifacts.",
    )
    parser.add_argument("command", choices=COMMANDS, help="what to regenerate")
    parser.add_argument("--seed", type=int, default=7,
                        help="profiling/fitting seed (default 7)")
    parser.add_argument("--seeds", type=int, default=4,
                        help="random-placement seeds for evaluate/tco")
    parser.add_argument("--policy", default="pocolo",
                        choices=("random", "pom", "pocolo", "random-nocap"),
                        help="policy for the run command (default pocolo)")
    parser.add_argument("--duration", type=float, default=25.0,
                        help="seconds of simulated time per cell (run)")
    parser.add_argument("--checkpoint-dir", default=None,
                        help="directory for the run command's checkpoint file")
    parser.add_argument("--resume", action="store_true",
                        help="continue the run from its checkpoint")
    parser.add_argument("--checkpoint-every", type=int, default=1,
                        help="cells completed between checkpoint writes")
    parser.add_argument("--guard-mode", choices=("record", "enforce"),
                        default="record",
                        help="guard command: record violations or fail fast")
    parser.add_argument("--ledger", default=None,
                        help="guard command: write the violation ledger here")
    parser.add_argument("--campaign", action="store_true",
                        help="guard command: run a chaos campaign instead "
                             "of a policy sweep")
    parser.add_argument("--rounds", type=int, default=6,
                        help="mutation rounds for the guard campaign")
    parser.add_argument("--budget-tree", action="store_true",
                        help="run command: arbitrate power through the "
                             "hierarchical budget tree (lease-based grants)")
    parser.add_argument("--arbiter-period", type=float, default=5.0,
                        help="seconds between budget arbiter ticks")
    parser.add_argument("--lease", type=float, default=10.0,
                        help="budget grant lease in seconds")
    parser.add_argument("--rack-size", type=int, default=2,
                        help="servers per rack in the budget tree")
    parser.add_argument("--fairness", choices=("max-min", "throughput"),
                        default="max-min",
                        help="headroom redistribution objective")
    args = parser.parse_args(argv)

    catalog = fit_catalog(seed=args.seed) if args.command != "list" else None
    handler = {
        "list": cmd_list,
        "placement": cmd_placement,
        "preferences": cmd_preferences,
        "fit": cmd_fit,
        "motivation": cmd_motivation,
        "evaluate": cmd_evaluate,
        "tco": cmd_tco,
        "validate": cmd_validate,
        "admission": cmd_admission,
        "run": cmd_run,
        "guard": cmd_guard,
    }[args.command]
    handler(catalog, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
