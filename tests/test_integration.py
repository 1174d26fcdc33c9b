"""Integration tests: the paper's headline claims, end to end.

These run the full pipeline (profile → fit → place → manage → simulate)
at reduced duration and assert the *shape* of the paper's results:
orderings and directions, not absolute numbers.
"""

import numpy as np
import pytest

from repro.evaluation import evaluate_all_policies, fig15_tco, placement_for_policy


@pytest.fixture(scope="module")
def policy_evals(catalog):
    """One shared three-policy evaluation (module-scoped: ~15 s)."""
    return evaluate_all_policies(
        catalog, placement_seeds=range(4), levels=[0.1, 0.3, 0.5, 0.7, 0.9],
        duration_s=15.0,
    )


class TestHeadlineOrdering:
    def test_fig12_throughput_ordering(self, policy_evals):
        """POColo > POM ≳ Random in average BE throughput."""
        random_tput = policy_evals["random"].cluster_be_throughput
        pom_tput = policy_evals["pom"].cluster_be_throughput
        pocolo_tput = policy_evals["pocolo"].cluster_be_throughput
        assert pocolo_tput > random_tput * 1.03
        assert pocolo_tput >= pom_tput - 0.01

    def test_fig13_power_utilization_ordering(self, policy_evals):
        """Power-aware policies draw visibly less of the provisioned cap."""
        random_util = policy_evals["random"].cluster_power_utilization
        pom_util = policy_evals["pom"].cluster_power_utilization
        pocolo_util = policy_evals["pocolo"].cluster_power_utilization
        assert random_util > 0.90   # the paper's ~96 %
        assert pom_util < random_util - 0.03
        assert pocolo_util < random_util - 0.03

    def test_all_policies_keep_slo(self, policy_evals):
        for ev in policy_evals.values():
            assert ev.violation_fraction < 0.05

    def test_every_server_gets_a_corunner_under_pocolo(self, policy_evals):
        by_server = policy_evals["pocolo"].be_throughput_by_server
        assert all(v > 0.0 for v in by_server.values())


class TestFig14Placement:
    def test_pocolo_matches_paper_assignment(self, catalog):
        decision = placement_for_policy(catalog, "pocolo")
        assert decision.mapping["graph"] == "sphinx"
        assert decision.mapping["lstm"] == "img-dnn"
        assert {decision.mapping["rnn"], decision.mapping["pbzip"]} == {
            "xapian", "tpcc"
        }


class TestFig15Tco:
    def test_pocolo_cheapest(self, catalog):
        ev = fig15_tco(catalog, placement_seeds=range(2),
                       levels=[0.1, 0.5, 0.9], duration_s=10.0)
        totals = {name: b.total_usd for name, b in ev.breakdowns.items()}
        assert min(totals, key=totals.get) == "pocolo"
        assert all(s > 0 for s in ev.savings_of_pocolo.values())

    def test_nocap_pays_more_infrastructure(self, catalog):
        ev = fig15_tco(catalog, placement_seeds=range(2),
                       levels=[0.1, 0.5, 0.9], duration_s=10.0)
        assert (
            ev.breakdowns["random-nocap"].power_infra_usd
            > ev.breakdowns["random"].power_infra_usd
        )

    def test_pom_saves_energy_vs_random(self, catalog):
        ev = fig15_tco(catalog, placement_seeds=range(2),
                       levels=[0.1, 0.5, 0.9], duration_s=10.0)
        assert ev.breakdowns["pom"].energy_usd < ev.breakdowns["random"].energy_usd


class TestEnergyHeadline:
    def test_pocolo_energy_per_work_lower_than_random(self, policy_evals):
        """The paper's 'energy reduction' claim: joules per useful work."""
        def energy_per_work(ev):
            energy = float(np.mean([
                run.total_energy_kwh() for run in ev.runs
            ]))
            return energy / (0.5 + ev.cluster_be_throughput)

        assert energy_per_work(policy_evals["pocolo"]) < energy_per_work(
            policy_evals["random"]
        )
