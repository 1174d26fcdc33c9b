"""Tests for repro.core.placement: matrix building and placement policies."""

import numpy as np
import pytest

from repro.core.placement import (
    LcServerSide,
    assign_with_fallback,
    build_performance_matrix,
    enumerate_placements,
    pocolo_placement,
    predict_be_throughput,
    predict_spare_capacity,
    random_placement,
)
from repro.errors import ConfigError, SolverError
from repro.hwmodel.spec import Allocation
from repro.solvers.hungarian import brute_force_assignment_max


@pytest.fixture()
def servers(catalog):
    return catalog.lc_server_sides()


@pytest.fixture()
def be_models(catalog):
    return {name: fit.model for name, fit in catalog.be_fits.items()}


class TestSpareCapacityPrediction:
    def test_spare_plus_primary_cover_server(self, catalog, servers):
        spec = catalog.spec
        for lc in servers:
            spare, budget = predict_spare_capacity(lc, spec, level=0.3)
            assert 0 <= spare.cores < spec.cores
            assert 0 <= spare.ways < spec.llc_ways
            assert budget >= 0.0

    def test_spare_shrinks_with_level(self, catalog, servers):
        spec = catalog.spec
        lc = servers[0]
        lo_spare, lo_budget = predict_spare_capacity(lc, spec, level=0.1)
        hi_spare, hi_budget = predict_spare_capacity(lc, spec, level=0.9)
        assert hi_spare.cores + hi_spare.ways <= lo_spare.cores + lo_spare.ways
        assert hi_budget <= lo_budget + 1e-9

    def test_invalid_level_rejected(self, catalog, servers):
        with pytest.raises(ConfigError):
            predict_spare_capacity(servers[0], catalog.spec, level=0.0)
        with pytest.raises(ConfigError):
            predict_spare_capacity(servers[0], catalog.spec, level=1.2)

    def test_lc_server_side_validation(self, catalog):
        model = catalog.lc_fits["xapian"].model
        with pytest.raises(ConfigError):
            LcServerSide("x", model, provisioned_power_w=0.0, peak_load=100.0)
        with pytest.raises(ConfigError):
            LcServerSide("x", model, provisioned_power_w=100.0, peak_load=0.0)


class TestBeThroughputPrediction:
    def test_empty_spare_is_zero(self, catalog, be_models):
        assert predict_be_throughput(
            be_models["graph"], catalog.spec, Allocation.empty(), 50.0
        ) == 0.0

    def test_zero_budget_is_zero(self, catalog, be_models):
        spare = Allocation(cores=6, ways=10)
        assert predict_be_throughput(
            be_models["graph"], catalog.spec, spare, 0.0
        ) == 0.0

    def test_normalized_below_one(self, catalog, be_models):
        spare = Allocation(cores=11, ways=18)
        for model in be_models.values():
            pred = predict_be_throughput(model, catalog.spec, spare, 80.0)
            assert 0.0 <= pred <= 1.0

    def test_monotone_in_budget(self, catalog, be_models):
        spare = Allocation(cores=8, ways=14)
        lo = predict_be_throughput(be_models["graph"], catalog.spec, spare, 30.0)
        hi = predict_be_throughput(be_models["graph"], catalog.spec, spare, 90.0)
        assert hi >= lo


class TestPerformanceMatrix:
    def test_shape_and_labels(self, catalog, servers, be_models):
        matrix = build_performance_matrix(servers, be_models, catalog.spec)
        assert matrix.values.shape == (4, 4)
        assert matrix.be_names == tuple(be_models)
        assert matrix.lc_names == tuple(s.name for s in servers)

    def test_cells_are_probabilities(self, catalog, servers, be_models):
        matrix = build_performance_matrix(servers, be_models, catalog.spec)
        assert np.all(matrix.values >= 0.0)
        assert np.all(matrix.values <= 1.0)

    def test_cell_accessor(self, catalog, servers, be_models):
        matrix = build_performance_matrix(servers, be_models, catalog.spec)
        assert matrix.cell("graph", "sphinx") == pytest.approx(
            matrix.values[2, 1]
        )

    def test_empty_inputs_rejected(self, catalog, servers, be_models):
        with pytest.raises(ConfigError):
            build_performance_matrix([], be_models, catalog.spec)
        with pytest.raises(ConfigError):
            build_performance_matrix(servers, {}, catalog.spec)
        with pytest.raises(ConfigError):
            build_performance_matrix(servers, be_models, catalog.spec, levels=[])


class TestPocoloPlacement:
    def test_matches_paper_assignment(self, catalog):
        """Fig 14: Graph->sphinx, LSTM->img-dnn, RNN/Pbzip->xapian/tpcc."""
        decision = pocolo_placement(catalog.performance_matrix())
        assert decision.mapping["graph"] == "sphinx"
        assert decision.mapping["lstm"] == "img-dnn"
        assert {decision.mapping["rnn"], decision.mapping["pbzip"]} == {
            "xapian", "tpcc"
        }

    def test_lp_equals_brute_force(self, catalog):
        matrix = catalog.performance_matrix()
        decision = pocolo_placement(matrix, method="lp")
        _, brute_total = brute_force_assignment_max(matrix.values)
        assert decision.predicted_total == pytest.approx(brute_total, abs=1e-9)

    def test_methods_agree_on_optimum(self, catalog):
        matrix = catalog.performance_matrix()
        totals = {
            m: pocolo_placement(matrix, method=m).predicted_total
            for m in ("lp", "hungarian", "brute")
        }
        assert len({round(t, 9) for t in totals.values()}) == 1

    def test_is_a_perfect_matching(self, catalog):
        decision = pocolo_placement(catalog.performance_matrix())
        assert len(set(decision.mapping.values())) == len(decision.mapping)


class TestRandomPlacement:
    def test_valid_matching(self, rng):
        decision = random_placement(["a", "b"], ["x", "y", "z"], rng=rng)
        assert set(decision.mapping) == {"a", "b"}
        assert len(set(decision.mapping.values())) == 2

    def test_reproducible_by_seed(self):
        a = random_placement(["a", "b", "c"], ["x", "y", "z"],
                             rng=np.random.default_rng(4))
        b = random_placement(["a", "b", "c"], ["x", "y", "z"],
                             rng=np.random.default_rng(4))
        assert a.mapping == b.mapping

    def test_covers_all_placements_across_seeds(self):
        seen = set()
        for seed in range(200):
            d = random_placement(["a", "b"], ["x", "y"],
                                 rng=np.random.default_rng(seed))
            seen.add(tuple(sorted(d.mapping.items())))
        assert len(seen) == 2

    def test_more_be_than_lc_rejected(self, rng):
        with pytest.raises(ConfigError):
            random_placement(["a", "b"], ["x"], rng=rng)


class TestEnumeratePlacements:
    def test_counts_factorial(self):
        placements = enumerate_placements(["a", "b", "c"], ["x", "y", "z"])
        assert len(placements) == 6
        assert len({tuple(sorted(p.items())) for p in placements}) == 6

    def test_each_is_a_bijection(self):
        for p in enumerate_placements(["a", "b"], ["x", "y"]):
            assert len(set(p.values())) == 2

    def test_guards(self):
        with pytest.raises(ConfigError):
            enumerate_placements(["a"], ["x", "y"])
        with pytest.raises(ConfigError):
            enumerate_placements(list("abcdefghi"), list("123456789"))


class TestAssignWithFallback:
    def test_healthy_matrix_uses_the_requested_method(self):
        values = [[3.0, 1.0], [1.0, 3.0]]
        assignment, total, used, fallbacks = assign_with_fallback(
            values, method="lp"
        )
        assert assignment == [0, 1]
        assert total == pytest.approx(6.0)
        assert used == "lp"
        assert fallbacks == 0

    def test_nan_poisoned_matrix_degrades_to_greedy(self):
        values = np.full((2, 2), np.nan)
        assignment, total, used, fallbacks = assign_with_fallback(
            values, method="lp"
        )
        assert used == "greedy-fallback"
        assert fallbacks == 1  # the one failed solve
        assert sorted(assignment) == [0, 1]
        assert total == 0.0  # failed predictions are worth nothing

    def test_unrecoverable_failure_chains_the_root_cause(self):
        # Both the primary solver and the greedy last resort fail on an
        # empty matrix; the raised error must carry the *primary*
        # failure as __cause__ so pooled ExecutionError messages (which
        # lose pickled cause chains) can still name it.
        with pytest.raises(SolverError) as excinfo:
            assign_with_fallback(np.zeros((0, 2)), method="lp")
        assert "greedy fallback could not recover" in str(excinfo.value)
        cause = excinfo.value.__cause__
        assert isinstance(cause, SolverError)
        assert "non-empty" in str(cause)
