"""Golden snapshot tests: regenerate pinned reports and diff them.

Two ``benchmarks/out`` artifacts are committed as golden snapshots
(``repro.evaluation.reports.GOLDEN_REPORTS``).  These tests rebuild each
one from scratch — fitted catalog, performance matrix (vectorized
engine path), solver, rendering — and require byte equality with the
committed file.  Any drift in the models, the matrix, the solvers, or
the table renderer shows up as a readable text diff.

To update a snapshot intentionally::

    PYTHONPATH=src python -m pytest benchmarks/test_abl2_solver_choice.py \
        benchmarks/test_abl9_fleet_scale.py -q --benchmark-disable
    git add benchmarks/out/abl2_solver_choice.txt \
        benchmarks/out/abl9_fleet_totals.txt
"""

import pathlib

import pytest

from repro.engine.select import default_engine
from repro.evaluation import reports
from repro.evaluation.pipeline import fit_catalog

OUT_DIR = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "out"


@pytest.fixture(scope="module")
def catalog():
    return fit_catalog(seed=7)


@pytest.mark.parametrize("filename,builder", reports.GOLDEN_REPORTS)
def test_golden_report_matches_committed(catalog, filename, builder):
    committed = (OUT_DIR / filename).read_text()
    with default_engine("object"):
        regenerated = getattr(reports, builder)(catalog) + "\n"
    assert regenerated == committed, (
        f"{filename} drifted from its committed snapshot; if the change "
        "is intended, regenerate via the benchmark and commit the file "
        "(see this module's docstring)"
    )


@pytest.mark.parametrize("filename,builder", reports.GOLDEN_REPORTS)
def test_golden_report_matches_under_batched_engine(
    catalog, filename, builder
):
    """The engine knob must not leak into report rendering.

    Selecting the batched simulation core changes *how* sweeps execute,
    never *what* any artifact contains — the pinned ablation reports
    regenerate byte-for-byte with ``engine="batched"`` as the session
    default.
    """
    committed = (OUT_DIR / filename).read_text()
    with default_engine("batched"):
        regenerated = getattr(reports, builder)(catalog) + "\n"
    assert regenerated == committed, (
        f"{filename} drifted when regenerated under engine='batched'; "
        "the engine selection must be result-invariant"
    )


def test_golden_registry_names_real_builders():
    for filename, builder in reports.GOLDEN_REPORTS:
        assert (OUT_DIR / filename).exists(), f"missing snapshot {filename}"
        assert callable(getattr(reports, builder))
