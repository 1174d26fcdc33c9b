"""Batched structure-of-arrays (SoA) cluster simulation core.

:class:`~repro.sim.colocation.ColocationSim` advances one server at a
time: every control tick touches a dozen small Python objects (manager,
capper, meter, app models, guard monitor) per server.  At cluster scale
that object churn — not numerics — dominates the sweep cost recorded in
``BENCH_engine.json``.  This module re-states the *entire* control plane
over numpy arrays: one :class:`BatchedClusterSim` holds the state of
every (server, level) cell of a cluster sweep as columns (allocation
cursors, frequency-ladder indices, duty cycles, meter EWMA state,
watchdog streaks, manager counters, guard streaks) and a single
:meth:`BatchedClusterSim.step` advances all of them per control tick.

Bit-exactness contract
----------------------
The batched core is **not** an approximation: every float produced —
telemetry series, aggregates, cap/manager stats, guard reports — must be
bit-identical to the per-object oracle.  Three disciplines make that
possible:

* **Scalar-filled tables** — transcendentals (``**``, ``exp``/``log``
  inside the Cobb-Douglas models) differ between numpy's vectorized
  kernels and CPython's scalar math.  Every nonlinear surface is
  therefore pre-evaluated point-by-point *through the real model
  methods* into dense ``(cores+1, ways+1, ladder)`` tables; the hot loop
  only gathers and applies IEEE-exact ``+ - * /`` elementwise ops in the
  oracle's exact association order.
* **Two-variant RNG tapes** — every cell draws from its own
  ``default_rng(config.seed)``, so cells sharing a config share one
  random tape... except that :func:`repro.apps.base.measured` skips the
  load draw when the true load is zero.  Lanes therefore split into
  exactly two tape classes (level > 0 with load noise, and everything
  else); the sim keeps one generator per class and broadcasts scalar
  draws.
* **Per-schedule generator pairs** — gap/dropout/stuck windows gate
  *whether* a draw happens, so lanes under different
  :class:`~repro.faults.schedule.FaultSchedule` objects consume their
  tapes differently.  The sim keeps one two-variant generator pair per
  distinct schedule (unfaulted lanes are their own class), evaluates
  each schedule once per control tick (for all of the tick's
  sub-ticks), and gathers each lane's draw by its schedule's index.

The 100 ms cap loop is one per-tick kernel (``_cap_loop``).  Between
two manager decisions the capper moves only the BE frequency index and
duty cycle, so the LC and idle draw, each lane's BE activity row over
the DVFS ladder, the budget caps, the meter's fault activity and each
fault class's meter-noise draws (``normal(0, sigma, size=k)`` equals k
scalar draws bit for bit) are read once per tick, and each sub-tick is
a fixed run of array operations.  The watchdog's state machine runs
only while a lane is in safe mode or a reading is unhealthy.  The POM
decision solves once per distinct ``(model, target)`` pair, not per
lane, so the Python-level work of :meth:`BatchedClusterSim.step` does
not grow with lanes (``benchmarks/perf/test_perf_engine.py`` counts it).

Anything the probe cannot prove eligible (custom manager classes,
irregular DVFS ladders, unknown fault types, unhashable models) falls
back lane-by-lane, with a reason, to the per-object oracle at its
delivery position, so ``run_batched_cells`` is a drop-in for running
each :class:`~repro.sim.cluster.Cell` through the oracle in order.

The per-object path stays authoritative: ``tests/test_batched_
differential.py`` proves equality field-by-field, and the object engine
must never be "cleaned up" against the batched one (see docs/ENGINE.md).
Manager factories are assumed deterministic — the same purity contract
cell dedupe already relies on.
"""

# pocolint: lane-module

from __future__ import annotations

import operator
from dataclasses import asdict, fields
from functools import lru_cache
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.server_manager import (
    DISTRUST_AFTER,
    FLOOR_TTL,
    MAX_HEADROOM,
    MIN_HEADROOM,
    RETRUST_AFTER,
    SHRINK_PATIENCE,
    HeraclesLikeManager,
    ManagerStats,
    PowerOptimizedManager,
    balanced_allocation,
)
from repro.core.utility import integer_min_power_allocation
from repro.engine.parallel import _task_failure
from repro.engine.vectorized import model_grid
from repro.errors import CapacityError, ConfigError, InvariantViolationError
from repro.faults.schedule import (
    FaultSchedule,
    LoadSpike,
    MeterDrift,
    MeterDropout,
    MeterStuckAt,
    ModelStaleness,
    TelemetryGap,
)
from repro.guard.invariants import GuardReport, Violation
from repro.hwmodel.capping import (
    DUTY_STEP,
    MAX_PLAUSIBLE_FACTOR,
    MIN_DUTY_CYCLE,
    RECOVERY_SAMPLES,
    RESTORE_MARGIN_W,
    STALE_AFTER,
    CapStats,
)
from repro.hwmodel.spec import Allocation, ServerSpec
from repro.sim.colocation import ColocationResult, build_colocated_server
from repro.sim.telemetry import LaneBlock, LaneTelemetry

if TYPE_CHECKING:
    # repro.sim.cluster imports this module lazily; a runtime import
    # here would be circular.
    from repro.sim.cluster import Cell

__all__ = [
    "BatchedClusterSim",
    "clear_batched_caches",
    "partition_cells",
    "run_batched_cells",
]

#: Fault types whose per-schedule gating the batched core reproduces.
_SUPPORTED_FAULTS = (
    LoadSpike,
    TelemetryGap,
    ModelStaleness,
    MeterDrift,
    MeterDropout,
    MeterStuckAt,
)

#: Sentinel for probe results proven ineligible (cached negatives).
_INELIGIBLE = object()

#: ``mask.any()`` as a direct ufunc reduction, without the Python-level
#: wrapper ``ndarray.any`` goes through (the cap loop asks every sub-tick).
_any = np.logical_or.reduce

#: Row of each CapStats counter in ``BatchedClusterSim.cap_stats``.
_CAP_ROW = {f.name: i for i, f in enumerate(fields(CapStats))}

#: The counters only the watchdog's safe-mode state machine moves.
_SAFE_ROWS = [
    _CAP_ROW[name]
    for name in ("safe_mode_steps", "safe_mode_entries", "watchdog_trips")
]


class _SubtickFaults(NamedTuple):
    """One sub-tick's meter-fault activity over the fault classes."""

    #: Every class re-serves its last reading: no sample at all.
    all_dropped: bool
    #: Lanes whose class re-serves its last reading, or None.
    dropped: Optional[np.ndarray]
    #: Per class: whether its oracle draws meter noise.
    draws: List[bool]
    #: Class -> the stuck-at fault holding its reading.
    stuck: Dict[int, MeterStuckAt]
    #: ``(lanes, bias)`` drift columns, in the oracle's order.
    drift: List[Tuple[Optional[np.ndarray], Any]]

# ----------------------------------------------------------------------
# Value-keyed global caches.  Keys are frozen dataclasses (profiles,
# specs, models) compared by value, so equal-by-value inputs share
# tables across invocations; nothing here is keyed by id().
# ----------------------------------------------------------------------
_LADDER_MAPS: Dict[ServerSpec, Any] = {}
_SURFACE_TABLES: Dict[Tuple[Any, ServerSpec], Tuple[np.ndarray, np.ndarray]] = {}
#: (model, spec) -> {target: (cores, ways, solver failed)}.
_SOLVER_MEMO: Dict[Tuple[Any, ServerSpec], Dict[float, Tuple[int, int, int]]] = {}


def clear_batched_caches() -> None:
    """Drop every value-keyed table cache (tests and benchmarks)."""
    _LADDER_MAPS.clear()
    _SURFACE_TABLES.clear()
    _SOLVER_MEMO.clear()


def _np_mean_lanes(buf: np.ndarray) -> np.ndarray:
    """Per-lane means of a ``(n_ticks, n)`` buffer, bit-identical to
    ``np.mean`` of each lane's tick column.

    The oracle's epilogue averages each telemetry series with
    ``np.mean`` over a contiguous 1-D array, which numpy reduces with
    *pairwise summation*.  A plain ``buf.mean(axis=0)`` reduces in a
    different association order, so its last bits can differ; this
    replicates numpy's exact pairwise tree (sequential below 8, eight
    unrolled accumulators up to the 128-element block size, recursive
    halving above) with one vectorized operation per tree node.
    """
    def pairwise(a: np.ndarray) -> np.ndarray:
        length = a.shape[1]
        if length < 8:
            res = np.zeros(a.shape[0])
            for i in range(length):
                res = res + a[:, i]
            return res
        if length <= 128:
            r = [a[:, j].astype(float) for j in range(8)]
            i = 8
            while i < length - (length % 8):
                for j in range(8):
                    r[j] = r[j] + a[:, i + j]
                i += 8
            res = ((r[0] + r[1]) + (r[2] + r[3])) + (
                (r[4] + r[5]) + (r[6] + r[7])
            )
            while i < length:
                res = res + a[:, i]
                i += 1
            return res
        half = a.shape[1] // 2
        half -= half % 8
        return pairwise(a[:, :half]) + pairwise(a[:, half:])

    lanes = buf.T
    return pairwise(lanes) / lanes.shape[1]


def _ladder_maps(spec: ServerSpec) -> Optional[Dict[str, Any]]:
    """Index maps for a spec's DVFS ladder, or None when ineligible.

    The batched core replaces ``step_down``/``step_up``/``clamp`` calls
    with integer index arithmetic; that is only exact when the ladder's
    operating points are strictly increasing, unique, clamp to
    themselves, step to their neighbours (the cap loop moves the index
    by one), and span exactly [min_ghz, max_ghz].
    """
    hit = _LADDER_MAPS.get(spec, _INELIGIBLE)
    if hit is not _INELIGIBLE:
        return hit
    maps = _build_ladder_maps(spec)
    _LADDER_MAPS[spec] = maps
    return maps


def _build_ladder_maps(spec: ServerSpec) -> Optional[Dict[str, Any]]:
    ladder = spec.ladder
    vals = [float(v) for v in ladder.steps()]
    if not vals or len(set(vals)) != len(vals):
        return None
    if any(b <= a for a, b in zip(vals, vals[1:])):
        return None
    if vals[0] != ladder.min_ghz or vals[-1] != ladder.max_ghz:
        return None
    index = {v: i for i, v in enumerate(vals)}
    down: List[int] = []
    up: List[int] = []
    for v in vals:
        if ladder.clamp(v) != v:
            return None
        stepped_down = ladder.step_down(v)
        stepped_up = ladder.step_up(v)
        if stepped_down not in index or stepped_up not in index:
            return None
        down.append(index[stepped_down])
        up.append(index[stepped_up])
    last = len(vals) - 1
    if down != [max(i - 1, 0) for i in range(last + 1)] or up != [
        min(i + 1, last) for i in range(last + 1)
    ]:
        return None
    bal_c = np.zeros(spec.cores + 2, dtype=np.int64)
    bal_w = np.zeros(spec.cores + 2, dtype=np.int64)
    for arg in range(spec.cores + 2):
        alloc = balanced_allocation(spec, arg)
        bal_c[arg] = alloc.cores
        bal_w[arg] = alloc.ways
    return {
        "vals": vals,
        "vals_arr": np.asarray(vals, dtype=np.float64),
        "index": index,
        "down_idx": np.asarray(down, dtype=np.int64),
        "at_max": np.asarray([v >= ladder.max_ghz - 1e-9 for v in vals]),
        "bal_c": bal_c,
        "bal_w": bal_w,
    }


def _surface_tables(profile: Any, spec: ServerSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Dense (normalized-throughput, active-power) tables for a profile.

    Filled point-by-point through the profile's *own* scalar methods at
    duty 1.0, so a gathered entry is the bit-exact scalar value; duty is
    applied afterwards with the same single multiply the object path
    performs.  Row/column zero stay 0.0, matching the scalar empty-
    allocation short-circuits.
    """
    key = (profile, spec)
    hit = _SURFACE_TABLES.get(key)
    if hit is not None:
        return hit
    maps = _ladder_maps(spec)
    if maps is None:  # callers gate on ladder eligibility first
        raise ConfigError("surface tables need a DVFS-ladder spec")
    vals = maps["vals"]
    n_c, n_w, n_k = spec.cores, spec.llc_ways, len(vals)
    norm = np.zeros((n_c + 1, n_w + 1, n_k), dtype=np.float64)
    act = np.zeros((n_c + 1, n_w + 1, n_k), dtype=np.float64)
    for c in range(1, n_c + 1):
        for w in range(1, n_w + 1):
            for k, freq in enumerate(vals):
                alloc = Allocation(cores=c, ways=w, freq_ghz=freq)
                norm[c, w, k] = profile.normalized_throughput(alloc)
                act[c, w, k] = profile.active_power_w(alloc)
    tables = (norm, act)
    _SURFACE_TABLES[key] = tables
    return tables


def _solve_allocation(model: Any, spec: ServerSpec, target: float) -> Tuple[int, int, int]:
    """Least-power ``(cores, ways, failed)`` for a target capacity.

    A :class:`CapacityError` gives the full server with ``failed = 1``,
    as the oracle's manager falls back to ``spec.full_allocation()``.
    """
    try:
        alloc = integer_min_power_allocation(model, target, spec)
    except CapacityError:
        return spec.cores, spec.llc_ways, 1
    return alloc.cores, alloc.ways, 0


# ----------------------------------------------------------------------
# Probing and partitioning
# ----------------------------------------------------------------------
def _probe_plan(
    plan: Any,
    spec: ServerSpec,
    be_app: Any,
    cache: Dict[Any, Any],
) -> Union[Dict[str, Any], str]:
    """Build one throwaway server+manager to learn a plan's initial state.

    The probe proves the plan drives a manager class whose decision
    procedure the batched core replicates, and records its kind and
    every bit of its initial mutable state; the control constants are
    module constants both engines read.  The cache is per-invocation
    (id() keys are only stable while the objects are alive).  A plan
    that fails an eligibility check caches the reason, a string: those
    lanes run on the per-object oracle instead.  A probe that raises
    propagates, as the oracle's identical build would.
    """
    key = (
        id(plan.lc_app),
        id(be_app) if be_app is not None else None,
        plan.provisioned_power_w,
        id(plan.manager_factory),
        spec,
    )
    hit: Union[Dict[str, Any], str, None] = cache.get(key)
    if hit is None:
        hit = cache[key] = _build_probe(plan, spec, be_app)
    return hit


def _build_probe(plan: Any, spec: ServerSpec, be_app: Any) -> Union[Dict[str, Any], str]:
    """A plan's probe info, or the reason its cells run on the oracle."""
    maps = _ladder_maps(spec)
    if maps is None:
        return "irregular DVFS ladder"
    server = build_colocated_server(
        spec=spec,
        lc_app=plan.lc_app,
        provisioned_power_w=plan.provisioned_power_w,
        be_app=be_app,
        name=f"{plan.lc_app.name}-server",
    )
    manager = plan.manager_factory(server)
    if manager.server is not server:
        return "manager manages another server"
    if type(manager) is HeraclesLikeManager:
        kind = "heracles"
    elif type(manager) is PowerOptimizedManager:
        kind = "pom"
    else:
        return f"custom manager type {type(manager).__name__}"
    primary = server.primary_tenant()
    if primary is None:
        return "no primary tenant"
    lc0 = server.allocation_of(primary)
    if lc0.is_empty or lc0.duty_cycle != 1.0 or lc0.freq_ghz not in maps["index"]:
        return "irregular initial LC allocation"
    be_name = server.secondary_tenant()
    if (be_app is not None) != (be_name is not None):
        return "BE app and secondary tenant disagree"
    be0: Optional[Tuple[int, int, int, float]] = None
    if be_name is not None:
        be_alloc = server.allocation_of(be_name)
        if not be_alloc.is_empty:
            if be_alloc.freq_ghz not in maps["index"]:
                return "BE frequency off the DVFS ladder"
            be0 = (
                be_alloc.cores,
                be_alloc.ways,
                maps["index"][be_alloc.freq_ghz],
                be_alloc.duty_cycle,
            )
    info: Dict[str, Any] = {
        "kind": kind,
        "primary": primary,
        "lc0": (lc0.cores, lc0.ways, maps["index"][lc0.freq_ghz]),
        "be0": be0,
        "stats0": asdict(manager.stats),
        "slack_target": float(manager.slack_target),
        "slack_upper": float(manager.slack_upper),
    }
    if kind == "heracles":
        info.update(
            streak0=int(manager._high_slack_streak),
            floor0=int(manager._floor_cores),
            floor_age0=int(manager._floor_age),
        )
    else:
        model = manager.model
        try:
            hash(model)
        except TypeError:
            return "unhashable POM model"  # memo keys need value-hashable models
        info.update(
            model=model,
            headroom0=float(manager.headroom),
            miss0=int(manager._miss_streak),
            fb_left0=int(manager._fallback_steps_left),
            promised0=manager._promised_capacity,
            promised_at_max0=bool(manager._promised_at_max_freq),
        )
    return info


def _faults_batchable(faults: Optional[FaultSchedule]) -> bool:
    """Whether the batched core reproduces every fault of a schedule.

    Only the fault types the core models per schedule are supported,
    and stale models must hash by value (they key the solver memo).
    """
    if faults is None:
        return True
    for fault in faults.faults:
        if not isinstance(fault, _SUPPORTED_FAULTS):
            return False
        if isinstance(fault, ModelStaleness):
            try:
                hash(fault.model)
            except TypeError:
                return False
    return True


def _partition(
    tasks: Sequence[Cell],
    probe_cache: Dict[Any, Any],
) -> Tuple[Dict[Any, List[int]], Dict[int, str], List[Optional[Dict[str, Any]]]]:
    """Split cells into batchable groups and oracle-fallback positions.

    A group shares what must be uniform across the lanes of one
    :class:`BatchedClusterSim`: the guard config, the sim config (seed,
    tick geometry and noise sigmas) and the server spec.  Manager kind,
    duration, fault schedule and cap schedule are lane attributes, so a
    sweep over one config and spec is one group.  Fallback positions map
    to the reason the cell runs on the oracle; a probe that raises
    fails as the oracle's run of that cell would.
    """
    from repro.sim.cluster import _run_cell

    groups: Dict[Any, List[int]] = {}
    fallback: Dict[int, str] = {}
    infos: List[Optional[Dict[str, Any]]] = [None] * len(tasks)
    for i, cell in enumerate(tasks):
        if not _faults_batchable(cell.faults):
            fallback[i] = "fault schedule not batchable"
            continue
        try:
            info = _probe_plan(cell.plan, cell.spec, cell.be_app, probe_cache)
        except Exception as exc:
            raise _task_failure(i, len(tasks), _run_cell, (cell,), exc) from exc
        if isinstance(info, str):
            fallback[i] = info
            continue
        infos[i] = info
        group_key = (cell.guard, cell.config, cell.spec)
        groups.setdefault(group_key, []).append(i)
    return groups, fallback, infos


def partition_cells(tasks: Sequence[Cell]) -> Tuple[Dict[Any, List[int]], Dict[int, str]]:
    """Public partition view: group-key -> positions, plus fallback reasons.

    Property tests use this to assert which cells the batched core
    claims (and why the others fall back to the oracle), and that a
    sweep over one (guard, config, spec) is one group whatever its
    lanes' kinds, durations and schedules.
    """
    groups, fallback, _infos = _partition(list(tasks), {})
    return groups, fallback


@lru_cache(maxsize=None)
def _series_layout(
    with_ticks: bool, scheduled: bool, has_be: bool
) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """A lane's (filled, empty) telemetry series, in the oracle's
    creation order: the per-tick records, then the series its
    aggregation epilogue reads (and so creates) if they are absent."""
    if not with_ticks:
        return (), ("be_throughput_norm", "power_w", "lc_load_fraction")
    filled = (
        "power_w", "lc_load_fraction", "lc_slack", "safe_mode",
        "lc_cores", "lc_ways",
    )
    if scheduled:
        filled += ("effective_cap_w",)
    if has_be:
        return filled + ("be_throughput_norm", "be_freq_ghz", "be_duty"), ()
    return filled, ("be_throughput_norm",)


def _kind_lanes(mask: np.ndarray) -> Any:
    """Index one manager kind's lanes: None when it has none, a plain
    slice (whose gathers are views) when it has every lane."""
    lanes = np.flatnonzero(mask)
    if len(lanes) == 0:
        return None
    if len(lanes) == len(mask):
        return slice(None)
    return lanes


# ----------------------------------------------------------------------
# The batched simulation core
# ----------------------------------------------------------------------
class BatchedClusterSim:
    """Every lane of one (guard, sim config, spec) group, stepped together
    per control tick.

    A *lane* is one (server, level) colocation cell.  Construction
    mirrors ``ColocationSim.__init__`` + ``run()`` setup for every lane
    at once; :meth:`step` is one control tick of the oracle's loop body;
    :meth:`collect` assembles per-lane :class:`LevelOutcome` objects
    bit-identical to the oracle's.  Its state lives only for one run:
    recovery re-runs whole cells (``docs/RECOVERY.md``).

    Manager kind, duration, fault schedule and cap schedule are lane
    attributes:

    * **kind** — :meth:`_control_step` runs the Heracles decision on the
      Heracles lanes and the POM decision on the POM lanes; each kind's
      state lives on its own index subset (a plain slice when one kind
      has every lane, so a single-kind group pays for one branch only).
      The cap loop, meter, guard and epilogue run once over all lanes.
    * **duration** — every lane starts at ``tick = -n_warmup`` and the
      sim runs to the longest lane.  A finished lane keeps stepping (its
      state is what a longer oracle run would hold) but stops writing
      telemetry, counters, energy and guard verdicts (``_live``).
    * **fault schedule** — one generator pair per distinct schedule
      object, unfaulted lanes being their own class; each schedule is
      consulted once per tick, for the tick and its sub-ticks, and each
      lane gathers its class's draw and fault columns.
    """

    def __init__(self, tasks: Sequence[Cell], infos: Sequence[Dict[str, Any]]) -> None:
        if not tasks:
            raise ConfigError("batched sim needs at least one lane")
        n = len(tasks)
        cell0 = tasks[0]
        spec, config = cell0.spec, cell0.config
        self.spec = spec
        self.config = config
        self.guard = cell0.guard
        self.n = n
        maps = _ladder_maps(spec)
        if maps is None:
            raise ConfigError("batched sim needs a DVFS-ladder spec")
        self.maps = maps
        self.vals: List[float] = maps["vals"]
        self.K = len(self.vals)
        self.C = spec.cores
        self.W = spec.llc_ways

        cfg = config
        self.n_warmup = int(round(cfg.warmup_s / cfg.control_interval_s))
        self.durations = [t.duration_s for t in tasks]
        # np.round rounds half to even, as the oracle's round() does.
        self.lane_ticks = np.round(
            np.asarray(self.durations, dtype=np.float64) / cfg.control_interval_s
        ).astype(np.int64)
        self.n_ticks = int(self.lane_ticks.max())
        self.subticks = int(round(cfg.control_interval_s / cfg.power_interval_s))
        if int(self.lane_ticks.min()) < 0 or self.subticks < 1:
            raise ConfigError("degenerate tick geometry")
        #: Distinct lane lengths; a lane of length L runs ticks up to L - 1.
        self.lengths = sorted(set(self.lane_ticks.tolist()))

        self.plans = [t.plan for t in tasks]
        self.levels_raw = [t.level for t in tasks]
        self.be_apps = [t.be_app for t in tasks]

        # ---- per-lane static columns -------------------------------
        self.level = np.asarray([float(t.level) for t in tasks])
        self.peak_load = np.asarray([p.lc_app.peak_load for p in self.plans])
        self.cap = np.asarray([float(p.provisioned_power_w) for p in self.plans])

        # ---- budget cap schedules ----------------------------------
        # Per-lane breakpoint matrices, padded so a single vectorized
        # gather per 100 ms subtick reproduces CapSchedule.cap_at
        # (bisect_right minus one, clamped to zero): times pad with
        # +inf, caps with the last cap; schedule-less lanes get one
        # -inf breakpoint pinning their provisioned base.  The gathered
        # floats are the planner's own, so caps are bit-exact.
        self.schedules = [t.schedule for t in tasks]
        self.any_sched = any(s is not None for s in self.schedules)
        if self.any_sched:
            width = max(
                len(s.times_s) if s is not None else 1
                for s in self.schedules
            )
            sched_times = np.full((n, width), np.inf)
            sched_caps = np.zeros((n, width))
            for i, sched in enumerate(self.schedules):
                if sched is None:
                    sched_times[i, 0] = -np.inf
                    sched_caps[i, :] = self.cap[i]
                else:
                    m = len(sched.times_s)
                    sched_times[i, :m] = sched.times_s
                    sched_caps[i, :m] = sched.caps_w
                    sched_caps[i, m:] = sched.caps_w[-1]
            self.sched_times = sched_times
            self.sched_caps = sched_caps
            self._lanes = np.arange(n)
        self.slo_p99 = np.asarray(
            [p.lc_app.latency.slo.p99_s for p in self.plans]
        )
        self.knee = np.asarray([p.lc_app.latency.rho_knee for p in self.plans])
        # Identical scalar ops to TailLatencyModel.p99_s / base_latency_s.
        self.lat_base = np.asarray(
            [p.lc_app.latency.slo.p99_s * (1.0 - p.lc_app.latency.rho_knee)
             for p in self.plans]
        )
        self.lat_ceiling = np.asarray(
            [p.lc_app.latency.slo.p99_s * 50.0 for p in self.plans]
        )
        self.lat_thr = np.asarray(
            [b / c for b, c in zip(self.lat_base, self.lat_ceiling)]
        )
        self.idle_w = float(spec.idle_power_w)

        # Surface tables, stacked over the distinct profiles in play.
        lc_profiles: List[Any] = []
        lc_tbl = np.zeros(n, dtype=np.int64)
        for i, plan in enumerate(self.plans):
            prof = plan.lc_app.profile
            try:
                idx = lc_profiles.index(prof)
            except ValueError:
                idx = len(lc_profiles)
                lc_profiles.append(prof)
            lc_tbl[i] = idx
        self.lc_tbl = lc_tbl
        self.lc_norm = np.stack([_surface_tables(p, spec)[0] for p in lc_profiles])
        self.lc_act = np.stack([_surface_tables(p, spec)[1] for p in lc_profiles])

        self.has_be = np.asarray([a is not None for a in self.be_apps])
        be_profiles: List[Any] = []
        be_tbl = np.zeros(n, dtype=np.int64)
        for i, app in enumerate(self.be_apps):
            if app is None:
                continue
            prof = app.profile
            try:
                idx = be_profiles.index(prof)
            except ValueError:
                idx = len(be_profiles)
                be_profiles.append(prof)
            be_tbl[i] = idx
        self.be_tbl = be_tbl
        if be_profiles:
            self.be_norm = np.stack(
                [_surface_tables(p, spec)[0] for p in be_profiles]
            )
            self.be_act = np.stack(
                [_surface_tables(p, spec)[1] for p in be_profiles]
            )
        else:
            self.be_norm = np.zeros((1, self.C + 1, self.W + 1, self.K))
            self.be_act = np.zeros((1, self.C + 1, self.W + 1, self.K))

        # ---- fault classes -----------------------------------------
        # One class per distinct schedule object, unfaulted lanes being
        # their own: a class shares its oracle's draw-skipping pattern.
        self.fscheds: List[Optional[FaultSchedule]] = [cell0.faults]
        fclass = np.zeros(n, dtype=np.int64)
        if any(task.faults is not cell0.faults for task in tasks):
            classes = {id(cell0.faults): 0}
            for i, task in enumerate(tasks):
                k = classes.setdefault(id(task.faults), len(classes))
                if k == len(self.fscheds):
                    self.fscheds.append(task.faults)
                fclass[i] = k
        self.fclass = fclass
        self.n_fc = len(self.fscheds)
        self.faulted = any(s is not None for s in self.fscheds)

        # ---- allocations -------------------------------------------
        self.lc_c = np.asarray([i["lc0"][0] for i in infos], dtype=np.int64)
        self.lc_w = np.asarray([i["lc0"][1] for i in infos], dtype=np.int64)
        self.lc_f = np.asarray([i["lc0"][2] for i in infos], dtype=np.int64)
        self.be_c = np.zeros(n, dtype=np.int64)
        self.be_w = np.zeros(n, dtype=np.int64)
        self.be_f = np.zeros(n, dtype=np.int64)
        self.be_duty = np.ones(n)
        self.be_empty = np.ones(n, dtype=bool)
        for i, info in enumerate(infos):
            be0 = info["be0"]
            if be0 is not None:
                self.be_c[i], self.be_w[i], self.be_f[i] = be0[0], be0[1], be0[2]
                self.be_duty[i] = be0[3]
                self.be_empty[i] = False

        # ---- manager state -----------------------------------------
        # Each kind's state lives on its lanes only: ``h_sel``/``p_sel``
        # index them (None: no lane of that kind).
        self.mgr_stats = {
            f: np.asarray([i["stats0"][f] for i in infos], dtype=np.int64)
            for f in infos[0]["stats0"]
        }
        heracles = np.asarray([i["kind"] == "heracles" for i in infos])
        self.h_sel = _kind_lanes(heracles)
        self.p_sel = _kind_lanes(~heracles)  # the probe admits two kinds
        if self.h_sel is not None:
            her = [infos[i] for i in np.arange(n)[self.h_sel].tolist()]
            self.h_slack_target = np.asarray([i["slack_target"] for i in her])
            self.h_slack_upper = np.asarray([i["slack_upper"] for i in her])
            self.h_streak = np.asarray([i["streak0"] for i in her], dtype=np.int64)
            self.h_floor = np.asarray([i["floor0"] for i in her], dtype=np.int64)
            self.h_floor_age = np.asarray(
                [i["floor_age0"] for i in her], dtype=np.int64
            )
        if self.p_sel is not None:
            pom = [infos[i] for i in np.arange(n)[self.p_sel].tolist()]
            models: List[Any] = []
            midx = np.zeros(len(pom), dtype=np.int64)
            for i, info in enumerate(pom):
                model = info["model"]
                try:
                    mi = models.index(model)
                except ValueError:
                    mi = len(models)
                    models.append(model)
                midx[i] = mi
            for sched in self.fscheds:
                for f in () if sched is None else sched.faults:
                    if isinstance(f, ModelStaleness) and f.model not in models:
                        models.append(f.model)
            self.models = models
            #: Each model's solver memo, resolved once so the per-tick
            #: lookup hashes a float target, not the model.
            self.memos = [
                _SOLVER_MEMO.setdefault((m, spec), {}) for m in models
            ]
            self.midx = midx
            self.eff_midx = midx.copy()
            self.p_fclass = fclass[self.p_sel]
            self.grids = np.stack([model_grid(m, spec).perf for m in models])
            self.floor_perf = self.grids[:, 1, 1].copy()
            self.full_perf = self.grids[:, self.C, self.W].copy()
            self.p_slack_target = np.asarray([i["slack_target"] for i in pom])
            self.p_slack_upper = np.asarray([i["slack_upper"] for i in pom])
            self.p_headroom = np.asarray([i["headroom0"] for i in pom])
            self.p_miss = np.asarray([i["miss0"] for i in pom], dtype=np.int64)
            self.p_fb_left = np.asarray(
                [i["fb_left0"] for i in pom], dtype=np.int64
            )
            self.p_promised = np.asarray(
                [0.0 if i["promised0"] is None else float(i["promised0"])
                 for i in pom]
            )
            self.p_promised_valid = np.asarray(
                [i["promised0"] is not None for i in pom]
            )
            self.p_promised_at_max = np.asarray(
                [i["promised_at_max0"] for i in pom]
            )
        self.model_swapped = [False] * self.n_fc

        # ---- capper state ------------------------------------------
        # The plausibility bound is anchored at the base provisioning,
        # as the oracle's capper captures it before any cap schedule.
        self.max_plausible = MAX_PLAUSIBLE_FACTOR * self.cap
        #: CapStats counters x lanes, rows in field order.
        self.cap_stats = np.zeros((len(_CAP_ROW), n), dtype=np.int64)
        #: One tick's per-sub-tick counter increments, counted into
        #: ``cap_stats`` once per tick.  Every sub-tick is a sample; the
        #: safe-mode rows are written only when the watchdog runs.
        self.events = np.zeros((self.subticks, len(_CAP_ROW), n), dtype=bool)
        self.events[:, _CAP_ROW["samples"]] = True
        self.events_safe = False
        #: Samples taken so far.  The oracle's "samples since restore"
        #: and restore cooldown countdowns are kept as sample numbers:
        #: the last restore's, and the first one a restore may act on.
        self.sample = 0
        self.restored_at = np.full(n, -(10 ** 9) - 1, dtype=np.int64)
        self.cool_until = np.zeros(n, dtype=np.int64)
        self.backoff = np.zeros(n, dtype=np.int64)
        self.safe = np.zeros(n, dtype=bool)
        self.safe_any = False
        self.repeat = np.zeros(n, dtype=np.int64)
        self.repeating = False
        self.healthy_streak = np.zeros(n, dtype=np.int64)
        #: Each lane's first entry in the flattened (lanes x K) BE row.
        self.row_start = np.arange(n, dtype=np.int64) * self.K

        # ---- meter / energy ----------------------------------------
        self.meter_sigma = float(cfg.meter_noise_w)
        self.m_filt = np.zeros(n)
        self.m_last_raw = np.zeros(n)
        self.m_last_time = 0.0
        self.m_has_last = False
        #: Per fault class: MeterStuckAt fault -> the readings it holds.
        self.held: List[Dict[Any, np.ndarray]] = [{} for _ in self.fscheds]
        self.e_prev_w = np.zeros(n)
        self.e_prev_t = 0.0
        self.e_has_prev = False
        self.joules = np.zeros(n)

        # ---- RNG tapes ---------------------------------------------
        # Two tape classes (module docstring) per fault class: lanes
        # that draw the load lognormal and lanes whose zero true load
        # skips it.
        self.rng_with = [np.random.default_rng(cfg.seed) for _ in self.fscheds]
        self.rng_without = [
            np.random.default_rng(cfg.seed) for _ in self.fscheds
        ]
        self.with_mask = (self.level > 0.0) & (cfg.load_noise > 0)

        # ---- telemetry buffers -------------------------------------
        self.times = [
            tick * cfg.control_interval_s for tick in range(self.n_ticks)
        ]
        shape = (self.n_ticks, n)
        self.buffers = {
            "power_w": np.zeros(shape),
            "lc_load_fraction": np.zeros(shape),
            "lc_slack": np.zeros(shape),
            "safe_mode": np.zeros(shape),
            "lc_cores": np.zeros(shape, dtype=np.int64),
            "lc_ways": np.zeros(shape, dtype=np.int64),
            "be_throughput_norm": np.zeros(shape),
            "be_freq_ghz": np.zeros(shape),
            "be_duty": np.zeros(shape),
        }
        if self.any_sched:
            self.buffers["effective_cap_w"] = np.zeros(shape)
        self.slo_violations = np.zeros(n, dtype=np.int64)
        self.stale_load = np.zeros(n)
        self.stale_slack = np.zeros(n)
        self.have_stale = False

        # ---- guard state -------------------------------------------
        self.g_cap_streak = np.zeros(n, dtype=np.int64)
        self.g_prev_cap = np.zeros(n)
        self.g_prev_cap_valid = False
        self.g_ramp = np.zeros(n)
        self.g_energy_tick = 0
        self.g_rng_tick = 0
        #: Per lane length: the RNG fingerprint its lanes last checked.
        self.g_rng_baseline: Dict[int, Tuple[str, bytes, int]] = {}
        self.g_total = np.zeros(n, dtype=np.int64)
        self.g_violations: List[List[Violation]] = [[] for _ in range(n)]
        self.g_first_violation: List[Optional[Violation]] = [None] * n

        #: True while every lane runs, else the mask of running lanes.
        self._live: Any = True
        #: ``acc += inc`` on the running lanes: a plain in-place add
        #: until a lane finishes, then a masked one.
        self._add: Callable[[np.ndarray, Any], Any] = operator.iadd
        self._tick = -self.n_warmup
        self._retire_finished()

    # ------------------------------------------------------------------
    # Lane bookkeeping: finished lanes and fault classes
    # ------------------------------------------------------------------
    def _retire_finished(self) -> None:
        """Stop lanes whose last tick is behind the clock from writing."""
        if self._tick in self.lengths:
            live = self._live = self.lane_ticks > self._tick
            self._add = lambda acc, inc: np.add(acc, inc, out=acc, where=live)

    def _running(self, mask: np.ndarray) -> np.ndarray:
        """``mask`` restricted to the lanes still running."""
        return mask if self._live is True else mask & self._live

    def _add_kind(self, acc: np.ndarray, sel: Any, inc: Any) -> None:
        """``_add`` on one manager kind's lanes (``sel`` indexes them)."""
        if isinstance(sel, slice):
            self._add(acc, inc)
            return
        if self._live is not True:
            inc = inc * self._live[sel]
        acc[sel] += inc

    def _draw(
        self,
        rngs: List[np.random.Generator],
        draw: Callable[[np.random.Generator], float],
        classes: Sequence[int],
    ) -> Any:
        """Each fault class's scalar draw, gathered per lane.

        ``draw(rng)`` runs on the generator of every class in
        ``classes``; the other classes draw nothing (a fault made their
        oracle skip the draw) and read 0.0.  With one fault class the
        draw is returned as the plain scalar the oracle multiplies by.
        """
        if self.n_fc == 1:
            return draw(rngs[0])
        z = np.zeros(self.n_fc)
        for k in classes:
            z[k] = draw(rngs[k])
        return z[self.fclass]

    def _lane_columns(
        self, per_class: List[List[float]]
    ) -> Iterator[Tuple[Optional[np.ndarray], Any]]:
        """Per-lane columns of each fault class's ordered fault values.

        ``per_class[k]`` lists the values class ``k`` applies this tick,
        in the oracle's order (active spikes' factors, drifts' biases).
        Yields ``(lanes, value)`` for each position ``j``: the lanes
        whose class has a ``j``-th value, and those values gathered per
        lane.  With one fault class ``lanes`` is None and ``value`` the
        plain scalar.
        """
        if self.n_fc == 1:
            for value in per_class[0]:
                yield None, value
            return
        for j in range(max(len(values) for values in per_class)):
            has = np.asarray([len(values) > j for values in per_class])
            col = np.asarray(
                [values[j] if len(values) > j else 0.0 for values in per_class]
            )
            yield has[self.fclass], col[self.fclass]

    # ------------------------------------------------------------------
    # Gathers
    # ------------------------------------------------------------------
    def _lc_capacity(self, c: np.ndarray, w: np.ndarray, f: np.ndarray) -> np.ndarray:
        # LC duty is pinned to 1.0; x * 1.0 == x bit-exact, so the duty
        # multiply of the scalar path is elided.
        return self.peak_load * self.lc_norm[self.lc_tbl, c, w, f]

    def _be_power(self) -> np.ndarray:
        act = self.be_act[self.be_tbl, self.be_c, self.be_w, self.be_f]
        return np.where(self.be_empty, 0.0, act * self.be_duty)

    def _power(self) -> np.ndarray:
        lc = self.lc_act[self.lc_tbl, self.lc_c, self.lc_w, self.lc_f]
        # Server.power_w accumulates idle, then tenants in attachment
        # order (LC first): ((idle + lc) + be).
        return np.where(
            self.has_be, (self.idle_w + lc) + self._be_power(), self.idle_w + lc
        )

    def _true_p99(self, load: np.ndarray, capacity: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = load / capacity
            denom = 1.0 - self.knee * rho
            served = np.minimum(self.lat_ceiling, self.lat_base / denom)
        saturated = (capacity <= 0) | (denom <= self.lat_thr)
        return np.where(saturated, self.lat_ceiling, served)

    # ------------------------------------------------------------------
    # One control tick
    # ------------------------------------------------------------------
    def step(self) -> None:
        cfg = self.config
        tick = self._tick
        if tick >= self.n_ticks:
            raise ConfigError("batched sim already ran to completion")
        t = tick * cfg.control_interval_s
        in_window = tick >= 0

        load_frac = self.level.copy()
        if self.faulted:
            factors = [
                [] if s is None else [f.factor for f in s.active(t, LoadSpike)]
                for s in self.fscheds
            ]
            for lanes, factor in self._lane_columns(factors):
                spiked = np.minimum(1.0, load_frac * factor)
                load_frac = (
                    spiked if lanes is None
                    else np.where(lanes, spiked, load_frac)
                )
            self._apply_model_staleness(t)
        true_load = load_frac * self.peak_load

        # Per fault class: a telemetry gap serves the stale values and
        # skips the class's load and latency draws.
        gap = [
            self.have_stale and s is not None
            and s.first_active(t, TelemetryGap) is not None
            for s in self.fscheds
        ]
        if all(gap):
            measured_load = self.stale_load
            measured_slack = self.stale_slack
        else:
            fresh = [k for k, in_gap in enumerate(gap) if not in_gap]
            if cfg.load_noise > 0:
                z_load = self._draw(
                    self.rng_with,
                    lambda rng: rng.lognormal(mean=0.0, sigma=cfg.load_noise),
                    fresh,
                )
                measured_load = np.where(
                    self.with_mask, true_load * z_load, true_load
                )
            else:
                measured_load = true_load.copy()
            capacity = self._lc_capacity(self.lc_c, self.lc_w, self.lc_f)
            p99 = self._true_p99(true_load, capacity)
            if cfg.latency_noise > 0:
                def latency(rng: np.random.Generator) -> float:
                    return rng.lognormal(mean=0.0, sigma=cfg.latency_noise)

                z_w = self._draw(self.rng_with, latency, fresh)
                z_wo = self._draw(self.rng_without, latency, fresh)
                p99 = p99 * np.where(self.with_mask, z_w, z_wo)
            measured_slack = 1.0 - p99 / self.slo_p99
            if any(gap):
                stale = np.asarray(gap)[self.fclass]
                measured_load = np.where(stale, self.stale_load, measured_load)
                measured_slack = np.where(stale, self.stale_slack, measured_slack)
            self.stale_load = measured_load
            self.stale_slack = measured_slack
            self.have_stale = True

        self._control_step(measured_load, measured_slack)

        self._cap_loop(t)

        true_slack = 1.0 - self._true_p99(
            true_load, self._lc_capacity(self.lc_c, self.lc_w, self.lc_f)
        ) / self.slo_p99
        power = self._power()
        if self.guard is not None:
            self._guard_observe(t, in_window, tick, power)
        if in_window:
            self._add(self.slo_violations, true_slack < 0)
            self._record(tick, "power_w", power)
            self._record(tick, "lc_load_fraction", load_frac)
            self._record(tick, "lc_slack", true_slack)
            self._record(tick, "safe_mode", np.where(self.safe, 1.0, 0.0))
            self._record(tick, "lc_cores", self.lc_c)
            self._record(tick, "lc_ways", self.lc_w)
            if self.any_sched:
                # End-of-tick cap (the last subtick's gather), recorded
                # only into scheduled lanes' series at assembly.
                self._record(tick, "effective_cap_w", self.cap)
            # meter.last_reading exists after the first subtick ever.
            if self.e_has_prev:
                dt = self.m_last_time - self.e_prev_t
                self._add(
                    self.joules, (0.5 * (self.e_prev_w + self.m_last_raw)) * dt
                )
            self.e_prev_w = self.m_last_raw.copy()
            self.e_prev_t = self.m_last_time
            self.e_has_prev = True
            norm = self.be_norm[self.be_tbl, self.be_c, self.be_w, self.be_f]
            self._record(
                tick, "be_throughput_norm",
                np.where(self.be_empty, 0.0, norm * self.be_duty),
            )
            # An empty Allocation reports the dataclass default freq.
            self._record(
                tick, "be_freq_ghz",
                np.where(self.be_empty, 2.2, self.maps["vals_arr"][self.be_f]),
            )
            self._record(tick, "be_duty", self.be_duty)
        self._tick += 1
        self._retire_finished()

    def _record(self, tick: int, name: str, values: np.ndarray) -> None:
        """Write one tick's row of a telemetry series for running lanes."""
        if self._live is True:
            self.buffers[name][tick] = values
        else:
            np.copyto(self.buffers[name][tick], values, where=self._live)

    def run(self) -> None:
        """Advance to the end of the run (idempotent once complete)."""
        while self._tick < self.n_ticks:
            self.step()

    def _apply_model_staleness(self, t: float) -> None:
        """Per fault class: swap a stale model into its POM lanes, and
        the true one back when the window closes."""
        if self.p_sel is None:
            return
        for k, sched in enumerate(self.fscheds):
            if sched is None:
                continue
            fault = sched.first_active(t, ModelStaleness)
            if fault is not None and not self.model_swapped[k]:
                self.eff_midx = np.where(
                    self.p_fclass == k, self.models.index(fault.model),
                    self.eff_midx,
                )
                self.model_swapped[k] = True
            elif fault is None and self.model_swapped[k]:
                self.eff_midx = np.where(
                    self.p_fclass == k, self.midx, self.eff_midx
                )
                self.model_swapped[k] = False

    # ------------------------------------------------------------------
    # Manager control step (vectorized ServerManagerBase.control_step)
    # ------------------------------------------------------------------
    def _control_step(
        self, measured_load: np.ndarray, measured_slack: np.ndarray
    ) -> None:
        stats = self.mgr_stats
        self._add(stats["control_steps"], 1)
        self._add(stats["slo_violations"], measured_slack < 0)
        h, p = self.h_sel, self.p_sel
        if p is None:
            tc, tw, tf = self._heracles_decide(h, measured_slack)
        elif h is None:
            tc, tw, tf = self._pom_decide(p, measured_load, measured_slack)
        else:
            tc = np.empty(self.n, dtype=np.int64)
            tw = np.empty(self.n, dtype=np.int64)
            tf = np.empty(self.n, dtype=np.int64)
            tc[h], tw[h], tf[h] = self._heracles_decide(h, measured_slack[h])
            tc[p], tw[p], tf[p] = self._pom_decide(
                p, measured_load[p], measured_slack[p]
            )
        changed = (tc != self.lc_c) | (tw != self.lc_w) | (tf != self.lc_f)
        self._add(stats["reconfigurations"], changed)
        self.lc_c, self.lc_w, self.lc_f = tc, tw, tf
        self._refresh_secondary()

    def _refresh_secondary(self) -> None:
        # Unified BE spare-grant: on both the changed-primary path
        # (previous = pre-move BE state) and the steady path (previous =
        # current), the desired BE allocation is a pure function of the
        # new primary allocation and the pre-step BE throttle state.
        has_be = self.has_be
        spare_c = self.C - self.lc_c
        spare_w = self.W - self.lc_w
        squeeze = (spare_c <= 0) | (spare_w <= 0)
        release = has_be & squeeze
        grant = has_be & ~squeeze
        prev_empty = self.be_empty
        self.be_f = np.where(grant & prev_empty, self.K - 1, self.be_f)
        self.be_duty = np.where(grant & prev_empty, 1.0, self.be_duty)
        self.be_c = np.where(grant, spare_c, self.be_c)
        self.be_w = np.where(grant, spare_w, self.be_w)
        self.be_c = np.where(release, 0, self.be_c)
        self.be_w = np.where(release, 0, self.be_w)
        self.be_duty = np.where(release, 1.0, self.be_duty)
        self.be_empty = np.where(grant, False, np.where(release, True, prev_empty))

    def _heracles_decide(
        self, sel: Any, slack: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Heracles targets for the lanes ``sel`` indexes (their slack)."""
        lc_c, lc_w, lc_f = self.lc_c[sel], self.lc_w[sel], self.lc_f[sel]
        stats = self.mgr_stats
        self.h_floor_age += 1
        self.h_floor = np.where(self.h_floor_age > FLOOR_TTL, 1, self.h_floor)

        grow = slack < self.h_slack_target
        self._add_kind(stats["grow_actions"], sel, grow)
        new_floor = np.minimum(self.C, lc_c + 1)
        self.h_floor = np.where(grow, new_floor, self.h_floor)
        self.h_floor_age = np.where(grow, 0, self.h_floor_age)

        high = ~grow & (slack > self.h_slack_upper)
        streak = np.where(high, self.h_streak + 1, 0)
        can_shrink = (
            high
            & (streak >= SHRINK_PATIENCE)
            & (lc_c - 1 >= self.h_floor)
        )
        self._add_kind(stats["shrink_actions"], sel, can_shrink)
        self.h_streak = np.where(can_shrink, 0, streak)

        bal_c, bal_w = self.maps["bal_c"], self.maps["bal_w"]
        req = np.where(grow, lc_c + 1, np.where(can_shrink, lc_c - 1, 0))
        moved = grow | can_shrink
        tc = np.where(moved, bal_c[req], lc_c)
        tw = np.where(moved, bal_w[req], lc_w)
        tf = np.where(moved, self.K - 1, lc_f)
        return tc, tw, tf

    def _pom_decide(
        self, sel: Any, measured_load: np.ndarray, measured_slack: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """POM targets for the lanes ``sel`` indexes (their telemetry)."""
        lc_c, lc_w, lc_f = self.lc_c[sel], self.lc_w[sel], self.lc_f[sel]
        n = len(lc_c)
        stats = self.mgr_stats
        grow = measured_slack < self.p_slack_target
        shrink = ~grow & (measured_slack > self.p_slack_upper)
        self._add_kind(stats["grow_actions"], sel, grow)
        self._add_kind(stats["shrink_actions"], sel, shrink)
        self.p_headroom = np.where(
            grow,
            np.minimum(MAX_HEADROOM, self.p_headroom * 1.25),
            np.where(
                shrink,
                np.maximum(MIN_HEADROOM, self.p_headroom * 0.93),
                self.p_headroom,
            ),
        )

        observing = self.p_promised_valid & self.p_promised_at_max
        covered = measured_load <= self.p_promised * 0.95
        self.p_miss = np.where(
            observing, np.where(grow & covered, self.p_miss + 1, 0), self.p_miss
        )
        enter = (self.p_fb_left == 0) & (self.p_miss >= DISTRUST_AFTER)
        self._add_kind(stats["model_fallbacks"], sel, enter)
        self.p_fb_left = np.where(enter, RETRUST_AFTER, self.p_fb_left)
        self.p_miss = np.where(enter, 0, self.p_miss)
        fb = self.p_fb_left > 0
        self.p_fb_left = np.where(fb, self.p_fb_left - 1, self.p_fb_left)
        self._add_kind(stats["model_fallback_steps"], sel, fb)
        self.p_promised_valid = np.where(fb, False, self.p_promised_valid)

        bal_c, bal_w = self.maps["bal_c"], self.maps["bal_w"]
        req = np.where(
            grow, lc_c + 1,
            np.where(measured_slack > self.p_slack_upper, lc_c - 1, lc_c),
        )
        tc = np.where(fb, bal_c[req], 0)
        tw = np.where(fb, bal_w[req], 0)
        tf = np.full(n, self.K - 1, dtype=np.int64)

        nm = ~fb
        if np.any(nm):
            eff = self.eff_midx
            target = np.maximum(measured_load, 1e-9) * self.p_headroom
            target = np.minimum(
                np.maximum(target, self.floor_perf[eff]), self.full_perf[eff]
            )
            ac, aw, solver_fallbacks = self._pom_solve(eff, target, nm)
            if solver_fallbacks.any():
                self._add_kind(stats["solver_fallbacks"], sel, solver_fallbacks)
            at_floor = (ac == lc_c) & (aw == lc_w)
            trim_down = nm & (measured_slack > self.p_slack_upper) & at_floor
            hold_freq = (
                nm & ~trim_down & (measured_slack >= self.p_slack_target)
            )
            tf = np.where(trim_down, self.maps["down_idx"][lc_f], tf)
            tf = np.where(hold_freq, lc_f, tf)
            tc = np.where(nm, ac, tc)
            tw = np.where(nm, aw, tw)
            self.p_promised = np.where(
                nm, self.grids[eff, ac, aw], self.p_promised
            )
            self.p_promised_valid = self.p_promised_valid | nm
            self.p_promised_at_max = np.where(
                nm, self.maps["at_max"][tf], self.p_promised_at_max
            )
        return tc, tw, tf

    def _pom_solve(
        self, eff: np.ndarray, target: np.ndarray, lanes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Least-power ``(cores, ways, solver failed)`` per POM lane, zero
        off ``lanes``.

        Lanes sharing a ``(model, target)`` pair share one memo lookup.
        The pairs are made unique as complex keys, the model index the
        real part and the target the imaginary one (both exact), so the
        Python work per tick grows with distinct pairs, not with lanes.
        """
        keys, inverse = np.unique(
            eff[lanes] + 1j * target[lanes], return_inverse=True
        )
        solved = []
        for m, value in zip(
            keys.real.astype(np.int64).tolist(), keys.imag.tolist()
        ):
            memo = self.memos[m]
            entry = memo.get(value)
            if entry is None:
                entry = memo[value] = _solve_allocation(
                    self.models[m], self.spec, value
                )
            solved.append(entry)
        out = np.zeros((len(eff), 3), dtype=np.int64)
        out[lanes] = np.asarray(solved, dtype=np.int64)[inverse]
        return out[:, 0], out[:, 1], out[:, 2]

    # ------------------------------------------------------------------
    # Power-cap loop (PowerCapController.step over one tick's sub-ticks)
    # ------------------------------------------------------------------
    def _cap_loop(self, t: float) -> None:
        """The tick's power-cap sub-ticks as one kernel.

        The capper moves only the BE frequency index and duty cycle, so
        everything else it reads is gathered once per tick: the idle +
        LC draw, each lane's BE activity row over the frequency ladder,
        which lanes have a secondary to act on, the budget caps, the
        meter's fault activity and its noise draws.  A sub-tick reads
        its BE draw from the row with one flat index, and its counter
        increments are counted into ``cap_stats`` at the end of the tick.
        """
        cfg = self.config
        times = [t + k * cfg.power_interval_s for k in range(self.subticks)]
        caps = self._tick_caps(times)
        cap = self.cap if caps is None else caps
        # The capper throttles and restores only lanes with a secondary
        # to act on; the others get thresholds no reading crosses.
        has_sec = self.has_be & ~self.be_empty
        cap_hi = np.where(has_sec, cap, np.inf)
        cap_lo = np.where(has_sec, cap - RESTORE_MARGIN_W, -np.inf)
        if caps is None:  # the same cap every sub-tick
            caps, cap_hi, cap_lo = (
                [row] * len(times) for row in (self.cap, cap_hi, cap_lo)
            )
        # Server.power_w adds idle, then the tenants in attachment order
        # (LC first): ((idle + lc) + be).  An empty or absent BE tenant's
        # row reads 0.0, and adding 0.0 leaves the positive base as is.
        base = self.idle_w + self.lc_act[self.lc_tbl, self.lc_c, self.lc_w, self.lc_f]
        be_row = np.where(
            self.be_empty[:, None], 0.0,
            self.be_act[self.be_tbl, self.be_c, self.be_w],
        ).ravel()
        noise, faults = self._tick_meter(times)
        for k, tk in enumerate(times):
            # The oracle moves provisioned_power_w immediately before
            # capper.step; the capper reads the live cap.
            self.cap = caps[k]
            true_w = base + be_row[self.row_start + self.be_f] * self.be_duty
            prev = self.m_last_raw if self.m_has_last else None
            self._meter_sample(
                tk, true_w,
                None if noise is None else noise[k],
                None if faults is None else faults[k],
            )
            self._cap_step(k, prev, has_sec, cap_hi[k], cap_lo[k])
            self.sample += 1
        self._add(self.cap_stats, np.count_nonzero(self.events, axis=0))
        if self.events_safe:
            self.events[:, _SAFE_ROWS] = False
            self.events_safe = False

    def _tick_caps(self, times: List[float]) -> Optional[np.ndarray]:
        """Each sub-tick's budget cap per lane, ``(sub-ticks, lanes)``, or
        None when no lane has a cap schedule.

        ``CapSchedule.cap_at`` per lane: an exact integer count of the
        breakpoints already in force at each time (not a float
        reduction), less one and clamped to zero.
        """
        if not self.any_sched:
            return None
        in_force = self.sched_times[:, :, None] <= np.asarray(times)
        idx = np.maximum(np.count_nonzero(in_force, axis=1) - 1, 0)
        return np.ascontiguousarray(self.sched_caps[self._lanes[:, None], idx].T)

    # ------------------------------------------------------------------
    # Power meter (vectorized PowerMeter / FaultyPowerMeter.sample)
    # ------------------------------------------------------------------
    def _tick_meter(
        self, times: List[float]
    ) -> Tuple[Optional[np.ndarray], Optional[List[_SubtickFaults]]]:
        """The meter's inputs for the tick's sub-ticks, in one call.

        Returns each sub-tick's noise row per lane (None for an exact
        meter) and, on a faulted block, each sub-tick's fault activity.
        A fault class draws its tick's noise with one call per tape:
        ``normal(0, sigma, size=k)`` equals k scalar draws bit for bit,
        and k counts only the sub-ticks on which its oracle draws.
        """
        first = not self.m_has_last
        faults = None
        if self.faulted:
            faults = [
                self._meter_faults(tk, first and k == 0)
                for k, tk in enumerate(times)
            ]
        if not self.meter_sigma:
            return None, faults
        z_with = np.zeros((len(times), self.n_fc))
        z_without = np.zeros((len(times), self.n_fc))
        for c in range(self.n_fc):
            rows = [
                k for k in range(len(times))
                if faults is None or faults[k].draws[c]
            ]
            z_with[rows, c] = self.rng_with[c].normal(
                0.0, self.meter_sigma, size=len(rows)
            )
            z_without[rows, c] = self.rng_without[c].normal(
                0.0, self.meter_sigma, size=len(rows)
            )
        noise = np.where(
            self.with_mask, z_with[:, self.fclass], z_without[:, self.fclass]
        )
        return noise, faults

    def _meter_faults(self, t: float, first: bool) -> _SubtickFaults:
        """Each fault class's meter faults at one sub-tick.

        ``first`` marks the first sample ever: no reading to re-serve
        yet, so no dropout, and a stuck-at fault without a pinned value
        holds a fresh (drawn) reading.
        """
        drop = [
            not first and s is not None
            and s.first_active(t, MeterDropout) is not None
            for s in self.fscheds
        ]
        draws = [False] * self.n_fc
        stuck: Dict[int, MeterStuckAt] = {}
        if all(drop):
            return _SubtickFaults(True, None, draws, stuck, [])
        biases: List[List[float]] = [[] for _ in self.fscheds]
        for c, sched in enumerate(self.fscheds):
            if drop[c]:
                continue
            fault = None if sched is None else sched.first_active(t, MeterStuckAt)
            if fault is None:
                draws[c] = True
                if sched is not None:
                    biases[c] = [
                        d.bias_at(t) for d in sched.active(t, MeterDrift)
                    ]
            else:
                stuck[c] = fault
                draws[c] = first and fault.value_w is None
        dropped = np.asarray(drop)[self.fclass] if any(drop) else None
        return _SubtickFaults(
            False, dropped, draws, stuck, list(self._lane_columns(biases))
        )

    def _meter_sample(
        self,
        t: float,
        true_w: np.ndarray,
        noise: Optional[np.ndarray],
        faults: Optional[_SubtickFaults],
    ) -> None:
        """``FaultyPowerMeter.sample`` at one sub-tick: stuck-at first,
        then drift; a dropout re-serves the last reading restamped."""
        if faults is not None and faults.all_dropped:
            # No draw and no EWMA update: the stale reading, restamped.
            self.m_last_time = t
            return
        observed = np.maximum(0.0, true_w if noise is None else true_w + noise)
        raw = observed
        dropped = None
        if faults is not None:
            for lanes, bias in faults.drift:
                drifted = raw + bias
                raw = drifted if lanes is None else np.where(lanes, drifted, raw)
            # Idempotent on lanes without drift: the observation is >= 0.
            raw = np.maximum(0.0, raw)
            for c, fault in faults.stuck.items():
                held = self.held[c].get(fault)
                if held is None:
                    if fault.value_w is not None:
                        held = np.full(self.n, float(fault.value_w))
                    elif self.m_has_last:
                        held = self.m_last_raw.copy()
                    else:
                        held = observed.copy()  # the held value is this draw
                    self.held[c][fault] = held
                # Held readings bypass drift and the trailing clamp.
                raw = held if self.n_fc == 1 else np.where(self.fclass == c, held, raw)
            dropped = faults.dropped
        if not self.m_has_last:
            self.m_filt = raw.copy()
        else:
            filt = 0.5 * raw + 0.5 * self.m_filt
            self.m_filt = filt if dropped is None else np.where(
                dropped, self.m_filt, filt
            )
        if dropped is not None:
            raw = np.where(dropped, self.m_last_raw, raw)
        self.m_last_raw = raw
        self.m_last_time = t
        self.m_has_last = True

    # ------------------------------------------------------------------
    # Power-cap controller (vectorized PowerCapController.step)
    # ------------------------------------------------------------------
    def _watchdog(
        self, k: int, prev: Optional[np.ndarray], has_sec: np.ndarray
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """The meter watchdog at sub-tick ``k``: the lanes it handled and
        those its floor throttled, or None when it had nothing to do.

        ``prev`` is the previous raw reading (None before the first); on
        a noisy meter a repeat counts toward the staleness streak.  The
        safe-mode state machine runs only while a lane is in safe mode
        or a reading is unhealthy; otherwise its updates are identities.
        """
        raw = self.m_last_raw
        unhealthy = raw > self.max_plausible
        if self.meter_sigma > 0 and prev is not None:
            rep = raw == prev
            repeating = bool(_any(rep))
            if repeating or self.repeating:
                self.repeat = (self.repeat + 1) * rep
                self.repeating = repeating
                unhealthy = unhealthy | (self.repeat >= STALE_AFTER)
        if not self.safe_any and not _any(unhealthy):
            return None
        was_safe = self.safe
        trip = ~was_safe & unhealthy
        streak = np.where(unhealthy, 0, self.healthy_streak + 1)
        self.healthy_streak = np.where(
            was_safe, streak, np.where(trip, 0, self.healthy_streak)
        )
        recover = was_safe & (self.healthy_streak >= RECOVERY_SAMPLES)
        handled = (was_safe | trip) & ~recover
        self.safe = handled
        self.safe_any = bool(_any(handled))
        events = self.events
        events[k, _CAP_ROW["safe_mode_steps"]] = handled
        events[k, _CAP_ROW["safe_mode_entries"]] = trip
        events[k, _CAP_ROW["watchdog_trips"]] = trip
        self.events_safe = True
        # _floor: pin secondaries to (min freq, min duty); counts a
        # throttle event only when that actually changes the allocation.
        floor = handled & has_sec
        floored = floor & ((self.be_f != 0) | (self.be_duty != MIN_DUTY_CYCLE))
        self.be_f = np.where(floor, 0, self.be_f)
        self.be_duty = np.where(floor, MIN_DUTY_CYCLE, self.be_duty)
        return handled, floored

    def _cap_step(
        self,
        k: int,
        prev: Optional[np.ndarray],
        has_sec: np.ndarray,
        cap_hi: np.ndarray,
        cap_lo: np.ndarray,
    ) -> None:
        """``PowerCapController.step`` after sub-tick ``k``'s meter sample.

        Lanes with a secondary read the cap as ``cap_hi`` and the cap
        less the restore margin as ``cap_lo``; the others never cross
        them.
        """
        raw, filt = self.m_last_raw, self.m_filt
        events = self.events
        events[k, _CAP_ROW["over_cap_samples"]] = raw > self.cap
        watchdog = self._watchdog(k, prev, has_sec)
        f, duty = self.be_f, self.be_duty
        limited = duty < 1.0
        s = self.sample
        over = filt > cap_hi
        if watchdog is None:
            # A lane without a secondary holds duty 1.0 (granting or
            # releasing one resets it), so it is never duty-limited.
            events[k, _CAP_ROW["duty_limited_samples"]] = limited
        else:
            calm = ~watchdog[0]  # safe-mode lanes stand down
            over = over & calm
            events[k, _CAP_ROW["duty_limited_samples"]] = has_sec & calm & limited
        # Oscillation punishment: a restore that bounced straight back
        # over the cap doubles the restore backoff.
        punish = over & (self.restored_at >= s - 2)
        if _any(punish):
            self.backoff = np.where(
                punish, np.minimum(600, np.maximum(10, self.backoff * 2)),
                self.backoff,
            )
            self.cool_until = np.where(punish, s + self.backoff, self.cool_until)
        # Below the cap less the margin is not over the cap, so no lane
        # both throttles and restores: both read the same f and duty.
        restore = (filt < cap_lo) & (self.cool_until <= s)
        if watchdog is not None:
            restore = restore & calm
        # Ladder steps move the index by one (see _build_ladder_maps).
        f_down = over & (f > 0)
        f_up = restore & (f < self.K - 1)
        at_min = over & (f == 0)
        if _any(limited) or _any(at_min):
            # Duty cycling: below the bottom of the ladder on the way
            # down, before any frequency step on the way up.
            d_down = at_min & (duty > MIN_DUTY_CYCLE + 1e-9)
            d_up = restore & (duty < 1.0 - 1e-9)
            f_up = f_up & ~d_up
            self.be_duty = np.where(
                d_down, np.maximum(MIN_DUTY_CYCLE, duty - DUTY_STEP),
                np.where(d_up, np.minimum(1.0, duty + DUTY_STEP), duty),
            )
            throttled, restored = f_down | d_down, d_up | f_up
        else:
            throttled, restored = f_down, f_up
        events[k, _CAP_ROW["throttle_events"]] = (
            throttled if watchdog is None else throttled | watchdog[1]
        )
        events[k, _CAP_ROW["restore_events"]] = restored
        self.be_f = f - f_down + f_up
        self.restored_at = np.where(restore, s, self.restored_at)

    # ------------------------------------------------------------------
    # Guard invariants (vectorized GuardMonitor.observe, registry order)
    # ------------------------------------------------------------------
    def _fire(self, lane: int, violation: Violation) -> None:
        self.g_total[lane] += 1
        if len(self.g_violations[lane]) < self.guard.max_violations:
            self.g_violations[lane].append(violation)
        if self.g_first_violation[lane] is None:
            self.g_first_violation[lane] = violation

    def _guard_margins(self, t: float) -> Any:
        """The power-cap envelope's margin per lane: the config margin
        plus each active under-reporting drift of the lane's schedule."""
        margins: List[float] = []
        for sched in self.fscheds:
            margin_w = self.guard.cap_margin_w
            if sched is not None:
                for drift in sched.active(t, MeterDrift):
                    bias = drift.bias_at(t)
                    if bias < 0:
                        margin_w += -bias
            margins.append(margin_w)
        if self.n_fc == 1:
            return margins[0]
        return np.asarray(margins)[self.fclass]

    def _guard_observe(
        self, t: float, in_window: bool, tick: int, power: np.ndarray
    ) -> None:
        g = self.guard
        # The oracle's final sample: lanes whose last tick this is.
        final = self.lane_ticks == tick + 1 if tick + 1 in self.lengths else None
        # 1. power-cap: envelope with drift + safe-mode allowances,
        # grace streak per lane.
        if in_window:
            margin_w = self._guard_margins(t)
            safe_allow = np.where(self.safe, self._be_power(), 0.0)
            # PowerCapInvariant._ramp_allowance_w, lane-vectorized in
            # the same float-op order; ramp stays exactly 0.0 on lanes
            # whose cap never steps down, so x + 0.0 keeps unbudgeted
            # runs bit-identical.
            ramp = self.g_ramp * g.cap_ramp_decay
            if self.g_prev_cap_valid:
                ramp = np.where(
                    self.cap < self.g_prev_cap,
                    ramp + (self.g_prev_cap - self.cap),
                    ramp,
                )
            ramp = np.where(ramp < g.cap_ramp_min_w, 0.0, ramp)
            self.g_ramp = ramp
            self.g_prev_cap = self.cap.copy()
            self.g_prev_cap_valid = True
            limit = self.cap + ((margin_w + safe_allow) + ramp)
            exceeds = power > limit
            streak = np.where(exceeds, self.g_cap_streak + 1, 0)
            if self._live is not True:
                streak = np.where(self._live, streak, self.g_cap_streak)
            self.g_cap_streak = streak
            for i in np.flatnonzero(self._running(streak > g.cap_grace_steps)):
                self._fire(int(i), Violation(
                    invariant="power-cap",
                    time_s=t,
                    message=(
                        f"true draw above the provisioned cap envelope for "
                        f"{int(self.g_cap_streak[i])} consecutive control ticks"
                    ),
                    observed=float(power[i]),
                    limit=float(limit[i]),
                ))

        # 2. energy-conservation: strided cumulative check; each lane's
        # final tick always evaluates.  The attribution sum below
        # reproduces AttributedPowerMeter.read() term by term (adding
        # the 0.0 idle-share/active terms of absent tenants is
        # bit-exact).
        tick_no = self.g_energy_tick
        self.g_energy_tick += 1
        stride = tick_no % g.deep_check_every == 0
        if stride or final is not None:
            lc_act = self.lc_act[self.lc_tbl, self.lc_c, self.lc_w, self.lc_f]
            half_idle = self.idle_w * 0.5
            lc_share = half_idle * (self.lc_c / self.C + self.lc_w / self.W)
            be_share = half_idle * (self.be_c / self.C + self.be_w / self.W)
            be_act = self._be_power()
            leftover = np.maximum(0.0, self.idle_w - (lc_share + be_share))
            total = ((lc_act + lc_share) + (be_act + be_share)) + leftover
            error = np.abs(total - power)
            tol = g.energy_abs_tol_w + g.energy_rel_tol * np.abs(power)
            bad = error > tol
            if final is not None and not stride:
                bad = bad & final
            for i in np.flatnonzero(self._running(bad)):
                self._fire(int(i), Violation(
                    invariant="energy-conservation",
                    time_s=t,
                    message=(
                        "attributed tenant power does not sum to the true "
                        "server draw"
                    ),
                    observed=float(error[i]),
                    limit=float(tol[i]),
                ))

        # 3. lc-slo-floor: the primary always exists and is never
        # duty-cycled here (LC duty is pinned to 1.0), so only the
        # core/way floors can fire.
        c_bad = self.lc_c < g.lc_min_cores
        for i in np.flatnonzero(self._running(c_bad)):
            name = self.plans[i].lc_app.name
            self._fire(int(i), Violation(
                invariant="lc-slo-floor",
                time_s=t,
                message=f"primary {name!r} starved below its core floor",
                observed=float(self.lc_c[i]),
                limit=float(g.lc_min_cores),
            ))
        w_bad = ~c_bad & (self.lc_w < g.lc_min_ways)
        for i in np.flatnonzero(self._running(w_bad)):
            name = self.plans[i].lc_app.name
            self._fire(int(i), Violation(
                invariant="lc-slo-floor",
                time_s=t,
                message=f"primary {name!r} starved below its LLC-way floor",
                observed=float(self.lc_w[i]),
                limit=float(g.lc_min_ways),
            ))

        # 4. budget-conservation.  Duty cycles stay in [min_duty, 1] and
        # frequencies on the ladder by construction, so only the
        # oversubscription checks can fire.
        total_c = self.lc_c + self.be_c
        total_w = self.lc_w + self.be_w
        c_over = total_c > self.C
        for i in np.flatnonzero(self._running(c_over)):
            self._fire(int(i), Violation(
                invariant="budget-conservation",
                time_s=t,
                message="tenant core allocations oversubscribe the socket",
                observed=float(total_c[i]),
                limit=float(self.C),
            ))
        w_over = ~c_over & (total_w > self.W)
        for i in np.flatnonzero(self._running(w_over)):
            self._fire(int(i), Violation(
                invariant="budget-conservation",
                time_s=t,
                message="tenant way allocations oversubscribe the LLC",
                observed=float(total_w[i]),
                limit=float(self.W),
            ))

        # 5. monotonic-time: the batched clock is tick * interval with a
        # strictly increasing tick, so it can never fire.

        # 6. rng-isolation: one fingerprint of the legacy global RNG per
        # tick, checked against each lane length's own baseline (lanes
        # of one length check on the same ticks), broadcast to that
        # length's lanes on mismatch.
        if g.check_rng:
            tick_no = self.g_rng_tick
            self.g_rng_tick += 1
            if tick_no % g.deep_check_every == 0:
                checking = [k for k in self.lengths if k > tick]
            else:
                checking = [tick + 1] if final is not None else []
            if not checking:
                return
            state = np.random.get_state()[:3]  # pocolint: disable=determinism-taint
            current = (
                str(state[0]), np.asarray(state[1]).tobytes(), int(state[2])
            )
            for length in checking:
                baseline = self.g_rng_baseline.get(length)
                self.g_rng_baseline[length] = current
                if baseline is None or current == baseline:
                    continue
                shared = Violation(
                    invariant="rng-isolation",
                    time_s=t,
                    message=(
                        "numpy's global legacy RNG advanced mid-run (a "
                        "component drew from np.random instead of its "
                        "seeded generator)"
                    ),
                    observed=float(current[2]),
                    limit=float("nan"),
                )
                for i in np.flatnonzero(self.lane_ticks == length):
                    self._fire(int(i), shared)

    # ------------------------------------------------------------------
    # Result assembly
    # ------------------------------------------------------------------
    def collect(self) -> List[Any]:
        """Per-lane outcomes, bit-identical to the oracle's.

        Lanes whose guard ran in enforce mode and violated return an
        :class:`~repro.errors.InvariantViolationError` carrying the
        first violation (the oracle would have raised it mid-run); the
        caller re-raises it at the lane's delivery position.
        """
        if self._tick < self.n_ticks:
            raise ConfigError("batched sim has not run to completion")
        from repro.sim.cluster import LevelOutcome

        # One telemetry block per lane length: one time axis and one
        # (lanes, ticks) copy of each buffer, which every lane view of
        # that length shares.  Series means are pairwise-exact per
        # length, since numpy's summation tree depends on the length.
        single = len(self.lengths) == 1
        views: Dict[int, Tuple[LaneBlock, Dict[str, List[float]]]] = {}
        rows = np.arange(self.n)
        for length in self.lengths:
            lanes: Any = slice(None)
            if not single:
                lanes = np.flatnonzero(self.lane_ticks == length)
                rows[lanes] = np.arange(len(lanes))
            block = LaneBlock(
                tuple(self.times[:length]),
                {
                    name: np.ascontiguousarray(buf[:length, lanes].T)
                    for name, buf in self.buffers.items()
                },
            )
            means = {
                name: _np_mean_lanes(self.buffers[name][:length, lanes]).tolist()
                for name in ("be_throughput_norm", "power_w", "lc_load_fraction")
            } if length > 0 else {}
            views[length] = (block, means)
        # Lane-indexable epilogue columns, listed once so the per-lane
        # loop does no numpy scalar extraction: positional stat rows,
        # pairwise-exact means of the averaged series.
        cap_rows = list(zip(*self.cap_stats.tolist()))
        mgr_rows = list(zip(*(
            self.mgr_stats[f.name].tolist() for f in fields(ManagerStats)
        )))
        lane_ticks = self.lane_ticks.tolist()
        lane_rows = rows.tolist()
        joules = self.joules.tolist()
        slo = self.slo_violations.tolist()
        g_total = self.g_total.tolist()

        enforcing = self.guard is not None and self.guard.enforcing
        out: List[Any] = []
        for i in range(self.n):
            first = self.g_first_violation[i]
            if enforcing and first is not None:
                out.append(InvariantViolationError(
                    f"guard invariant violated in enforce mode: "
                    f"{first.render()}"
                ))
                continue
            plan = self.plans[i]
            lc_name = plan.lc_app.name
            be_app = self.be_apps[i]
            has_be = be_app is not None
            be_name = be_app.name if has_be else None
            ticks = lane_ticks[i]
            block, means = views[ticks]
            row = lane_rows[i]
            filled, empty = _series_layout(
                ticks > 0, self.schedules[i] is not None, has_be
            )
            # The oracle's aggregation epilogue reads these series, so
            # they exist even when empty; an empty series averages 0.0.
            avg_norm = (
                means["be_throughput_norm"][row] if has_be and means else 0.0
            )
            avg_power = means["power_w"][row] if means else 0.0
            report = None
            if self.guard is not None:
                report = GuardReport(
                    mode=self.guard.mode,
                    checks=6 * (self.n_warmup + ticks),
                    total_violations=g_total[i],
                    violations=tuple(self.g_violations[i]),
                )
            result = ColocationResult(
                lc_name=lc_name,
                be_name=be_name,
                duration_s=self.durations[i],
                avg_be_throughput_norm=avg_norm,
                avg_be_throughput_abs=(
                    avg_norm * be_app.peak_throughput if has_be else 0.0
                ),
                avg_lc_load_fraction=(
                    means["lc_load_fraction"][row] if means else 0.0
                ),
                avg_power_w=avg_power,
                power_utilization=avg_power / plan.provisioned_power_w,
                energy_kwh=joules[i] / 3.6e6,
                slo_violation_fraction=slo[i] / max(1, ticks),
                cap_stats=CapStats(*cap_rows[i]),
                manager_stats=ManagerStats(*mgr_rows[i]),
                telemetry=LaneTelemetry(block, row, filled, empty),
                guard_report=report,
            )
            out.append(LevelOutcome(
                lc_name=lc_name,
                be_name=be_name,
                level=self.levels_raw[i],
                result=result,
            ))
        return out


# ----------------------------------------------------------------------
# Entry point: the batched equivalent of running each cell in order
# ----------------------------------------------------------------------
def run_batched_cells(
    tasks: Sequence[Cell],
    on_result: Optional[Callable[[List[Tuple[int, Any]]], None]] = None,
) -> List[Any]:
    """Run :class:`~repro.sim.cluster.Cell` records through the batched core.

    Mirrors the :func:`~repro.engine.parallel.map_ordered` run of the cells
    exactly: results arrive in cell order, and failures raise the same
    ``ExecutionError`` wrapping at the same position.  Cells the
    batched core cannot claim (unknown manager types, unsupported
    faults) fall back to the per-object oracle, one cell at a time.

    ``on_result(delivered)`` receives each run of results delivered
    together, as ``(position, result)`` pairs in ascending position
    order: the batched results up to the next oracle fallback (or
    failure) arrive in one call, before that fallback runs.
    """
    from repro.sim.cluster import _run_cell

    tasks = list(tasks)
    groups, fallback, infos = _partition(tasks, {})
    slots: List[Any] = [None] * len(tasks)
    for positions in groups.values():
        # No fallback here: an error in a group the probe admitted is a
        # bug in the batched core and propagates to the caller.
        sim = BatchedClusterSim(
            [tasks[i] for i in positions],
            [infos[i] for i in positions],
        )
        sim.run()
        outcomes = sim.collect()
        for position, outcome in zip(positions, outcomes):
            slots[position] = outcome

    total = len(tasks)
    results: List[Any] = []
    delivered: List[Tuple[int, Any]] = []

    def deliver() -> None:
        if on_result is not None and delivered:
            on_result(list(delivered))
            delivered.clear()

    for position, cell in enumerate(tasks):
        if position in fallback:
            deliver()
            try:
                result = _run_cell(cell)
            except Exception as exc:
                raise _task_failure(position, total, _run_cell, (cell,), exc) from exc
        else:
            entry = slots[position]
            if isinstance(entry, InvariantViolationError):
                # The oracle raises mid-run in enforce mode; re-raise at
                # the same delivery position with the same wrapping.
                deliver()
                raise _task_failure(
                    position, total, _run_cell, (cell,), entry
                ) from entry
            result = entry
        results.append(result)
        if on_result is not None:
            delivered.append((position, result))
    deliver()
    return results
