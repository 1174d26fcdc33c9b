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
* **Group-uniform faults** — a :class:`~repro.faults.schedule
  .FaultSchedule` is shared by every lane of a group, so gap/dropout/
  stuck windows gate *whether* a draw happens uniformly across lanes.

Anything the probe cannot prove eligible (custom manager classes,
irregular DVFS ladders, unknown fault types, factories that raise) falls
back lane-by-lane to the per-object oracle at its delivery position, so
``run_batched_cells`` is a drop-in for running each
:class:`~repro.sim.cluster.Cell` through the oracle in order.

The per-object path stays authoritative: ``tests/test_batched_
differential.py`` proves equality field-by-field, and the object engine
must never be "cleaned up" against the batched one (see docs/ENGINE.md).
Manager factories are assumed deterministic — the same purity contract
cell dedupe already relies on.
"""

# pocolint: lane-module

from __future__ import annotations

import copy
from dataclasses import asdict, fields
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.server_manager import (
    HeraclesLikeManager,
    ManagerStats,
    PowerOptimizedManager,
    balanced_allocation,
)
from repro.core.utility import integer_min_power_allocation
from repro.errors import CapacityError, ConfigError, InvariantViolationError
from repro.faults.schedule import (
    FaultSchedule,
    LoadSpike,
    MeterDrift,
    MeterDropout,
    MeterStuckAt,
    ModelStaleness,
    TelemetryGap,
    rng_from_state,
    rng_state,
)
from repro.guard.invariants import GuardReport, Violation
from repro.hwmodel.capping import CapStats, PowerCapController
from repro.hwmodel.meter import PowerMeter
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

#: Fault types whose group-uniform gating the batched core reproduces.
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

# ----------------------------------------------------------------------
# Value-keyed global caches.  Keys are frozen dataclasses (profiles,
# specs, models) compared by value, so equal-by-value inputs share
# tables across invocations; nothing here is keyed by id().
# ----------------------------------------------------------------------
_LADDER_MAPS: Dict[ServerSpec, Any] = {}
_SURFACE_TABLES: Dict[Tuple[Any, ServerSpec], Tuple[np.ndarray, np.ndarray]] = {}
_MODEL_GRIDS: Dict[Tuple[Any, ServerSpec], np.ndarray] = {}
_SOLVER_MEMO: Dict[Tuple[Any, ServerSpec, float], Tuple[Any, ...]] = {}


def clear_batched_caches() -> None:
    """Drop every value-keyed table cache (tests and benchmarks)."""
    _LADDER_MAPS.clear()
    _SURFACE_TABLES.clear()
    _MODEL_GRIDS.clear()
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
    themselves, and span exactly [min_ghz, max_ghz].
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
        "up_idx": np.asarray(up, dtype=np.int64),
        "can_down": np.asarray([v > ladder.min_ghz + 1e-9 for v in vals]),
        "can_up": np.asarray([v < ladder.max_ghz - 1e-9 for v in vals]),
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


def _model_grid(model: Any, spec: ServerSpec) -> np.ndarray:
    """``model.performance((c, w))`` over the integer allocation grid."""
    key = (model, spec)
    hit = _MODEL_GRIDS.get(key)
    if hit is not None:
        return hit
    grid = np.zeros((spec.cores + 1, spec.llc_ways + 1), dtype=np.float64)
    for c in range(1, spec.cores + 1):
        for w in range(1, spec.llc_ways + 1):
            grid[c, w] = model.performance((float(c), float(w)))
    _MODEL_GRIDS[key] = grid
    return grid


def _solve_allocation(model: Any, spec: ServerSpec, target: float) -> Tuple[Any, ...]:
    """Memoized least-power solve; returns ("ok", c, w) or ("err",)."""
    key = (model, spec, float(target))
    hit = _SOLVER_MEMO.get(key)
    if hit is not None:
        return hit
    try:
        alloc = integer_min_power_allocation(model, target, spec)
        entry: Tuple[Any, ...] = ("ok", alloc.cores, alloc.ways)
    except CapacityError:
        entry = ("err",)
    _SOLVER_MEMO[key] = entry
    return entry


# ----------------------------------------------------------------------
# Probing and partitioning
# ----------------------------------------------------------------------
def _probe_plan(
    plan: Any,
    spec: ServerSpec,
    be_app: Any,
    cache: Dict[Any, Any],
) -> Optional[Dict[str, Any]]:
    """Build one throwaway server+manager to learn a plan's initial state.

    The probe proves the plan drives a manager class whose decision
    procedure the batched core replicates, and records every knob and
    every bit of initial mutable state.  The cache is per-invocation
    (id() keys are only stable while the objects are alive).  A probe
    that raises or fails any eligibility check caches a negative: those
    lanes run on the per-object oracle instead.
    """
    key = (
        id(plan.lc_app),
        id(be_app) if be_app is not None else None,
        plan.provisioned_power_w,
        id(plan.manager_factory),
        spec,
    )
    hit = cache.get(key, None)
    if hit is not None:
        return None if hit is _INELIGIBLE else hit
    try:
        info = _build_probe(plan, spec, be_app)
    except Exception:  # pocolint: disable=exception-policy
        # Deliberate swallow: a probe that cannot model the cell is not
        # a failure, it routes the cell to the per-object oracle.
        info = None
    cache[key] = _INELIGIBLE if info is None else info
    return info


def _build_probe(plan: Any, spec: ServerSpec, be_app: Any) -> Optional[Dict[str, Any]]:
    maps = _ladder_maps(spec)
    if maps is None:
        return None
    server = build_colocated_server(
        spec=spec,
        lc_app=plan.lc_app,
        provisioned_power_w=plan.provisioned_power_w,
        be_app=be_app,
        name=f"{plan.lc_app.name}-server",
    )
    manager = plan.manager_factory(server)
    if manager.server is not server:
        return None
    if type(manager) is HeraclesLikeManager:
        kind = "heracles"
    elif type(manager) is PowerOptimizedManager:
        kind = "pom"
    else:
        return None
    primary = server.primary_tenant()
    if primary is None:
        return None
    lc0 = server.allocation_of(primary)
    if lc0.is_empty or lc0.duty_cycle != 1.0 or lc0.freq_ghz not in maps["index"]:
        return None
    be_name = server.secondary_tenant()
    if (be_app is not None) != (be_name is not None):
        return None
    be0: Optional[Tuple[int, int, int, float]] = None
    if be_name is not None:
        be_alloc = server.allocation_of(be_name)
        if not be_alloc.is_empty:
            if be_alloc.freq_ghz not in maps["index"]:
                return None
            be0 = (
                be_alloc.cores,
                be_alloc.ways,
                maps["index"][be_alloc.freq_ghz],
                be_alloc.duty_cycle,
            )
    capper = PowerCapController(server=server, meter=PowerMeter(source=lambda: 0.0))
    if not capper.watchdog:
        return None
    info: Dict[str, Any] = {
        "kind": kind,
        "primary": primary,
        "lc0": (lc0.cores, lc0.ways, maps["index"][lc0.freq_ghz]),
        "be0": be0,
        "stats0": asdict(manager.stats),
        "slack_target": float(manager.slack_target),
        "slack_upper": float(manager.slack_upper),
        "capper": {
            "duty_step": float(capper.duty_step),
            "min_duty": float(capper.min_duty_cycle),
            "restore_margin": float(capper.restore_margin_w),
            "stale_after": int(capper.stale_after),
            "recovery_samples": int(capper.recovery_samples),
            "max_plausible": float(capper.max_plausible_w),
        },
    }
    if kind == "heracles":
        if manager.path not in ("balanced", "random"):
            return None
        info.update(
            path=manager.path,
            shrink_patience=int(manager.shrink_patience),
            grow_cooldown=int(manager.grow_cooldown),
            floor_ttl=int(manager.floor_ttl),
            walk_state=rng_state(manager._walk_rng),
            streak0=int(manager._high_slack_streak),
            cooldown0=int(manager._cooldown),
            floor0=int(manager._floor_cores),
            floor_age0=int(manager._floor_age),
        )
    else:
        model = manager.model
        hash(model)  # memo keys need value-hashable models
        info.update(
            model=model,
            headroom0=float(manager.headroom),
            min_headroom=float(manager.min_headroom),
            max_headroom=float(manager.max_headroom),
            freq_trim=bool(manager.freq_trim),
            distrust_after=int(manager.distrust_after),
            retrust_after=int(manager.retrust_after),
            miss0=int(manager._miss_streak),
            fb_left0=int(manager._fallback_steps_left),
            promised0=manager._promised_capacity,
            promised_at_max0=bool(manager._promised_at_max_freq),
        )
    return info


def _faults_batchable(faults: Optional[FaultSchedule]) -> bool:
    """Whether the batched core reproduces every fault of a schedule.

    Only the group-uniform fault types are supported, and stale models
    must hash by value (they key the solver memo).
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
) -> Tuple[Dict[Any, List[int]], Set[int], List[Optional[Dict[str, Any]]]]:
    """Split cells into batchable groups and oracle-fallback positions.

    A group shares everything that must be uniform across lanes of one
    :class:`BatchedClusterSim`: the fault schedule (by identity — the
    cluster planner shares one schedule object per co-runner set), the
    guard config, duration, sim config, server spec and manager kind.
    """
    groups: Dict[Any, List[int]] = {}
    fallback: Set[int] = set()
    infos: List[Optional[Dict[str, Any]]] = [None] * len(tasks)
    for i, cell in enumerate(tasks):
        info = None
        if _faults_batchable(cell.faults):
            info = _probe_plan(cell.plan, cell.spec, cell.be_app, probe_cache)
        if info is None:
            fallback.add(i)
            continue
        infos[i] = info
        group_key = (
            id(cell.faults) if cell.faults is not None else None,
            cell.guard,
            float(cell.duration_s),
            cell.config,
            cell.spec,
            info["kind"],
        )
        groups.setdefault(group_key, []).append(i)
    return groups, fallback, infos


def partition_cells(tasks: Sequence[Cell]) -> Tuple[Dict[Any, List[int]], Set[int]]:
    """Public partition view: group-key -> positions, plus fallback set.

    Property tests use this to assert which cells the batched core
    claims (and that permuting/concatenating task lists only permutes
    the groups, never the per-cell results).
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


# ----------------------------------------------------------------------
# The batched simulation core
# ----------------------------------------------------------------------
class BatchedClusterSim:
    """All lanes of one uniform group, stepped together per control tick.

    A *lane* is one (server, level) colocation cell.  Construction
    mirrors ``ColocationSim.__init__`` + ``run()`` setup for every lane
    at once; :meth:`step` is one control tick of the oracle's loop body;
    :meth:`collect` assembles per-lane :class:`LevelOutcome` objects
    bit-identical to the oracle's.

    :meth:`export_state` / :meth:`import_state` snapshot the mutable
    array state (including both RNG tapes and per-lane walk generators)
    so an in-process resume continues bit-identically; the snapshot is a
    deep copy and holds live fault objects as dict keys, so it is an
    in-process checkpoint, not a serialization format.
    """

    #: Mutable state snapshotted by export_state/import_state.  RNG
    #: generators are handled separately via rng_state/rng_from_state.
    _MUTABLE = (
        "_tick", "lc_c", "lc_w", "lc_f", "be_c", "be_w", "be_f", "be_duty",
        "be_empty", "cap_stats", "ssr", "backoff", "cooldown", "safe",
        "prev_raw", "prev_valid", "repeat", "healthy_streak",
        "m_filt", "m_filt_init", "m_last_raw", "m_last_filt", "m_last_time",
        "m_has_last", "held", "e_prev_w", "e_prev_t", "e_has_prev", "joules",
        "mgr_stats", "h_streak", "h_cooldown", "h_floor", "h_floor_age",
        "p_headroom", "p_miss", "p_fb_left", "p_promised", "p_promised_valid",
        "p_promised_at_max", "eff_midx", "model_swapped",
        "stale_load", "stale_slack", "have_stale",
        "slo_violations", "buffers", "g_cap_streak", "g_energy_tick",
        "g_rng_tick", "g_rng_baseline", "g_total", "g_violations",
        "g_first_violation", "cap", "g_prev_cap", "g_prev_cap_valid",
        "g_ramp",
    )

    def __init__(self, tasks: Sequence[Cell], infos: Sequence[Dict[str, Any]]) -> None:
        if not tasks:
            raise ConfigError("batched sim needs at least one lane")
        n = len(tasks)
        cell0 = tasks[0]
        spec, config, duration_s = cell0.spec, cell0.config, cell0.duration_s
        self.spec = spec
        self.config = config
        self.faults = cell0.faults
        self.guard = cell0.guard
        self.duration_s = duration_s
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
        self.n_ticks = int(round(duration_s / cfg.control_interval_s))
        self.subticks = int(round(cfg.control_interval_s / cfg.power_interval_s))
        if self.n_ticks < 0 or self.subticks < 1:
            raise ConfigError("degenerate tick geometry")

        kind = infos[0]["kind"]
        self.kind = kind
        self.plans = [t.plan for t in tasks]
        self.levels_raw = [t.level for t in tasks]
        self.be_apps = [t.be_app for t in tasks]
        self.durations = [t.duration_s for t in tasks]

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

        # ---- manager knobs and state -------------------------------
        self.slack_target = np.asarray([i["slack_target"] for i in infos])
        self.slack_upper = np.asarray([i["slack_upper"] for i in infos])
        self.mgr_stats = {
            f: np.asarray([i["stats0"][f] for i in infos], dtype=np.int64)
            for f in infos[0]["stats0"]
        }
        if kind == "heracles":
            self.h_random = np.asarray([i["path"] == "random" for i in infos])
            self.h_patience = np.asarray(
                [i["shrink_patience"] for i in infos], dtype=np.int64
            )
            self.h_grow_cd = np.asarray(
                [i["grow_cooldown"] for i in infos], dtype=np.int64
            )
            self.h_floor_ttl = np.asarray(
                [i["floor_ttl"] for i in infos], dtype=np.int64
            )
            self.h_streak = np.asarray([i["streak0"] for i in infos], dtype=np.int64)
            self.h_cooldown = np.asarray(
                [i["cooldown0"] for i in infos], dtype=np.int64
            )
            self.h_floor = np.asarray([i["floor0"] for i in infos], dtype=np.int64)
            self.h_floor_age = np.asarray(
                [i["floor_age0"] for i in infos], dtype=np.int64
            )
            self.walk_rngs = [rng_from_state(i["walk_state"]) for i in infos]
        else:
            models: List[Any] = []
            midx = np.zeros(n, dtype=np.int64)
            for i, info in enumerate(infos):
                model = info["model"]
                try:
                    mi = models.index(model)
                except ValueError:
                    mi = len(models)
                    models.append(model)
                midx[i] = mi
            if self.faults is not None:
                for f in self.faults.faults:
                    if isinstance(f, ModelStaleness) and f.model not in models:
                        models.append(f.model)
            self.models = models
            self.midx = midx
            self.grids = np.stack([_model_grid(m, spec) for m in models])
            self.floor_perf = self.grids[:, 1, 1].copy()
            self.full_perf = self.grids[:, self.C, self.W].copy()
            self.p_headroom = np.asarray([i["headroom0"] for i in infos])
            self.p_min_headroom = np.asarray([i["min_headroom"] for i in infos])
            self.p_max_headroom = np.asarray([i["max_headroom"] for i in infos])
            self.p_freq_trim = np.asarray([i["freq_trim"] for i in infos])
            self.p_distrust = np.asarray(
                [i["distrust_after"] for i in infos], dtype=np.int64
            )
            self.p_retrust = np.asarray(
                [i["retrust_after"] for i in infos], dtype=np.int64
            )
            self.p_miss = np.asarray([i["miss0"] for i in infos], dtype=np.int64)
            self.p_fb_left = np.asarray(
                [i["fb_left0"] for i in infos], dtype=np.int64
            )
            self.p_promised = np.asarray(
                [0.0 if i["promised0"] is None else float(i["promised0"])
                 for i in infos]
            )
            self.p_promised_valid = np.asarray(
                [i["promised0"] is not None for i in infos]
            )
            self.p_promised_at_max = np.asarray(
                [i["promised_at_max0"] for i in infos]
            )
        self.eff_midx = self.midx.copy() if kind == "pom" else None
        self.model_swapped = False

        # ---- capper knobs and state --------------------------------
        cap0 = infos[0]["capper"]
        self.duty_step = np.asarray([i["capper"]["duty_step"] for i in infos])
        self.min_duty = np.asarray([i["capper"]["min_duty"] for i in infos])
        self.restore_margin = np.asarray(
            [i["capper"]["restore_margin"] for i in infos]
        )
        self.stale_after = np.asarray(
            [i["capper"]["stale_after"] for i in infos], dtype=np.int64
        )
        self.recovery_samples = np.asarray(
            [i["capper"]["recovery_samples"] for i in infos], dtype=np.int64
        )
        self.max_plausible = np.asarray(
            [i["capper"]["max_plausible"] for i in infos]
        )
        del cap0
        self.cap_stats = {
            f: np.zeros(n, dtype=np.int64)
            for f in (
                "samples", "over_cap_samples", "throttle_events",
                "restore_events", "duty_limited_samples", "safe_mode_steps",
                "safe_mode_entries", "watchdog_trips",
            )
        }
        self.ssr = np.full(n, 10 ** 9, dtype=np.int64)
        self.backoff = np.zeros(n, dtype=np.int64)
        self.cooldown = np.zeros(n, dtype=np.int64)
        self.safe = np.zeros(n, dtype=bool)
        self.prev_raw = np.zeros(n)
        self.prev_valid = np.zeros(n, dtype=bool)
        self.repeat = np.zeros(n, dtype=np.int64)
        self.healthy_streak = np.zeros(n, dtype=np.int64)

        # ---- meter / energy ----------------------------------------
        self.meter_sigma = float(cfg.meter_noise_w)
        self.m_filt = np.zeros(n)
        self.m_filt_init = False
        self.m_last_raw = np.zeros(n)
        self.m_last_filt = np.zeros(n)
        self.m_last_time = 0.0
        self.m_has_last = False
        self.held: Dict[Any, np.ndarray] = {}
        self.e_prev_w = np.zeros(n)
        self.e_prev_t = 0.0
        self.e_has_prev = False
        self.joules = np.zeros(n)

        # ---- RNG tapes ---------------------------------------------
        # Two tape classes (module docstring): lanes that draw the load
        # lognormal and lanes whose zero true load skips it.
        self.rng_with = np.random.default_rng(cfg.seed)
        self.rng_without = np.random.default_rng(cfg.seed)
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
        self.g_rng_baseline: Optional[Tuple[str, bytes, int]] = None
        self.g_total = np.zeros(n, dtype=np.int64)
        self.g_violations: List[List[Violation]] = [[] for _ in range(n)]
        self.g_first_violation: List[Optional[Violation]] = [None] * n

        self._tick = -self.n_warmup

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
        if self.faults is not None:
            for spike in self.faults.active(t, LoadSpike):
                load_frac = np.minimum(1.0, load_frac * spike.factor)
            self._apply_model_staleness(t)
        true_load = load_frac * self.peak_load

        in_gap = (
            self.faults is not None
            and self.have_stale
            and self.faults.first_active(t, TelemetryGap) is not None
        )
        if in_gap:
            measured_load = self.stale_load
            measured_slack = self.stale_slack
        else:
            if cfg.load_noise > 0:
                z_load = self.rng_with.lognormal(mean=0.0, sigma=cfg.load_noise)
                measured_load = np.where(
                    self.with_mask, true_load * z_load, true_load
                )
            else:
                measured_load = true_load.copy()
            capacity = self._lc_capacity(self.lc_c, self.lc_w, self.lc_f)
            p99 = self._true_p99(true_load, capacity)
            if cfg.latency_noise > 0:
                z_w = self.rng_with.lognormal(mean=0.0, sigma=cfg.latency_noise)
                z_wo = self.rng_without.lognormal(
                    mean=0.0, sigma=cfg.latency_noise
                )
                p99 = p99 * np.where(self.with_mask, z_w, z_wo)
            measured_slack = 1.0 - p99 / self.slo_p99
            self.stale_load = measured_load
            self.stale_slack = measured_slack
            self.have_stale = True

        self._control_step(measured_load, measured_slack)

        for k in range(self.subticks):
            self._capper_step(t + k * cfg.power_interval_s)

        true_slack = 1.0 - self._true_p99(
            true_load, self._lc_capacity(self.lc_c, self.lc_w, self.lc_f)
        ) / self.slo_p99
        power = self._power()
        if self.guard is not None:
            self._guard_observe(
                t, in_window, tick == self.n_ticks - 1, power, load_frac
            )
        if in_window:
            self.slo_violations += true_slack < 0
            buf = self.buffers
            buf["power_w"][tick] = power
            buf["lc_load_fraction"][tick] = load_frac
            buf["lc_slack"][tick] = true_slack
            buf["safe_mode"][tick] = np.where(self.safe, 1.0, 0.0)
            buf["lc_cores"][tick] = self.lc_c
            buf["lc_ways"][tick] = self.lc_w
            if self.any_sched:
                # End-of-tick cap (the last subtick's gather), recorded
                # only into scheduled lanes' series at assembly.
                buf["effective_cap_w"][tick] = self.cap
            # meter.last_reading exists after the first subtick ever.
            if self.e_has_prev:
                dt = self.m_last_time - self.e_prev_t
                self.joules = self.joules + (
                    0.5 * (self.e_prev_w + self.m_last_raw)
                ) * dt
            self.e_prev_w = self.m_last_raw.copy()
            self.e_prev_t = self.m_last_time
            self.e_has_prev = True
            norm = self.be_norm[self.be_tbl, self.be_c, self.be_w, self.be_f]
            buf["be_throughput_norm"][tick] = np.where(
                self.be_empty, 0.0, norm * self.be_duty
            )
            # An empty Allocation reports the dataclass default freq.
            buf["be_freq_ghz"][tick] = np.where(
                self.be_empty, 2.2, self.maps["vals_arr"][self.be_f]
            )
            buf["be_duty"][tick] = self.be_duty
        self._tick += 1

    def run(self) -> None:
        """Advance to the end of the run (idempotent once complete)."""
        while self._tick < self.n_ticks:
            self.step()

    def _apply_model_staleness(self, t: float) -> None:
        if self.kind != "pom":
            return
        fault = self.faults.first_active(t, ModelStaleness)
        if fault is not None and not self.model_swapped:
            self.eff_midx = np.full(self.n, self.models.index(fault.model),
                                    dtype=np.int64)
            self.model_swapped = True
        elif fault is None and self.model_swapped:
            self.eff_midx = self.midx.copy()
            self.model_swapped = False

    # ------------------------------------------------------------------
    # Manager control step (vectorized ServerManagerBase.control_step)
    # ------------------------------------------------------------------
    def _control_step(
        self, measured_load: np.ndarray, measured_slack: np.ndarray
    ) -> None:
        stats = self.mgr_stats
        stats["control_steps"] += 1
        stats["slo_violations"] += measured_slack < 0
        if self.kind == "heracles":
            tc, tw, tf = self._heracles_decide(measured_slack)
        else:
            tc, tw, tf = self._pom_decide(measured_load, measured_slack)
        changed = (tc != self.lc_c) | (tw != self.lc_w) | (tf != self.lc_f)
        stats["reconfigurations"] += changed
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
        self, slack: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        self.h_cooldown = np.where(
            self.h_cooldown > 0, self.h_cooldown - 1, self.h_cooldown
        )
        self.h_floor_age += 1
        self.h_floor = np.where(self.h_floor_age > self.h_floor_ttl, 1, self.h_floor)

        grow = slack < self.slack_target
        self.mgr_stats["grow_actions"] += grow
        self.h_cooldown = np.where(grow, self.h_grow_cd, self.h_cooldown)
        new_floor = np.minimum(self.C, self.lc_c + 1)
        self.h_floor = np.where(grow, new_floor, self.h_floor)
        self.h_floor_age = np.where(grow, 0, self.h_floor_age)

        high = ~grow & (slack > self.slack_upper)
        streak = np.where(high, self.h_streak + 1, 0)
        can_shrink = (
            high
            & (self.h_cooldown == 0)
            & (streak >= self.h_patience)
            & (self.lc_c - 1 >= self.h_floor)
        )
        self.mgr_stats["shrink_actions"] += can_shrink
        self.h_streak = np.where(can_shrink, 0, streak)

        bal_c, bal_w = self.maps["bal_c"], self.maps["bal_w"]
        tc, tw, tf = self.lc_c.copy(), self.lc_w.copy(), self.lc_f.copy()
        bal_grow = grow & ~self.h_random
        bal_shrink = can_shrink & ~self.h_random
        req = np.where(bal_grow, self.lc_c + 1, np.where(bal_shrink, self.lc_c - 1, 0))
        moved = bal_grow | bal_shrink
        tc = np.where(moved, bal_c[req], tc)
        tw = np.where(moved, bal_w[req], tw)
        tf = np.where(moved, self.K - 1, tf)

        # Random-walk lanes: per-lane generators, rare-event scalar loop.
        for i in np.flatnonzero(grow & self.h_random):
            c, w = int(self.lc_c[i]), int(self.lc_w[i])
            options = []
            if c + 1 <= self.C:
                options.append((c + 1, w))
            if w + 2 <= self.W:
                options.append((c, w + 2))
            if not options:
                tc[i], tw[i] = bal_c[c + 1], bal_w[c + 1]
            else:
                pick = options[int(self.walk_rngs[i].integers(len(options)))]
                tc[i], tw[i] = pick
            tf[i] = self.K - 1
        for i in np.flatnonzero(can_shrink & self.h_random):
            c, w = int(self.lc_c[i]), int(self.lc_w[i])
            options = []
            if c - 1 >= self.h_floor[i]:
                options.append((c - 1, w))
            if w - 2 >= 1:
                options.append((c, w - 2))
            if options:
                pick = options[int(self.walk_rngs[i].integers(len(options)))]
                tc[i], tw[i] = pick
                tf[i] = self.K - 1
        return tc, tw, tf

    def _pom_decide(
        self, measured_load: np.ndarray, measured_slack: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        stats = self.mgr_stats
        grow = measured_slack < self.slack_target
        shrink = ~grow & (measured_slack > self.slack_upper)
        stats["grow_actions"] += grow
        stats["shrink_actions"] += shrink
        self.p_headroom = np.where(
            grow,
            np.minimum(self.p_max_headroom, self.p_headroom * 1.25),
            np.where(
                shrink,
                np.maximum(self.p_min_headroom, self.p_headroom * 0.93),
                self.p_headroom,
            ),
        )

        observing = self.p_promised_valid & self.p_promised_at_max
        covered = measured_load <= self.p_promised * 0.95
        self.p_miss = np.where(
            observing, np.where(grow & covered, self.p_miss + 1, 0), self.p_miss
        )
        enter = (self.p_fb_left == 0) & (self.p_miss >= self.p_distrust)
        stats["model_fallbacks"] += enter
        self.p_fb_left = np.where(enter, self.p_retrust, self.p_fb_left)
        self.p_miss = np.where(enter, 0, self.p_miss)
        fb = self.p_fb_left > 0
        self.p_fb_left = np.where(fb, self.p_fb_left - 1, self.p_fb_left)
        stats["model_fallback_steps"] += fb
        self.p_promised_valid = np.where(fb, False, self.p_promised_valid)

        bal_c, bal_w = self.maps["bal_c"], self.maps["bal_w"]
        req = np.where(
            grow, self.lc_c + 1,
            np.where(measured_slack > self.slack_upper, self.lc_c - 1, self.lc_c),
        )
        tc = np.where(fb, bal_c[req], 0)
        tw = np.where(fb, bal_w[req], 0)
        tf = np.full(self.n, self.K - 1, dtype=np.int64)

        nm = ~fb
        if np.any(nm):
            eff = self.eff_midx
            target = np.maximum(measured_load, 1e-9) * self.p_headroom
            target = np.minimum(
                np.maximum(target, self.floor_perf[eff]), self.full_perf[eff]
            )
            ac = np.zeros(self.n, dtype=np.int64)
            aw = np.zeros(self.n, dtype=np.int64)
            local: Dict[Tuple[int, float], Tuple[Any, ...]] = {}
            for i in np.flatnonzero(nm):
                key = (int(eff[i]), float(target[i]))
                entry = local.get(key)
                if entry is None:
                    entry = _solve_allocation(
                        self.models[key[0]], self.spec, target[i]
                    )
                    local[key] = entry
                if entry[0] == "ok":
                    ac[i], aw[i] = entry[1], entry[2]
                else:
                    stats["solver_fallbacks"][i] += 1
                    ac[i], aw[i] = self.C, self.W
            at_floor = (ac == self.lc_c) & (aw == self.lc_w)
            trim_down = (
                nm & self.p_freq_trim
                & (measured_slack > self.slack_upper) & at_floor
            )
            hold_freq = (
                nm & self.p_freq_trim & ~trim_down
                & (measured_slack >= self.slack_target)
            )
            tf = np.where(trim_down, self.maps["down_idx"][self.lc_f], tf)
            tf = np.where(hold_freq, self.lc_f, tf)
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

    # ------------------------------------------------------------------
    # Power meter (vectorized PowerMeter / FaultyPowerMeter.sample)
    # ------------------------------------------------------------------
    def _meter_base_observe(self) -> np.ndarray:
        """``PowerMeter._observe``: true draw plus gaussian meter noise."""
        true_w = self._power()
        if self.meter_sigma:
            z_w = self.rng_with.normal(0.0, self.meter_sigma)
            z_wo = self.rng_without.normal(0.0, self.meter_sigma)
            return np.maximum(0.0, true_w + np.where(self.with_mask, z_w, z_wo))
        return np.maximum(0.0, true_w + 0.0)

    def _meter_observe(self, t: float) -> np.ndarray:
        """``FaultyPowerMeter._observe``: stuck-at first, then drift."""
        if self.faults is None:
            return self._meter_base_observe()
        stuck = self.faults.first_active(t, MeterStuckAt)
        if stuck is not None:
            if stuck not in self.held:
                if stuck.value_w is not None:
                    self.held[stuck] = np.full(self.n, float(stuck.value_w))
                elif self.m_has_last:
                    self.held[stuck] = self.m_last_raw.copy()
                else:
                    self.held[stuck] = self._meter_base_observe()
            # Held readings bypass drift and the trailing clamp.
            return self.held[stuck]
        raw = self._meter_base_observe()
        for drift in self.faults.active(t, MeterDrift):
            raw = raw + drift.bias_at(t)
        return np.maximum(0.0, raw)

    def _meter_sample(self, t: float) -> None:
        """``sample``: dropout re-serves the last reading restamped."""
        if (
            self.faults is not None
            and self.m_has_last
            and self.faults.first_active(t, MeterDropout) is not None
        ):
            # FaultyPowerMeter re-publishes the stale reading under the
            # new timestamp: no draw, no EWMA update.
            self.m_last_time = t
            return
        raw = self._meter_observe(t)
        if not self.m_filt_init:
            self.m_filt = raw.copy()
            self.m_filt_init = True
        else:
            self.m_filt = 0.5 * raw + 0.5 * self.m_filt
        self.m_last_raw = raw
        self.m_last_filt = self.m_filt
        self.m_last_time = t
        self.m_has_last = True

    # ------------------------------------------------------------------
    # Power-cap loop (vectorized PowerCapController.step)
    # ------------------------------------------------------------------
    def _watchdog_step(self, raw: np.ndarray, has_sec: np.ndarray) -> np.ndarray:
        """Safe-mode state machine; returns the lanes it handled."""
        stats = self.cap_stats
        armed = self.meter_sigma > 0
        if armed:
            rep = self.prev_valid & (raw == self.prev_raw)
            self.repeat = np.where(rep, self.repeat + 1, 0)
        else:
            self.repeat = np.zeros(self.n, dtype=np.int64)
        self.prev_raw = raw
        self.prev_valid = np.ones(self.n, dtype=bool)
        healthy = ~(raw > self.max_plausible)
        if armed:
            healthy = healthy & ~(self.repeat >= self.stale_after)

        was_safe = self.safe
        trip = ~was_safe & ~healthy
        stats["watchdog_trips"] += trip
        stats["safe_mode_entries"] += trip
        self.healthy_streak = np.where(trip, 0, self.healthy_streak)
        self.healthy_streak = np.where(
            was_safe, np.where(healthy, self.healthy_streak + 1, 0),
            self.healthy_streak,
        )
        recover = was_safe & (self.healthy_streak >= self.recovery_samples)
        handled = (was_safe | trip) & ~recover
        self.safe = handled
        stats["safe_mode_steps"] += handled
        # _floor: pin secondaries to (min freq, min duty); counts a
        # throttle event only when that actually changes the allocation.
        floor_mask = handled & has_sec
        changed = floor_mask & ((self.be_f != 0) | (self.be_duty != self.min_duty))
        stats["throttle_events"] += changed
        self.be_f = np.where(floor_mask, 0, self.be_f)
        self.be_duty = np.where(floor_mask, self.min_duty, self.be_duty)
        return handled

    def _capper_step(self, t: float) -> None:
        if self.any_sched:
            # The oracle moves server.provisioned_power_w immediately
            # before capper.step; the capper reads the live cap.
            # An exact integer count per lane (not a float reduction):
            # how many breakpoints are already in force at t.
            k = np.count_nonzero(self.sched_times <= t, axis=1) - 1
            self.cap = self.sched_caps[self._lanes, np.maximum(k, 0)]
        self._meter_sample(t)
        raw = self.m_last_raw
        filt = self.m_last_filt
        stats = self.cap_stats
        stats["samples"] += 1
        self.ssr += 1
        self.cooldown = np.where(
            self.cooldown > 0, self.cooldown - 1, self.cooldown
        )
        stats["over_cap_samples"] += raw > self.cap
        has_sec = self.has_be & ~self.be_empty
        handled = self._watchdog_step(raw, has_sec)
        active = has_sec & ~handled
        stats["duty_limited_samples"] += active & (self.be_duty < 1.0)

        over = active & (filt > self.cap)
        # Oscillation punishment: a restore that bounced straight back
        # over the cap doubles the restore backoff.
        punish = over & (self.ssr <= 2)
        self.backoff = np.where(
            punish, np.minimum(600, np.maximum(10, self.backoff * 2)),
            self.backoff,
        )
        self.cooldown = np.where(punish, self.backoff, self.cooldown)
        can_down = self.maps["can_down"][self.be_f]
        f_down = over & can_down
        d_down = over & ~can_down & (self.be_duty > self.min_duty + 1e-9)
        stats["throttle_events"] += f_down
        stats["throttle_events"] += d_down
        new_duty = np.maximum(self.min_duty, self.be_duty - self.duty_step)
        self.be_f = np.where(f_down, self.maps["down_idx"][self.be_f], self.be_f)
        self.be_duty = np.where(d_down, new_duty, self.be_duty)

        restore = (
            active & ~over
            & (filt < self.cap - self.restore_margin)
            & (self.cooldown == 0)
        )
        d_up = restore & (self.be_duty < 1.0 - 1e-9)
        f_up = restore & ~d_up & self.maps["can_up"][self.be_f]
        stats["restore_events"] += d_up
        stats["restore_events"] += f_up
        up_duty = np.minimum(1.0, self.be_duty + self.duty_step)
        self.be_duty = np.where(d_up, up_duty, self.be_duty)
        self.be_f = np.where(f_up, self.maps["up_idx"][self.be_f], self.be_f)
        self.ssr = np.where(restore, 0, self.ssr)

    # ------------------------------------------------------------------
    # Guard invariants (vectorized GuardMonitor.observe, registry order)
    # ------------------------------------------------------------------
    def _fire(self, lane: int, violation: Violation) -> None:
        self.g_total[lane] += 1
        if len(self.g_violations[lane]) < self.guard.max_violations:
            self.g_violations[lane].append(violation)
        if self.g_first_violation[lane] is None:
            self.g_first_violation[lane] = violation

    def _guard_observe(
        self,
        t: float,
        in_window: bool,
        final: bool,
        power: np.ndarray,
        _load_frac: np.ndarray,
    ) -> None:
        g = self.guard
        # 1. power-cap: envelope with drift + safe-mode allowances,
        # grace streak per lane.
        if in_window:
            margin_w = g.cap_margin_w
            if self.faults is not None:
                for drift in self.faults.active(t, MeterDrift):
                    bias = drift.bias_at(t)
                    if bias < 0:
                        margin_w += -bias
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
            self.g_cap_streak = np.where(exceeds, self.g_cap_streak + 1, 0)
            for i in np.flatnonzero(self.g_cap_streak > g.cap_grace_steps):
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

        # 2. energy-conservation: strided cumulative check; the final
        # tick always evaluates.  The attribution sum below reproduces
        # AttributedPowerMeter.read() term by term (adding the 0.0
        # idle-share/active terms of absent tenants is bit-exact).
        tick_no = self.g_energy_tick
        self.g_energy_tick += 1
        if not (tick_no % g.deep_check_every and not final):
            lc_act = self.lc_act[self.lc_tbl, self.lc_c, self.lc_w, self.lc_f]
            half_idle = self.idle_w * 0.5
            lc_share = half_idle * (self.lc_c / self.C + self.lc_w / self.W)
            be_share = half_idle * (self.be_c / self.C + self.be_w / self.W)
            be_act = self._be_power()
            leftover = np.maximum(0.0, self.idle_w - (lc_share + be_share))
            total = ((lc_act + lc_share) + (be_act + be_share)) + leftover
            error = np.abs(total - power)
            tol = g.energy_abs_tol_w + g.energy_rel_tol * np.abs(power)
            for i in np.flatnonzero(error > tol):
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
        for i in np.flatnonzero(c_bad):
            name = self.plans[i].lc_app.name
            self._fire(int(i), Violation(
                invariant="lc-slo-floor",
                time_s=t,
                message=f"primary {name!r} starved below its core floor",
                observed=float(self.lc_c[i]),
                limit=float(g.lc_min_cores),
            ))
        for i in np.flatnonzero(~c_bad & (self.lc_w < g.lc_min_ways)):
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
        for i in np.flatnonzero(c_over):
            self._fire(int(i), Violation(
                invariant="budget-conservation",
                time_s=t,
                message="tenant core allocations oversubscribe the socket",
                observed=float(total_c[i]),
                limit=float(self.C),
            ))
        for i in np.flatnonzero(~c_over & (total_w > self.W)):
            self._fire(int(i), Violation(
                invariant="budget-conservation",
                time_s=t,
                message="tenant way allocations oversubscribe the LLC",
                observed=float(total_w[i]),
                limit=float(self.W),
            ))

        # 5. monotonic-time: the batched clock is tick * interval with a
        # strictly increasing tick, so it can never fire.

        # 6. rng-isolation: one group-wide fingerprint of the legacy
        # global RNG, broadcast to every lane on mismatch.
        if g.check_rng:
            tick_no = self.g_rng_tick
            self.g_rng_tick += 1
            if not (tick_no % g.deep_check_every and not final):
                state = np.random.get_state()[:3]  # pocolint: disable=nondeterminism
                current = (
                    str(state[0]), np.asarray(state[1]).tobytes(), int(state[2])
                )
                if self.g_rng_baseline is None:
                    self.g_rng_baseline = current
                elif current != self.g_rng_baseline:
                    self.g_rng_baseline = current
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
                    for i in range(self.n):
                        self._fire(i, shared)

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

        # The telemetry block: one time axis and one (lanes, ticks) copy
        # of each buffer, which every lane's LaneTelemetry view shares.
        block = LaneBlock(
            tuple(self.times),
            {
                name: np.ascontiguousarray(buf.T)
                for name, buf in self.buffers.items()
            },
        )
        # Lane-indexable epilogue columns, listed once so the per-lane
        # loop does no numpy scalar extraction: positional stat rows,
        # pairwise-exact means of the averaged series.
        cap_rows = list(zip(*(
            self.cap_stats[f.name].tolist() for f in fields(CapStats)
        )))
        mgr_rows = list(zip(*(
            self.mgr_stats[f.name].tolist() for f in fields(ManagerStats)
        )))
        means: Dict[str, List[float]] = {}
        if self.n_ticks > 0:
            for name in ("be_throughput_norm", "power_w", "lc_load_fraction"):
                means[name] = _np_mean_lanes(self.buffers[name]).tolist()
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
            filled, empty = _series_layout(
                self.n_ticks > 0, self.schedules[i] is not None, has_be
            )
            # The oracle's aggregation epilogue reads these series, so
            # they exist even when empty; an empty series averages 0.0.
            avg_norm = means["be_throughput_norm"][i] if has_be and means else 0.0
            avg_power = means["power_w"][i] if means else 0.0
            report = None
            if self.guard is not None:
                report = GuardReport(
                    mode=self.guard.mode,
                    checks=6 * (self.n_warmup + self.n_ticks),
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
                    means["lc_load_fraction"][i] if means else 0.0
                ),
                avg_power_w=avg_power,
                power_utilization=avg_power / plan.provisioned_power_w,
                energy_kwh=joules[i] / 3.6e6,
                slo_violation_fraction=slo[i] / max(1, self.n_ticks),
                cap_stats=CapStats(*cap_rows[i]),
                manager_stats=ManagerStats(*mgr_rows[i]),
                telemetry=LaneTelemetry(block, i, filled, empty),
                guard_report=report,
            )
            out.append(LevelOutcome(
                lc_name=lc_name,
                be_name=be_name,
                level=self.levels_raw[i],
                result=result,
            ))
        return out

    # ------------------------------------------------------------------
    # Checkpoint codec for the array state
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, Any]:
        """Deep-copy snapshot of all mutable state, RNG tapes included."""
        state: Dict[str, Any] = {}
        for name in self._MUTABLE + ("rng_with", "rng_without", "walk_rngs"):
            if hasattr(self, name):
                state[name] = copy.deepcopy(getattr(self, name))
        return state

    def import_state(self, state: Dict[str, Any]) -> None:
        """Restore a snapshot taken by :meth:`export_state`."""
        for name, value in state.items():
            setattr(self, name, copy.deepcopy(value))


# ----------------------------------------------------------------------
# Entry point: the batched equivalent of running each cell in order
# ----------------------------------------------------------------------
def run_batched_cells(
    tasks: Sequence[Cell],
    on_result: Optional[Any] = None,
) -> List[Any]:
    """Run :class:`~repro.sim.cluster.Cell` records through the batched core.

    Mirrors the serial ``SupervisedPool.map_ordered`` run of the cells
    exactly: results arrive in cell order, and failures raise the same
    ``ExecutionError`` wrapping at the same position.  Cells the
    batched core cannot claim (unknown manager types, unsupported
    faults) fall back to the per-object oracle, one cell at a time.

    ``on_result(position, result)`` fires per delivered result in
    ascending position order.
    """
    from repro.engine.parallel import _task_failure
    from repro.sim.cluster import _run_cell

    tasks = list(tasks)
    groups, fallback, infos = _partition(tasks, {})
    slots: List[Any] = [None] * len(tasks)
    for positions in groups.values():
        try:
            sim = BatchedClusterSim(
                [tasks[i] for i in positions],
                [infos[i] for i in positions],
            )
            sim.run()
            outcomes = sim.collect()
        except Exception:  # pocolint: disable=exception-policy
            # Deliberate swallow: a lane the probe admitted but the core
            # cannot faithfully run demotes its whole group to the
            # oracle, which recomputes it from scratch.
            fallback.update(positions)
            continue
        for position, outcome in zip(positions, outcomes):
            slots[position] = outcome

    total = len(tasks)
    results: List[Any] = []
    for position, cell in enumerate(tasks):
        if position in fallback:
            try:
                result = _run_cell(cell)
            except Exception as exc:
                raise _task_failure(position, total, _run_cell, (cell,), exc) from exc
        else:
            entry = slots[position]
            if isinstance(entry, InvariantViolationError):
                # The oracle raises mid-run in enforce mode; re-raise at
                # the same delivery position with the same wrapping.
                raise _task_failure(
                    position, total, _run_cell, (cell,), entry
                ) from entry
            result = entry
        results.append(result)
        if on_result is not None:
            on_result(position, result)
    return results
