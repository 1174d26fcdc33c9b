"""Columnar sweep outcomes: per-cell scalars as arrays, cells on demand.

A sweep's aggregates (Figs 12 and 13, SLO attainment) are means over
every (server, level) cell, so they need each cell's scalars, not its
objects.  A :class:`CellStore` holds the scalars of every cell an
execution ran as columns, one array per name in :data:`COLUMNS`, and
builds a cell's :class:`~repro.sim.cluster.LevelOutcome` only when a
caller indexes it.  It is filled part by part:

* the batched core adds one lane part per group
  (:class:`~repro.engine.batched.LaneColumns`), whose columns numpy
  filled and whose cells are built from them on first access;
* the per-object oracle, oracle-fallback cells and cells resumed from
  a checkpoint add their ready-made objects (:class:`ObjectPart`), and
  their columns are read off the objects.

An :class:`Outcomes` is a list-compatible view of a store: a sequence
of cells given by their store slots.  A slot's cell is built once and
cached, so two positions with one slot (dedupe replicas) hold the same
object, and indexing one position twice gives the same object.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import fields
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.core.server_manager import ManagerStats
from repro.hwmodel.capping import CapStats

#: Columns of Python objects, kept as given (a level or duration may be
#: an int, a name may be None), so a built cell pickles like the
#: oracle's: the :class:`~repro.sim.cluster.LevelOutcome` fields, whose
#: names the result shares, and the result's duration.
OBJECT_COLUMNS = ("lc_name", "be_name", "level", "duration_s")
#: Float ``ColocationResult`` scalars, held as float64 columns.
FLOAT_COLUMNS = (
    "avg_be_throughput_norm",
    "avg_be_throughput_abs",
    "avg_lc_load_fraction",
    "avg_power_w",
    "power_utilization",
    "energy_kwh",
    "slo_violation_fraction",
)
#: Counter records, held as ``(cells, counters)`` int64 matrices whose
#: columns are the record's fields in order.
STAT_COLUMNS = {"cap_stats": CapStats, "manager_stats": ManagerStats}
#: Every column a store holds.
COLUMNS = OBJECT_COLUMNS + FLOAT_COLUMNS + tuple(STAT_COLUMNS)


def object_column(values: Iterable[Any], count: int) -> np.ndarray:
    """A 1-D object array of ``values`` as given (never split into
    nested arrays)."""
    return np.fromiter(values, dtype=object, count=count)


class ObjectPart:
    """Cells given as ready-made outcomes; columns read off the objects."""

    def __init__(self) -> None:
        self.outcomes: List[Any] = []
        self._columns: Optional[Dict[str, np.ndarray]] = None

    def __len__(self) -> int:
        return len(self.outcomes)

    def append(self, outcome: Any) -> None:
        self.outcomes.append(outcome)
        self._columns = None

    def outcome(self, k: int) -> Any:
        return self.outcomes[k]

    def columns(self) -> Dict[str, np.ndarray]:
        cols = self._columns
        if cols is None:
            outcomes = self.outcomes
            results = [o.result for o in outcomes]
            n = len(outcomes)
            cols = {
                "lc_name": object_column((o.lc_name for o in outcomes), n),
                "be_name": object_column((o.be_name for o in outcomes), n),
                "level": object_column((o.level for o in outcomes), n),
                "duration_s": object_column((r.duration_s for r in results), n),
            }
            for name in FLOAT_COLUMNS:
                cols[name] = np.array(
                    [getattr(r, name) for r in results], dtype=np.float64
                )
            for name, record in STAT_COLUMNS.items():
                names = [f.name for f in fields(record)]
                cols[name] = np.array(
                    [[getattr(getattr(r, name), f) for f in names] for r in results],
                    dtype=np.int64,
                ).reshape(n, len(names))
            self._columns = cols
        return cols


class CellStore:
    """Append-only store of cells, as parts with a shared slot numbering.

    A part has a length, ``columns()`` (name -> array over its cells)
    and ``outcome(k)`` (its k-th cell, the same object on every call).
    Slots run through the parts in the order they were added.
    """

    def __init__(self) -> None:
        self._parts: List[Any] = []
        self._starts: List[int] = []
        self.size = 0
        self._columns: Dict[str, np.ndarray] = {}

    def add(self, part: Any) -> int:
        """Append a part; returns the slot of its first cell."""
        first = self.size
        self._parts.append(part)
        self._starts.append(first)
        self.size += len(part)
        self._columns.clear()
        return first

    def add_outcome(self, outcome: Any) -> int:
        """Append one ready-made cell; returns its slot."""
        last = self._parts[-1] if self._parts else None
        if not isinstance(last, ObjectPart):
            last = ObjectPart()
            self.add(last)
        last.append(outcome)
        self.size += 1
        self._columns.clear()
        return self.size - 1

    def outcome(self, slot: int) -> Any:
        """The cell at ``slot``, built on first access."""
        k = bisect_right(self._starts, slot) - 1
        return self._parts[k].outcome(slot - self._starts[k])

    def column(self, name: str) -> np.ndarray:
        """Column ``name`` over every slot (do not mutate it)."""
        col = self._columns.get(name)
        if col is None:
            cols = [part.columns()[name] for part in self._parts if len(part)]
            if not cols:
                col = ObjectPart().columns()[name]
            elif len(cols) == 1:
                col = cols[0]
            else:
                col = np.concatenate(cols)
            self._columns[name] = col
        return col


class Outcomes(Sequence[Any]):
    """A sweep's cells in planned order: a read-only, list-compatible
    view of a :class:`CellStore`.

    Indexing builds the cell on first access; :meth:`column` reads a
    scalar of every cell without building any.  It compares equal to a
    list (or another view) of equal cells, concatenates with ``+`` into
    a list, and pickles as the plain list of its cells.
    """

    __slots__ = ("_store", "_slots")

    def __init__(self, store: CellStore, slots: np.ndarray) -> None:
        self._store = store
        self._slots = slots

    @classmethod
    def of(cls, outcomes: Iterable[Any] = ()) -> "Outcomes":
        """A view of ready-made outcomes, in the order given."""
        store = CellStore()
        part = ObjectPart()
        part.outcomes.extend(outcomes)
        store.add(part)
        return cls(store, np.arange(len(part), dtype=np.int64))

    @property
    def store(self) -> CellStore:
        return self._store

    @property
    def slots(self) -> np.ndarray:
        """Each position's store slot (do not mutate it)."""
        return self._slots

    def column(self, name: str) -> np.ndarray:
        """Column ``name`` (one of :data:`COLUMNS`), one row per cell."""
        return self._store.column(name)[self._slots]

    def __len__(self) -> int:
        return len(self._slots)

    def __getitem__(self, i: Any) -> Any:
        if isinstance(i, slice):
            return Outcomes(self._store, self._slots[i])
        return self._store.outcome(int(self._slots[i]))

    def __iter__(self) -> Iterator[Any]:
        outcome = self._store.outcome
        for slot in self._slots.tolist():
            yield outcome(slot)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (Outcomes, list)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: Any) -> Any:
        if isinstance(other, (Outcomes, list)):
            return list(self) + list(other)
        return NotImplemented

    def __radd__(self, other: Any) -> Any:
        if isinstance(other, list):
            return other + list(self)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))

    def __reduce__(self) -> Any:
        return (list, (list(self),))
