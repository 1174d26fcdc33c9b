"""Telemetry: time-series collection for simulated runs.

The paper's platform assumes "telemetry systems in today's datacenters
periodically collect these metrics for each application at fine temporal
granularity" (Section IV-A).  :class:`TimeSeries` is a minimal append-only
metric store with the summary operations the experiments need: time
averages, percentiles, and fraction-above-threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.errors import ConfigError, SimulationError


@dataclass
class TimeSeries:
    """An append-only (time, value) series with summary statistics."""

    name: str
    times: List[float] = field(default_factory=list)
    values: List[float] = field(default_factory=list)

    def record(self, time_s: float, value: float) -> None:
        """Append one observation; times must be non-decreasing.

        Feeding out-of-order times means the *simulation* lost track of
        its clock — a runtime state fault, hence
        :class:`~repro.errors.SimulationError` rather than a
        configuration error.
        """
        if self.times and time_s < self.times[-1]:
            raise SimulationError(
                f"series {self.name!r} fed out-of-order time {time_s}"
            )
        self.times.append(time_s)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def empty(self) -> bool:
        """True when nothing has been recorded."""
        return not self.values

    def mean(self) -> float:
        """Arithmetic mean of recorded values (0.0 when empty)."""
        return float(np.mean(self.values)) if self.values else 0.0

    def time_weighted_mean(self) -> float:
        """Mean weighted by holding time (left-continuous steps).

        Falls back to the arithmetic mean when fewer than two points or
        zero total span.
        """
        if len(self.values) < 2:
            return self.mean()
        t = np.asarray(self.times)
        v = np.asarray(self.values)
        dt = np.diff(t)
        span = float(t[-1] - t[0])
        if span <= 0:
            return self.mean()
        return float(np.sum(v[:-1] * dt) / span)

    def percentile(self, q: float) -> float:
        """The q-th percentile of recorded values (0.0 when empty)."""
        if not 0.0 <= q <= 100.0:
            raise ConfigError("percentile must lie in [0, 100]")
        return float(np.percentile(self.values, q)) if self.values else 0.0

    def maximum(self) -> float:
        """Largest recorded value (0.0 when empty)."""
        return float(np.max(self.values)) if self.values else 0.0

    def fraction_above(self, threshold: float) -> float:
        """Fraction of samples strictly above ``threshold``."""
        if not self.values:
            return 0.0
        return float(np.mean(np.asarray(self.values) > threshold))

    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """(times, values) as numpy arrays, copied."""
        return np.asarray(self.times, dtype=float), np.asarray(self.values, dtype=float)


class Telemetry:
    """A named bundle of :class:`TimeSeries`, created on first use."""

    def __init__(self) -> None:
        self._series: Dict[str, TimeSeries] = {}

    def series(self, name: str) -> TimeSeries:
        """The series called ``name``, creating it if absent."""
        if name not in self._series:
            self._series[name] = TimeSeries(name=name)
        return self._series[name]

    def record(self, name: str, time_s: float, value: float) -> None:
        """Shortcut: append to the series called ``name``."""
        self.series(name).record(time_s, value)

    def names(self) -> Tuple[str, ...]:
        """All series names, in creation order."""
        return tuple(self._series)

    def __contains__(self, name: str) -> bool:
        return name in self._series


class LaneBlock:
    """The telemetry of a group of cells run in lock step, columnar.

    One shared time axis and one contiguous ``(lanes, ticks)`` array per
    series.  The batched engine builds one block per group;
    :class:`LaneTelemetry` views expose single rows of it.  The time
    axis is a tuple of Python floats, so every series built from it
    shares the same (immutable) float objects.
    """

    __slots__ = ("times", "columns")

    def __init__(
        self, times: Tuple[float, ...], columns: Dict[str, np.ndarray]
    ) -> None:
        self.times = times
        self.columns = columns


class LaneTelemetry(Telemetry):
    """One lane of a :class:`LaneBlock`, seen as a :class:`Telemetry`.

    ``filled`` names the series that carry the lane's row and ``empty``
    the series that exist but hold nothing; together, in that order,
    they are the lane's series creation order.  The series are built on
    first access to ``_series``, which every :class:`Telemetry` method
    goes through, from fresh lists, so nothing a caller can mutate
    aliases the block or another series.  The view then turns into the plain
    :class:`Telemetry` the per-object path returns: it drops the block,
    and pickles exactly like that standalone bundle.
    """

    def __init__(
        self,
        block: LaneBlock,
        lane: int,
        filled: Tuple[str, ...],
        empty: Tuple[str, ...],
    ) -> None:
        # No super().__init__(): ``_series`` stays unset until
        # __getattr__ builds it on first use.
        self._block = block
        self._lane = lane
        self._layout = (filled, empty)

    def __getattr__(self, name: str) -> Any:
        if name != "_series" or "_block" not in self.__dict__:
            # The __getattr__ protocol demands AttributeError.
            raise AttributeError(name)  # pocolint: disable=exception-policy
        block, lane = self._block, self._lane
        filled, empty = self._layout
        series = {
            n: TimeSeries(
                name=n,
                times=list(block.times),
                values=block.columns[n][lane].tolist(),
            )
            for n in filled
        }
        for n in empty:
            series[n] = TimeSeries(name=n)
        self.__dict__.clear()
        self._series = series
        object.__setattr__(self, "__class__", Telemetry)
        return series

    def __reduce_ex__(self, protocol: Any) -> Any:
        self._series  # materialise: the view becomes a plain Telemetry
        return self.__reduce_ex__(protocol)
