"""Datacenter total cost of ownership (Section V-F, Fig 15).

The paper uses James Hamilton's publicly documented TCO structure [13]
with these inputs: "100000 servers where each server costs $1450,
provisioning power infrastructure costs $9/W, energy usage costs 7 cents
per KWhr and power usage efficiency (PUE) of 1.1", and compares the
*amortized monthly* infrastructure cost of the four policies "to provide
a constant amount of throughput".

Model
-----
A policy is summarized by an operating point: useful throughput per
server (normalized units), provisioned watts per server, and average
drawn watts per server.  To deliver the reference total throughput the
policy needs

    N = N_baseline * reference_throughput / throughput_per_server

servers, and its amortized monthly cost is

    servers:    N * server_cost / server_amortization_months
    power infra:N * provisioned_W * $/W / infra_amortization_months
    energy:     N * avg_W * PUE * hours_per_month * $/kWh / 1000

at the paper's prices, the module constants below.

Policies that extract more throughput per server need fewer servers
(lower capex across the board); policies that draw less power pay less
energy; policies that provision more watts per server (Random(NoCap) at
185 W) pay more power-infrastructure capex.  Exactly the three effects
Fig 15 decomposes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.errors import ConfigError

#: Average hours in a month (365.25 * 24 / 12).
HOURS_PER_MONTH = 730.5

# The paper's Section V-F cost inputs.
BASELINE_NUM_SERVERS = 100_000
SERVER_COST_USD = 1450.0
POWER_INFRA_USD_PER_W = 9.0
ENERGY_USD_PER_KWH = 0.07
PUE = 1.1
SERVER_AMORTIZATION_MONTHS = 36
INFRA_AMORTIZATION_MONTHS = 180  # 15-year facility life (Hamilton)


@dataclass(frozen=True)
class PolicyOperatingPoint:
    """How one policy runs a server, as measured by the cluster evaluation."""

    name: str
    throughput_per_server: float
    provisioned_w_per_server: float
    avg_power_w_per_server: float

    def __post_init__(self) -> None:
        if self.throughput_per_server <= 0:
            raise ConfigError("throughput per server must be positive")
        if self.provisioned_w_per_server <= 0:
            raise ConfigError("provisioned watts must be positive")
        if self.avg_power_w_per_server < 0:
            raise ConfigError("average power cannot be negative")


@dataclass(frozen=True)
class TcoBreakdown:
    """Amortized monthly cost of one policy, decomposed as in Fig 15."""

    policy: str
    num_servers: float
    servers_usd: float
    power_infra_usd: float
    energy_usd: float

    @property
    def total_usd(self) -> float:
        """Total amortized monthly cost."""
        return self.servers_usd + self.power_infra_usd + self.energy_usd


def monthly_tco(
    point: PolicyOperatingPoint,
    reference_throughput: float = 1.0,
) -> TcoBreakdown:
    """Amortized monthly TCO delivering ``reference_throughput`` per
    baseline server's worth of work.

    ``reference_throughput`` is in the same normalized units as
    ``point.throughput_per_server``; the baseline policy conventionally
    passes its own throughput so that its server count equals
    :data:`BASELINE_NUM_SERVERS`.
    """
    if reference_throughput <= 0:
        raise ConfigError("reference throughput must be positive")
    num_servers = (
        BASELINE_NUM_SERVERS * reference_throughput / point.throughput_per_server
    )
    servers_usd = num_servers * SERVER_COST_USD / SERVER_AMORTIZATION_MONTHS
    power_infra_usd = (
        num_servers
        * point.provisioned_w_per_server
        * POWER_INFRA_USD_PER_W
        / INFRA_AMORTIZATION_MONTHS
    )
    energy_usd = (
        num_servers
        * point.avg_power_w_per_server
        * PUE
        * HOURS_PER_MONTH
        * ENERGY_USD_PER_KWH
        / 1000.0
    )
    return TcoBreakdown(
        policy=point.name,
        num_servers=num_servers,
        servers_usd=servers_usd,
        power_infra_usd=power_infra_usd,
        energy_usd=energy_usd,
    )


def compare_policies(
    points: Sequence[PolicyOperatingPoint],
    reference: Optional[str] = None,
) -> Dict[str, TcoBreakdown]:
    """TCO for several policies at one constant delivered throughput,
    at the paper's prices.

    ``reference`` names the policy whose measured throughput defines the
    constant total work (default: the first point).  Returns breakdowns
    keyed by policy name.
    """
    if not points:
        raise ConfigError("need at least one policy operating point")
    names = [p.name for p in points]
    if len(set(names)) != len(names):
        raise ConfigError("policy names must be unique")
    ref_name = reference if reference is not None else names[0]
    by_name = {p.name: p for p in points}
    if ref_name not in by_name:
        raise ConfigError(f"reference policy {ref_name!r} not among points")
    ref_throughput = by_name[ref_name].throughput_per_server
    return {
        p.name: monthly_tco(p, reference_throughput=ref_throughput)
        for p in points
    }


def relative_savings(breakdowns: Dict[str, TcoBreakdown], winner: str) -> Dict[str, float]:
    """Fractional TCO savings of ``winner`` against every other policy.

    ``savings[other] = 1 - total(winner)/total(other)`` — the numbers the
    paper quotes as "Pocolo results in 12%, 16% and 8% lower TCO".
    """
    if winner not in breakdowns:
        raise ConfigError(f"winner {winner!r} not among breakdowns")
    winner_total = breakdowns[winner].total_usd
    return {
        name: 1.0 - winner_total / b.total_usd
        for name, b in breakdowns.items()
        if name != winner
    }
