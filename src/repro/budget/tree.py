"""The hierarchical budget tree: cluster -> rack -> server.

Mirrors the power-delivery hierarchy of a real facility (CloudPowerCap,
arXiv:1403.1289): each *server* leaf carries the fail-safe floor it was
provisioned for (the cap it reverts to when every lease expires), each
*rack* aggregates its members under one PDU capacity, and the cluster
root aggregates the racks.  Rack capacity defaults to the members'
floors plus a slack fraction — the headroom the arbiter is allowed to
redistribute; the power-infrastructure faults in
:mod:`repro.faults.schedule` derate or trip it at plan time.

The tree is frozen, content-hashable data: it participates in the
checkpoint run key the same way apps and sim configs do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Sequence, Tuple

from repro.errors import ConfigError


@dataclass(frozen=True)
class ServerNode:
    """A leaf: one server's identity and its fail-safe floor."""

    name: str
    floor_w: float

    def __post_init__(self) -> None:
        if self.floor_w <= 0.0:
            raise ConfigError(
                f"server {self.name!r} needs a positive fail-safe floor; "
                f"got {self.floor_w!r}"
            )


@dataclass(frozen=True)
class RackNode:
    """One rack: a PDU capacity feeding a tuple of server leaves."""

    name: str
    capacity_w: float
    servers: Tuple[ServerNode, ...]

    def __post_init__(self) -> None:
        if not self.servers:
            raise ConfigError(f"rack {self.name!r} has no servers")
        if self.capacity_w <= 0.0:
            raise ConfigError(
                f"rack {self.name!r} needs a positive capacity; got "
                f"{self.capacity_w!r}"
            )

    @property
    def floor_sum_w(self) -> float:
        """Sum of member floors (the rack's fail-safe commitment)."""
        return sum(server.floor_w for server in self.servers)


@dataclass(frozen=True)
class BudgetTree:
    """The full hierarchy; the cluster root feeds every rack."""

    capacity_w: float
    racks: Tuple[RackNode, ...]

    def __post_init__(self) -> None:
        if not self.racks:
            raise ConfigError("a budget tree needs at least one rack")
        if self.capacity_w <= 0.0:
            raise ConfigError(
                f"the cluster root needs a positive capacity; got "
                f"{self.capacity_w!r}"
            )
        seen: Dict[str, str] = {}
        for rack in self.racks:
            for server in rack.servers:
                if server.name in seen:
                    raise ConfigError(
                        f"server {server.name!r} appears in both "
                        f"{seen[server.name]!r} and {rack.name!r}; budget "
                        "tree leaves must be unique"
                    )
                seen[server.name] = rack.name

    @property
    def servers(self) -> Tuple[ServerNode, ...]:
        """Every leaf, in rack order then member order."""
        return tuple(s for rack in self.racks for s in rack.servers)

    def leaf_index(self) -> Dict[str, Tuple[RackNode, float]]:
        """Every leaf's name mapped to its rack and its fail-safe floor.

        Built on each call, not stored, so the tree's fields, ``repr``,
        equality and pickle stay its racks alone; a caller that looks up
        many leaves builds it once.
        """
        return {
            server.name: (rack, server.floor_w)
            for rack in self.racks
            for server in rack.servers
        }

    def _leaf(self, server_name: str) -> Tuple[RackNode, float]:
        leaf = self.leaf_index().get(server_name)
        if leaf is None:
            raise ConfigError(
                f"server {server_name!r} is not a leaf of this budget tree"
            )
        return leaf

    def rack_of(self, server_name: str) -> RackNode:
        """The rack hosting ``server_name``."""
        return self._leaf(server_name)[0]

    def floor_of(self, server_name: str) -> float:
        """The fail-safe floor of ``server_name``."""
        return self._leaf(server_name)[1]


def build_tree(
    plans: Sequence[Any], rack_size: int, rack_slack: float
) -> BudgetTree:
    """Auto-rack a fleet of server plans into a budget tree.

    ``plans`` is duck-typed over :class:`repro.sim.cluster.ServerPlan`
    (anything with ``lc_app.name`` and ``provisioned_power_w``) so the
    budget layer stays importable below :mod:`repro.sim`.  Servers fill
    racks of ``rack_size`` in plan order; each rack's capacity is its
    members' floors scaled by ``1 + rack_slack``, and the cluster root
    is the sum of the racks.
    """
    if rack_size < 1:
        raise ConfigError(f"rack_size must be >= 1; got {rack_size}")
    if rack_slack < 0.0:
        raise ConfigError(f"rack_slack must be >= 0; got {rack_slack!r}")
    if not plans:
        raise ConfigError("cannot build a budget tree for an empty fleet")
    leaves = [
        ServerNode(
            name=str(plan.lc_app.name),
            floor_w=float(plan.provisioned_power_w),
        )
        for plan in plans
    ]
    racks = []
    for start in range(0, len(leaves), rack_size):
        members = tuple(leaves[start:start + rack_size])
        floor_sum_w = sum(member.floor_w for member in members)
        racks.append(
            RackNode(
                name=f"rack{start // rack_size}",
                capacity_w=floor_sum_w * (1.0 + rack_slack),
                servers=members,
            )
        )
    capacity_w = sum(rack.capacity_w for rack in racks)
    return BudgetTree(capacity_w=capacity_w, racks=tuple(racks))
