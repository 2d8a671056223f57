"""Lumped-parameter thermal network with finite-difference integration.

The drive thermal model is a small network of isothermal nodes (internal
air, spindle stack, base+cover, VCM+arms) connected by thermal conductances
to each other and to a fixed-temperature ambient, with heat injected at
nodes.  The governing equations are linear:

    C_i dT_i/dt = Q_i + sum_j G_ij (T_j - T_i) + G_i,amb (T_amb - T_i)

We integrate with backward (implicit) Euler, which is unconditionally stable
even though the air node's capacitance is orders of magnitude below the
castings' — exactly the stiffness that makes explicit stepping at the
paper's 600 steps/min delicate.  Steady state solves the same linear system
with the time derivative zeroed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ThermalError


@dataclass(frozen=True)
class ThermalNode:
    """One isothermal node.

    Attributes:
        name: unique node label.
        capacitance_j_per_k: lumped heat capacity; must be positive (use a
            small value for near-massless nodes such as air).
    """

    name: str
    capacitance_j_per_k: float

    def __post_init__(self) -> None:
        if self.capacitance_j_per_k <= 0:
            raise ThermalError(
                f"node {self.name!r}: capacitance must be positive, "
                f"got {self.capacitance_j_per_k}"
            )


@dataclass
class TransientResult:
    """A recorded transient: times and per-node temperature histories."""

    times_s: List[float] = field(default_factory=list)
    temperatures: Dict[str, List[float]] = field(default_factory=dict)

    def series(self, node: str) -> List[float]:
        """Temperature history of one node."""
        if node not in self.temperatures:
            raise ThermalError(f"no recorded node {node!r}")
        return self.temperatures[node]

    def final(self, node: str) -> float:
        """Last recorded temperature of a node."""
        series = self.series(node)
        if not series:
            raise ThermalError("transient recorded no samples")
        return series[-1]

    def time_to_reach(self, node: str, threshold: float, rising: bool = True) -> Optional[float]:
        """First recorded time the node crosses a threshold, or None."""
        for t, temp in zip(self.times_s, self.series(node)):
            if (rising and temp >= threshold) or (not rising and temp <= threshold):
                return t
        return None


class ThermalNetwork:
    """A linear thermal RC network with a fixed-temperature ambient.

    Args:
        nodes: the network's nodes, order defining the state vector.
        ambient_c: ambient (boundary) temperature in Celsius.
    """

    def __init__(self, nodes: Sequence[ThermalNode], ambient_c: float) -> None:
        if not nodes:
            raise ThermalError("network needs at least one node")
        names = [node.name for node in nodes]
        if len(set(names)) != len(names):
            raise ThermalError(f"duplicate node names: {names}")
        self.nodes = list(nodes)
        self.ambient_c = float(ambient_c)
        self._index = {node.name: i for i, node in enumerate(self.nodes)}
        n = len(self.nodes)
        self._g_internal = np.zeros((n, n))
        self._g_ambient = np.zeros(n)
        self._heat = np.zeros(n)
        self.temperatures = np.full(n, self.ambient_c, dtype=float)

    # -- construction -------------------------------------------------------------

    def node_index(self, name: str) -> int:
        """Index of a node in the state vector."""
        try:
            return self._index[name]
        except KeyError:
            raise ThermalError(
                f"unknown node {name!r}; nodes: {sorted(self._index)}"
            ) from None

    def connect(self, a: str, b: str, conductance_w_per_k: float) -> None:
        """Add (accumulate) a conductance between two nodes."""
        if conductance_w_per_k <= 0:
            raise ThermalError(f"conductance must be positive, got {conductance_w_per_k}")
        i, j = self.node_index(a), self.node_index(b)
        if i == j:
            raise ThermalError(f"cannot connect node {a!r} to itself")
        self._g_internal[i, j] += conductance_w_per_k
        self._g_internal[j, i] += conductance_w_per_k

    def connect_ambient(self, node: str, conductance_w_per_k: float) -> None:
        """Add a conductance from a node to the fixed ambient."""
        if conductance_w_per_k <= 0:
            raise ThermalError(f"conductance must be positive, got {conductance_w_per_k}")
        self._g_ambient[self.node_index(node)] += conductance_w_per_k

    def set_conductance(self, a: str, b: str, conductance_w_per_k: float) -> None:
        """Overwrite the conductance between two nodes (for mode changes)."""
        if conductance_w_per_k <= 0:
            raise ThermalError(f"conductance must be positive, got {conductance_w_per_k}")
        i, j = self.node_index(a), self.node_index(b)
        self._g_internal[i, j] = conductance_w_per_k
        self._g_internal[j, i] = conductance_w_per_k

    def set_heat(self, node: str, watts: float) -> None:
        """Set the heat injected at a node (may be zero, not negative)."""
        if watts < 0:
            raise ThermalError(f"heat input cannot be negative, got {watts}")
        self._heat[self.node_index(node)] = watts

    def heat(self, node: str) -> float:
        """Currently injected heat at a node, watts."""
        return float(self._heat[self.node_index(node)])

    def total_heat_w(self) -> float:
        """Total heat injected across all nodes, watts."""
        return float(self._heat.sum())

    # -- state --------------------------------------------------------------------

    def temperature(self, node: str) -> float:
        """Current temperature of a node, Celsius."""
        return float(self.temperatures[self.node_index(node)])

    def set_temperatures(self, values: Dict[str, float]) -> None:
        """Set current temperatures of some or all nodes."""
        for name, value in values.items():
            self.temperatures[self.node_index(name)] = value

    def reset(self, temperature_c: Optional[float] = None) -> None:
        """Reset all node temperatures (default: to ambient)."""
        value = self.ambient_c if temperature_c is None else temperature_c
        self.temperatures.fill(value)

    # -- solvers ------------------------------------------------------------------

    def _system_matrix(self) -> np.ndarray:
        """The conduction matrix A where A T = Q + G_amb T_amb at steady state."""
        diag = self._g_internal.sum(axis=1) + self._g_ambient
        return np.diag(diag) - self._g_internal

    def _steady_solution(self) -> np.ndarray:
        a = self._system_matrix()
        rhs = self._heat + self._g_ambient * self.ambient_c
        if np.all(self._g_ambient == 0):
            raise ThermalError(
                "network has no path to ambient; steady state would be unbounded"
            )
        try:
            return np.linalg.solve(a, rhs)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
            raise ThermalError(f"singular thermal network: {exc}") from exc

    def steady_state(self) -> Dict[str, float]:
        """Steady-state temperatures for the current heats/conductances."""
        solution = self._steady_solution()
        return {node.name: float(solution[i]) for i, node in enumerate(self.nodes)}

    def steady_temperature(self, node: str) -> float:
        """Steady-state temperature of one node: ``steady_state()[node]``."""
        index = self.node_index(node)
        return float(self._steady_solution()[index])

    def step(self, dt_s: float) -> None:
        """Advance the transient state by one backward-Euler step."""
        if dt_s <= 0:
            raise ThermalError(f"time step must be positive, got {dt_s}")
        c = np.array([node.capacitance_j_per_k for node in self.nodes])
        a = np.diag(c / dt_s) + self._system_matrix()
        rhs = (c / dt_s) * self.temperatures + self._heat + self._g_ambient * self.ambient_c
        self.temperatures = np.linalg.solve(a, rhs)

    def simulate(
        self,
        duration_s: float,
        dt_s: float,
        record_every: int = 1,
        on_step: Optional[Callable[[float, "ThermalNetwork"], None]] = None,
        stop_when: Optional[Callable[[float, "ThermalNetwork"], bool]] = None,
    ) -> TransientResult:
        """Integrate for a duration, recording node temperatures.

        Args:
            duration_s: total simulated time.
            dt_s: integration step (paper: 0.1 s = 600 steps/min).
            record_every: record one sample every N steps.
            on_step: optional callback after each step (time, network),
                letting callers mutate heats mid-flight (DTM policies).
            stop_when: optional early-exit predicate evaluated after each
                step; when true, integration stops.

        Returns:
            The recorded transient, always including the initial state and
            the final state.
        """
        if duration_s <= 0:
            raise ThermalError(f"duration must be positive, got {duration_s}")
        if record_every < 1:
            raise ThermalError(f"record_every must be >= 1, got {record_every}")
        result = TransientResult(
            temperatures={node.name: [] for node in self.nodes}
        )

        def record(t: float) -> None:
            result.times_s.append(t)
            for i, node in enumerate(self.nodes):
                result.temperatures[node.name].append(float(self.temperatures[i]))

        record(0.0)
        steps = int(round(duration_s / dt_s))
        time = 0.0
        for k in range(1, steps + 1):
            self.step(dt_s)
            time = k * dt_s
            if on_step is not None:
                on_step(time, self)
            if k % record_every == 0 or k == steps:
                record(time)
            if stop_when is not None and stop_when(time, self):
                if result.times_s[-1] != time:
                    record(time)
                break
        return result

    # -- introspection ------------------------------------------------------------

    def conductances(self) -> Iterable[Tuple[str, str, float]]:
        """Yield (node_a, node_b, G) for every internal connection."""
        n = len(self.nodes)
        for i in range(n):
            for j in range(i + 1, n):
                g = self._g_internal[i, j]
                if g > 0:
                    yield (self.nodes[i].name, self.nodes[j].name, float(g))
