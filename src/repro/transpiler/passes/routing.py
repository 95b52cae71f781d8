"""SWAP-insertion routing (``StochasticSwap``).

Makes every two-qubit gate act on coupled physical qubits by inserting SWAP
gates, mirroring Qiskit 0.18's stochastic router: several seeded trials are
run and the one inserting the fewest SWAPs wins (the paper reports medians
over 25 transpilations precisely because of this randomness, Sec. VII-B).

Each trial is a greedy scan with lookahead: for a blocked gate, candidate
SWAPs around either endpoint are scored by the resulting distance of the
blocked gate plus a decayed sum over upcoming two-qubit gates; ties (and
near-ties, within the trial's temperature) are broken randomly.

A trial is a swap plan, ``{gate index: [swap edges]}``, with its swap count
and final permutation; it never builds a circuit.  All trials of one call
share the same flat tables (distance rows, neighbour tuples, coupled
pairs), and only the winning plan is replayed into the output circuit.

The inserted SWAPs are exactly what the paper's second QBO pass targets
(Fig. 8 line 5): swaps whose qubits are still in known states reduce to
SWAPZ (2 CNOTs) or less.
"""

from __future__ import annotations

import math

import numpy as np

from repro.circuit.quantumcircuit import QuantumCircuit
from repro.gates import SwapGate
from repro.transpiler.coupling import CouplingMap
from repro.transpiler.exceptions import TranspilerError
from repro.transpiler.passmanager import PropertySet, TransformationPass

__all__ = ["StochasticSwap"]

_LOOKAHEAD = 12
_LOOKAHEAD_DECAY = 0.7


class StochasticSwap(TransformationPass):
    """Insert SWAPs so all two-qubit gates respect the coupling map."""

    # output equals input up to the wire relabeling in final_permutation
    equivalence = "permutation"

    def __init__(self, coupling: CouplingMap, trials: int = 5, seed: int | None = None):
        self.coupling = coupling
        self.trials = max(1, trials)
        self.seed = 0 if seed is None else seed

    @property
    def name(self) -> str:
        return f"StochasticSwap(trials={self.trials})"

    def transform(self, circuit: QuantumCircuit, property_set: PropertySet) -> QuantumCircuit:
        if circuit.num_qubits != self.coupling.num_qubits:
            raise TranspilerError(
                "routing expects a device-wide circuit; run ApplyLayout first"
            )
        two_qubit_gates = self._two_qubit_gates(circuit)
        coupled = {pair for a, b in self.coupling.edges for pair in ((a, b), (b, a))}
        if all(qubits in coupled for _, qubits in two_qubit_gates):
            property_set["final_permutation"] = list(range(circuit.num_qubits))
            return circuit

        distance = self.coupling.distance_matrix.tolist()
        for index, (a, b) in two_qubit_gates:
            if math.isinf(distance[a][b]):
                raise TranspilerError(
                    f"cannot route {circuit.data[index].operation.name!r} on physical "
                    f"qubits {a} and {b}: they are not connected in the coupling map"
                )
        neighbors = tuple(tuple(self.coupling.neighbors(q)) for q in range(circuit.num_qubits))
        # repeated products, not powers: the same doubles each score used
        weights = [1.0]
        while len(weights) < _LOOKAHEAD:
            weights.append(weights[-1] * _LOOKAHEAD_DECAY)
        tables = (distance, neighbors, coupled, weights)

        best = None
        for trial in range(self.trials):
            rng = np.random.default_rng((self.seed, trial))
            plan = self._plan_once(two_qubit_gates, tables, rng)
            if best is None or plan[1] < best[1]:
                best = plan
        swap_plan, swaps, perm = best
        property_set["routing_swaps"] = swaps
        property_set["final_permutation"] = perm
        return self._build(circuit, swap_plan)

    # ------------------------------------------------------------------

    @staticmethod
    def _two_qubit_gates(circuit: QuantumCircuit) -> list[tuple[int, tuple[int, int]]]:
        """``(index, qubits)`` of every 2q gate; rejects wider gates anywhere."""
        two_qubit_gates = []
        for index, instruction in enumerate(circuit.data):
            width = len(instruction.qubits)
            if width < 2 or instruction.operation.is_directive:
                continue
            if width > 2:
                raise TranspilerError(
                    f"cannot route {width}-qubit gate "
                    f"{instruction.operation.name!r}; unroll first"
                )
            two_qubit_gates.append((index, instruction.qubits))
        return two_qubit_gates

    def _plan_once(self, two_qubit_gates, tables, rng: np.random.Generator):
        """One trial: ``({gate index: [swap edges]}, swap count, final perm)``."""
        distance, neighbors, coupled, weights = tables
        num_qubits = len(neighbors)
        # perm[wire] = physical qubit holding that wire; wire_at is its inverse
        perm = list(range(num_qubits))
        wire_at = list(range(num_qubits))
        pairs = [qubits for _, qubits in two_qubit_gates]
        plan = {}
        swaps_inserted = 0
        for order, (index, (a, b)) in enumerate(two_qubit_gates):
            if (perm[a], perm[b]) in coupled:
                continue
            window = pairs[order : order + _LOOKAHEAD]
            edges = plan[index] = []
            while (perm[a], perm[b]) not in coupled:
                if len(edges) >= 4 * num_qubits:
                    raise TranspilerError("routing failed to make progress")
                if len(edges) >= 2 * num_qubits:
                    # lookahead is cycling: force a step along the shortest path
                    path = self.coupling.shortest_path(perm[a], perm[b])
                    edge = (min(path[0], path[1]), max(path[0], path[1]))
                else:
                    edge = _choose_swap(perm, wire_at, a, b, window, tables, rng)
                edges.append(edge)
                _apply_swap(perm, wire_at, edge)
            swaps_inserted += len(edges)
        return plan, swaps_inserted, perm

    @staticmethod
    def _build(circuit: QuantumCircuit, plan) -> QuantumCircuit:
        """Replay ``plan``'s swaps into the one output circuit."""
        output = circuit.copy_empty_like()
        append = output.append
        perm = list(range(circuit.num_qubits))
        wire_at = list(range(circuit.num_qubits))
        for index, instruction in enumerate(circuit.data):
            for edge in plan.get(index, ()):
                append(SwapGate(), edge)
                _apply_swap(perm, wire_at, edge)
            append(instruction.operation, [perm[q] for q in instruction.qubits], instruction.clbits)
        return output


def _choose_swap(perm, wire_at, a, b, window, tables, rng):
    """Pick the physical edge to swap: lowest lookahead score wins."""
    distance, neighbors, _, weights = tables
    candidates = set()
    for endpoint in (perm[a], perm[b]):
        for neighbor in neighbors[endpoint]:
            candidates.add((endpoint, neighbor) if endpoint < neighbor else (neighbor, endpoint))

    best_edges = []
    best_score = None
    for edge in sorted(candidates):
        x, y = edge
        trial_perm = perm[:]
        trial_perm[wire_at[x]] = y
        trial_perm[wire_at[y]] = x
        score = 2.0 * distance[trial_perm[a]][trial_perm[b]]
        for (qa, qb), weight in zip(window, weights):
            score += weight * distance[trial_perm[qa]][trial_perm[qb]]
        if best_score is None or score < best_score - 1e-9:
            best_score = score
            best_edges = [edge]
        elif score < best_score + 1e-9:
            best_edges.append(edge)
    return best_edges[int(rng.integers(len(best_edges)))]


def _apply_swap(perm, wire_at, edge):
    """Swap the wires on physical edge ``edge``, updating both maps."""
    x, y = edge
    wire_x, wire_y = wire_at[x], wire_at[y]
    perm[wire_x], perm[wire_y] = y, x
    wire_at[x], wire_at[y] = wire_y, wire_x
