"""SWAP-insertion routing (``StochasticSwap``).

Makes every two-qubit gate act on coupled physical qubits by inserting SWAP
gates, mirroring Qiskit 0.18's stochastic router: several seeded trials are
run and the one inserting the fewest SWAPs wins (the paper reports medians
over 25 transpilations precisely because of this randomness, Sec. VII-B).

Each trial is a greedy scan with lookahead: for a blocked gate, candidate
SWAPs around either endpoint are scored by the resulting distance of the
blocked gate plus a decayed sum over upcoming two-qubit gates; ties (scores
within 1e-9 of the best) are broken by the trial's seeded generator.

A trial is a swap plan, ``{gate index: [swap edges]}``, with its swap count
and final permutation; it never builds a circuit.  The trials are planned
together as one prefix tree: a trial reads its generator only at a tie, so
until its first tie every trial is in the same state and makes the same
choice.  Each state is scored once for all the trials in it, and a branch
splits only where their draws pick different swaps.  The tables a score
reads (distance rows, neighbour tuples, coupled pairs) are built once per
coupling map, so once per device and process for a preset target, and
only the winning plan is replayed into the output circuit.

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
        tables = self._tables()
        distance, _, coupled, _ = tables
        if all(qubits in coupled for _, qubits in two_qubit_gates):
            property_set["final_permutation"] = list(range(circuit.num_qubits))
            return circuit

        for index, (a, b) in two_qubit_gates:
            if math.isinf(distance[a][b]):
                raise TranspilerError(
                    f"cannot route {circuit.data[index].operation.name!r} on physical "
                    f"qubits {a} and {b}: they are not connected in the coupling map"
                )
        trials = [
            (trial, np.random.default_rng((self.seed, trial))) for trial in range(self.trials)
        ]
        # fewest swaps wins, then the lowest trial number
        swaps, _, swap_plan, perm = min(
            (sum(map(len, plan.values())), group[0], plan, perm)
            for group, plan, perm in self._plan(two_qubit_gates, tables, trials)
        )
        property_set["routing_swaps"] = swaps
        property_set["final_permutation"] = perm
        return self._build(circuit, swap_plan)

    # ------------------------------------------------------------------

    def _tables(self) -> tuple:
        """``(distance rows, neighbour tuples, coupled pairs, lookahead
        weights)``; the first three are the coupling map's, built once."""
        # repeated products, not powers: the same doubles each score used
        weights = [1.0]
        while len(weights) < _LOOKAHEAD:
            weights.append(weights[-1] * _LOOKAHEAD_DECAY)
        return (*self.coupling.routing_tables(), weights)

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

    def _plan(self, two_qubit_gates, tables, trials):
        """Every trial's ``({gate index: [swap edges]}, final perm)``, as
        ``[(trial numbers, plan, perm)]``: one prefix tree over the trials.

        ``trials`` is ``[(trial number, generator)]``.  A trial reads its
        generator only to break a tie between best-scoring swaps, so until
        then all trials are in one state; a branch holds the trials still
        in one state and splits where their draws pick different swaps.
        """
        distance, neighbors, coupled, weights = tables
        num_qubits = len(neighbors)
        # perm[wire] = physical qubit holding that wire; wire_at is its inverse
        pairs = [qubits for _, qubits in two_qubit_gates]
        branches = [(trials, 0, list(range(num_qubits)), list(range(num_qubits)), {})]
        leaves = []
        while branches:
            group, start, perm, wire_at, plan = branches.pop()
            for order in range(start, len(pairs)):
                a, b = pairs[order]
                if (perm[a], perm[b]) in coupled:
                    continue
                index = two_qubit_gates[order][0]
                edges = plan.setdefault(index, [])
                while (perm[a], perm[b]) not in coupled:
                    if len(edges) >= 4 * num_qubits:
                        raise TranspilerError("routing failed to make progress")
                    if len(edges) >= 2 * num_qubits:
                        # lookahead is cycling: force a step along the shortest path
                        path = self.coupling.shortest_path(perm[a], perm[b])
                        edge = (min(path[0], path[1]), max(path[0], path[1]))
                    else:
                        window = pairs[order : order + _LOOKAHEAD]
                        best = _best_swaps(perm, wire_at, a, b, window, tables)
                        edge = best[0]
                        if len(best) > 1:
                            picks = {}
                            for trial in group:
                                pick = best[int(trial[1].integers(len(best)))]
                                picks.setdefault(pick, []).append(trial)
                            (edge, group), *forks = picks.items()
                            for fork_edge, fork_group in forks:
                                fork_perm, fork_wire_at = perm[:], wire_at[:]
                                _apply_swap(fork_perm, fork_wire_at, fork_edge)
                                # finished gates' edge lists never change
                                # again, so the fork shares them
                                fork_plan = dict(plan)
                                fork_plan[index] = edges + [fork_edge]
                                branches.append(
                                    (fork_group, order, fork_perm, fork_wire_at, fork_plan)
                                )
                    edges.append(edge)
                    _apply_swap(perm, wire_at, edge)
            leaves.append(([trial for trial, _ in group], plan, perm))
        return leaves

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


def _best_swaps(perm, wire_at, a, b, window, tables):
    """The physical edges whose swap gives the lowest lookahead score,
    in sorted order (scores within 1e-9 of the best tie)."""
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
    return best_edges


def _apply_swap(perm, wire_at, edge):
    """Swap the wires on physical edge ``edge``, updating both maps."""
    x, y = edge
    wire_x, wire_y = wire_at[x], wire_at[y]
    perm[wire_x], perm[wire_y] = y, x
    wire_at[x], wire_at[y] = wire_y, wire_x
