"""StochasticSwap's swap plans against the routers they replaced.

``reference_route`` is the router as it was before trials became swap
plans: each seeded trial builds its whole output circuit over the numpy
distance matrix and the networkx graph, and the fewest-swap circuit wins.
The pass must return the same circuit (operations, wires, parameters bit
for bit, global phase) and the same ``routing_swaps`` and
``final_permutation``.

``plan_once`` is the planner as it was before the trials shared a prefix
tree: one trial at a time, scoring every state it passes through.  Every
leaf of the tree must hold exactly the plan, swap count and final
permutation that ``plan_once`` gives each of its trials.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.transpiler.passes.routing as routing
from repro.backends import FakeMelbourne
from repro.circuit import QuantumCircuit
from repro.gates import SwapGate
from repro.transpiler import CouplingMap, TranspilerError
from repro.transpiler.passes import StochasticSwap
from repro.transpiler.passmanager import PropertySet


# -- the oracle ---------------------------------------------------------------


def reference_route(circuit, coupling, trials, seed):
    """``(routed, property_set)`` of the full-circuit-per-trial router."""
    props = {}
    if _reference_already_mapped(circuit, coupling):
        props["final_permutation"] = list(range(circuit.num_qubits))
        return circuit, props
    best = best_swaps = best_perm = None
    for trial in range(max(1, trials)):
        rng = np.random.default_rng((0 if seed is None else seed, trial))
        routed, swaps, perm = _reference_route_once(circuit, coupling, rng)
        if best_swaps is None or swaps < best_swaps:
            best, best_swaps, best_perm = routed, swaps, perm
    props["routing_swaps"] = best_swaps
    props["final_permutation"] = best_perm
    return best, props


def _reference_already_mapped(circuit, coupling):
    for instruction in circuit.data:
        if (
            len(instruction.qubits) == 2
            and not instruction.operation.is_directive
            and not coupling.are_coupled(*instruction.qubits)
        ):
            return False
    return True


def _reference_route_once(circuit, coupling, rng):
    num_qubits = circuit.num_qubits
    perm = list(range(num_qubits))
    output = circuit.copy_empty_like()
    swaps_inserted = 0
    two_qubit_gates = [
        (index, instruction.qubits)
        for index, instruction in enumerate(circuit.data)
        if len(instruction.qubits) == 2 and not instruction.operation.is_directive
    ]
    lookahead_starts = {index: order for order, (index, _) in enumerate(two_qubit_gates)}
    for index, instruction in enumerate(circuit.data):
        qubits = instruction.qubits
        if len(qubits) != 2 or instruction.operation.is_directive:
            mapped = tuple(perm[q] for q in qubits)
            output.append(instruction.operation, mapped, instruction.clbits)
            continue
        a, b = qubits
        guard = 0
        while not coupling.are_coupled(perm[a], perm[b]):
            guard += 1
            if guard > 4 * num_qubits:
                raise TranspilerError("routing failed to make progress")
            if guard > 2 * num_qubits:
                path = coupling.shortest_path(perm[a], perm[b])
                swap_edge = tuple(sorted((path[0], path[1])))
            else:
                swap_edge = _reference_choose_swap(
                    coupling, perm, a, b, two_qubit_gates,
                    lookahead_starts.get(index, 0), rng,
                )
            output.append(SwapGate(), swap_edge)
            swaps_inserted += 1
            _reference_apply_swap(perm, swap_edge)
        output.append(instruction.operation, (perm[a], perm[b]), instruction.clbits)
    return output, swaps_inserted, perm


def _reference_choose_swap(coupling, perm, a, b, two_qubit_gates, window_start, rng):
    distance = coupling.distance_matrix
    phys_a, phys_b = perm[a], perm[b]
    candidates = set()
    for endpoint in (phys_a, phys_b):
        for neighbor in coupling.neighbors(endpoint):
            candidates.add(tuple(sorted((endpoint, neighbor))))
    # read at call time so a test can widen the lookahead for both routers
    window = two_qubit_gates[window_start : window_start + routing._LOOKAHEAD]
    best_edges = []
    best_score = None
    for edge in sorted(candidates):
        trial_perm = list(perm)
        _reference_apply_swap(trial_perm, edge)
        score = 2.0 * distance[trial_perm[a], trial_perm[b]]
        weight = 1.0
        for _, (qa, qb) in window:
            score += weight * distance[trial_perm[qa], trial_perm[qb]]
            weight *= routing._LOOKAHEAD_DECAY
        if best_score is None or score < best_score - 1e-9:
            best_score = score
            best_edges = [edge]
        elif score < best_score + 1e-9:
            best_edges.append(edge)
    return best_edges[int(rng.integers(len(best_edges)))]


def _reference_apply_swap(perm, edge):
    x, y = edge
    wire_x = perm.index(x)
    wire_y = perm.index(y)
    perm[wire_x], perm[wire_y] = perm[wire_y], perm[wire_x]


def plan_once(coupling, two_qubit_gates, tables, rng):
    """One trial alone: ``({gate index: [swap edges]}, swap count, perm)``."""
    distance, neighbors, coupled, weights = tables
    num_qubits = len(neighbors)
    perm = list(range(num_qubits))
    wire_at = list(range(num_qubits))
    pairs = [qubits for _, qubits in two_qubit_gates]
    plan = {}
    swaps_inserted = 0
    for order, (index, (a, b)) in enumerate(two_qubit_gates):
        if (perm[a], perm[b]) in coupled:
            continue
        window = pairs[order : order + routing._LOOKAHEAD]
        edges = plan[index] = []
        while (perm[a], perm[b]) not in coupled:
            if len(edges) >= 4 * num_qubits:
                raise TranspilerError("routing failed to make progress")
            if len(edges) >= 2 * num_qubits:
                path = coupling.shortest_path(perm[a], perm[b])
                edge = (min(path[0], path[1]), max(path[0], path[1]))
            else:
                edge = _choose_swap(perm, wire_at, a, b, window, tables, rng)
            edges.append(edge)
            _swap(perm, wire_at, edge)
        swaps_inserted += len(edges)
    return plan, swaps_inserted, perm


def _choose_swap(perm, wire_at, a, b, window, tables, rng):
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
    # drawn even from a single best edge, as before the prefix tree
    return best_edges[int(rng.integers(len(best_edges)))]


def _swap(perm, wire_at, edge):
    x, y = edge
    wire_x, wire_y = wire_at[x], wire_at[y]
    perm[wire_x], perm[wire_y] = y, x
    wire_at[x], wire_at[y] = wire_y, wire_x


def tree_leaves(circuit, coupling, trials, seed):
    """``(two-qubit gates, tables, leaves)`` of the pass's prefix tree."""
    router = StochasticSwap(coupling, trials=trials, seed=seed)
    two_qubit_gates = router._two_qubit_gates(circuit)
    tables = router._tables()
    generators = [(t, np.random.default_rng((router.seed, t))) for t in range(router.trials)]
    return two_qubit_gates, tables, router._plan(two_qubit_gates, tables, generators)


def assert_tree_matches_plan_once(circuit, coupling, trials, seed):
    """Every trial's leaf equals its lone ``plan_once``; returns the leaves."""
    two_qubit_gates, tables, leaves = tree_leaves(circuit, coupling, trials, seed)
    seen = sorted(trial for group, _, _ in leaves for trial in group)
    assert seen == list(range(max(1, trials)))
    for group, plan, perm in leaves:
        assert group == sorted(group)
        for trial in group:
            rng = np.random.default_rng((0 if seed is None else seed, trial))
            expected_plan, expected_swaps, expected_perm = plan_once(
                coupling, two_qubit_gates, tables, rng
            )
            assert plan == expected_plan
            assert sum(map(len, plan.values())) == expected_swaps
            assert perm == expected_perm
    return leaves


# -- comparison ---------------------------------------------------------------


def _param_key(param):
    return float(param).hex() if isinstance(param, (int, float, np.floating)) else param


def _instruction_key(instruction):
    operation = instruction.operation
    return (
        operation.name,
        tuple(_param_key(p) for p in operation.params),
        instruction.qubits,
        instruction.clbits,
    )


def assert_matches_reference(circuit, coupling, trials, seed):
    expected, expected_props = reference_route(circuit, coupling, trials, seed)
    props = PropertySet()
    routed = StochasticSwap(coupling, trials=trials, seed=seed).run(circuit, props)
    assert [_instruction_key(i) for i in routed.data] == [
        _instruction_key(i) for i in expected.data
    ]
    # routed gates are the input's own operation objects, as before
    inputs = {id(instruction.operation) for instruction in circuit.data}
    for got, want in zip(routed.data, expected.data):
        if id(want.operation) in inputs:
            assert got.operation is want.operation
    assert float(routed.global_phase).hex() == float(expected.global_phase).hex()
    assert (routed.num_qubits, routed.num_clbits) == (expected.num_qubits, expected.num_clbits)
    assert props.get("routing_swaps") == expected_props.get("routing_swaps")
    assert props["final_permutation"] == expected_props["final_permutation"]
    return routed, props


# -- random circuits ------------------------------------------------------------


COUPLINGS = {
    "line6": CouplingMap.line(6),
    "ring7": CouplingMap.ring(7),
    "grid3x3": CouplingMap.grid(3, 3),
    "melbourne": FakeMelbourne().coupling_map,
}

_ONE_QUBIT = ("h", "x", "t", "sdg")
_ROTATIONS = ("rz", "rx", "u1")
_TWO_QUBIT = ("cx", "cz", "swap")


@st.composite
def device_circuits(draw, num_qubits):
    """A device-wide circuit of 1q and 2q gates, barriers and measures."""
    circuit = QuantumCircuit(num_qubits, num_qubits, global_phase=draw(st.floats(-4, 4)))
    qubit = st.integers(0, num_qubits - 1)
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(("1q", "rot", "2q", "2q", "2q", "barrier", "measure")))
        if kind == "1q":
            getattr(circuit, draw(st.sampled_from(_ONE_QUBIT)))(draw(qubit))
        elif kind == "rot":
            angle = draw(st.floats(-7, 7, allow_nan=False))
            getattr(circuit, draw(st.sampled_from(_ROTATIONS)))(angle, draw(qubit))
        elif kind == "2q":
            a, b = draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
            getattr(circuit, draw(st.sampled_from(_TWO_QUBIT)))(a, b)
        elif kind == "barrier":
            wires = draw(st.lists(qubit, min_size=1, max_size=num_qubits, unique=True))
            circuit.barrier(*wires)
        else:
            circuit.measure(draw(qubit), draw(qubit))
    return circuit


class TestAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        name=st.sampled_from(sorted(COUPLINGS)),
        trials=st.sampled_from((1, 5, 8)),
        seed=st.one_of(st.none(), st.integers(0, 2**16)),
    )
    def test_random_circuits(self, data, name, trials, seed):
        coupling = COUPLINGS[name]
        circuit = data.draw(device_circuits(coupling.num_qubits))
        assert_matches_reference(circuit, coupling, trials, seed)

    @pytest.mark.parametrize("seed", [0, 1, 7, 11])
    @pytest.mark.parametrize("trials", [1, 5, 8])
    def test_long_range_gates_on_melbourne(self, seed, trials):
        coupling = COUPLINGS["melbourne"]
        rng = np.random.default_rng(seed)
        circuit = QuantumCircuit(15, 15)
        for _ in range(60):
            a, b = (int(q) for q in rng.choice(15, size=2, replace=False))
            circuit.cx(a, b)
            circuit.rz(float(rng.uniform(-3, 3)), a)
        for q in range(15):
            circuit.measure(q, q)
        _, props = assert_matches_reference(circuit, coupling, trials, seed)
        assert props["routing_swaps"] > 0

    def test_already_mapped_circuit_returned_as_is(self):
        coupling = CouplingMap.line(3)
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.barrier(0, 2)
        circuit.cx(2, 1)
        props = PropertySet()
        assert StochasticSwap(coupling).run(circuit, props) is circuit
        assert props["final_permutation"] == [0, 1, 2]
        assert "routing_swaps" not in props


class TestForcedStep:
    def test_forced_shortest_path_step_matches(self, monkeypatch):
        # With the default decay the blocked gate outweighs its whole
        # lookahead window, so every choice lowers the score and the
        # shortest-path step never fires.  A decay above 1 lets the window
        # win, the lookahead cycles and the forced step takes over.
        monkeypatch.setattr(routing, "_LOOKAHEAD_DECAY", 1.5)
        forced = []
        shortest_path = CouplingMap.shortest_path

        def counting(self, a, b):
            forced.append((a, b))
            return shortest_path(self, a, b)

        monkeypatch.setattr(CouplingMap, "shortest_path", counting)
        rng = np.random.default_rng(0)
        circuit = QuantumCircuit(6)
        for _ in range(30):
            circuit.cx(*(int(q) for q in rng.choice(6, size=2, replace=False)))
        assert_matches_reference(circuit, CouplingMap.line(6), 1, 0)
        assert forced


class TestPrefixTree:
    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        name=st.sampled_from(sorted(COUPLINGS)),
        trials=st.integers(1, 8),
        seed=st.one_of(st.none(), st.integers(0, 2**16)),
    )
    def test_every_trial_matches_plan_once(self, data, name, trials, seed):
        coupling = COUPLINGS[name]
        circuit = data.draw(device_circuits(coupling.num_qubits))
        assert_tree_matches_plan_once(circuit, coupling, trials, seed)
        assert_matches_reference(circuit, coupling, trials, seed)

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("trials", [1, 8])
    def test_long_range_gates_on_melbourne_fork(self, seed, trials):
        coupling = COUPLINGS["melbourne"]
        rng = np.random.default_rng(seed)
        circuit = QuantumCircuit(15)
        for _ in range(60):
            circuit.cx(*(int(q) for q in rng.choice(15, size=2, replace=False)))
        leaves = assert_tree_matches_plan_once(circuit, coupling, trials, seed)
        if trials > 1:
            assert len(leaves) > 1  # the trials do fork here

    @pytest.mark.parametrize("trials", [1, 3, 8])
    def test_forced_shortest_path_step_in_the_tree(self, monkeypatch, trials):
        # as in TestForcedStep: a decay above 1 makes the lookahead cycle
        monkeypatch.setattr(routing, "_LOOKAHEAD_DECAY", 1.5)
        forced = []
        shortest_path = CouplingMap.shortest_path

        def counting(self, a, b):
            forced.append((a, b))
            return shortest_path(self, a, b)

        monkeypatch.setattr(CouplingMap, "shortest_path", counting)
        rng = np.random.default_rng(0)
        circuit = QuantumCircuit(6)
        for _ in range(30):
            circuit.cx(*(int(q) for q in rng.choice(6, size=2, replace=False)))
        assert_tree_matches_plan_once(circuit, CouplingMap.line(6), trials, 0)
        assert_matches_reference(circuit, CouplingMap.line(6), trials, 0)
        assert forced

    def test_fork_whose_pick_completes_the_gate(self):
        # At cx(0, 3) both best swaps, (0, 1) and (1, 2), complete the
        # gate; trial 0 draws the first and trial 1 the second, so the
        # forked branch holds trial 1 with that gate already routed.  Both
        # trials insert 2 swaps and trial 0 wins the tie.  A count that
        # missed the forked branch's swap for that gate read 1 for trial 1
        # and picked its plan instead.
        coupling = CouplingMap.line(4)
        circuit = QuantumCircuit(4)
        for a, b in ((3, 1), (3, 2), (1, 3), (0, 3)):
            circuit.cx(a, b)
        leaves = assert_tree_matches_plan_once(circuit, coupling, 2, 42)
        by_trial = {group[0]: plan for group, plan, _ in leaves}
        assert by_trial == {0: {0: [(2, 3)], 3: [(0, 1)]}, 1: {0: [(2, 3)], 3: [(1, 2)]}}
        routed, props = assert_matches_reference(circuit, coupling, 2, 42)
        assert props["routing_swaps"] == 2
        assert [i.qubits for i in routed.data if i.operation.name == "swap"] == [(2, 3), (0, 1)]

    def test_one_trial_is_one_leaf(self):
        circuit = QuantumCircuit(15)
        rng = np.random.default_rng(5)
        for _ in range(40):
            circuit.cx(*(int(q) for q in rng.choice(15, size=2, replace=False)))
        leaves = assert_tree_matches_plan_once(circuit, COUPLINGS["melbourne"], 1, 5)
        assert len(leaves) == 1

    @pytest.mark.parametrize("seed", [0, 1, 9001, (7, 3)])
    def test_integers_of_one_draws_nothing(self, seed):
        # the tree skips a trial's draw when one swap scores best; that is
        # exact only because a draw from a range of one leaves the
        # generator's state as it was
        rng = np.random.default_rng(seed)
        state = rng.bit_generator.state
        for _ in range(5):
            assert int(rng.integers(1)) == 0
        assert rng.bit_generator.state == state
        fresh = np.random.default_rng(seed)
        assert int(rng.integers(7)) == int(fresh.integers(7))

    def test_each_state_is_scored_once(self, monkeypatch):
        # on this circuit no routing step ties, so eight trials stay in one
        # state: one scoring per inserted swap, as for a single trial
        calls = []
        best_swaps = routing._best_swaps

        def counting(*args):
            calls.append(args[2:4])
            return best_swaps(*args)

        monkeypatch.setattr(routing, "_best_swaps", counting)
        circuit = QuantumCircuit(5)
        for a, b in ((4, 0), (2, 0), (0, 1), (1, 4)):
            circuit.cx(a, b)
        props = PropertySet()
        StochasticSwap(CouplingMap.line(5), trials=8, seed=0).run(circuit, props)
        eight = len(calls)
        calls.clear()
        StochasticSwap(CouplingMap.line(5), trials=1, seed=0).run(circuit, PropertySet())
        assert eight == len(calls) == props["routing_swaps"] == 5
