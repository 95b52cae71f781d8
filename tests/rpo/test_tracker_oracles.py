"""Each RPO analysis kernel against its reference automaton.

* The basis-state tracker's stacked column-pick transition must agree
  exactly with Fig. 5's transition table, :func:`repro.rpo.states.transition`,
  for every gate and every lattice state, ``TOP`` included.
* The pure-state tracker's ``(theta, phi)`` tuple must describe the state a
  statevector evolution reaches, up to global phase (Fig. 6).
* The Hoare baseline's support transformers switch from per-pattern set
  loops to integer array kernels at ``_VECTOR_MIN_PATTERNS`` patterns; both
  compute identical supports, so moving the cutover to either extreme must
  leave every output circuit unchanged.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gates.matrices import standard_gate_matrix
from repro.linalg.euler import u3_matrix
from repro.rpo import hoare
from repro.rpo.basis_tracker import BasisStateTracker
from repro.rpo.hoare import HoareOptimizer
from repro.rpo.pure_tracker import PureStateTracker
from repro.rpo.states import TOP, BasisState, transition
from repro.transpiler.passmanager import PropertySet
from tests.helpers import random_circuit

seeds = st.integers(min_value=0, max_value=10_000)

#: every lattice state of Fig. 5, TOP included
LATTICE = list(BasisState)

_NAMED_1Q = ["id", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx"]

#: quarter-turn u3 gates map basis states onto basis states only up to
#: rounding, which is where a transition implementation can disagree
_QUARTER_TURNS = {
    f"u3({t},{p},{q})": (t * math.pi / 2, p * math.pi / 2, q * math.pi / 2)
    for t, p, q in [(1, 0, 0), (1, 0, 2), (1, 1, 3), (2, 1, 0), (3, 2, 1), (1, 3, 1)]
}


def gate_matrix(name: str) -> np.ndarray:
    if name in _QUARTER_TURNS:
        return u3_matrix(*_QUARTER_TURNS[name])
    return standard_gate_matrix(name)


@st.composite
def one_qubit_gates(draw):
    """A named gate, a quarter-turn u3, or a u3 at arbitrary angles."""
    kind = draw(st.sampled_from(["named", "quarter", "free"]))
    if kind == "named":
        return standard_gate_matrix(draw(st.sampled_from(_NAMED_1Q)))
    if kind == "quarter":
        turns = draw(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)))
        return u3_matrix(*(k * math.pi / 2 for k in turns))
    angle = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)
    return u3_matrix(draw(angle), draw(angle), draw(angle))


class TestBasisTrackerOracle:
    @pytest.mark.parametrize("name", _NAMED_1Q + sorted(_QUARTER_TURNS))
    def test_every_fig5_edge(self, name):
        matrix = gate_matrix(name)
        tracker = BasisStateTracker(len(LATTICE))
        for qubit, state in enumerate(LATTICE):
            tracker.set_state(qubit, state)
            tracker.apply_1q_gate(qubit, matrix)
        assert tracker.states == [transition(state, matrix) for state in LATTICE]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        start=st.lists(st.sampled_from(LATTICE), min_size=1, max_size=5),
        data=st.data(),
    )
    def test_random_traces_match_transition(self, start, data):
        num_qubits = len(start)
        tracker = BasisStateTracker(num_qubits)
        for qubit, state in enumerate(start):
            tracker.set_state(qubit, state)
        expected = list(start)
        steps = data.draw(
            st.lists(st.tuples(st.integers(0, num_qubits - 1), one_qubit_gates()), max_size=30)
        )
        for qubit, matrix in steps:
            tracker.apply_1q_gate(qubit, matrix)
            expected[qubit] = transition(expected[qubit], matrix)
            assert tracker.state(qubit) is expected[qubit]
        assert tracker.states == expected
        # the stacked encoding round-trips through the enum's own values
        for qubit, state in enumerate(expected):
            if state is TOP:
                assert tracker.axes[qubit] == -1 and tracker.signs[qubit] == 0
            else:
                assert (tracker.axes[qubit], tracker.signs[qubit]) == (state.axis, state.sign)


class TestPureTrackerStatevector:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(num_qubits=st.integers(1, 4), data=st.data())
    def test_tracked_tuple_is_the_evolved_state(self, num_qubits, data):
        tracker = PureStateTracker(num_qubits)
        states = [np.array([1, 0], dtype=complex) for _ in range(num_qubits)]
        steps = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, num_qubits - 1),
                    st.one_of(st.just("reset"), one_qubit_gates()),
                ),
                max_size=25,
            )
        )
        for qubit, step in steps:
            if isinstance(step, str):
                tracker.apply_reset(qubit)
                states[qubit] = np.array([1, 0], dtype=complex)
            else:
                tracker.apply_1q_gate(qubit, step)
                states[qubit] = step @ states[qubit]
        for qubit, state in enumerate(states):
            overlap = abs(np.vdot(tracker.statevector(qubit), state))
            assert overlap == pytest.approx(1.0, abs=1e-9)


def circuit_fingerprint(circuit):
    """Byte-for-byte comparable rendering of a circuit."""
    return (
        float(circuit.global_phase).hex(),
        [
            (
                instruction.operation.name,
                tuple(float(p).hex() for p in instruction.operation.params),
                tuple(instruction.qubits),
                tuple(instruction.clbits),
            )
            for instruction in circuit.data
        ],
    )


def hoare_outputs(circuit, max_support: int, monkeypatch) -> list:
    """The optimizer's output with the set-loop/kernel cutover at its
    default, at 0 (kernels throughout) and out of reach (set loops only)."""
    outputs = []
    for cutover in (hoare._VECTOR_MIN_PATTERNS, 0, 1 << 62):
        monkeypatch.setattr(hoare, "_VECTOR_MIN_PATTERNS", cutover)
        optimized = HoareOptimizer(max_support=max_support).transform(circuit, PropertySet())
        outputs.append(circuit_fingerprint(optimized))
    return outputs


class TestHoareCutover:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        seed=seeds,
        num_qubits=st.integers(2, 6),
        max_support=st.sampled_from([4, 64, 4096]),
    )
    def test_random_circuits_identical_at_every_cutover(self, seed, num_qubits, max_support):
        circuit = random_circuit(num_qubits, 30, seed=seed)
        with pytest.MonkeyPatch.context() as monkeypatch:
            default, kernels, loops = hoare_outputs(circuit, max_support, monkeypatch)
        assert default == kernels == loops

    @pytest.mark.parametrize("num_qubits", [4, 6])
    def test_grover_identical_at_every_cutover(self, num_qubits, monkeypatch):
        from repro.algorithms import grover_circuit

        circuit = grover_circuit(num_qubits, design="noancilla")
        default, kernels, loops = hoare_outputs(circuit, 1 << 14, monkeypatch)
        assert default == kernels == loops
