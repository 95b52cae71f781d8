"""QSAN's circuit scans against their oracles, bit for bit.

The fingerprint driver skips wires that are already TOP, the fingerprint
comparison evaluates ``np.allclose`` on plain floats, and the ANNOT flag
and terminal-measure map come from one scan.  Over random circuits of 1q,
cx, cz, swap, swapz, measure, reset, annot and barrier operations on up to
16 qubits, each must give exactly what the oracles in
``tests/analysis/qsan_oracles.py`` give: the same tracker tuples and known
mask, the same measure map and ANNOT flag, the same first disagreeing
qubit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import qsan
from repro.circuit import QuantumCircuit
from repro.circuit.instruction import Gate
from repro.rpo.pure_tracker import PureStateTracker
from tests.analysis import qsan_oracles as oracle

_NAMED_1Q = ("x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx", "id")
_KINDS = "1q 1q u3 u3 cx cx cz swap swapz measure reset annot barrier".split()

#: quarter turns keep states on the six basis states, where the CX/CZ
#: control tests and the SWAPZ validation take their non-TOP branches
_quarter = st.integers(0, 3).map(lambda k: k * math.pi / 2)
_free = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)
_angle = st.one_of(_quarter, _quarter, _free)


@st.composite
def operations(draw, width):
    kind = draw(st.sampled_from(_KINDS if width > 1 else _KINDS[:4] + _KINDS[9:]))
    qubit = draw(st.integers(0, width - 1))
    if kind in ("cx", "cz", "swap", "swapz"):
        other = draw(st.integers(0, width - 2))
        return kind, (qubit, other + (other >= qubit))
    if kind == "1q":
        return draw(st.sampled_from(_NAMED_1Q)), (qubit,)
    if kind == "u3":
        return ("u3", draw(_angle), draw(_angle), draw(_angle)), (qubit,)
    if kind == "annot":
        return ("annot", draw(_angle), draw(_angle)), (qubit,)
    if kind == "measure":
        return "measure", (qubit, draw(st.integers(0, width - 1)))
    if kind == "barrier":
        return "barrier", tuple(draw(st.sets(st.integers(0, width - 1), min_size=1)))
    return kind, (qubit,)


def build(width, ops) -> QuantumCircuit:
    circuit = QuantumCircuit(width, width)
    for op, wires in ops:
        if isinstance(op, tuple):
            name, *params = op
            if name == "u3":
                circuit.u3(*params, *wires)
            else:
                circuit.annotate(*wires, *params)
        elif op == "measure":
            circuit.measure(*wires)
        else:
            getattr(circuit, op)(*wires)
    return circuit


@st.composite
def circuit_pairs(draw):
    """Two circuits sharing a prefix, so their fingerprints agree on some
    wires and disagree on others, plus a wire relabelling."""
    width = draw(st.integers(1, 16))
    prefix = draw(st.lists(operations(width), max_size=40))
    tails = [draw(st.lists(operations(width), max_size=6)) for _ in range(2)]
    placement = draw(st.permutations(range(width)))
    return width, build(width, prefix + tails[0]), build(width, prefix + tails[1]), placement


def assert_same_tracker(new: PureStateTracker, old: PureStateTracker) -> None:
    assert new.known.tobytes() == old.known.tobytes()
    assert new.tuples.tobytes() == old.tuples.tobytes()


class TestOracleParity:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(circuit_pairs())
    def test_scans_match_the_oracles(self, case):
        width, first, second, placement = case
        fingerprints = []
        for circuit in (first, second):
            new = qsan.pure_fingerprint(circuit)
            assert_same_tracker(new, oracle.pure_fingerprint(circuit))
            fingerprints.append(new)
            assert qsan._circuit_facts(circuit) == (
                oracle.has_operation(circuit, ("annot",)),
                oracle.terminal_measure_map(circuit),
            )
        for wires in (None, placement):
            first_disagreement = qsan._fingerprints_compatible(*fingerprints, wires)
            assert first_disagreement == oracle.fingerprints_compatible(*fingerprints, wires)

    def test_sweep_reaches_every_branch(self):
        """The strategy above is not vacuous: known states survive, cx
        controls are proved |0> and |1>, and fingerprints disagree."""
        steps = [("x", (0,)), ("cx", (0, 1)), ("cx", (2, 0)), ("swapz", (2, 1))]
        circuit = build(3, steps + [("measure", (1, 1))])
        tracker = qsan.pure_fingerprint(circuit)
        assert_same_tracker(tracker, oracle.pure_fingerprint(circuit))
        assert tracker.states == [(math.pi, 0.0), (0.0, 0.0), (math.pi, 0.0)]
        flipped = build(3, [("x", (1,))])
        other = qsan.pure_fingerprint(flipped)
        assert qsan._fingerprints_compatible(tracker, other) == 0
        assert oracle.fingerprints_compatible(tracker, other) == 0

    @pytest.mark.parametrize("side", ["before", "after"])
    def test_nan_state_fails_the_check(self, side):
        trackers = {"before": PureStateTracker(3), "after": PureStateTracker(3)}
        trackers[side].set_state(1, (math.nan, 0.0))
        args = (trackers["before"], trackers["after"])
        assert oracle.fingerprints_compatible(*args) == 1
        assert qsan._fingerprints_compatible(*args) == 1

    @pytest.mark.parametrize("theta", [0.3, 1.1, 2.0, math.pi / 2, 3.0])
    @pytest.mark.parametrize("phi", [0.0, 0.7, 4.0])
    @pytest.mark.parametrize("forward", [True, False])
    def test_tolerance_edge_matches_allclose(self, theta, phi, forward):
        """Bisect the oracle's tolerance edge down to adjacent floats; the
        verdicts on both sides of it must agree."""
        base = PureStateTracker(1)
        base.set_state(0, (theta, phi))

        def trackers(delta):
            moved = PureStateTracker(1)
            moved.set_state(0, (theta + delta, phi + 0.5 * delta))
            return (base, moved) if forward else (moved, base)

        inside, outside = 0.0, 1e-4
        assert oracle.fingerprints_compatible(*trackers(outside)) == 0
        while True:
            middle = 0.5 * (inside + outside)
            if middle in (inside, outside):
                break
            if oracle.fingerprints_compatible(*trackers(middle)) is None:
                inside = middle
            else:
                outside = middle
        assert qsan._fingerprints_compatible(*trackers(inside)) is None
        assert qsan._fingerprints_compatible(*trackers(outside)) == 0


class CountingGate(Gate):
    """A one-qubit identity that counts the matrices built for it."""

    built = 0

    def __init__(self):
        super().__init__("counting", 1)

    def to_matrix(self):
        type(self).built += 1
        return np.eye(2, dtype=complex)


class TestTopWiresCostNothing:
    def _entangled(self, width=4):
        circuit = QuantumCircuit(width, width)
        circuit.h(0)
        circuit.cx(0, 1)  # control in |+>: wires 0 and 1 go TOP
        return circuit

    def test_no_matrix_for_a_gate_on_a_top_wire(self, monkeypatch):
        monkeypatch.setattr(CountingGate, "built", 0)
        circuit = self._entangled()
        circuit.h(3)
        circuit.measure(3, 3)  # collapses |+>: wire 3 goes TOP too
        for qubit in (0, 1, 3):
            circuit.append(CountingGate(), (qubit,))
        qsan.pure_fingerprint(circuit)
        assert CountingGate.built == 0
        circuit.append(CountingGate(), (2,))
        qsan.pure_fingerprint(circuit)
        assert CountingGate.built == 1

    def test_all_top_operations_write_nothing(self, monkeypatch):
        writes = []
        for method in ("invalidate", "apply_1q_gate", "apply_swap", "apply_measure"):
            original = getattr(PureStateTracker, method)

            def spy(self, *args, _original=original, _method=method):
                writes.append(_method)
                return _original(self, *args)

            monkeypatch.setattr(PureStateTracker, method, spy)
        circuit = self._entangled()
        assert writes == []
        qsan.pure_fingerprint(circuit)
        assert writes == ["apply_1q_gate", "invalidate"]  # h, then the entangling cx
        writes.clear()
        # every operation below touches only the two TOP wires
        circuit.x(0)
        circuit.cx(0, 1)
        circuit.cz(1, 0)
        circuit.swap(0, 1)
        circuit.swapz(1, 0)
        circuit.append(Gate("foo", 1), (0,))
        circuit.append(Gate("foo2", 2), (0, 1))
        circuit.measure(1, 1)
        tracker = qsan.pure_fingerprint(circuit)
        assert writes == ["apply_1q_gate", "invalidate"]  # the same two, no more
        assert tracker.states[2:] == [(0.0, 0.0), (0.0, 0.0)]
