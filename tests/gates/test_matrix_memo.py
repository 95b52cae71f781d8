"""``Gate.matrix``: one memoized, read-only matrix per gate object.

The memo is built by ``to_matrix()`` on first read and kept on the
instance; it never crosses a pickle (so pool and wire payloads are the
same bytes whether or not it was filled) and a gate with no matrix
memoizes nothing.
"""

import pickle

import numpy as np
import pytest

from repro.circuit.instruction import ControlledGate, Gate
from repro.gates import (
    CCXGate,
    CCZGate,
    CHGate,
    CPhaseGate,
    CRXGate,
    CRYGate,
    CRZGate,
    CSwapGate,
    CU3Gate,
    CXGate,
    CYGate,
    CZGate,
    HGate,
    IGate,
    ISwapGate,
    MCU1Gate,
    MCXGate,
    MCXVChainGate,
    MCZGate,
    RXGate,
    RYGate,
    RZGate,
    SdgGate,
    SGate,
    SwapGate,
    SwapZGate,
    SXGate,
    TdgGate,
    TGate,
    U1Gate,
    U2Gate,
    U3Gate,
    UnitaryGate,
    XGate,
    YGate,
    ZGate,
)
from repro.gates.matrices import STANDARD_GATE_MATRICES, standard_gate_matrix
from repro.linalg.random import random_unitary

#: (id, factory): every library gate class, closed and open controls, a
#: generic controlled gate and a gate defined by its inverse's definition
FACTORIES = [
    ("id", IGate),
    ("x", XGate),
    ("y", YGate),
    ("z", ZGate),
    ("h", HGate),
    ("s", SGate),
    ("sdg", SdgGate),
    ("t", TGate),
    ("tdg", TdgGate),
    ("sx", SXGate),
    ("rx", lambda: RXGate(0.37)),
    ("ry", lambda: RYGate(-1.2)),
    ("rz", lambda: RZGate(2.4)),
    ("u1", lambda: U1Gate(0.25)),
    ("u2", lambda: U2Gate(0.3, 1.1)),
    ("u3", lambda: U3Gate(0.1, 0.2, 0.3)),
    ("cx", CXGate),
    ("cx-open", lambda: CXGate(ctrl_state=0)),
    ("cy", CYGate),
    ("cy-open", lambda: CYGate(ctrl_state=0)),
    ("cz", CZGate),
    ("cz-open", lambda: CZGate(ctrl_state=0)),
    ("ch", CHGate),
    ("ch-open", lambda: CHGate(ctrl_state=0)),
    ("cp", lambda: CPhaseGate(0.77)),
    ("cp-open", lambda: CPhaseGate(0.77, ctrl_state=0)),
    ("crx", lambda: CRXGate(1.3)),
    ("crx-open", lambda: CRXGate(1.3, ctrl_state=0)),
    ("cry", lambda: CRYGate(-0.6)),
    ("cry-open", lambda: CRYGate(-0.6, ctrl_state=0)),
    ("crz", lambda: CRZGate(0.9)),
    ("crz-open", lambda: CRZGate(0.9, ctrl_state=0)),
    ("cu3", lambda: CU3Gate(0.5, 0.6, 0.7)),
    ("cu3-open", lambda: CU3Gate(0.5, 0.6, 0.7, ctrl_state=0)),
    ("swap", SwapGate),
    ("swapz", SwapZGate),
    ("iswap", ISwapGate),
    ("ccx", CCXGate),
    ("ccx-open", lambda: CCXGate(ctrl_state=1)),
    ("ccz", CCZGate),
    ("ccz-open", lambda: CCZGate(ctrl_state=2)),
    ("cswap", CSwapGate),
    ("mcu1", lambda: MCU1Gate(0.81, 2)),
    ("mcu1-open", lambda: MCU1Gate(-1.3, 3, ctrl_state=5)),
    ("mcx", lambda: MCXGate(3)),
    ("mcx-open", lambda: MCXGate(3, ctrl_state=6)),
    ("mcz", lambda: MCZGate(3)),
    ("mcz-open", lambda: MCZGate(3, ctrl_state=1)),
    ("mcx_vchain", lambda: MCXVChainGate(3)),
    ("unitary", lambda: UnitaryGate(random_unitary(4, seed=3))),
    ("controlled-unitary", lambda: UnitaryGate(random_unitary(2, seed=4)).control(1, 0)),
    ("definition-inverse", lambda: CU3Gate(0.5, 0.6, 0.7).inverse()),
    ("matrix-inverse", lambda: SwapZGate().inverse()),
]

IDS = [name for name, _ in FACTORIES]
MAKERS = [factory for _, factory in FACTORIES]


def _opaque() -> Gate:
    return Gate("opaque", 1, [])


class TestMemo:
    @pytest.mark.parametrize("factory", MAKERS, ids=IDS)
    def test_read_only_and_the_same_object_on_every_read(self, factory):
        gate = factory()
        matrix = gate.matrix
        assert gate.matrix is matrix
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 0.0

    @pytest.mark.parametrize("factory", MAKERS, ids=IDS)
    def test_bits_equal_to_matrix(self, factory):
        gate = factory()
        expected = factory().to_matrix()
        matrix = gate.matrix
        assert matrix.dtype == expected.dtype
        assert matrix.shape == expected.shape
        assert matrix.tobytes() == expected.tobytes()

    def test_fixed_gates_hand_out_the_shared_table(self):
        for factory in (XGate, HGate, SwapZGate, CXGate, CCZGate):
            gate = factory()
            assert gate.matrix is standard_gate_matrix(gate.name)
        assert CXGate(ctrl_state=0).matrix is not STANDARD_GATE_MATRICES["cx"]

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: U3Gate(0.1, 0.2, 0.3),
            lambda: CPhaseGate(0.4, ctrl_state=0),
            lambda: UnitaryGate(np.eye(2)),
        ],
        ids=["u3", "cp-open", "unitary"],
    )
    def test_distinct_objects_get_distinct_arrays(self, factory):
        first, second = factory(), factory()
        assert first.matrix is not second.matrix
        assert first.matrix.tobytes() == second.matrix.tobytes()

    def test_unitary_gate_keeps_its_own_matrix_writeable(self):
        gate = UnitaryGate(np.eye(2))
        assert gate.matrix is not gate._matrix
        assert gate._matrix.flags.writeable

    def test_opaque_gates_raise_every_time(self):
        gate = _opaque()
        for _ in range(2):
            with pytest.raises(NotImplementedError, match="defines no matrix"):
                gate.matrix
        assert "_matrix_memo" not in gate.__dict__
        controlled = ControlledGate("copaque", 1, _opaque())
        for _ in range(2):
            with pytest.raises(NotImplementedError, match="defines no matrix"):
                controlled.matrix
        assert "_matrix_memo" not in controlled.__dict__


class TestPickleHygiene:
    @pytest.mark.parametrize("factory", MAKERS, ids=IDS)
    def test_pickle_bytes_equal_before_and_after_a_read(self, factory):
        gate = factory()
        before = pickle.dumps(gate)
        gate.matrix
        assert pickle.dumps(gate) == before

    def test_unitary_gate_round_trips(self):
        gate = UnitaryGate(random_unitary(4, seed=7), label="u")
        gate.matrix
        clone = pickle.loads(pickle.dumps(gate))
        assert "_matrix_memo" not in clone.__dict__
        assert clone._matrix.tobytes() == gate._matrix.tobytes()
        assert clone.matrix.tobytes() == gate.matrix.tobytes()
        assert clone.label == "u"

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: U3Gate(0.1, 0.2, 0.3),
            lambda: CCXGate(ctrl_state=1),
            lambda: UnitaryGate(np.eye(2)),
        ],
        ids=["u3", "ccx-open", "unitary"],
    )
    def test_copy_of_a_memoized_gate(self, factory):
        gate = factory()
        matrix = gate.matrix
        clone = gate.copy()
        assert clone == gate
        assert clone.matrix is not matrix
        assert clone.matrix.tobytes() == matrix.tobytes()
        assert not clone.matrix.flags.writeable
