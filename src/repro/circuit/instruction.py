"""Operation classes carried by circuits.

``Instruction`` is the base class for anything that can appear in a circuit
(gates, measurements, resets, barriers, annotations).  ``Gate`` adds a
unitary matrix.  ``ControlledGate`` adds control qubits with an arbitrary
control state (open/closed controls, paper Appendix C).

An instruction may carry a *definition*: a sub-circuit over
``num_qubits + num_clbits`` local wires that implements it in terms of more
primitive operations.  The transpiler's unroller expands definitions until
only backend basis gates remain.
"""

from __future__ import annotations

import copy as _copy
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.circuit.quantumcircuit import QuantumCircuit

__all__ = ["Instruction", "Gate", "ControlledGate"]

_STANDARD_MATRIX_LOOKUP = None


def _standard_matrix(name: str):
    """Shared immutable matrix of a fixed standard gate, or ``None``.

    Resolved lazily because :mod:`repro.gates.matrices` sits above this
    module in the import graph.
    """
    global _STANDARD_MATRIX_LOOKUP
    if _STANDARD_MATRIX_LOOKUP is None:
        from repro.gates.matrices import standard_gate_matrix

        _STANDARD_MATRIX_LOOKUP = standard_gate_matrix
    return _STANDARD_MATRIX_LOOKUP(name)


class Instruction:
    """A generic circuit operation.

    Attributes:
        name: lowercase mnemonic (``"cx"``, ``"measure"``, ...).
        num_qubits: number of qubit arguments.
        num_clbits: number of classical-bit arguments.
        params: numeric parameters (rotation angles etc.).
        label: optional display label.
    """

    def __init__(
        self,
        name: str,
        num_qubits: int,
        num_clbits: int = 0,
        params: Sequence[float] | None = None,
        label: str | None = None,
    ):
        self.name = name
        self.num_qubits = int(num_qubits)
        self.num_clbits = int(num_clbits)
        self.params = list(params) if params is not None else []
        self.label = label
        self._definition: "QuantumCircuit | None" = None

    # -- definition -------------------------------------------------------

    def _define(self) -> "QuantumCircuit | None":
        """Build the definition sub-circuit.  Subclasses override this."""
        return None

    @property
    def definition(self) -> "QuantumCircuit | None":
        """Sub-circuit implementing this operation, or ``None`` if primitive."""
        if self._definition is None:
            self._definition = self._define()
        return self._definition

    # -- behaviour queries --------------------------------------------------

    def is_gate(self) -> bool:
        return isinstance(self, Gate)

    @property
    def is_directive(self) -> bool:
        """Directives (barriers, annotations) do not affect the quantum state."""
        return False

    # -- transformation -----------------------------------------------------

    def inverse(self) -> "Instruction":
        """Return the inverse operation.

        The default implementation inverts the definition circuit; primitive
        non-unitary instructions (measure, reset) raise.
        """
        defn = self.definition
        if defn is None:
            raise ValueError(f"cannot invert primitive instruction {self.name!r}")
        inverse_defn = defn.inverse()
        inverse_gate = Gate(
            name=f"{self.name}_dg",
            num_qubits=self.num_qubits,
            params=list(self.params),
        )
        inverse_gate._definition = inverse_defn
        return inverse_gate

    def copy(self) -> "Instruction":
        return _copy.deepcopy(self)

    def __getstate__(self):
        """Drop the memoized matrix, and the memoized definition when the
        class can rebuild it.

        Both are derived data (a :class:`Gate` rebuilds its matrix on the
        next :attr:`Gate.matrix` read, and every class that overrides
        :meth:`_define` its definition); stripping them keeps pickles (and
        the process-pool payloads of :mod:`repro.circuit.serialization`)
        small and equal whether or not the memo was filled.  Plain
        :class:`Gate`/:class:`Instruction` objects whose ``_definition`` was
        assigned directly (e.g. by :meth:`inverse`) keep it -- for them it
        is the only record of the operation's semantics.
        """
        state = self.__dict__.copy()
        state.pop("_matrix_memo", None)
        if (
            state.get("_definition") is not None
            and type(self)._define is not Instruction._define
        ):
            state["_definition"] = None
        return state

    # -- comparison / display ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instruction):
            return NotImplemented
        if self.name != other.name or self.num_qubits != other.num_qubits:
            return False
        if len(self.params) != len(other.params):
            return False
        return all(
            abs(complex(a) - complex(b)) < 1e-10
            for a, b in zip(self.params, other.params)
        )

    def __hash__(self):  # params are floats; hash on structure only
        return hash((self.name, self.num_qubits, self.num_clbits, len(self.params)))

    def __repr__(self) -> str:
        params = ", ".join(f"{p:.6g}" if isinstance(p, float) else repr(p) for p in self.params)
        return f"{type(self).__name__}({self.name!r}{', ' + params if params else ''})"


class Gate(Instruction):
    """A unitary operation."""

    def __init__(
        self,
        name: str,
        num_qubits: int,
        params: Sequence[float] | None = None,
        label: str | None = None,
    ):
        super().__init__(name, num_qubits, 0, params, label)

    @property
    def matrix(self) -> np.ndarray:
        """The gate's unitary, built by :meth:`to_matrix` on first read and
        kept on the instance: read-only, and the same array on every read.

        This is the one spelling every consumer uses; a gate's parameters
        never change after construction, so the memo cannot go stale.
        Fixed standard gates hand out the shared table array.  A gate with
        no matrix raises :class:`NotImplementedError` on every read and
        memoizes nothing.
        """
        try:
            return self._matrix_memo
        except AttributeError:
            pass
        matrix = self.to_matrix()
        matrix.setflags(write=False)
        self._matrix_memo = matrix
        return matrix

    def to_matrix(self) -> np.ndarray:
        """Build the unitary matrix, little-endian in the gate's qubit
        arguments.

        Gate classes override this; everything else reads the memoized
        :attr:`matrix`.  Fixed standard gates return a *shared, read-only*
        array (see :mod:`repro.gates.matrices`); callers must not mutate
        the result -- take a ``.copy()`` first.  Falls back to multiplying
        out the definition circuit.
        """
        defn = self.definition
        if defn is None:
            raise NotImplementedError(f"gate {self.name!r} defines no matrix")
        return defn.to_matrix()

    def inverse(self) -> "Gate":
        defn = self.definition
        if defn is not None:
            inverse_gate = Gate(
                name=f"{self.name}_dg", num_qubits=self.num_qubits, params=list(self.params)
            )
            inverse_gate._definition = defn.inverse()
            return inverse_gate
        # primitive gate without definition: invert through the matrix
        from repro.gates.unitary import UnitaryGate

        return UnitaryGate(self.matrix.conj().T, label=f"{self.name}_dg")

    def control(self, num_ctrl_qubits: int = 1, ctrl_state: int | None = None) -> "ControlledGate":
        """Return the controlled version of this gate."""
        return ControlledGate(
            name="c" * num_ctrl_qubits + self.name,
            num_ctrl_qubits=num_ctrl_qubits,
            base_gate=self,
            ctrl_state=ctrl_state,
        )


class ControlledGate(Gate):
    """A gate activated when control qubits match ``ctrl_state``.

    Qubit argument order is ``controls + base-gate qubits``; control bit
    ``i`` of ``ctrl_state`` corresponds to control argument ``i`` (so the
    default all-ones state gives conventional closed controls).
    """

    def __init__(
        self,
        name: str,
        num_ctrl_qubits: int,
        base_gate: Gate,
        ctrl_state: int | None = None,
        label: str | None = None,
    ):
        super().__init__(
            name,
            num_ctrl_qubits + base_gate.num_qubits,
            params=list(base_gate.params),
            label=label,
        )
        self.num_ctrl_qubits = int(num_ctrl_qubits)
        self.base_gate = base_gate
        if ctrl_state is None:
            ctrl_state = (1 << num_ctrl_qubits) - 1
        if not 0 <= ctrl_state < (1 << num_ctrl_qubits):
            raise ValueError(f"ctrl_state {ctrl_state} out of range")
        self.ctrl_state = int(ctrl_state)

    def to_matrix(self) -> np.ndarray:
        if self.ctrl_state == (1 << self.num_ctrl_qubits) - 1:
            shared = _standard_matrix(self.name)
            if shared is not None and shared.shape == (2**self.num_qubits,) * 2:
                return shared
        base = self.base_gate.matrix
        n_ctrl = self.num_ctrl_qubits
        n_base = self.base_gate.num_qubits
        dim = 2 ** (n_ctrl + n_base)
        matrix = np.eye(dim, dtype=complex)
        # Little-endian: controls are qubit args 0..n_ctrl-1 (low bits).  The
        # base gate acts on the subspace where the control bits match
        # ``ctrl_state``; everything else stays identity.
        for base_row in range(2**n_base):
            row = (base_row << n_ctrl) | self.ctrl_state
            for base_col in range(2**n_base):
                col = (base_col << n_ctrl) | self.ctrl_state
                matrix[row, col] = base[base_row, base_col]
        return matrix

    def inverse(self) -> "ControlledGate":
        return ControlledGate(
            name=self.name + "_dg",
            num_ctrl_qubits=self.num_ctrl_qubits,
            base_gate=self.base_gate.inverse(),
            ctrl_state=self.ctrl_state,
        )

    def _define(self):
        """Expand through the open-control identity (paper Appendix C).

        A closed-control version conjugated by X gates on the open controls.
        The closed-control gate itself is decomposed by the synthesis layer.
        """
        from repro.circuit.quantumcircuit import QuantumCircuit
        from repro.gates.standard import XGate

        all_ones = (1 << self.num_ctrl_qubits) - 1
        if self.ctrl_state == all_ones:
            return None  # primitive closed-control form; synthesis handles it
        closed = ControlledGate(
            name=self.name,
            num_ctrl_qubits=self.num_ctrl_qubits,
            base_gate=self.base_gate,
            ctrl_state=all_ones,
        )
        circuit = QuantumCircuit(self.num_qubits)
        flips = [
            i for i in range(self.num_ctrl_qubits) if not (self.ctrl_state >> i) & 1
        ]
        for qubit in flips:
            circuit.append(XGate(), (qubit,))
        circuit.append(closed, tuple(range(self.num_qubits)))
        for qubit in flips:
            circuit.append(XGate(), (qubit,))
        return circuit
