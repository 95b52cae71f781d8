"""The :class:`QuantumCircuit` builder.

Circuits hold a linear sequence of :class:`CircuitInstruction` records over
integer qubit/clbit wire indices, plus a tracked global phase.  The builder
API provides one convenience method per standard gate; the gate objects
themselves live in :mod:`repro.gates` (imported lazily to break the
circular dependency between gate definitions and circuits).
"""

from __future__ import annotations

from collections import Counter
from contextvars import ContextVar
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from repro.circuit.instruction import Gate, Instruction
from repro.circuit.matrix_utils import embed_gate
from repro.circuit.register import ClassicalRegister, QuantumRegister

__all__ = ["QuantumCircuit", "CircuitInstruction", "NO_PHASE", "SPLICE_LOG"]


class CircuitInstruction(NamedTuple):
    """One operation applied to specific wires."""

    operation: Instruction
    qubits: tuple[int, ...]
    clbits: tuple[int, ...] = ()


#: builds a ``CircuitInstruction`` from a 3-tuple, skipping the NamedTuple
#: ``__new__`` wrapper (``append`` has already checked the fields)
_new_instruction = tuple.__new__

#: the phase of a splice edit that leaves it as it is: ``x + -0.0`` is ``x``, bit for bit
NO_PHASE = -0.0

#: ``None``, or a list to which every :meth:`QuantumCircuit.splice` in this
#: context appends ``(source, output, edits)``.  QSAN installs one around
#: each pass it validates and drops it after the pass's check
#: (:meth:`repro.analysis.qsan.QsanValidator.watch`); nothing else reads it.
SPLICE_LOG: ContextVar[list | None] = ContextVar("splice_log", default=None)


class QuantumCircuit:
    """A quantum program as an ordered list of operations.

    Construct with integers (anonymous wire counts) and/or registers::

        qc = QuantumCircuit(3)                  # 3 qubits
        qc = QuantumCircuit(3, 3)               # 3 qubits, 3 clbits
        qr = QuantumRegister(2, "q"); qc = QuantumCircuit(qr)
    """

    def __init__(self, *wires, name: str | None = None, global_phase: float = 0.0):
        self.name = name or "circuit"
        self.global_phase = float(global_phase)
        self.data: list[CircuitInstruction] = []
        self.qregs: list[QuantumRegister] = []
        self.cregs: list[ClassicalRegister] = []
        self._num_qubits = 0
        self._num_clbits = 0

        integer_args = [w for w in wires if isinstance(w, int)]
        register_args = [w for w in wires if not isinstance(w, int)]
        if integer_args and register_args:
            raise ValueError("mix of integer and register arguments is not supported")
        if integer_args:
            if len(integer_args) > 2:
                raise ValueError("at most two integer arguments (qubits, clbits)")
            self._num_qubits = integer_args[0]
            self._num_clbits = integer_args[1] if len(integer_args) > 1 else 0
        for register in register_args:
            if isinstance(register, QuantumRegister):
                register._bind(self._num_qubits)
                self._num_qubits += register.size
                self.qregs.append(register)
            elif isinstance(register, ClassicalRegister):
                register._bind(self._num_clbits)
                self._num_clbits += register.size
                self.cregs.append(register)
            else:
                raise TypeError(f"unsupported circuit argument {register!r}")

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    @property
    def num_clbits(self) -> int:
        return self._num_clbits

    @property
    def qubits(self) -> range:
        return range(self._num_qubits)

    @property
    def clbits(self) -> range:
        return range(self._num_clbits)

    def __len__(self) -> int:
        return len(self.data)

    def __iter__(self):
        return iter(self.data)

    # ------------------------------------------------------------------
    # building
    # ------------------------------------------------------------------

    def _check_wires(self, qubits: Sequence[int], clbits: Sequence[int]) -> None:
        for qubit in qubits:
            if not 0 <= qubit < self._num_qubits:
                raise IndexError(f"qubit {qubit} out of range (0..{self._num_qubits - 1})")
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"duplicate qubit arguments {tuple(qubits)}")
        for clbit in clbits:
            if not 0 <= clbit < self._num_clbits:
                raise IndexError(f"clbit {clbit} out of range (0..{self._num_clbits - 1})")

    def append(
        self,
        operation: Instruction,
        qubits: Sequence[int],
        clbits: Sequence[int] = (),
    ) -> "QuantumCircuit":
        """Append ``operation`` to the given wires.  Returns ``self``.

        Every record passes the same checks, in this order, whatever its
        width; the first that fails raises:

        * each qubit and clbit is coerced with ``int()`` (``TypeError`` or
          ``ValueError`` from ``int`` itself);
        * the qubit count, then the clbit count, must match the
          operation's (``ValueError``);
        * each qubit must lie in ``0..num_qubits-1`` (``IndexError``);
        * no qubit may repeat (``ValueError``);
        * each clbit must lie in ``0..num_clbits-1`` (``IndexError``).
        """
        self.data.append(self._checked(operation, qubits, clbits))
        return self

    def _checked(self, operation, qubits, clbits) -> CircuitInstruction:
        """The record of ``operation`` on these wires, after ``append``'s checks."""
        qubits = tuple(map(int, qubits))
        if type(clbits) is not tuple or clbits:  # () needs no coercion
            clbits = tuple(map(int, clbits))
        width = len(qubits)
        if operation.num_qubits != width:
            raise ValueError(
                f"{operation.name} expects {operation.num_qubits} qubits, got {width}"
            )
        if operation.num_clbits != len(clbits):
            raise ValueError(
                f"{operation.name} expects {operation.num_clbits} clbits, got {len(clbits)}"
            )
        # inline tests for the common widths; _check_wires raises the exact
        # error whenever one of them fails, and handles every other width
        num_qubits = self._num_qubits
        if width == 1:
            valid = 0 <= qubits[0] < num_qubits
        elif width == 2:
            a, b = qubits
            valid = 0 <= a < num_qubits and 0 <= b < num_qubits and a != b
        else:
            valid = False
        if valid and clbits:
            num_clbits = self._num_clbits
            valid = all(0 <= clbit < num_clbits for clbit in clbits)
        if not valid:
            self._check_wires(qubits, clbits)
        return _new_instruction(CircuitInstruction, (operation, qubits, clbits))

    def splice(self, edits) -> "QuantumCircuit":
        """A new circuit with ``edits`` applied, or ``self`` when there are
        none.

        An edit ``(removed, at, replacement, phase)`` drops the records at
        the indices ``removed`` and puts ``replacement`` just before record
        ``at`` (at the end for ``len(data)``), after the replacements of
        earlier edits at the same ``at``.  A replacement item is an index
        into ``data`` -- that record, carried as it is -- or a new
        ``(operation, qubits, clbits)``, checked exactly as :meth:`append`
        checks it.  Each ``phase`` is added to the global phase with ``+=``
        in edit order.  An index removed twice, or an ``at`` or index out of
        range, raises ``ValueError``.  While :data:`SPLICE_LOG` holds a list,
        the splice is reported to it.
        """
        if not edits:
            return self
        data = self.data
        size = len(data)
        checked = self._checked
        phase = self.global_phase
        removed: set[int] = set()
        inserted: dict[int, list[CircuitInstruction]] = {}
        count = 0
        for indices, at, replacement, term in edits:
            if not 0 <= at <= size:
                raise ValueError(f"splice position {at} outside 0..{size}")
            removed.update(indices)
            count += len(indices)
            if replacement:
                records = inserted.setdefault(at, [])
                for item in replacement:
                    if type(item) is not int:
                        records.append(checked(*item))
                    elif 0 <= item < size:
                        records.append(data[item])
                    else:
                        raise ValueError(f"carried index {item} outside 0..{size - 1}")
            phase += term
        if len(removed) != count:
            raise ValueError("splice removes an index twice")
        if removed and not (0 <= min(removed) and max(removed) < size):
            raise ValueError(f"splice removes an index outside 0..{size - 1}")
        output = self.copy_empty_like()
        output.global_phase = phase
        out = output.data
        start = 0
        for point in sorted(removed.union(inserted)):
            if start < point:
                out += data[start:point]
            if point in inserted:
                out += inserted[point]
            start = point + 1 if point in removed else point
        out += data[start:]
        log = SPLICE_LOG.get()
        if log is not None:
            log.append((self, output, edits))
        return output

    # -- one-qubit gates -------------------------------------------------

    def id(self, qubit: int):
        from repro.gates import IGate

        return self.append(IGate(), (qubit,))

    def x(self, qubit: int):
        from repro.gates import XGate

        return self.append(XGate(), (qubit,))

    def y(self, qubit: int):
        from repro.gates import YGate

        return self.append(YGate(), (qubit,))

    def z(self, qubit: int):
        from repro.gates import ZGate

        return self.append(ZGate(), (qubit,))

    def h(self, qubit: int):
        from repro.gates import HGate

        return self.append(HGate(), (qubit,))

    def s(self, qubit: int):
        from repro.gates import SGate

        return self.append(SGate(), (qubit,))

    def sdg(self, qubit: int):
        from repro.gates import SdgGate

        return self.append(SdgGate(), (qubit,))

    def t(self, qubit: int):
        from repro.gates import TGate

        return self.append(TGate(), (qubit,))

    def tdg(self, qubit: int):
        from repro.gates import TdgGate

        return self.append(TdgGate(), (qubit,))

    def sx(self, qubit: int):
        from repro.gates import SXGate

        return self.append(SXGate(), (qubit,))

    def rx(self, theta: float, qubit: int):
        from repro.gates import RXGate

        return self.append(RXGate(theta), (qubit,))

    def ry(self, theta: float, qubit: int):
        from repro.gates import RYGate

        return self.append(RYGate(theta), (qubit,))

    def rz(self, phi: float, qubit: int):
        from repro.gates import RZGate

        return self.append(RZGate(phi), (qubit,))

    def p(self, lam: float, qubit: int):
        from repro.gates import U1Gate

        return self.append(U1Gate(lam), (qubit,))

    def u1(self, lam: float, qubit: int):
        from repro.gates import U1Gate

        return self.append(U1Gate(lam), (qubit,))

    def u2(self, phi: float, lam: float, qubit: int):
        from repro.gates import U2Gate

        return self.append(U2Gate(phi, lam), (qubit,))

    def u3(self, theta: float, phi: float, lam: float, qubit: int):
        from repro.gates import U3Gate

        return self.append(U3Gate(theta, phi, lam), (qubit,))

    def u(self, theta: float, phi: float, lam: float, qubit: int):
        return self.u3(theta, phi, lam, qubit)

    def unitary(self, matrix: np.ndarray, qubits: Sequence[int], label: str | None = None):
        from repro.gates import UnitaryGate

        if isinstance(qubits, int):
            qubits = (qubits,)
        return self.append(UnitaryGate(matrix, label=label), tuple(qubits))

    # -- two-qubit gates ---------------------------------------------------

    def cx(self, control: int, target: int):
        from repro.gates import CXGate

        return self.append(CXGate(), (control, target))

    def cy(self, control: int, target: int):
        from repro.gates import CYGate

        return self.append(CYGate(), (control, target))

    def cz(self, control: int, target: int):
        from repro.gates import CZGate

        return self.append(CZGate(), (control, target))

    def ch(self, control: int, target: int):
        from repro.gates import CHGate

        return self.append(CHGate(), (control, target))

    def cp(self, lam: float, control: int, target: int):
        from repro.gates import CPhaseGate

        return self.append(CPhaseGate(lam), (control, target))

    def cu1(self, lam: float, control: int, target: int):
        return self.cp(lam, control, target)

    def crx(self, theta: float, control: int, target: int):
        from repro.gates import CRXGate

        return self.append(CRXGate(theta), (control, target))

    def cry(self, theta: float, control: int, target: int):
        from repro.gates import CRYGate

        return self.append(CRYGate(theta), (control, target))

    def crz(self, theta: float, control: int, target: int):
        from repro.gates import CRZGate

        return self.append(CRZGate(theta), (control, target))

    def cu3(self, theta: float, phi: float, lam: float, control: int, target: int):
        from repro.gates import CU3Gate

        return self.append(CU3Gate(theta, phi, lam), (control, target))

    def swap(self, a: int, b: int):
        from repro.gates import SwapGate

        return self.append(SwapGate(), (a, b))

    def swapz(self, zero_qubit: int, other: int):
        """Append a SWAPZ gate (paper Eq. 3): swaps correctly when
        ``zero_qubit`` carries ``|0>``."""
        from repro.gates import SwapZGate

        return self.append(SwapZGate(), (zero_qubit, other))

    def iswap(self, a: int, b: int):
        from repro.gates import ISwapGate

        return self.append(ISwapGate(), (a, b))

    # -- multi-qubit gates ---------------------------------------------------

    def ccx(self, control1: int, control2: int, target: int):
        from repro.gates import CCXGate

        return self.append(CCXGate(), (control1, control2, target))

    def toffoli(self, control1: int, control2: int, target: int):
        return self.ccx(control1, control2, target)

    def ccz(self, control1: int, control2: int, target: int):
        from repro.gates import CCZGate

        return self.append(CCZGate(), (control1, control2, target))

    def cswap(self, control: int, a: int, b: int):
        from repro.gates import CSwapGate

        return self.append(CSwapGate(), (control, a, b))

    def fredkin(self, control: int, a: int, b: int):
        return self.cswap(control, a, b)

    def mcx(self, controls: Sequence[int], target: int):
        from repro.gates import MCXGate

        controls = tuple(controls)
        return self.append(MCXGate(len(controls)), controls + (target,))

    def mcx_vchain(self, controls: Sequence[int], target: int, ancillas: Sequence[int]):
        """Multi-controlled X using the clean-ancilla V-chain design the
        paper's Grover benchmark uses (Sec. VIII-C)."""
        from repro.gates import MCXVChainGate

        controls = tuple(controls)
        ancillas = tuple(ancillas)
        gate = MCXVChainGate(len(controls))
        if len(ancillas) != gate.num_ancillas:
            raise ValueError(
                f"v-chain mcx with {len(controls)} controls needs "
                f"{gate.num_ancillas} ancillas, got {len(ancillas)}"
            )
        return self.append(gate, controls + ancillas + (target,))

    def mcz(self, controls: Sequence[int], target: int):
        from repro.gates import MCZGate

        controls = tuple(controls)
        return self.append(MCZGate(len(controls)), controls + (target,))

    # -- non-unitary / directives ---------------------------------------------

    def measure(self, qubit: int, clbit: int):
        from repro.gates import Measure

        return self.append(Measure(), (qubit,), (clbit,))

    def measure_all(self):
        from repro.gates import Measure

        if self._num_clbits < self._num_qubits:
            raise ValueError("not enough classical bits to measure all qubits")
        for qubit in range(self._num_qubits):
            self.append(Measure(), (qubit,), (qubit,))
        return self

    def reset(self, qubit: int):
        from repro.gates import Reset

        return self.append(Reset(), (qubit,))

    def barrier(self, *qubits: int):
        from repro.gates import Barrier

        if not qubits:
            qubits = tuple(range(self._num_qubits))
        return self.append(Barrier(len(qubits)), qubits)

    def annotate(self, qubit: int, theta: float, phi: float):
        """State annotation ``ANNOT(theta, phi)`` (paper Sec. VI-C).

        Promises the compiler that ``qubit`` is in the pure state
        ``|psi(theta, phi)>`` at this point.  Unrolls to nothing on hardware.
        """
        from repro.gates import Annotation

        return self.append(Annotation(theta, phi), (qubit,))

    def annotate_zero(self, qubit: int):
        """Annotate that ``qubit`` is a clean ``|0>`` ancilla here."""
        return self.annotate(qubit, 0.0, 0.0)

    # ------------------------------------------------------------------
    # circuit-level transformations
    # ------------------------------------------------------------------

    def copy_empty_like(self, name: str | None = None) -> "QuantumCircuit":
        other = QuantumCircuit(self._num_qubits, self._num_clbits, name=name or self.name)
        other.global_phase = self.global_phase
        return other

    def copy(self, name: str | None = None) -> "QuantumCircuit":
        other = self.copy_empty_like(name)
        other.data = list(self.data)
        return other

    def compose(
        self,
        other: "QuantumCircuit",
        qubits: Sequence[int] | None = None,
        clbits: Sequence[int] | None = None,
    ) -> "QuantumCircuit":
        """Return a new circuit with ``other`` appended onto these wires."""
        if qubits is None:
            qubits = list(range(other.num_qubits))
        if clbits is None:
            clbits = list(range(other.num_clbits))
        if len(qubits) != other.num_qubits or len(clbits) != other.num_clbits:
            raise ValueError("wire mapping does not match the composed circuit")
        records = [
            (inst.operation, [qubits[q] for q in inst.qubits], [clbits[c] for c in inst.clbits])
            for inst in other.data
        ]
        return self.splice([((), len(self.data), records, other.global_phase)])

    def inverse(self) -> "QuantumCircuit":
        """Return the inverse circuit (reversed order, inverted gates)."""
        result = self.copy_empty_like(f"{self.name}_dg")
        result.global_phase = -self.global_phase
        for instruction in reversed(self.data):
            operation = instruction.operation
            if operation.is_directive:
                result.append(operation, instruction.qubits, instruction.clbits)
                continue
            result.append(operation.inverse(), instruction.qubits, instruction.clbits)
        return result

    def decompose(self, names: Iterable[str] | None = None) -> "QuantumCircuit":
        """Expand one level of gate definitions.

        When ``names`` is given only the listed operations are expanded.
        """
        names = set(names) if names is not None else None
        result = self.copy_empty_like()
        for instruction in self.data:
            operation = instruction.operation
            expand = names is None or operation.name in names
            definition = operation.definition if expand else None
            if definition is None:
                result.append(operation, instruction.qubits, instruction.clbits)
                continue
            result.global_phase += definition.global_phase
            for inner in definition.data:
                mapped_q = tuple(instruction.qubits[q] for q in inner.qubits)
                mapped_c = tuple(instruction.clbits[c] for c in inner.clbits)
                result.append(inner.operation, mapped_q, mapped_c)
        return result

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------

    def size(self) -> int:
        """Number of operations, excluding directives."""
        return sum(1 for inst in self.data if not inst.operation.is_directive)

    def count_ops(self) -> dict[str, int]:
        """Operation counts by name, most frequent first."""
        counts = Counter(inst.operation.name for inst in self.data)
        return dict(counts.most_common())

    def num_nonlocal_gates(self) -> int:
        """Number of multi-qubit gates (entangling cost proxy)."""
        return sum(
            1
            for inst in self.data
            if inst.operation.is_gate() and inst.operation.num_qubits >= 2
        )

    def depth(self) -> int:
        """Circuit depth counting all non-directive operations."""
        levels = [0] * (self._num_qubits + self._num_clbits)
        for operation, qubits, clbits in self.data:
            if operation.is_directive:
                continue
            if clbits or not 0 < len(qubits) < 3:
                wires = (*qubits, *(self._num_qubits + c for c in clbits))
                level = 1 + max(levels[w] for w in wires)
                for wire in wires:
                    levels[wire] = level
            elif len(qubits) == 1:
                levels[qubits[0]] += 1
            else:
                a, b = qubits
                level = 1 + (levels[a] if levels[a] > levels[b] else levels[b])
                levels[a] = levels[b] = level
        return max(levels, default=0)

    # ------------------------------------------------------------------
    # numerics
    # ------------------------------------------------------------------

    def to_matrix(self) -> np.ndarray:
        """Full little-endian unitary of the circuit.

        Directives are skipped; measurements and resets raise.
        """
        dim = 2**self._num_qubits
        matrix = np.eye(dim, dtype=complex)
        for instruction in self.data:
            operation = instruction.operation
            if operation.is_directive:
                continue
            if not operation.is_gate():
                raise ValueError(
                    f"cannot express non-unitary {operation.name!r} as a matrix"
                )
            gate_matrix = operation.matrix
            matrix = embed_gate(gate_matrix, instruction.qubits, self._num_qubits) @ matrix
        return matrix * np.exp(1j * self.global_phase)

    # ------------------------------------------------------------------
    # display
    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        ops = self.count_ops()
        summary = ", ".join(f"{name}:{count}" for name, count in list(ops.items())[:6])
        return (
            f"<QuantumCircuit {self.name!r} qubits={self._num_qubits} "
            f"clbits={self._num_clbits} ops=[{summary}]>"
        )

    def draw(self) -> str:
        """Minimal text drawing: one line per qubit, columns per layer."""
        columns: list[dict[int, str]] = []
        levels = [0] * self._num_qubits
        for instruction in self.data:
            operation = instruction.operation
            qubits = instruction.qubits
            if not qubits:
                continue
            level = max(levels[q] for q in qubits)
            while len(columns) <= level:
                columns.append({})
            label = operation.name
            if operation.params:
                label += "(" + ",".join(f"{p:.3g}" for p in operation.params) + ")"
            for position, qubit in enumerate(qubits):
                tag = label if len(qubits) == 1 else f"{label}[{position}]"
                columns[level][qubit] = tag
            for qubit in qubits:
                levels[qubit] = level + 1
        lines = []
        for qubit in range(self._num_qubits):
            cells = []
            for column in columns:
                cell = column.get(qubit, "-")
                cells.append(cell.center(12, "-"))
            lines.append(f"q{qubit}: " + "".join(cells))
        return "\n".join(lines)
