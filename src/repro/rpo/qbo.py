"""Quantum Basis-state Optimization (QBO) -- paper Secs. III, V, VI-A.

A single forward sweep over the circuit, maintaining the basis-state
automaton and rewriting gates whose inputs are statically known.  All of the
paper's basis-state rules flow from a small rewrite core:

* **1q elimination (Eq. 7):** a gate whose input is one of its eigenstates
  becomes a tracked global phase (the qubit is provably unentangled).
* **Control filtering:** a control qubit in a known Z-basis state either
  always fires (drop the control -- Table I ``|1>`` rule, Eq. 8 case 2) or
  never fires (drop the whole gate -- Table I ``|0>`` rule, Eq. 8 case 1).
  Open controls (Appendix C) fall out of the same check against the
  required control value.
* **Target eigenstate reduction:** a controlled-``U`` whose target is an
  eigenstate of ``U`` with eigenphase ``alpha`` is a pure controlled phase:
  remove it when ``alpha = 0`` (CNOT target ``|+>``, Eq. 8 case 3), rewrite
  to a (multi-)controlled-Z/phase on the controls otherwise (CNOT target
  ``|->`` -> Z on control, Table I; Toffoli target ``|->`` -> CZ, Eq. 8
  case 4; and the general multi-controlled-U rule of Sec. V-C).
* **SWAP rules (Secs. III-IV, Table VI):** SWAP with both states known
  becomes two one-qubit basis changes (Eq. 6); with one state known it
  becomes SWAPZ bracketed by basis-prep Cliffords (Eqs. 4-5); input SWAPZ
  gates are validated and demoted to their CNOT pair when the zero-input
  promise fails (Fig. 8 line 1 semantics).
* **Fredkin (Sec. V-C):** control ``|0>`` removes the gate, control ``|1>``
  leaves a SWAP (recursively optimized); a known target state triggers the
  CNOT-level optimization through the Fig. 14 decomposition.
* **V-chain MCX:** the clean-ancilla form is reduced like a
  multi-controlled-X when its ancillas are provably ``|0>`` -- the pattern
  the paper's annotations enable across Grover iterations (Sec. VIII-C).

Rewrites re-enter the engine, so cascades (e.g. Toffoli -> CX -> Z ->
eliminated) resolve in one sweep.
"""

from __future__ import annotations

import math
import threading

from repro.circuit.instruction import ControlledGate, Gate
from repro.circuit.quantumcircuit import QuantumCircuit
from repro.gates import (
    CCXGate,
    CCZGate,
    CXGate,
    CZGate,
    MCU1Gate,
    MCXGate,
    MCXVChainGate,
    MCZGate,
    SwapZGate,
    U1Gate,
    UnitaryGate,
)
from repro.rpo.adjacency import same_pair_adjacent_indices
from repro.rpo.basis_tracker import BasisStateTracker
from repro.rpo.states import BasisState, eigenphase_if_fixed, preparation_matrices, track_non_gate
from repro.transpiler.passmanager import PropertySet, RecordEdits, TransformationPass

__all__ = ["QBOPass"]

_PHASE_ATOL = 1e-9


def _is_trivial_phase(alpha: float) -> bool:
    return abs(math.remainder(alpha, 2 * math.pi)) < _PHASE_ATOL


class QBOPass(TransformationPass):
    """The Quantum Basis-state Optimization pass.

    Args:
        general_eigenphase: the paper's multi-controlled-U rule (Sec. V-C)
            only covers target eigenstates with eigenvalue ``+1`` (remove)
            or ``-1`` (controlled-Z on the controls).  With this flag the
            rule generalises to *any* eigenphase ``alpha``, rewriting to a
            multi-controlled phase ``MCU1(alpha)`` -- a sound extension that
            e.g. collapses QPE's phase kicks entirely (see the ablation
            benchmarks).  Off by default to stay faithful to the paper.
    """

    # relaxed-precondition rewrite: sound from the all-zeros initial state
    equivalence = "state"

    def __init__(self, general_eigenphase: bool = False):
        self.general_eigenphase = general_eigenphase
        # per-run state lives on a thread-local so concurrent runs of one
        # pass instance (e.g. one PassManager driven from several threads)
        # cannot interleave
        self._run_state = threading.local()

    @property
    def name(self) -> str:
        return "QBO"

    @property
    def _swapz_profitable(self) -> bool:
        return getattr(self._run_state, "swapz_profitable", True)

    def transform(self, circuit: QuantumCircuit, property_set: PropertySet) -> QuantumCircuit:
        state = self._run_state
        tracker = BasisStateTracker(circuit.num_qubits)
        axes = tracker.axes  # -1 marks TOP
        output = RecordEdits()
        blocked = same_pair_adjacent_indices(circuit)
        for index, instruction in enumerate(circuit.data):
            operation = instruction.operation
            # TOP is absorbing and no rule fires on a gate whose wires are
            # all TOP, so it stays as it is -- except SWAPZ, whose zero-wire
            # promise then fails and which demotes to its CNOT pair
            if (
                operation.is_gate()
                and operation.name != "swapz"
                and all(axes[q] < 0 for q in instruction.qubits)
            ):
                continue
            # SWAPs that would consolidate with a same-pair neighbour are
            # better left to the unitary re-synthesis (see rpo.adjacency)
            state.swapz_profitable = index not in blocked
            output.visit(index, instruction)
            self._process(operation, instruction.qubits, instruction.clbits, tracker, output)
        state.swapz_profitable = True
        return self.splice(circuit, output.close(), property_set)

    # ------------------------------------------------------------------
    # the rewrite engine
    # ------------------------------------------------------------------

    def _process(self, operation, qubits, clbits, tracker, output) -> None:
        if track_non_gate(tracker, operation, qubits):
            output.append(operation, qubits, clbits)
            return
        name = operation.name
        if operation.num_qubits == 1:
            self._process_1q(operation, qubits[0], tracker, output)
            return
        if name == "swap":
            self._process_swap(operation, qubits, tracker, output)
            return
        if name == "swapz":
            self._process_swapz(operation, qubits, tracker, output)
            return
        if name == "cswap":
            self._process_cswap(operation, qubits, tracker, output)
            return
        if name == "mcx_vchain":
            self._process_vchain(operation, qubits, tracker, output)
            return
        if isinstance(operation, ControlledGate) and operation.base_gate.num_qubits == 1:
            self._process_controlled(operation, qubits, tracker, output)
            return

        # unknown multi-qubit gate: sound default
        tracker.invalidate(qubits)
        output.append(operation, qubits, clbits)

    # -- one-qubit gates (Eq. 7) ----------------------------------------

    def _process_1q(self, operation, qubit, tracker, output) -> None:
        try:
            matrix = operation.matrix
        except NotImplementedError:  # opaque: kept, and its wire goes to TOP
            tracker.invalidate([qubit])
            output.append(operation, (qubit,))
            return
        phase = eigenphase_if_fixed(tracker.state(qubit), matrix)
        if phase is not None:
            # the qubit is unentangled and fixed by the gate: global phase
            output.add_phase(phase)
            return
        tracker.apply_1q_gate(qubit, matrix)
        output.append(operation, (qubit,))

    # -- controlled one-qubit-base gates ----------------------------------

    def _process_controlled(self, operation: ControlledGate, qubits, tracker, output) -> None:
        num_ctrl = operation.num_ctrl_qubits
        controls = list(qubits[:num_ctrl])
        target = qubits[num_ctrl]
        ctrl_state = operation.ctrl_state

        remaining: list[int] = []
        remaining_state_bits: list[int] = []
        for index, control in enumerate(controls):
            required = (ctrl_state >> index) & 1
            state = tracker.state(control)
            if state.is_z_basis:
                actual = 0 if state is BasisState.ZERO else 1
                if actual != required:
                    # the gate can never fire: remove (Table I / Eq. 8)
                    return
                continue  # always satisfied: drop this control
            remaining.append(control)
            remaining_state_bits.append(required)

        base = operation.base_gate
        if not remaining:
            # all controls satisfied: the bare base gate remains
            self._process(base, (target,), (), tracker, output)
            return

        base_matrix = base.matrix
        alpha = eigenphase_if_fixed(tracker.state(target), base_matrix)
        if alpha is not None:
            # target is an eigenstate: the gate is a pure controlled phase
            # on the remaining controls (Sec. V-C)
            folded = math.remainder(alpha, 2 * math.pi)
            if _is_trivial_phase(alpha):
                return  # eigenvalue +1: remove (|psi+> rule)
            if abs(abs(folded) - math.pi) < _PHASE_ATOL:
                # eigenvalue -1: (multi-)controlled Z (|psi-> rule)
                self._emit_controlled_phase(
                    math.pi, remaining, remaining_state_bits, tracker, output
                )
                return
            if self.general_eigenphase:
                self._emit_controlled_phase(
                    alpha, remaining, remaining_state_bits, tracker, output
                )
                return
            # paper-faithful mode: no rule for general eigenphases

        reduced = self._rebuild_controlled(
            operation, base, len(remaining), remaining_state_bits
        )
        tracker.invalidate(remaining)
        if alpha is None:
            tracker.invalidate([target])
        # else: the target is an eigenstate of the base gate, so the kept
        # gate acts as a control-side phase and the target state survives
        output.append(reduced, tuple(remaining) + (target,))

    def _emit_controlled_phase(
        self, alpha, controls, state_bits, tracker, output
    ) -> None:
        """Emit ``exp(i*alpha)`` conditioned on the given (possibly open)
        controls -- the residue of the target-eigenstate rule."""
        if len(controls) == 1:
            if state_bits[0] == 1:
                self._process(U1Gate(alpha), (controls[0],), (), tracker, output)
            else:
                # fires when the control is |0>: u1 on the opposite branch
                # plus a matching global phase
                output.add_phase(alpha)
                self._process(U1Gate(-alpha), (controls[0],), (), tracker, output)
            return
        # MCU1 treats its last wire as the "target"; that wire's condition
        # must be "fires on 1", so put a closed control there if one exists.
        order = list(range(len(controls)))
        closed = [i for i in order if state_bits[i] == 1]
        if closed:
            order.remove(closed[-1])
            order.append(closed[-1])
            wires = [controls[i] for i in order]
            bits = [state_bits[i] for i in order]
            ctrl_state = 0
            for index, bit in enumerate(bits[:-1]):
                ctrl_state |= bit << index
            gate = MCU1Gate(alpha, len(controls) - 1, ctrl_state=ctrl_state)
            tracker.invalidate(wires)
            output.append(gate, tuple(wires))
            return
        # every control is open: flip one wire explicitly (bypassing the
        # rewrite engine so the conjugation cannot be "optimized away")
        from repro.gates import XGate

        x_gate = XGate()
        x_matrix = x_gate.matrix
        wire = controls[-1]
        tracker.apply_1q_gate(wire, x_matrix)
        output.append(x_gate, (wire,))
        self._emit_controlled_phase(
            alpha, controls, state_bits[:-1] + [1], tracker, output
        )
        tracker.apply_1q_gate(wire, x_matrix)
        output.append(x_gate, (wire,))

    @staticmethod
    def _rebuild_controlled(original, base, num_ctrl, state_bits):
        """Reconstruct a controlled gate with the surviving controls."""
        ctrl_state = 0
        for index, bit in enumerate(state_bits):
            ctrl_state |= bit << index
        all_ones = (1 << num_ctrl) - 1
        if num_ctrl == original.num_ctrl_qubits and ctrl_state == original.ctrl_state:
            return original
        closed = ctrl_state == all_ones
        if base.name == "x" and closed:
            if num_ctrl == 1:
                return CXGate()
            if num_ctrl == 2:
                return CCXGate()
            return MCXGate(num_ctrl)
        if base.name == "z" and closed:
            if num_ctrl == 1:
                return CZGate()
            if num_ctrl == 2:
                return CCZGate()
            return MCZGate(num_ctrl)
        if base.name == "u1" and closed:
            return MCU1Gate(base.params[0], num_ctrl)
        return ControlledGate(
            "c" * num_ctrl + base.name, num_ctrl, base, ctrl_state=ctrl_state
        )

    # -- SWAP family -------------------------------------------------------

    def _process_swap(self, operation, qubits, tracker, output) -> None:
        a, b = qubits
        state_a, state_b = tracker.state(a), tracker.state(b)
        if state_a.is_known and state_b.is_known:
            # Eq. 6 (basis-state form, Table VI): two one-qubit basis changes
            if state_a is state_b:
                return
            prep_a = preparation_matrices(state_a)
            prep_b = preparation_matrices(state_b)
            v = prep_b @ prep_a.conj().T
            self._process(UnitaryGate(v, label="qbo_v"), (a,), (), tracker, output)
            self._process(
                UnitaryGate(v.conj().T, label="qbo_vdg"), (b,), (), tracker, output
            )
            return
        if (state_a.is_known or state_b.is_known) and self._swapz_profitable:
            # Eqs. 4-5: reduce to SWAPZ with basis-prep brackets
            zero_q, other = (a, b) if state_a.is_known else (b, a)
            known = tracker.state(zero_q)
            prep = preparation_matrices(known)
            if known is not BasisState.ZERO:
                self._process(
                    UnitaryGate(prep.conj().T, label="qbo_prep_dg"),
                    (zero_q,),
                    (),
                    tracker,
                    output,
                )
            output.append(SwapZGate(), (zero_q, other))
            tracker.apply_swap(zero_q, other)
            if known is not BasisState.ZERO:
                self._process(
                    UnitaryGate(prep, label="qbo_prep"), (other,), (), tracker, output
                )
            return
        tracker.apply_swap(a, b)
        output.append(operation, qubits)

    def _process_swapz(self, operation, qubits, tracker, output) -> None:
        zero_q, other = qubits
        if tracker.state(zero_q) is BasisState.ZERO:
            tracker.apply_swap(zero_q, other)
            output.append(operation, qubits)
            return
        # promise not provable: demote to the defining CNOT pair (Eq. 3),
        # which preserves the gate's unitary unconditionally
        self._process(CXGate(), (other, zero_q), (), tracker, output)
        self._process(CXGate(), (zero_q, other), (), tracker, output)

    def _process_cswap(self, operation, qubits, tracker, output) -> None:
        control, a, b = qubits
        state_c = tracker.state(control)
        if state_c is BasisState.ZERO:
            return
        if state_c is BasisState.ONE:
            from repro.gates import SwapGate

            self._process(SwapGate(), (a, b), (), tracker, output)
            return
        if tracker.state(a).is_known or tracker.state(b).is_known:
            # Fig. 14 decomposition; the outer CNOTs hit the basis rules
            self._process(CXGate(), (b, a), (), tracker, output)
            self._process(CCXGate(), (control, a, b), (), tracker, output)
            self._process(CXGate(), (b, a), (), tracker, output)
            return
        tracker.invalidate(qubits)
        output.append(operation, qubits)

    # -- V-chain MCX -------------------------------------------------------

    def _process_vchain(self, operation: MCXVChainGate, qubits, tracker, output) -> None:
        k = operation.num_ctrl_qubits
        controls = list(qubits[:k])
        ancillas = list(qubits[k : k + operation.num_ancillas])
        target = qubits[-1]

        ancillas_clean = all(
            tracker.state(q) is BasisState.ZERO for q in ancillas
        )
        if ancillas_clean:
            remaining = []
            for control in controls:
                state = tracker.state(control)
                if state is BasisState.ZERO:
                    return  # never fires; ancillas provably return to |0>
                if state is BasisState.ONE:
                    continue
                remaining.append(control)
            target_state = tracker.state(target)
            if target_state is BasisState.PLUS:
                return
            if not remaining:
                from repro.gates import XGate

                self._process(XGate(), (target,), (), tracker, output)
                return
            if target_state is BasisState.MINUS:
                # MCX target |->  ->  MCZ over the remaining controls (Eq. 8)
                if len(remaining) == 1:
                    from repro.gates import ZGate

                    self._process(ZGate(), (remaining[0],), (), tracker, output)
                else:
                    gate = MCZGate(len(remaining) - 1)
                    tracker.invalidate(remaining)
                    output.append(gate, tuple(remaining))
                return
            if len(remaining) < k:
                reduced = self._vchain_like(len(remaining))
                needed = max(0, len(remaining) - 2)
                used_ancillas = ancillas[:needed]
                tracker.invalidate(remaining + [target])
                # paper semantics: a surviving multi-qubit gate sends its
                # qubits to TOP -- including the ancillas it actually uses
                tracker.invalidate(used_ancillas)
                output.append(reduced, tuple(remaining) + tuple(used_ancillas) + (target,))
                return
        tracker.invalidate(qubits)
        output.append(operation, qubits)

    @staticmethod
    def _vchain_like(num_controls: int) -> Gate:
        if num_controls == 1:
            return CXGate()
        if num_controls == 2:
            return CCXGate()
        return MCXVChainGate(num_controls)
