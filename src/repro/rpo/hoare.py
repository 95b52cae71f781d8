"""Hoare-logic circuit optimizer -- the baseline the paper compares against.

Qiskit's ``HoareOptimizer`` (paper refs [2], [19]) tracks per-qubit
pre/postconditions with the Z3 SMT solver and removes gates whose triviality
conditions are entailed.  Z3 is unavailable offline, so this reimplementation
substitutes a built-in decision procedure with the same flavour (see
DESIGN.md): it tracks, for each *entanglement cluster* of qubits, the exact
set of computational-basis bitstrings the cluster's state is supported on
(capped, like a poor man's BDD).  Entailment queries become subset checks on
these supports.

Capabilities (intentionally matching the Z3 pass's Z-basis character):

* a controlled gate whose control bit is provably constant 0 is removed,
  provably constant 1 loses that control;
* a diagonal gate acting on a provably constant bit is a global phase and
  is removed;
* "generalized-permutation" gates (X, Z, S, T, u1, CX, CZ, CCX, SWAP, ...)
  transform the support exactly; non-monomial gates (H, u2, u3, ...) widen
  it.

Because supports ignore phases, the pass cannot see ``|+>`` vs ``|->`` --
exactly why it misses the boolean-to-phase oracle rewrite that QBO performs
(paper Sec. VIII-A) -- and the cluster/set machinery makes it measurably
slower than the automaton-based QBO, reproducing the paper's timing gap.

The support transformers pick their representation from the support's
size: a set of at least :data:`_VECTOR_MIN_PATTERNS` patterns round-trips
through an ``int64`` array so the per-pattern bit fiddling happens as a
handful of NumPy ops, while smaller sets stay on per-pattern Python loops,
where NumPy's fixed per-call cost would dominate.  Both compute identical
supports (integer bit arithmetic is exact), which the tests check by
moving the cutover to either extreme.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.circuit.instruction import ControlledGate
from repro.circuit.quantumcircuit import QuantumCircuit
from repro.transpiler.passmanager import PropertySet, RecordEdits, TransformationPass

__all__ = ["HoareOptimizer"]

_DIAGONAL_1Q = {"u1", "z", "s", "sdg", "t", "tdg", "rz"}

#: Below this many patterns the per-pattern Python loops beat the array
#: round-trip (measured crossover ~16-32), so smaller sets stay on them.
_VECTOR_MIN_PATTERNS = 32


def _as_patterns(support: set[int]) -> np.ndarray:
    """A cluster's support set as an ``int64`` pattern array."""
    return np.fromiter(support, dtype=np.int64, count=len(support))


def _product_size(clusters) -> int:
    """Upper bound on a merge's cross-product support size."""
    size = 1
    for cluster in clusters:
        size *= len(cluster.support)
    return size


def _as_support(patterns: np.ndarray) -> set[int]:
    """Back to the set-of-Python-ints representation clusters store."""
    # .tolist() converts to Python ints at C speed (map(int, ...) is ~4x
    # slower and would erase most of the kernel win)
    return set(patterns.tolist())


class _Cluster:
    """A set of possibly-entangled qubits with a basis-support set.

    ``support`` maps each reachable pattern (bit ``i`` = value of
    ``qubits[i]``) -- or is ``None`` when unknown (cap exceeded).
    """

    def __init__(self, qubits: tuple[int, ...], support: set[int] | None):
        self.qubits = list(qubits)
        self.support = support

    def bit_position(self, qubit: int) -> int:
        return self.qubits.index(qubit)

    def constant_bit(self, qubit: int) -> int | None:
        """Return 0/1 when the qubit's bit is the same in every pattern."""
        if self.support is None or not self.support:
            return None
        position = self.bit_position(qubit)
        values = {(pattern >> position) & 1 for pattern in self.support}
        if len(values) == 1:
            return values.pop()
        return None


class HoareOptimizer(TransformationPass):
    """Support-set Hoare-style optimizer (Z3-free stand-in)."""

    # removes gates provably acting trivially from the all-zeros state
    equivalence = "state"

    def __init__(self, max_support: int = 64, max_cluster: int = 16):
        self.max_support = max_support
        self.max_cluster = max_cluster
        # per-run state on a thread-local: concurrent runs of one pass
        # instance must not interleave
        self._run_state = threading.local()

    @property
    def name(self) -> str:
        return "HoareOptimizer"

    # ------------------------------------------------------------------

    @property
    def _cluster_of(self) -> dict[int, "_Cluster"]:
        return self._run_state.cluster_of

    def transform(self, circuit: QuantumCircuit, property_set: PropertySet) -> QuantumCircuit:
        self._run_state.cluster_of = {
            q: _Cluster((q,), {0}) for q in range(circuit.num_qubits)
        }
        output = RecordEdits()
        for index, instruction in enumerate(circuit.data):
            output.visit(index, instruction)
            self._process(
                instruction.operation, instruction.qubits, instruction.clbits, output
            )
        return self.splice(circuit, output.close(), property_set)

    # ------------------------------------------------------------------

    def _process(self, operation, qubits, clbits, output) -> None:
        name = operation.name
        if name in ("barrier", "annot", "measure"):
            # the Hoare baseline has no annotation support (Sec. VI-C is an
            # RPO feature); annotations pass through inert, like measures
            output.append(operation, qubits, clbits)
            return
        if name == "reset":
            self._apply_reset(qubits[0])
            output.append(operation, qubits, clbits)
            return
        if not operation.is_gate():
            self._widen(qubits)
            output.append(operation, qubits, clbits)
            return

        # control-filtering through the decision procedure
        if isinstance(operation, ControlledGate) and operation.base_gate.num_qubits == 1:
            handled = self._try_control_rules(operation, qubits, output)
            if handled:
                return

        # trivial diagonal gates on provably constant bits
        if operation.num_qubits == 1 and name in _DIAGONAL_1Q:
            if self._constant_bit(qubits[0]) is not None:
                return  # same phase on every support pattern: global phase

        # a controlled *diagonal* gate whose target bit is provably constant
        # is a phase conditioned on the controls alone (this is the query
        # Qiskit's Z3-backed pass resolves for QPE's phase gates)
        if isinstance(operation, ControlledGate) and operation.base_gate.num_qubits == 1:
            handled = self._try_constant_target_diagonal(operation, qubits, output)
            if handled:
                return

        self._apply_gate_to_support(operation, qubits)
        output.append(operation, qubits, clbits)

    # -- rules ---------------------------------------------------------

    def _try_control_rules(self, operation: ControlledGate, qubits, output) -> bool:
        num_ctrl = operation.num_ctrl_qubits
        controls = list(qubits[:num_ctrl])
        target = qubits[num_ctrl]
        remaining: list[int] = []
        remaining_bits: list[int] = []
        for index, control in enumerate(controls):
            required = (operation.ctrl_state >> index) & 1
            constant = self._constant_bit(control)
            if constant is None:
                remaining.append(control)
                remaining_bits.append(required)
                continue
            if constant != required:
                return True  # provably never fires: removed
            # provably always fires: control dropped
        if len(remaining) == len(controls):
            return False  # nothing provable; fall through
        if not remaining:
            self._process(operation.base_gate, (target,), (), output)
            return True
        ctrl_state = 0
        for index, bit in enumerate(remaining_bits):
            ctrl_state |= bit << index
        reduced = ControlledGate(
            "c" * len(remaining) + operation.base_gate.name,
            len(remaining),
            operation.base_gate,
            ctrl_state=ctrl_state,
        )
        self._process(reduced, tuple(remaining) + (target,), (), output)
        return True

    def _try_constant_target_diagonal(self, operation: ControlledGate, qubits, output) -> bool:
        """Controlled-diagonal gate with a provably constant target bit."""
        import cmath

        base = operation.base_gate
        matrix = base.matrix
        if abs(matrix[0, 1]) > 1e-12 or abs(matrix[1, 0]) > 1e-12:
            return False  # not diagonal
        target = qubits[operation.num_ctrl_qubits]
        constant = self._constant_bit(target)
        if constant is None:
            return False
        eigenvalue = matrix[constant, constant]
        phase = cmath.phase(eigenvalue)
        if abs(phase) < 1e-12:
            return True  # acts as identity on the reachable branch: removed
        # Only the +/-1 eigenvalue cases are resolved, mirroring the
        # triviality conditions of the Z3-backed pass (which is strictly
        # weaker than RPO, paper Sec. VIII-B).
        if abs(abs(phase) - 3.141592653589793) > 1e-12:
            return False
        controls = qubits[: operation.num_ctrl_qubits]
        if operation.ctrl_state != (1 << operation.num_ctrl_qubits) - 1:
            return False  # open controls: leave to the generic path
        from repro.gates import MCU1Gate, ZGate

        if len(controls) == 1:
            self._process(ZGate(), (controls[0],), (), output)
        else:
            self._process(
                MCU1Gate(phase, len(controls) - 1), tuple(controls), (), output
            )
        return True

    # -- the decision procedure (support transformers) -------------------

    def _use_kernel(self, support) -> bool:
        """Route this support through the stacked kernels?"""
        return len(support) >= _VECTOR_MIN_PATTERNS

    def _constant_bit(self, qubit: int) -> int | None:
        cluster = self._cluster_of[qubit]
        if cluster.support is None or not self._use_kernel(cluster.support):
            return cluster.constant_bit(qubit)
        bits = (_as_patterns(cluster.support) >> cluster.bit_position(qubit)) & 1
        value = int(bits[0])
        return value if bool((bits == value).all()) else None

    def _apply_reset(self, qubit: int) -> None:
        cluster = self._cluster_of[qubit]
        if cluster.support is None:
            # split the qubit out into a fresh definite cluster
            self._detach(qubit, value=0)
            return
        position = cluster.bit_position(qubit)
        if self._use_kernel(cluster.support):
            cluster.support = _as_support(
                _as_patterns(cluster.support) & ~(1 << position)
            )
            return
        cluster.support = {pattern & ~(1 << position) for pattern in cluster.support}

    def _detach(self, qubit: int, value: int) -> None:
        old = self._cluster_of[qubit]
        if len(old.qubits) > 1:
            old.qubits.remove(qubit)
            old.support = None  # partial collapse: stay conservative
        self._cluster_of[qubit] = _Cluster((qubit,), {value})

    def _merge(self, qubits) -> _Cluster:
        clusters = []
        for qubit in qubits:
            cluster = self._cluster_of[qubit]
            if cluster not in clusters:
                clusters.append(cluster)
        if len(clusters) == 1:
            return clusters[0]
        merged_qubits: list[int] = []
        for cluster in clusters:
            merged_qubits.extend(cluster.qubits)
        if (
            any(c.support is None for c in clusters)
            or len(merged_qubits) > self.max_cluster
        ):
            support = None
        elif _product_size(clusters) >= _VECTOR_MIN_PATTERNS:
            # cross-product of the member supports as one broadcast | per
            # cluster (np.unique dedupes exactly like the set build)
            patterns = np.zeros(1, dtype=np.int64)
            offset = 0
            for cluster in clusters:
                sub = _as_patterns(cluster.support)
                patterns = np.unique(patterns[:, None] | (sub[None, :] << offset))
                offset += len(cluster.qubits)
                if len(patterns) > self.max_support:
                    patterns = None
                    break
            support = None if patterns is None else _as_support(patterns)
        else:
            support = {0}
            offset = 0
            for cluster in clusters:
                new_support = set()
                for pattern in support:
                    for sub in cluster.support:
                        new_support.add(pattern | (sub << offset))
                support = new_support
                offset += len(cluster.qubits)
                if len(support) > self.max_support:
                    support = None
                    break
        merged = _Cluster(tuple(merged_qubits), support)
        for qubit in merged_qubits:
            self._cluster_of[qubit] = merged
        return merged

    def _widen(self, qubits) -> None:
        cluster = self._merge(qubits)
        cluster.support = None

    def _expand(self, qubits) -> None:
        """Allow the touched bits to take either value (sound widening)."""
        cluster = self._merge(qubits)
        if cluster.support is None:
            return
        # widening stays on the set loops at every size: on the common
        # already-saturated support the per-qubit union is a cheap
        # incremental no-op, which a materialize-all-then-dedupe kernel
        # can never beat
        support = cluster.support
        for qubit in qubits:
            position = cluster.bit_position(qubit)
            support = support | {pattern ^ (1 << position) for pattern in support}
            if len(support) > self.max_support:
                cluster.support = None
                return
        cluster.support = support

    def _apply_gate_to_support(self, operation, qubits) -> None:
        name = operation.name
        # named wide gates first (no matrix materialisation)
        if name in ("mcx", "ccx", "cx", "x") and self._is_closed(operation):
            self._apply_mcx(qubits[:-1], qubits[-1])
            return
        diagonal = ("mcz", "ccz", "cz", "z", "mcu1", "cp", "u1", "s", "sdg", "t", "tdg", "rz")
        if name in diagonal and self._is_closed(operation):
            return  # diagonal: support unchanged
        if name == "swap":
            self._apply_swap(*qubits)
            return
        if name == "swapz":
            # swapz = cx(b,a); cx(a,b)
            self._apply_mcx((qubits[1],), qubits[0])
            self._apply_mcx((qubits[0],), qubits[1])
            return
        if name == "cswap":
            self._apply_cswap(*qubits)
            return
        if name == "mcx_vchain":
            self._apply_vchain(operation, qubits)
            return
        if operation.num_qubits <= 3:
            try:
                matrix = operation.matrix
            except NotImplementedError:  # opaque: nothing is provable after it
                self._widen(qubits)
                return
            monomial = self._monomial_permutation(matrix)
            if monomial is not None:
                self._apply_permutation(qubits, monomial)
                return
            # non-monomial (H, u2, u3, ...): the touched bits may take any
            # value afterwards -- expand the support instead of giving up
            self._expand(qubits)
            return
        self._widen(qubits)

    @staticmethod
    def _is_closed(operation) -> bool:
        if not isinstance(operation, ControlledGate):
            return True
        return operation.ctrl_state == (1 << operation.num_ctrl_qubits) - 1

    def _apply_mcx(self, controls, target) -> None:
        cluster = self._merge(list(controls) + [target])
        if cluster.support is None:
            return
        control_positions = [cluster.bit_position(c) for c in controls]
        target_position = cluster.bit_position(target)
        if self._use_kernel(cluster.support):
            patterns = _as_patterns(cluster.support)
            control_mask = sum(1 << p for p in control_positions)
            fires = (patterns & control_mask) == control_mask
            cluster.support = _as_support(
                np.where(fires, patterns ^ (1 << target_position), patterns)
            )
            return
        new_support = set()
        for pattern in cluster.support:
            if all((pattern >> p) & 1 for p in control_positions):
                pattern ^= 1 << target_position
            new_support.add(pattern)
        cluster.support = new_support

    @staticmethod
    def _swap_bits(patterns: np.ndarray, pa: int, pb: int) -> np.ndarray:
        """Exchange bits ``pa`` and ``pb`` of every stacked pattern."""
        bit_a = (patterns >> pa) & 1
        bit_b = (patterns >> pb) & 1
        cleared = patterns & ~((1 << pa) | (1 << pb))
        return cleared | (bit_b << pa) | (bit_a << pb)

    def _apply_swap(self, a, b) -> None:
        cluster = self._merge([a, b])
        if cluster.support is None:
            return
        pa, pb = cluster.bit_position(a), cluster.bit_position(b)
        if self._use_kernel(cluster.support):
            patterns = _as_patterns(cluster.support)
            cluster.support = _as_support(self._swap_bits(patterns, pa, pb))
            return
        new_support = set()
        for pattern in cluster.support:
            bit_a = (pattern >> pa) & 1
            bit_b = (pattern >> pb) & 1
            pattern &= ~((1 << pa) | (1 << pb))
            pattern |= (bit_b << pa) | (bit_a << pb)
            new_support.add(pattern)
        cluster.support = new_support

    def _apply_cswap(self, control, a, b) -> None:
        cluster = self._merge([control, a, b])
        if cluster.support is None:
            return
        pc = cluster.bit_position(control)
        pa, pb = cluster.bit_position(a), cluster.bit_position(b)
        if self._use_kernel(cluster.support):
            patterns = _as_patterns(cluster.support)
            fires = ((patterns >> pc) & 1).astype(bool)
            swapped = self._swap_bits(patterns, pa, pb)
            cluster.support = _as_support(np.where(fires, swapped, patterns))
            return
        new_support = set()
        for pattern in cluster.support:
            if (pattern >> pc) & 1:
                bit_a = (pattern >> pa) & 1
                bit_b = (pattern >> pb) & 1
                pattern &= ~((1 << pa) | (1 << pb))
                pattern |= (bit_b << pa) | (bit_a << pb)
            new_support.add(pattern)
        cluster.support = new_support

    def _apply_vchain(self, operation, qubits) -> None:
        k = operation.num_ctrl_qubits
        controls = qubits[:k]
        ancillas = qubits[k : k + operation.num_ancillas]
        target = qubits[-1]
        if all(self._constant_bit(a) == 0 for a in ancillas):
            self._apply_mcx(controls, target)
            return
        self._widen(qubits)

    @staticmethod
    def _monomial_permutation(matrix: np.ndarray):
        """If each column has a single nonzero entry, return the column->row
        permutation (a generalized permutation acts exactly on supports)."""
        dim = matrix.shape[0]
        permutation = np.full(dim, -1, dtype=int)
        for column in range(dim):
            nonzero = np.flatnonzero(np.abs(matrix[:, column]) > 1e-10)
            if len(nonzero) != 1:
                return None
            permutation[column] = nonzero[0]
        return permutation

    def _apply_permutation(self, qubits, permutation) -> None:
        cluster = self._merge(qubits)
        if cluster.support is None:
            return
        positions = [cluster.bit_position(q) for q in qubits]
        if self._use_kernel(cluster.support):
            patterns = _as_patterns(cluster.support)
            pos = np.asarray(positions, dtype=np.int64)
            weights = np.arange(len(positions), dtype=np.int64)
            # gather the local index, permute, scatter the image back
            local = (((patterns[:, None] >> pos[None, :]) & 1) << weights).sum(axis=1)
            image = np.asarray(permutation, dtype=np.int64)[local]
            cleared = patterns & ~int((np.int64(1) << pos).sum())
            scattered = (((image[:, None] >> weights) & 1) << pos[None, :]).sum(axis=1)
            cluster.support = _as_support(cleared | scattered)
            return
        new_support = set()
        for pattern in cluster.support:
            local = 0
            for j, position in enumerate(positions):
                if (pattern >> position) & 1:
                    local |= 1 << j
            image = int(permutation[local])
            new_pattern = pattern
            for j, position in enumerate(positions):
                new_pattern &= ~(1 << position)
                if (image >> j) & 1:
                    new_pattern |= 1 << position
            new_support.add(new_pattern)
        cluster.support = new_support
