"""QSAN: the translation-validation sanitizer for the pass pipeline.

The paper's central claim is that relaxed-peephole rewrites preserve
semantics *under relaxed preconditions*.  QSAN machine-checks that claim on
every pipeline run it watches: after each transformation pass it verifies
the pass's input and output are equivalent under the pass's declared
``equivalence`` contract, and after each analysis pass that the circuit
came back unchanged.  A pass caught breaking its contract raises a
structured :class:`ContractViolation` naming the pass and a circuit diff.

Enabling it
===========

* per run: ``PassManager.run_with_result(..., validate="full")``;
* per batch: ``transpile(..., validate="full")`` (or a
  ``CompileService(validate="full")`` default);
* globally: ``REPRO_QSAN=1`` (or ``full``) in the
  environment -- this is how CI runs the tier-1 pipeline suite under the
  sanitizer without touching call sites.

``REPRO_QSAN_REPORT=1`` records violations on
``TranspileResult.violations`` (and in per-pass metrics) instead of
raising.  ``REPRO_QSAN_UNITARY_CAP`` / ``REPRO_QSAN_STATE_CAP`` move the
width thresholds below.

Checking tiers
==============

Semantic equivalence is checked at the strongest tier the circuit width
allows:

* ``<= unitary_cap`` (default 8) qubits, measurement-free: exact unitary
  equivalence up to global phase via
  :func:`~repro.simulators.unitary.circuit_unitary`;
* ``<= state_cap`` (default 14) qubits: statevector equivalence from the
  all-zeros initial state up to global phase (terminal measurements are
  stripped and their qubit->clbit maps compared; circuits that measure
  also get a fixed-seed sampling-parity check);
* wider circuits: :class:`~repro.rpo.pure_tracker.PureStateTracker`
  fingerprints -- each side's provable per-qubit pure states must be
  *compatible* (equal wherever both sides prove a state; the unknown TOP
  state is compatible with anything, so the tier cannot false-positive).

Circuits carrying ``ANNOT`` promises are checked at the fingerprint tier
regardless of width: the trackers honor annotations exactly the way the
paper's passes do, while a raw simulation from ``|0...0>`` would not.

Each circuit is paid for once per run: :class:`QsanValidator` memoizes
every fact it derives from a circuit (the ANNOT flag and measure map, the
simulations, the fingerprint, the sample counts) by object identity, so a
pass's output is not scanned or simulated again as the next pass's input.
The fingerprint driver skips wires that are already TOP, which is where
most gates of a routed device-wide circuit land.

The relaxed contracts ("state", "permutation", "layout", "measurement")
exist because most pipeline passes are *not* unitary-equivalent rewrites:
QBO/QPO/Hoare only promise behavior from the all-zeros state, routing adds
an output permutation, layout embeds into the device, and pre-measurement
cleanup only preserves outcome statistics.  See
:class:`~repro.transpiler.passmanager.BasePass` for the contract taxonomy.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from repro.circuit.quantumcircuit import NO_PHASE, QuantumCircuit
from repro.transpiler.exceptions import TranspilerError
from repro.transpiler.passmanager import AnalysisPass, PropertySet

__all__ = ["ContractViolation", "QsanConfig", "QsanValidator", "QSAN_SAMPLE_SEED"]

#: Fixed seed for the sampling-parity check -- the CGO 2021 camera-ready
#: date, chosen once and never derived from wall clock or process state.
QSAN_SAMPLE_SEED = 20210227

_ATOL = 1e-8
#: Bloch-vector tolerance for tracker fingerprint comparison.
_BLOCH_ATOL = 1e-6


def _rebuild_violation(message, kind, pass_name, diff):
    return ContractViolation(message, kind=kind, pass_name=pass_name, diff=diff)


class ContractViolation(TranspilerError):
    """A pass broke its declared contract.

    Attributes:
        kind: violation family -- ``"equivalence"`` or
            ``"analysis-mutation"``.
        pass_name: the offending pass.
        diff: a short textual circuit diff (``None`` when the circuit was
            not implicated).
    """

    def __init__(
        self,
        message: str,
        *,
        kind: str,
        pass_name: str,
        diff: str | None = None,
    ):
        super().__init__(message)
        self.kind = kind
        self.pass_name = pass_name
        self.diff = diff

    def __reduce__(self):
        # keyword-only constructor args need an explicit recipe to cross
        # the process/wire boundary inside TranspileResult.violations
        return (
            _rebuild_violation,
            (self.args[0], self.kind, self.pass_name, self.diff),
        )


@dataclass(frozen=True)
class QsanConfig:
    """Resolved sanitizer settings for one pipeline run."""

    mode: str = "off"  # "off" | "full"
    report_only: bool = False
    unitary_cap: int = 8
    state_cap: int = 14
    sample_shots: int = 128

    @property
    def enabled(self) -> bool:
        return self.mode != "off"

    @classmethod
    def resolve(cls, validate: str | None = None) -> "QsanConfig":
        """Build a config from an explicit mode or the environment.

        An explicit ``validate`` argument wins; ``None`` falls back to
        ``REPRO_QSAN`` (``1``/``full`` -> full, unset/``0``/``off`` ->
        off).
        """
        mode = validate
        if mode is None:
            raw = os.environ.get("REPRO_QSAN", "").strip().lower()
            aliases = {"": "off", "0": "off", "off": "off", "1": "full"}
            mode = aliases.get(raw, raw)
        if mode not in ("off", "full"):
            raise TranspilerError(
                f"unrecognized QSAN mode {mode!r}; expected 'off' or 'full'"
            )
        return cls(
            mode=mode,
            report_only=os.environ.get("REPRO_QSAN_REPORT", "").strip().lower()
            in ("1", "true", "yes"),
            unitary_cap=_env_int("REPRO_QSAN_UNITARY_CAP", 8),
            state_cap=_env_int("REPRO_QSAN_STATE_CAP", 14),
        )


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise TranspilerError(f"{name}={raw!r} is not an integer qubit count") from None


# ======================================================================
# circuit helpers
# ======================================================================


def _instruction_lines(circuit: QuantumCircuit) -> list[str]:
    lines = []
    for instruction in circuit.data:
        operation = instruction.operation
        params = ",".join(f"{float(p):.6g}" for p in getattr(operation, "params", ()))
        head = f"{operation.name}({params})" if params else operation.name
        wires = ",".join(str(q) for q in instruction.qubits)
        if instruction.clbits:
            wires += " -> " + ",".join(str(c) for c in instruction.clbits)
        lines.append(f"{head} @ {wires}")
    return lines


def circuit_diff(before: QuantumCircuit, after: QuantumCircuit, limit: int = 10) -> str:
    """A compact textual diff of two circuits' instruction streams."""
    old, new = _instruction_lines(before), _instruction_lines(after)
    parts = [
        f"before: {len(old)} ops, {before.num_qubits}q, phase {before.global_phase:.6g}",
        f"after:  {len(new)} ops, {after.num_qubits}q, phase {after.global_phase:.6g}",
    ]
    shown = 0
    for index in range(max(len(old), len(new))):
        left = old[index] if index < len(old) else "<absent>"
        right = new[index] if index < len(new) else "<absent>"
        if left == right:
            continue
        parts.append(f"  [{index}] - {left}")
        parts.append(f"  [{index}] + {right}")
        shown += 1
        if shown >= limit:
            parts.append("  ...")
            break
    return "\n".join(parts)


def _circuit_facts(circuit: QuantumCircuit) -> tuple[bool, dict[int, int] | None]:
    """``(annotated, measures)`` from one scan of ``circuit``.

    ``annotated`` says whether the circuit carries an ``ANNOT`` promise.
    ``measures`` is ``qubit -> clbit`` for purely terminal measurements, or
    ``None`` when the circuit cannot be checked by stripping measures: it
    resets, or it measures mid-circuit.
    """
    annotated = False
    measured: dict[int, int] = {}
    measures: dict[int, int] | None = measured
    for instruction in circuit.data:
        name = instruction.operation.name
        if name == "annot":
            annotated = True
        if measures is None:
            if annotated:
                break
            continue
        if name == "reset":
            measures = None
        elif name == "measure":
            qubit = instruction.qubits[0]
            if qubit in measured:
                measures = None
            else:
                measured[qubit] = instruction.clbits[0]
        elif measured and name != "barrier" and any(q in measured for q in instruction.qubits):
            measures = None
    return annotated, measures


def _without_measures(circuit: QuantumCircuit) -> QuantumCircuit:
    data = circuit.data
    measures = [i for i, record in enumerate(data) if record.operation.name == "measure"]
    return circuit.splice([((index,), index, (), NO_PHASE) for index in measures])


#: Minimum state fidelity for the relaxed ``"state"`` contract.  The RPO
#: rewrites drop a gate whenever the tracked state's overlap with the
#: gate's eigenstate is within ``1e-9`` of one (``repro.rpo.states``), so
#: the semantic guarantee they make is *fidelity*, not exact amplitudes;
#: QSAN checks the contract the optimizer actually promises, with
#: headroom for one pass dropping many near-identity gates (the loss
#: compounds linearly; a genuinely wrong rewrite costs fidelity of O(1)).
_STATE_FIDELITY_TOL = 1e-7


def _states_fidelity_equal(
    reference: np.ndarray, candidate: np.ndarray, tol: float = _STATE_FIDELITY_TOL
) -> bool:
    reference = np.asarray(reference).ravel()
    candidate = np.asarray(candidate).ravel()
    if reference.shape != candidate.shape:
        return False
    overlap = abs(np.vdot(reference, candidate))
    return bool(1.0 - overlap <= tol)


def _equal_up_to_phase(reference: np.ndarray, candidate: np.ndarray, atol: float = _ATOL) -> bool:
    reference = np.asarray(reference).ravel()
    candidate = np.asarray(candidate).ravel()
    if reference.shape != candidate.shape:
        return False
    anchor = int(np.argmax(np.abs(reference)))
    if abs(reference[anchor]) < 1e-12:
        return bool(np.allclose(candidate, 0.0, atol=atol))
    phase = candidate[anchor] / reference[anchor]
    if abs(abs(phase) - 1.0) > 1e-6:
        return False
    return bool(np.allclose(reference * phase, candidate, atol=atol))


def _gather_indices(num_source_qubits: int, placement) -> np.ndarray:
    """Index map embedding a ``2**k`` state into a wider register.

    ``placement[q]`` is the destination wire of source qubit ``q``; the
    returned array ``J`` satisfies ``wide_state[J[i]] == narrow_state[i]``
    for an embedding that leaves every unplaced destination wire in
    ``|0>``.
    """
    source = np.arange(2**num_source_qubits, dtype=np.int64)
    destination = np.zeros_like(source)
    for qubit, wire in enumerate(placement):
        destination |= ((source >> qubit) & 1) << wire
    return destination


# ======================================================================
# the tracker fingerprint tier
# ======================================================================

_Z_AXIS_EPS = 1e-9
#: ``np.allclose``'s default relative tolerance, spelled out for
#: :func:`_bloch_close`
_BLOCH_RTOL = 1e-5

_X_MATRIX = np.array([[0, 1], [1, 0]], dtype=complex)
_Z_MATRIX = np.array([[1, 0], [0, -1]], dtype=complex)


def _is_z_basis(tracker, qubit: int) -> bool:
    state = tracker.state(qubit)
    if state is None:
        return False
    theta = state[0] % (2 * math.pi)
    return min(abs(theta), abs(theta - math.pi), abs(theta - 2 * math.pi)) < _Z_AXIS_EPS


def pure_fingerprint(circuit: QuantumCircuit):
    """Drive a :class:`PureStateTracker` over ``circuit``.

    The driver understands exactly what the paper's analyses understand --
    one-qubit gates, SWAP, Z-controlled CX/CZ, validated SWAPZ, ANNOT
    promises, measure and reset -- and sends everything else (an opaque
    gate with no matrix included) to the unknown TOP state, so a claimed
    (non-TOP) state is always provable.

    Work is paid only on wires that still hold a proved state.  A TOP wire
    holds the tuple ``(0, 0)``, and any operation but ``ANNOT`` and
    ``reset`` leaves an all-TOP set of wires as it found it, so such an
    operation is skipped outright: no matrix is built and nothing is
    written.  The tracker ends exactly as if every operation had been
    applied.
    """
    from repro.rpo.pure_tracker import PureStateTracker

    tracker = PureStateTracker(circuit.num_qubits)
    known = [True] * circuit.num_qubits  # mirrors tracker.known
    for instruction in circuit.data:
        operation = instruction.operation
        name = operation.name
        qubits = instruction.qubits
        if name == "annot":
            tracker.apply_annotation(qubits[0], *operation.params[:2])
            known[qubits[0]] = True
            continue
        if operation.is_directive:
            continue
        if name == "reset":
            tracker.apply_reset(qubits[0])
            known[qubits[0]] = True
            continue
        live = [qubit for qubit in qubits if known[qubit]]
        if not live:
            continue
        if name == "measure":
            tracker.apply_measure(qubits[0])
            known[qubits[0]] = tracker.is_known(qubits[0])
            continue
        if not operation.is_gate():
            pass  # not unitary: its live wires go to TOP below
        elif operation.num_qubits == 1:
            try:
                matrix = operation.matrix
            except NotImplementedError:  # opaque: no provable successor
                pass
            else:
                tracker.apply_1q_gate(qubits[0], matrix)
                continue
        elif name == "swap" or (
            # SWAPZ equals SWAP exactly when both inputs are Z-basis states
            name == "swapz"
            and _is_z_basis(tracker, qubits[0])
            and _is_z_basis(tracker, qubits[1])
        ):
            a, b = qubits
            tracker.apply_swap(a, b)
            known[a], known[b] = known[b], known[a]
            continue
        elif name in ("cx", "cz"):
            control, target = qubits
            state = tracker.state(control)
            theta = (state[0] % (2 * math.pi)) if state is not None else None
            if theta is not None and min(theta, 2 * math.pi - theta) < _Z_AXIS_EPS:
                continue  # control provably |0>: the gate acts as identity
            if theta is not None and abs(theta - math.pi) < _Z_AXIS_EPS:
                # control provably |1>: apply the base gate to the target
                tracker.apply_1q_gate(target, _X_MATRIX if name == "cx" else _Z_MATRIX)
                continue
        tracker.invalidate(live)
        for qubit in live:
            known[qubit] = False
    return tracker


def _bloch_vector(state) -> tuple[float, float, float]:
    theta, phi = state
    sin = math.sin(theta)
    return sin * math.cos(phi), sin * math.sin(phi), math.cos(theta)


def _bloch_close(left, right) -> bool:
    """``np.allclose`` of the two states' Bloch vectors, on plain floats.

    The same predicate, ``|a - b| <= atol + rtol * |b|`` per component, in
    the same float64 arithmetic; a NaN component fails it.
    """
    return all(
        abs(a - b) <= _BLOCH_ATOL + _BLOCH_RTOL * abs(b)
        for a, b in zip(_bloch_vector(left), _bloch_vector(right))
    )


def _fingerprints_compatible(before, after, placement=None) -> int | None:
    """First qubit where two tracker fingerprints provably disagree.

    ``placement[q]`` maps a before-side qubit to its after-side wire
    (identity when ``None``).  TOP on either side is compatible with
    anything, so only qubits *proved* to be in different pure states
    report.
    """
    known_after = after.known.tolist()
    tuples_after = after.tuples.tolist()
    for qubit, (known, left) in enumerate(zip(before.known.tolist(), before.tuples.tolist())):
        wire = placement[qubit] if placement is not None else qubit
        if known and known_after[wire] and not _bloch_close(left, tuples_after[wire]):
            return qubit
    return None


# ======================================================================
# the validator
# ======================================================================


class QsanValidator:
    """Per-run sanitizer driven by :class:`PassManager`.

    One validator watches one pipeline run.  Everything QSAN derives from
    a circuit is memoized keyed on circuit object identity: its ANNOT flag
    and terminal-measure map (one scan), its statevector, unitary, tracker
    fingerprint and fixed-seed sample counts (drawn from the memoized
    statevector).  Pass *k*'s output is pass *k+1*'s input, so chained
    passes scan, simulate and sample each intermediate circuit once.
    After each check only the live circuit's entry is kept.
    """

    def __init__(self, config: QsanConfig):
        self.config = config
        self.violations: list[ContractViolation] = []
        # id(circuit) -> (circuit, {tier-key: value}); the strong circuit
        # reference pins the id so it cannot be recycled under us
        self._memo: dict[int, tuple[QuantumCircuit, dict]] = {}

    # -- entry point ---------------------------------------------------

    def check_pass(
        self,
        pass_,
        before: QuantumCircuit,
        after: QuantumCircuit,
        properties: PropertySet,
        changed: bool,
    ) -> list[ContractViolation]:
        violations = []
        if changed:
            if isinstance(pass_, AnalysisPass):
                violations.append(
                    ContractViolation(
                        f"analysis pass {pass_.name} mutated the circuit",
                        kind="analysis-mutation",
                        pass_name=pass_.name,
                        diff=circuit_diff(before, after),
                    )
                )
            else:
                violations.extend(self._check_equivalence(pass_, before, after, properties))
        self.violations.extend(violations)
        # keep only the live circuit's semantic reference: the next pass's
        # input is this pass's output, everything older is unreachable
        entry = self._memo.get(id(after))
        self._memo = {id(after): entry} if entry is not None else {}
        return violations

    # -- semantic equivalence ------------------------------------------

    def _check_equivalence(
        self, pass_, before, after, properties
    ) -> list[ContractViolation]:
        contract = getattr(pass_, "equivalence", "unitary")
        if contract in ("none", "identity"):
            return []
        placement = None
        if contract == "permutation":
            permutation = properties.get("final_permutation")
            if permutation is None:
                return []
            placement = list(permutation)
        elif contract == "layout":
            layout = properties.get("layout")
            if layout is None:
                return []
            placement = [layout.physical(q) for q in range(before.num_qubits)]

        width = max(before.num_qubits, after.num_qubits)
        before_annotated, before_measures = self._semantics(before, "facts")
        after_annotated, after_measures = self._semantics(after, "facts")
        exact_feasible = (
            not (before_annotated or after_annotated)
            and before_measures is not None
            and after_measures is not None
            and width <= self.config.state_cap
        )
        if exact_feasible:
            try:
                return self._check_exact(
                    pass_, contract, before, after, before_measures, after_measures, placement
                )
            except NotImplementedError:  # an opaque gate cannot be simulated
                pass
        return self._check_fingerprint(pass_, contract, before, after, placement)

    def _violation(self, pass_, before, after, detail) -> ContractViolation:
        return ContractViolation(
            f"pass {pass_.name} broke its {pass_.equivalence!r} equivalence "
            f"contract: {detail}",
            kind="equivalence",
            pass_name=pass_.name,
            diff=circuit_diff(before, after),
        )

    def _check_exact(
        self, pass_, contract, before, after, before_measures, after_measures, placement
    ) -> list[ContractViolation]:
        # measurement bookkeeping must line up under the wire relabeling
        if placement is None:
            if before_measures != after_measures:
                return [
                    self._violation(
                        pass_, before, after, "terminal measurement maps differ"
                    )
                ]
        else:
            expected = {placement[q]: c for q, c in before_measures.items()}
            if expected != after_measures:
                return [
                    self._violation(
                        pass_,
                        before,
                        after,
                        "terminal measurement maps differ under the wire relabeling",
                    )
                ]

        if (
            contract == "unitary"
            and not before_measures
            and not after_measures
            and max(before.num_qubits, after.num_qubits) <= self.config.unitary_cap
        ):
            unitary_before = self._semantics(before, "unitary")
            unitary_after = self._semantics(after, "unitary")
            if not _equal_up_to_phase(unitary_before, unitary_after):
                return [
                    self._violation(
                        pass_, before, after, "unitaries differ (up to global phase)"
                    )
                ]
            return []

        state_before = self._semantics(before, "state")
        state_after = self._semantics(after, "state")
        violations = []
        if contract == "measurement":
            # diagonal-before-measure removal may change phases, never
            # outcome probabilities
            probabilities_before = np.abs(state_before) ** 2
            probabilities_after = np.abs(state_after) ** 2
            if not np.allclose(probabilities_before, probabilities_after, atol=_ATOL):
                violations.append(
                    self._violation(
                        pass_, before, after, "outcome probabilities differ"
                    )
                )
        elif contract == "state":
            # relaxed-precondition rewrites promise fidelity, not exact
            # amplitudes: near-identity gates may be dropped by design
            if not _states_fidelity_equal(state_before, state_after):
                violations.append(
                    self._violation(
                        pass_,
                        before,
                        after,
                        "statevectors from |0...0> differ beyond the relaxed-"
                        "rewrite fidelity tolerance",
                    )
                )
        elif placement is None:
            if not _equal_up_to_phase(state_before, state_after):
                violations.append(
                    self._violation(
                        pass_,
                        before,
                        after,
                        "statevectors from |0...0> differ (up to global phase)",
                    )
                )
        else:
            gathered = state_after[_gather_indices(before.num_qubits, placement)]
            if abs(np.linalg.norm(gathered) - 1.0) > 1e-6 or not _equal_up_to_phase(
                state_before, gathered
            ):
                violations.append(
                    self._violation(
                        pass_,
                        before,
                        after,
                        "statevectors differ under the declared wire relabeling",
                    )
                )

        # identical seed + index-identical probability vector => identical
        # draws.  Under a wire relabeling the vector is permuted, so equal
        # distributions can still sample differently -- there the state
        # comparison plus the relabeled measure-map equality above already
        # prove outcome-distribution equality.
        if not violations and before_measures and placement is None:
            violations.extend(self._check_sampling(pass_, before, after))
        return violations

    def _check_sampling(self, pass_, before, after) -> list[ContractViolation]:
        """Fixed-seed sampling parity over the terminal-measurement path."""
        if self._semantics(before, "counts") != self._semantics(after, "counts"):
            return [
                self._violation(
                    pass_,
                    before,
                    after,
                    f"fixed-seed sampling diverged over {self.config.sample_shots} shots",
                )
            ]
        return []

    def _check_fingerprint(
        self, pass_, contract, before, after, placement
    ) -> list[ContractViolation]:
        fingerprint_before = self._semantics(before, "fingerprint")
        fingerprint_after = self._semantics(after, "fingerprint")
        disagreement = _fingerprints_compatible(
            fingerprint_before, fingerprint_after, placement
        )
        if disagreement is not None:
            return [
                self._violation(
                    pass_,
                    before,
                    after,
                    f"tracker fingerprints prove different pure states on "
                    f"qubit {disagreement}",
                )
            ]
        return []

    # -- memoized semantic references ----------------------------------

    def _semantics(self, circuit: QuantumCircuit, tier: str):
        entry = self._memo.get(id(circuit))
        if entry is None or entry[0] is not circuit:
            entry = (circuit, {})
            self._memo[id(circuit)] = entry
        values = entry[1]
        if tier not in values:
            if tier == "unitary":
                from repro.simulators.unitary import circuit_unitary

                values[tier] = circuit_unitary(circuit)
            elif tier == "state":
                from repro.simulators.statevector import StatevectorSimulator

                values[tier] = StatevectorSimulator().statevector(
                    _without_measures(circuit)
                )
            elif tier == "counts":
                from repro.simulators.statevector import StatevectorSimulator

                _, measures = self._semantics(circuit, "facts")
                values[tier] = dict(
                    StatevectorSimulator(seed=QSAN_SAMPLE_SEED).sample(
                        self._semantics(circuit, "state"),
                        self.config.sample_shots,
                        measures.items(),
                        circuit.num_clbits,
                    )
                )
            elif tier == "facts":
                values[tier] = _circuit_facts(circuit)
            else:
                values[tier] = pure_fingerprint(circuit)
        return values[tier]
