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
raising.

Checking tiers
==============

A ``"unitary"``-contract pass whose output one
:meth:`~repro.circuit.QuantumCircuit.splice` built from its input, with
every edit *in place*, is proved first by the **window tier**, at any
width.  An in-place edit either changes only the phase, or removes one
gate record ``r`` that has no clbits and inserts gates on a subset of
``r``'s qubits at ``r``'s own index.  The Unroller's edits are all of this
kind, and so are those of an ``Optimize1qGates`` run that only rebuilds
one-gate runs.  Each such window compares ``r``'s matrix with the product
of its replacement on ``r``'s wires, batched by width
(:func:`~repro.linalg.batch.chain_products` for one qubit,
:func:`~repro.linalg.batch.two_qubit_chain_unitaries` for two, one small
unitary per wider window).  The check is proven when every window passes
the unitary tier's own predicate and the windows' summed Frobenius
deviation is at most ``_ATOL / 2``, which keeps the whole circuits within
that predicate (see ``_WINDOW_BUDGET``).  QSAN learns a pass's splices
only while it checks that pass (:meth:`QsanValidator.watch`); they are
dropped by the check and never stored on a circuit.  Every record outside
the windows must be the very same object in both circuits, so the proof
holds whatever the edits claimed.

No pass moves a record it keeps: every edit puts its replacement at the
last record it removes.  So an edit that removes several records (a fused
run, a consolidated block, a cancelled pair) also leaves every record
around it in place, but this tier does not prove such edits yet.

Anything not proven, or not in place, goes on to the tiers below exactly
as before.  Only where those tiers end at the fingerprint (a wide or
annotated circuit, or one holding an opaque gate) does a window that
fails the predicate become the violation, naming its record index and
qubits.  Otherwise semantic equivalence is checked at the strongest tier
the circuit width allows:

* ``<= UNITARY_CAP`` (8) qubits, measurement-free: exact unitary
  equivalence up to global phase via
  :func:`~repro.simulators.unitary.circuit_unitary`;
* ``<= STATE_CAP`` (14) qubits: statevector equivalence from the
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
import operator
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.circuit.quantumcircuit import NO_PHASE, SPLICE_LOG, QuantumCircuit
from repro.transpiler.exceptions import TranspilerError
from repro.transpiler.passmanager import AnalysisPass, PropertySet, qsan_mode

__all__ = ["ContractViolation", "QsanConfig", "QsanValidator", "QSAN_SAMPLE_SEED"]

#: Fixed seed for the sampling-parity check -- the CGO 2021 camera-ready
#: date, chosen once and never derived from wall clock or process state.
QSAN_SAMPLE_SEED = 20210227

#: widest measurement-free circuit the unitary tier checks
UNITARY_CAP = 8
#: widest circuit the statevector tier checks
STATE_CAP = 14

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
    sample_shots: int = 128

    @classmethod
    def resolve(cls, validate: str | None = None) -> "QsanConfig":
        """Build a config from an explicit mode or the environment.

        The mode comes from :func:`~repro.transpiler.passmanager.qsan_mode`
        (an explicit ``validate`` wins over ``REPRO_QSAN``).
        """
        return cls(
            mode=qsan_mode(validate),
            report_only=os.environ.get("REPRO_QSAN_REPORT", "").strip().lower()
            in ("1", "true", "yes"),
        )


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


#: ``np.allclose``'s default relative tolerance, which the up-to-phase
#: predicate applies on top of ``_ATOL``
_RTOL = 1e-5


def _phase_deviations(references: np.ndarray, candidates: np.ndarray):
    """The up-to-phase predicate of each stacked pair, and the Frobenius
    norm of the pair's difference at the phase it picks.

    The phase is the candidate's entry over the reference's largest one;
    the pair is equal when that phase has unit modulus and the entries
    then agree as ``np.allclose`` compares them (``_ATOL`` plus ``_RTOL``
    of the candidate's entry).  A zero reference is never equal.
    """
    count = len(references)
    flat_references = references.reshape(count, -1)
    flat_candidates = candidates.reshape(count, -1)
    rows = np.arange(count)
    anchor = np.argmax(np.abs(flat_references), axis=1)
    pivot = flat_references[rows, anchor]
    nonzero = np.abs(pivot) >= 1e-12
    phase = flat_candidates[rows, anchor] / np.where(nonzero, pivot, 1.0)
    gap = np.abs(flat_references * phase[:, None] - flat_candidates)
    equal = (
        nonzero
        & (np.abs(np.abs(phase) - 1.0) <= 1e-6)
        & np.all(gap <= _ATOL + _RTOL * np.abs(flat_candidates), axis=1)
    )
    return equal, np.sqrt(np.sum(gap * gap, axis=1))


def _equal_up_to_phase(reference: np.ndarray, candidate: np.ndarray) -> bool:
    """Whether two states or unitaries are equal up to a global phase."""
    reference = np.asarray(reference).ravel()
    candidate = np.asarray(candidate).ravel()
    if reference.shape != candidate.shape:
        return False
    return bool(_phase_deviations(reference[None], candidate[None])[0][0])


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
# the window tier
# ======================================================================

#: Budget for the summed Frobenius deviation of one splice's windows.  A
#: window that deviates by ``d`` from its record (at some phase) deviates by
#: at most ``d`` in spectral norm, and the deviations of unitary factors
#: add up along a product, so the two whole circuits differ by at most the
#: sum ``S`` in every entry, at one global phase.  The unitary tier's
#: predicate takes its phase from a single anchor entry instead, which can
#: double that gap; ``S <= _ATOL / 2`` keeps it within the predicate's
#: ``atol``.
_WINDOW_BUDGET = _ATOL / 2


def _same_records(old, start: int, new, position: int, count: int) -> bool:
    """Whether ``count`` records from ``old[start]`` are the very objects
    at ``new[position]`` on."""
    return all(
        map(operator.is_, old[start : start + count], new[position : position + count])
    )


def _in_place_windows(before: QuantumCircuit, after: QuantumCircuit, splices):
    """``after`` as ``before`` with records replaced in place, or ``None``.

    ``splices`` are the ``(source, output, edits)`` a pass's splices
    reported.  When one of them built ``after`` from ``before`` and each of
    its edits either changes only the phase or removes one gate record
    ``r`` without clbits and inserts gates on ``r``'s qubits at ``r``'s own
    index, returns ``[(index, r, replacement), ...]``, the replacement read
    from ``after``.  The edits only say where the windows are: every record
    outside them must be the same object in both circuits, so the windows
    describe the two circuits whatever the edits claimed.
    """
    edits = next((e for s, o, e in splices if o is after and s is before), None)
    if edits is None:
        return None
    sizes: dict[int, int] = {}
    for removed, at, replacement, _ in edits:
        if not removed:
            if replacement:
                return None
            continue
        if len(removed) != 1 or at not in removed:
            return None
        sizes[at] = len(replacement)
    old, new = before.data, after.data
    if len(new) != len(old) - len(sizes) + sum(sizes.values()):
        return None
    windows = []
    start = position = 0
    for index in sorted(sizes):
        if not _same_records(old, start, new, position, index - start):
            return None
        position += index - start
        record = old[index]
        replacement = new[position : position + sizes[index]]
        position += sizes[index]
        start = index + 1
        wires = record.qubits
        if record.clbits or not record.operation.is_gate():
            return None
        for operation, qubits, clbits in replacement:
            if clbits or not operation.is_gate() or not set(qubits) <= set(wires):
                return None
        windows.append((index, record, replacement))
    if not _same_records(old, start, new, position, len(old) - start):
        return None
    return windows


def _window_unitaries(windows) -> list[tuple[list, np.ndarray, np.ndarray]]:
    """``(windows, references, candidates)`` per window width: each
    record's matrix next to the product of its replacement on the
    record's own wires, one batched reduction per width up to two qubits
    and one small unitary per wider window.  Raises
    ``NotImplementedError`` when a gate has no matrix."""
    from repro.linalg.batch import chain_products, two_qubit_chain_unitaries
    from repro.simulators.unitary import circuit_unitary

    groups: dict[int, tuple[list, list, list]] = {}
    for window in windows:
        _, record, replacement = window
        wires = record.qubits
        width = len(wires)
        members, references, chains = groups.setdefault(width, ([], [], []))
        members.append(window)
        references.append(record.operation.matrix)
        if width == 1:
            chains.append([operation.matrix for operation, _, _ in replacement])
        elif width == 2:
            low = wires[0]
            chains.append(
                [
                    (operation.matrix, tuple(0 if q == low else 1 for q in qubits))
                    for operation, qubits, _ in replacement
                ]
            )
        else:
            local = {wire: position for position, wire in enumerate(wires)}
            product = QuantumCircuit(width)
            for operation, qubits, _ in replacement:
                product.append(operation, [local[q] for q in qubits])
            chains.append(circuit_unitary(product))
    out = []
    for width, (members, references, chains) in groups.items():
        if width == 1:
            candidates = chain_products(chains, 2)
        elif width == 2:
            candidates = two_qubit_chain_unitaries(chains)
        else:
            candidates = np.stack(chains)
        out.append((members, np.stack(references), candidates))
    return out


def _prove_windows(windows) -> tuple[bool, tuple | None]:
    """``(proven, failed)``: ``proven`` when every window passes
    :func:`_equal_up_to_phase` and their summed deviation is within
    :data:`_WINDOW_BUDGET`; ``failed`` is the first window (by record
    index) that fails the predicate, if any.  A gate with no matrix
    proves nothing and fails nothing."""
    try:
        groups = _window_unitaries(windows)
    except NotImplementedError:
        return False, None
    failed = None
    total = 0.0
    for members, references, candidates in groups:
        equal, deviation = _phase_deviations(references, candidates)
        total += float(deviation.sum())
        for position in np.flatnonzero(~equal).tolist():
            if failed is None or members[position][0] < failed[0]:
                failed = members[position]
    return failed is None and total <= _WINDOW_BUDGET, failed


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

    The pass manager runs each pass inside :meth:`watch`, which hands the
    pass's splices to the window tier of the next :meth:`check_pass`.
    ``window_proofs`` and ``window_deferrals`` count the ``"unitary"``
    checks that tier proved and those it left to the other tiers.
    """

    def __init__(self, config: QsanConfig):
        self.config = config
        self.violations: list[ContractViolation] = []
        #: ``"unitary"``-contract checks the window tier proved, and those
        #: it handed to the other tiers
        self.window_proofs = 0
        self.window_deferrals = 0
        # id(circuit) -> (circuit, {tier-key: value}); the strong circuit
        # reference pins the id so it cannot be recycled under us
        self._memo: dict[int, tuple[QuantumCircuit, dict]] = {}
        # the splices of the pass being checked, from watch() to check_pass()
        self._splices: list = []

    @contextmanager
    def watch(self):
        """Log the splices of the pass run inside the block; the next
        :meth:`check_pass` reads them and drops them."""
        log: list = []
        token = SPLICE_LOG.set(log)
        try:
            yield
        finally:
            SPLICE_LOG.reset(token)
        self._splices = log

    # -- entry point ---------------------------------------------------

    def check_pass(
        self,
        pass_,
        before: QuantumCircuit,
        after: QuantumCircuit,
        properties: PropertySet,
        changed: bool,
    ) -> list[ContractViolation]:
        splices, self._splices = self._splices, []
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
                violations.extend(
                    self._check_equivalence(pass_, before, after, properties, splices)
                )
        self.violations.extend(violations)
        # keep only the live circuit's semantic reference: the next pass's
        # input is this pass's output, everything older is unreachable
        entry = self._memo.get(id(after))
        self._memo = {id(after): entry} if entry is not None else {}
        return violations

    # -- semantic equivalence ------------------------------------------

    def _check_equivalence(
        self, pass_, before, after, properties, splices
    ) -> list[ContractViolation]:
        contract = getattr(pass_, "equivalence", "unitary")
        if contract in ("none", "identity"):
            return []
        failed = None
        if contract == "unitary":
            windows = _in_place_windows(before, after, splices)
            if windows is not None:
                proven, failed = _prove_windows(windows)
                if proven:
                    self.window_proofs += 1
                    return []
            self.window_deferrals += 1
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
            and width <= STATE_CAP
        )
        if exact_feasible:
            try:
                return self._check_exact(
                    pass_, contract, before, after, before_measures, after_measures, placement
                )
            except NotImplementedError:  # an opaque gate cannot be simulated
                pass
        if failed is not None:
            # the fingerprint tier cannot see every wire; the window can
            index, record, _ = failed
            return [
                self._violation(
                    pass_,
                    before,
                    after,
                    f"record {index} ({record.operation.name} on qubits "
                    f"{list(record.qubits)}) and the records replacing it differ "
                    "as unitaries (up to global phase)",
                )
            ]
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
            and max(before.num_qubits, after.num_qubits) <= UNITARY_CAP
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
