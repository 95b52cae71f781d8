"""Compact, process-portable circuit (and target) payloads.

The :class:`~repro.transpiler.service.CompileService` ships circuits to
worker processes and optimized circuits back, each job envelope pairing a
circuit payload with a compact :class:`~repro.transpiler.target.Target`
payload (``Target.to_payload()`` / ``Target.from_payload()``).  Plain
``pickle`` of a :class:`~repro.circuit.quantumcircuit.QuantumCircuit`
works but is wasteful:
every gate object pickles its class closure, and memoized ``_definition``
sub-circuits multiply the payload size.  This module flattens a circuit to a
small tuple tree of primitives:

* distinct operations are serialized once into an operation table (standard
  gates reduce to ``(class_name, params, ctrl_state)`` specs; arbitrary
  unitaries keep their matrix; anything unknown falls back to the object
  itself, which the surrounding pickle handles);
* instructions reference the table by index, so the per-instruction cost is
  three small tuples;
* reconstruction shares one gate object per table entry, so a decoded
  circuit holds one operation object per distinct operation.

Round-trips preserve structure exactly: wire counts, global phase, operation
names/parameters/control states, qubit and clbit arguments.
"""

from __future__ import annotations

from repro.circuit.instruction import Instruction
from repro.circuit.quantumcircuit import QuantumCircuit

__all__ = [
    "circuit_to_payload",
    "circuit_from_payload",
    "payload_fingerprints",
    "payload_param_slots",
    "payload_rebind",
    "PAYLOAD_VERSION",
]

PAYLOAD_VERSION = 1

#: Gate classes reconstructed as ``cls()``.
_NO_ARG = frozenset(
    {
        "IGate", "XGate", "YGate", "ZGate", "HGate", "SGate", "SdgGate",
        "TGate", "TdgGate", "SXGate",
        "SwapGate", "SwapZGate", "ISwapGate", "CSwapGate",
        "Measure", "Reset",
    }
)

#: Gate classes reconstructed as ``cls(*params)``.
_PARAM_ONLY = frozenset(
    {"U1Gate", "U2Gate", "U3Gate", "RXGate", "RYGate", "RZGate", "Annotation"}
)

#: Controlled gates reconstructed as ``cls(ctrl_state=...)``.
_CTRL_ONLY = frozenset({"CXGate", "CYGate", "CZGate", "CHGate", "CCXGate", "CCZGate"})

#: Controlled gates reconstructed as ``cls(*params, ctrl_state=...)``.
_PARAM_CTRL = frozenset({"CPhaseGate", "CRXGate", "CRYGate", "CRZGate", "CU3Gate"})


def _gate_classes():
    """Name -> class map of every registry-serializable operation."""
    import repro.gates as gates

    names = _NO_ARG | _PARAM_ONLY | _CTRL_ONLY | _PARAM_CTRL
    names |= {"MCU1Gate", "MCXGate", "MCZGate", "MCXVChainGate", "Barrier"}
    table = {name: getattr(gates, name) for name in names if hasattr(gates, name)}
    table["Annotation"] = gates.Annotation
    return table


_CLASSES = None


def _classes():
    global _CLASSES
    if _CLASSES is None:
        _CLASSES = _gate_classes()
    return _CLASSES


def _operation_spec(operation: Instruction):
    """Primitive spec of ``operation``, or ``None`` if not registry-backed.

    Every spec ends with the operation's label (usually ``None``) so
    labeled and unlabeled gates neither collide in the dedup table nor
    lose their label across the process boundary.
    """
    base = _base_spec(operation)
    if base is None:
        return None
    return (*base, operation.label)


def _base_spec(operation: Instruction):
    cls = type(operation).__name__
    params = tuple(
        float(p) for p in operation.params
        if isinstance(p, (int, float)) and not isinstance(p, bool)
    )
    if len(params) != len(operation.params):
        return None  # symbolic / matrix-valued parameters: fall back
    if cls in _NO_ARG:
        return (cls,)
    if cls == "Barrier":
        return (cls, operation.num_qubits)
    if cls in _PARAM_ONLY:
        return (cls, params)
    if cls in _CTRL_ONLY:
        return (cls, operation.ctrl_state)
    if cls in _PARAM_CTRL:
        return (cls, params, operation.ctrl_state)
    if cls in ("MCXGate", "MCZGate"):
        return (cls, operation.num_ctrl_qubits, operation.ctrl_state)
    if cls == "MCU1Gate":
        return (cls, params[0], operation.num_ctrl_qubits, operation.ctrl_state)
    if cls == "MCXVChainGate":
        return (cls, operation.num_ctrl_qubits)
    return None


def _build_operation(spec) -> Instruction:
    cls_name = spec[0]
    if cls_name == "unitary":
        from repro.gates import UnitaryGate

        return UnitaryGate(spec[1], label=spec[2])
    if cls_name == "raw":
        return spec[1]
    *spec, label = spec
    operation = _build_registry_operation(spec)
    if label is not None:
        operation.label = label
    return operation


def _build_registry_operation(spec) -> Instruction:
    cls_name = spec[0]
    cls = _classes()[cls_name]
    if cls_name in _NO_ARG:
        return cls()
    if cls_name == "Barrier":
        return cls(spec[1])
    if cls_name in _PARAM_ONLY:
        return cls(*spec[1])
    if cls_name in _CTRL_ONLY:
        return cls(ctrl_state=spec[1])
    if cls_name in _PARAM_CTRL:
        return cls(*spec[1], ctrl_state=spec[2])
    if cls_name in ("MCXGate", "MCZGate"):
        return cls(spec[1], ctrl_state=spec[2])
    if cls_name == "MCU1Gate":
        return cls(spec[1], spec[2], ctrl_state=spec[3])
    if cls_name == "MCXVChainGate":
        return cls(spec[1])
    raise ValueError(f"unknown operation spec {spec!r}")  # pragma: no cover


def circuit_to_payload(circuit: QuantumCircuit) -> tuple:
    """Flatten ``circuit`` into a compact picklable tuple tree."""
    from repro.gates import UnitaryGate

    table: list = []
    by_spec: dict = {}  # hashable spec -> table index
    by_id: dict[int, int] = {}  # operation identity -> table index
    data = []
    for instruction in circuit.data:
        operation = instruction.operation
        index = by_id.get(id(operation))
        if index is None:
            spec = _operation_spec(operation)
            if spec is not None:
                index = by_spec.get(spec)
                if index is None:
                    index = len(table)
                    table.append(spec)
                    by_spec[spec] = index
            elif isinstance(operation, UnitaryGate):
                index = len(table)
                table.append(("unitary", operation._matrix, operation.label))
            else:
                # exotic operation: let the surrounding pickle carry the
                # object (Instruction.__getstate__ keeps it lean)
                index = len(table)
                table.append(("raw", operation))
            by_id[id(operation)] = index
        data.append((index, instruction.qubits, instruction.clbits))
    return (
        PAYLOAD_VERSION,
        circuit.name,
        circuit.num_qubits,
        circuit.num_clbits,
        circuit.global_phase,
        tuple(table),
        tuple(data),
    )


# ---------------------------------------------------------------------------
# content fingerprints
#
# The result cache (repro.transpiler.result_cache) addresses compiled
# answers by circuit *content*.  Two fingerprints are derived from one
# payload walk:
#
# * the **exact key** -- per-instruction operation specs with every
#   parameter value included, plus wire counts and global phase; two
#   circuits with the same exact key compile to bit-identical outputs
#   (for the same target/options), so the key can address the answer.
# * the **template key** -- the same walk with every rotation-angle
#   parameter of the standard parametric gates replaced by a positional
#   placeholder, the angles extracted into a parameter vector (instruction
#   order, global phase appended last).  "Same ansatz, different bound
#   parameters" collapses onto one template key, which is what lets the
#   cache serve near-duplicate traffic by re-binding parameters instead of
#   recompiling.
#
# Circuit *names* deliberately take part in neither key: content
# addressing must not fragment on labels.

#: Parametric gate classes whose float params are rotation angles --
#: exactly the ones the template fingerprint canonicalizes out.
#: ``Annotation`` params are semantic markers, not angles, and stay put.
ANGLE_GATE_CLASSES = frozenset(
    {
        "U1Gate", "U2Gate", "U3Gate", "RXGate", "RYGate", "RZGate",
        "CPhaseGate", "CRXGate", "CRYGate", "CRZGate", "CU3Gate",
        "MCU1Gate",
    }
)

#: Placeholder standing in for a stripped angle inside template specs.
_ANGLE_SLOT = "θ"


def _spec_angles(spec: tuple):
    """``(hashable_exact, hashable_template, angles)`` of one table entry.

    Returns ``None`` for entries with no canonical content form ("raw"
    operations carried by pickle) -- circuits holding those cannot be
    content-addressed.
    """
    cls = spec[0]
    if cls == "raw":
        return None
    if cls == "unitary":
        matrix = spec[1]
        body = ("unitary", matrix.shape, matrix.dtype.str, matrix.tobytes())
        return (body, body, ())
    if cls not in ANGLE_GATE_CLASSES:
        return (spec, spec, ())
    if cls == "MCU1Gate":
        # (cls, angle, num_ctrl_qubits, ctrl_state, label)
        template = (cls, _ANGLE_SLOT, *spec[2:])
        return (spec, template, (spec[1],))
    # _PARAM_ONLY: (cls, params, label); _PARAM_CTRL: (cls, params, cs, label)
    params = spec[1]
    template = (cls, (_ANGLE_SLOT, len(params)), *spec[2:])
    return (spec, template, tuple(params))


def payload_fingerprints(payload: tuple):
    """``(exact_key, template_key, params)`` content keys of a payload.

    ``exact_key`` and ``template_key`` are hashable tuples; ``params`` is
    the tuple of extracted rotation angles in instruction order with the
    circuit's global phase appended as the final slot (so phase rides the
    same re-binding machinery as any other angle).  Returns ``None`` when
    the circuit carries operations with no canonical content form.
    """
    version, _name, num_qubits, num_clbits, phase, table, data = payload
    per_entry = []
    for spec in table:
        entry = _spec_angles(spec)
        if entry is None:
            return None
        per_entry.append(entry)
    exact_body = []
    template_body = []
    params: list[float] = []
    for index, qubits, clbits in data:
        exact_spec, template_spec, angles = per_entry[index]
        exact_body.append((exact_spec, tuple(qubits), tuple(clbits)))
        template_body.append((template_spec, tuple(qubits), tuple(clbits)))
        params.extend(angles)
    params.append(float(phase))
    exact_key = (version, num_qubits, num_clbits, float(phase), tuple(exact_body))
    template_key = (version, num_qubits, num_clbits, tuple(template_body))
    return exact_key, template_key, tuple(params)


def payload_param_slots(payload: tuple):
    """Gate-level structure of a payload's angle-slot vector.

    Returns ``[(gate_class, start, count), ...]`` -- one entry per
    angle-bearing instruction occurrence, in the same order
    :func:`payload_fingerprints` extracts the slots (the trailing global
    phase slot is not listed; callers know it is last).  The result-cache
    re-binding machinery uses this to fit *gate-level* relations (an
    Euler-merged ``u3`` is one unit of three coupled angles, not three
    independent slots).  Returns ``None`` for payloads with no canonical
    content form.
    """
    _version, _name, _nq, _nc, _phase, table, data = payload
    per_entry = []
    for spec in table:
        entry = _spec_angles(spec)
        if entry is None:
            return None
        per_entry.append(entry)
    groups = []
    cursor = 0
    for index, _qubits, _clbits in data:
        count = len(per_entry[index][2])
        if count:
            groups.append((table[index][0], cursor, count))
            cursor += count
    return groups


def payload_rebind(payload: tuple, params) -> tuple:
    """A copy of ``payload`` with its angle slots bound to ``params``.

    ``params`` follows the :func:`payload_fingerprints` vector layout:
    one value per rotation angle in instruction order, global phase last.
    The operation table is rebuilt (with de-duplication) because two
    instructions sharing one table entry may bind to different values.
    """
    version, name, num_qubits, num_clbits, _phase, table, data = payload
    params = list(params)
    phase = params.pop()
    table_angles = [_spec_angles(spec) for spec in table]
    new_table: list = []
    by_spec: dict = {}  # rebound (hashable) spec -> new table index
    by_old: dict = {}  # untouched old table index -> new table index
    new_data = []
    cursor = 0
    for index, qubits, clbits in data:
        entry = table_angles[index]
        if entry is not None and entry[2]:
            count = len(entry[2])
            values = tuple(params[cursor : cursor + count])
            cursor += count
            spec = table[index]
            cls = spec[0]
            if cls == "MCU1Gate":
                spec = (cls, values[0], *spec[2:])
            else:
                spec = (cls, values, *spec[2:])
            new_index = by_spec.get(spec)
            if new_index is None:
                new_index = len(new_table)
                new_table.append(spec)
                by_spec[spec] = new_index
        else:
            # angle-free entry: carried over as-is (specs may hold
            # unhashable leaves -- unitary matrices -- so dedup by the
            # old index, which the source payload already de-duplicated)
            new_index = by_old.get(index)
            if new_index is None:
                new_index = len(new_table)
                new_table.append(table[index])
                by_old[index] = new_index
        new_data.append((new_index, qubits, clbits))
    if cursor != len(params):
        raise ValueError(
            f"payload_rebind got {len(params) + 1} values for "
            f"{cursor + 1} angle slots"
        )
    return (
        version,
        name,
        num_qubits,
        num_clbits,
        phase,
        tuple(new_table),
        tuple(new_data),
    )


def circuit_from_payload(payload: tuple) -> QuantumCircuit:
    """Rebuild the :class:`QuantumCircuit` a payload describes.

    Every record goes through :meth:`QuantumCircuit.append`, so a malformed
    payload (a wire out of range, a repeated qubit, a wire count that does
    not match the operation) raises ``append``'s own typed error here, at
    decode time.
    """
    version, name, num_qubits, num_clbits, phase, table, data = payload
    if version != PAYLOAD_VERSION:
        raise ValueError(f"unsupported circuit payload version {version}")
    operations = [_build_operation(spec) for spec in table]
    circuit = QuantumCircuit(num_qubits, num_clbits, name=name, global_phase=phase)
    append = circuit.append
    for index, qubits, clbits in data:
        append(operations[index], qubits, clbits)
    return circuit
