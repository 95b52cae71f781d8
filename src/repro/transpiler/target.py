"""A first-class compilation target: basis + connectivity + calibration.

A :class:`Target` bundles everything the pipelines need to know about the
hardware a circuit is compiled for -- the native basis gates, the
:class:`~repro.transpiler.coupling.CouplingMap`, and (optionally) the
device's :class:`~repro.backends.backend.BackendProperties` calibration
data -- into one hashable, picklable value object.  It is the one
spelling of a device: every front door (``transpile()``,
:func:`repro.transpiler.frontend.pass_manager_for`, the preset levels, the
RPO/Hoare pipelines and both compile services) takes a ``target=`` that
:meth:`Target.coerce` turns into a ``Target``, and the executor layer
routes on it, which is what lets a single ``transpile()`` batch mix
circuits bound for different devices (heterogeneous multi-backend
compilation) and lets metrics break a batch down per target.  A non-IBM
basis is asked for by building the target with ``basis=``
(``Target(coupling, basis=...)``, :meth:`Target.full`,
:meth:`Target.preset`, :meth:`Target.from_backend`).

Key properties:

* **hashable / comparable** -- two targets with the same name, basis,
  edges and calibration data hash and compare equal, so targets work as
  dictionary keys (per-target metric grouping, worker-side memoization).
* **picklable and compact** -- targets cross process boundaries both via
  plain pickle and via the compact payload form used by the
  :class:`~repro.transpiler.service.CompileService` job envelopes
  (:meth:`Target.to_payload` / :meth:`Target.from_payload`).
* **named presets** -- :meth:`Target.preset` resolves the paper's three
  devices (``"melbourne"``, ``"almaden"``, ``"rochester"``), an
  ``ibmq_manhattan``-style 65-qubit grid (``"manhattan"``), and
  parameterized families: ``"linear:N"``, ``"ring:N"``, ``"grid:RxC"``
  and ``"full:N"``.
"""

from __future__ import annotations

import functools
from typing import Iterable, Sequence

from repro.transpiler.coupling import CouplingMap
from repro.transpiler.exceptions import TranspilerError
from repro.transpiler.passes.unroller import IBM_BASIS

__all__ = ["Target", "TARGET_PRESETS"]

TARGET_PAYLOAD_VERSION = 1

#: gates every basis holds: the unroller lowers each definition to them
_REQUIRED_GATES = ("u3", "cx")


def _properties_key(properties):
    """Canonical hashable form of a BackendProperties, or ``None``."""
    if properties is None:
        return None
    return (
        tuple(sorted(properties.single_qubit_error.items())),
        tuple(sorted((tuple(k), v) for k, v in properties.two_qubit_error.items())),
        tuple(sorted(properties.readout_error.items())),
        properties.default_single_qubit_error,
        properties.default_two_qubit_error,
        tuple(properties.default_readout_error),
    )


class Target:
    """Hashable, picklable description of a compilation target."""

    __slots__ = ("name", "basis", "coupling_map", "properties", "_key", "_hash")

    def __init__(
        self,
        coupling_map: CouplingMap,
        basis: Iterable[str] = IBM_BASIS,
        properties=None,
        name: str = "custom",
    ):
        if not isinstance(coupling_map, CouplingMap):
            raise TranspilerError(
                f"Target needs a CouplingMap, got {type(coupling_map).__name__}"
            )
        self.name = str(name)
        self.basis = tuple(basis)
        missing = [gate for gate in _REQUIRED_GATES if gate not in self.basis]
        if missing:
            raise TranspilerError(
                f"Target basis {self.basis} lacks {' and '.join(missing)}: "
                "every gate definition unrolls to u3 and cx"
            )
        self.coupling_map = coupling_map
        self.properties = properties
        self._key = (
            self.name,
            self.basis,
            coupling_map.num_qubits,
            frozenset(coupling_map.edges),
            _properties_key(properties),
        )
        self._hash = hash(self._key)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_backend(cls, backend, basis: Iterable[str] = IBM_BASIS) -> "Target":
        """Target of a :class:`~repro.backends.backend.FakeBackend`."""
        return cls(
            backend.coupling_map,
            basis=basis,
            properties=backend.properties,
            name=backend.name,
        )

    @classmethod
    def full(cls, num_qubits: int, basis: Iterable[str] = IBM_BASIS) -> "Target":
        """All-to-all connectivity -- the no-device default."""
        return cls(
            CouplingMap.full(num_qubits), basis=basis, name=f"full:{num_qubits}"
        )

    @classmethod
    def preset(cls, spec: str, basis: Iterable[str] = IBM_BASIS) -> "Target":
        """Resolve a named preset target (see :data:`TARGET_PRESETS`).

        Built once per process for each normalized spec and basis: every
        call with the same pair returns the same shared ``Target`` (its
        coupling map's distance and routing tables included), so treat it,
        its coupling map and its calibration data as immutable.
        """
        name = spec.strip().lower()
        if name.split(":", 1)[0] not in TARGET_PRESETS:
            raise TranspilerError(
                f"unknown target preset {spec!r}; choose one of "
                f"{', '.join(sorted(TARGET_PRESETS))} "
                "(parameterized presets take ':N' / ':RxC' suffixes)"
            )
        return _preset(name, tuple(basis))

    @classmethod
    def coerce(cls, value) -> "Target":
        """Normalize any target-like value into a :class:`Target`.

        Accepts a ``Target`` (returned unchanged), a preset name string, a
        bare :class:`CouplingMap` (IBM basis, no calibration data) or a
        backend object exposing ``coupling_map`` and ``properties``.  Every
        ``target=`` argument goes through here.
        """
        if isinstance(value, Target):
            return value
        if isinstance(value, str):
            return cls.preset(value)
        if isinstance(value, CouplingMap):
            return cls(value)
        if hasattr(value, "coupling_map") and hasattr(value, "properties"):
            return cls.from_backend(value)
        raise TranspilerError(
            f"cannot build a Target from {type(value).__name__}"
        )

    # -- value semantics ---------------------------------------------------

    @property
    def num_qubits(self) -> int:
        return self.coupling_map.num_qubits

    @property
    def label(self) -> str:
        """Short stable identifier used for per-target metric grouping."""
        return f"{self.name}[{self.num_qubits}q]"

    def __eq__(self, other) -> bool:
        return isinstance(other, Target) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (
            f"<Target {self.name!r} ({self.num_qubits} qubits, "
            f"{len(self.coupling_map.edges)} edges, basis={'/'.join(self.basis)})>"
        )

    def __getstate__(self):
        return self.to_payload()

    def __setstate__(self, state):
        rebuilt = Target.from_payload(state)
        for slot in ("name", "basis", "coupling_map", "properties", "_key", "_hash"):
            object.__setattr__(self, slot, getattr(rebuilt, slot))

    # -- compact payloads --------------------------------------------------
    #
    # The service's job envelopes ship one payload per job; workers
    # memoize the rebuilt Target keyed by the (hashable) payload so the
    # coupling map's derived data (distance matrix) is computed once per
    # distinct target per worker, not once per job.

    def to_payload(self) -> tuple:
        """Flatten to a compact, hashable, picklable tuple."""
        properties = None
        if self.properties is not None:
            properties = _properties_key(self.properties)
        return (
            TARGET_PAYLOAD_VERSION,
            self.name,
            self.basis,
            self.num_qubits,
            tuple(sorted(self.coupling_map.edges)),
            properties,
        )

    @classmethod
    def from_payload(cls, payload: tuple) -> "Target":
        """Rebuild the :class:`Target` a payload describes."""
        version, name, basis, num_qubits, edges, props = payload
        if version != TARGET_PAYLOAD_VERSION:
            raise TranspilerError(f"unsupported target payload version {version}")
        properties = None
        if props is not None:
            from repro.backends.backend import BackendProperties

            single, two, readout, d_single, d_two, d_readout = props
            properties = BackendProperties(
                single_qubit_error=dict(single),
                two_qubit_error={tuple(k): v for k, v in two},
                readout_error=dict(readout),
                default_single_qubit_error=d_single,
                default_two_qubit_error=d_two,
                default_readout_error=tuple(d_readout),
            )
        return cls(
            CouplingMap(edges, num_qubits=num_qubits),
            basis=basis,
            properties=properties,
            name=name,
        )


# -- named presets ---------------------------------------------------------


def _reject_suffix(name: str) -> None:
    """Fixed-size presets take no ':N' suffix -- fail loudly, not with a
    silently wrong-sized device."""
    base, _, suffix = name.partition(":")
    if suffix:
        raise TranspilerError(
            f"preset {base!r} has a fixed size; drop the {suffix!r} suffix"
        )


def _device_preset(factory_name: str):
    def build(name: str, basis) -> Target:
        import repro.backends as backends

        _reject_suffix(name)
        return Target.from_backend(getattr(backends, factory_name)(), basis=basis)

    return build


def _int_suffix(name: str, default: int | None = None) -> int:
    _, _, suffix = name.partition(":")
    if not suffix:
        if default is None:
            raise TranspilerError(f"preset {name!r} needs a ':N' size suffix")
        return default
    try:
        return int(suffix)
    except ValueError:
        raise TranspilerError(f"bad size suffix in target preset {name!r}") from None


def _linear(name: str, basis) -> Target:
    n = _int_suffix(name)
    return Target(CouplingMap.line(n), basis=basis, name=f"linear:{n}")


def _ring(name: str, basis) -> Target:
    n = _int_suffix(name)
    return Target(CouplingMap.ring(n), basis=basis, name=f"ring:{n}")


def _full(name: str, basis) -> Target:
    n = _int_suffix(name)
    return Target(CouplingMap.full(n), basis=basis, name=f"full:{n}")


def _grid(name: str, basis) -> Target:
    _, _, suffix = name.partition(":")
    try:
        rows, cols = (int(part) for part in suffix.split("x"))
    except ValueError:
        raise TranspilerError(
            f"grid preset needs a ':RxC' suffix, got {name!r}"
        ) from None
    return Target(CouplingMap.grid(rows, cols), basis=basis, name=f"grid:{rows}x{cols}")


def _manhattan(name: str, basis) -> Target:
    """An ``ibmq_manhattan``-style 65-qubit grid (5 x 13 stand-in)."""
    _reject_suffix(name)
    return Target(CouplingMap.grid(5, 13), basis=basis, name="manhattan")


@functools.lru_cache(maxsize=64)
def _preset(name: str, basis: tuple) -> Target:
    return TARGET_PRESETS[name.split(":", 1)[0]](name, basis)


#: Preset name (before any ``:`` suffix) -> ``factory(full_name, basis)``.
TARGET_PRESETS: dict[str, object] = {
    "melbourne": _device_preset("FakeMelbourne"),
    "almaden": _device_preset("FakeAlmaden"),
    "rochester": _device_preset("FakeRochester"),
    "manhattan": _manhattan,
    "linear": _linear,
    "ring": _ring,
    "grid": _grid,
    "full": _full,
}


def normalize_batch(batch: Sequence, targets, seeds) -> tuple[list, list]:
    """Per-circuit target and seed lists from single-or-sequence arguments.

    The one normalization every batch front applies -- ``transpile()``,
    :meth:`CompileService.map
    <repro.transpiler.service.CompileService.map>` and the remote client
    (:mod:`repro.server`) -- so mismatched lengths fail
    with the same error everywhere.
    """
    per_circuit = []
    for kind, value in (("targets", targets), ("seeds", seeds)):
        if isinstance(value, (list, tuple)):
            if len(value) != len(batch):
                raise TranspilerError(
                    f"got {len(value)} {kind} for {len(batch)} circuits"
                )
            per_circuit.append(list(value))
        else:
            per_circuit.append([value] * len(batch))
    return per_circuit[0], per_circuit[1]
