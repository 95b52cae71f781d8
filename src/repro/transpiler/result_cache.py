"""Content-addressed compiled-result cache: compile once, serve millions.

The :class:`~repro.transpiler.cache.AnalysisCache` memoizes *analysis*;
this module memoizes the *answer*.  A :class:`ResultCache` maps

    (circuit content fingerprint, Target payload, options key)

to the full compiled-result payload (circuit + per-pass metrics + loop
metrics + wall time + properties), so a :class:`CompileService` serving
production traffic answers a repeated request without a single job
reaching its pool.  Keys are SHA-256 digests of the canonical tuple forms
(:func:`repro.circuit.serialization.payload_fingerprints`,
:meth:`Target.to_payload`, the job's pipeline/level/seed triple).

**Template entries** are the headline lever for near-duplicate traffic.
Millions of VQE iterations submit the *same ansatz with different bound
rotation angles*; the template fingerprint canonicalizes those angles out
of the structural key, so every iteration lands on one template entry.
Serving from a template requires knowing how the *output* angles depend
on the *input* angles, which the cache **learns from observation** rather
than assuming: the first compile of a template records the input/output
pair; a later compile in which **every** rotation angle differs from
the first sample yields a usable second pair (pairs that move only some
inputs are deferred -- an unmoved input cannot be implicated, so
learning from such a pair would bake its value into the map; the
global-phase input alone may stay tied, which pins template serves to
that phase), and the
two samples are solved per output slot for a relation of the form
``out = s * theta[i] + c`` with ``s`` drawn from a small discrete set
(+-1, +-1/2, +-2 -- the scales the standard decompositions produce).  A
slot that fits no single-input relation (an Euler merge mixing several
angles, an angle-dependent rewrite branch) marks the template
*unbindable* and traffic falls back to exact-key caching; a template
whose every slot resolves is *ready*, and from the third variant on the
cache answers by re-binding parameters on the cached result -- no pool
job, no pipeline, just a payload rewrite.  The derived map is verified
against the second sample before it is trusted.

Operational properties, matching the rest of the codebase's caches:

* **TTL + LRU eviction** -- ``ttl`` seconds per entry (``None`` = no
  expiry) and ``max_entries`` / ``max_templates`` LRU bounds, so a
  long-lived farm cache cannot grow or staleness without limit.
* **thread-safe stats** -- every counter mutates under the cache lock;
  ``stats()`` returns a JSON-ready dict the service and the compile
  server's ``/metrics`` expose verbatim.
* **versioned snapshots** -- :meth:`save` / :meth:`load_snapshot` persist
  the cache across restarts, stamped with :func:`library_fingerprint` and
  rejected (observably, never fatally) when written by a different build.
"""

from __future__ import annotations

import cmath
import hashlib
import math
import os
import pickle
import threading
import time
import warnings
from collections import Counter, OrderedDict

import numpy as np

from repro.circuit.serialization import (
    payload_fingerprints,
    payload_param_slots,
    payload_rebind,
)
from repro.utils.angles import normalize_angle

__all__ = [
    "ResultCache",
    "RESULT_SNAPSHOT_VERSION",
    "library_fingerprint",
]

#: Version tag of the persisted result-snapshot wire format.  Version 1
#: files sat beside an analysis-cache snapshot; any file found at a
#: service's ``snapshot_path`` from that era is rejected, not adopted.
RESULT_SNAPSHOT_VERSION = 2


def library_fingerprint() -> str:
    """Version stamp written into persisted result snapshots.

    Combines the package version with the snapshot wire-format version:
    a snapshot written by any other combination is rejected on import,
    because cached results may not match what the current code would
    compile.
    """
    import repro

    return f"repro-{repro.__version__}/snapshot-{RESULT_SNAPSHOT_VERSION}"

#: Scales tried when attributing an output angle to one input angle.
#: Discrete on purpose: two observation samples determine an arbitrary
#: linear relation exactly (zero residual, pure overfit), but for a fixed
#: scale the two samples must agree on the offset -- one real constraint.
_REBIND_SCALES = (1.0, -1.0, 0.5, -0.5, 2.0, -2.0)

#: Residual tolerance for relation fits and map verification.  Output
#: angles pass through trig/atan2, so exact float equality is too strict;
#: 1e-9 matches the library-wide angle tolerance.
_REBIND_TOL = 1e-9

_TWO_PI = 2.0 * math.pi

#: Serve-time margin around Euler-emission branch boundaries.  A re-bound
#: ``u3`` whose angle lands this close to a boundary (where a fresh
#: compile would emit ``u1``/``u2`` or take the anti-diagonal branch) is
#: refused -- the request falls through to a real compile.
_BRANCH_MARGIN = 1e-6


class _Unservable(Exception):
    """A learned relation declining to serve one parameter point."""


def _digest(key) -> str:
    """Compact stable address of a canonical key tuple."""
    return hashlib.sha256(
        pickle.dumps(key, protocol=pickle.HIGHEST_PROTOCOL)
    ).hexdigest()


def _mod_close(a: float, b: float, tol: float = _REBIND_TOL) -> bool:
    diff = (a - b) % _TWO_PI
    return diff < tol or _TWO_PI - diff < tol


def _slot_periodic(cls: str, offset: int) -> bool:
    """Whether a gate's angle slot is 2*pi-periodic (mod-2*pi fits OK).

    Diagonal-phase gates and the ``phi``/``lam`` Euler angles enter their
    matrices only as ``exp(i*angle)``; rotation angles (``theta`` slots,
    RX/RY/RZ and friends) are 4*pi-periodic in SU(2) and must match
    exactly.
    """
    if cls in ("U1Gate", "CPhaseGate", "MCU1Gate", "U2Gate"):
        return True
    if cls in ("U3Gate", "CU3Gate"):
        return offset > 0  # theta exact; phi/lam periodic
    return False


def _fit_slot(a: float, b: float, params0, params1, periodic: bool):
    """One output slot's relation from two samples, or ``None``.

    ``("const", v)`` when the slot did not move; ``("lin", i, s, c)`` for
    an exact affine dependence ``out = s * theta[i] + c`` on exactly one
    input; ``("lin2pi", i, s, c)`` when the dependence holds modulo
    2*pi (wrapped phase accumulation -- only for periodic slots).  More
    than one input fitting is ambiguity, and ambiguity is failure: a
    relation that merely *might* be right must not serve traffic.
    """
    if abs(a - b) < _REBIND_TOL:
        return ("const", a)
    candidates = []
    for i, (t0, t1) in enumerate(zip(params0, params1)):
        if abs(t0 - t1) < _REBIND_TOL:
            continue  # this input did not move; it cannot explain a != b
        for scale in _REBIND_SCALES:
            if abs((a - scale * t0) - (b - scale * t1)) < _REBIND_TOL:
                candidates.append(("lin", i, scale, a - scale * t0))
                break
            if periodic and _mod_close(a - scale * t0, b - scale * t1):
                candidates.append(("lin2pi", i, scale, a - scale * t0))
                break
    if len(candidates) != 1:
        return None
    return candidates[0]


def _fit_u3conj(avals, bvals, params0, params1):
    """Gate-level relation for one Euler-merged ``u3``: learn the
    rotation the merged run applies as a function of one input angle.

    Per-slot fits fail on merged runs because the optimizer's Euler
    extraction (:func:`repro.linalg.euler.u3_params_from_unitary`) folds
    ``theta`` into ``[0, pi]`` and branch-shifts ``phi``/``lam`` by pi --
    piecewise behaviour no affine slot relation captures.  The fix is to
    model the *matrix*: if the run is ``A . P(s*theta + c) . B`` for
    fixed unitaries A, B and a single-angle rotation generator, then

        G(t1) . G(t0)^dag = A . P(s * (t1 - t0)) . A^dag

    -- the constants cancel, and the two cached sample gates determine
    the one-parameter rotation group through them (eigenprojectors +
    per-eigenvector phase interpolation).  Re-binding evaluates the group
    at the new angle and re-runs the *same* Euler extraction the
    optimizer uses, so every fold and branch shift is reproduced rather
    than modelled.

    Returns ``("u3conj", i, s, t0, delta, phi1, phi2, Q1, Q2, G0)`` or
    ``None`` (no single input explains the motion, or the rotation is a
    half-turn, whose axis direction two samples cannot orient).
    """
    from repro.linalg.euler import u3_matrix

    g0 = u3_matrix(avals[0], avals[1], avals[2])
    g1 = u3_matrix(bvals[0], bvals[1], bvals[2])
    w = g1 @ g0.conj().T
    trace = w[0, 0] + w[1, 1]
    det = w[0, 0] * w[1, 1] - w[0, 1] * w[1, 0]
    disc = (trace * trace - 4.0 * det) ** 0.5
    w1 = (trace + disc) / 2.0
    w2 = (trace - disc) / 2.0
    if abs(w1 - w2) < 1e-6:
        return None  # (near-)degenerate rotation: no axis to learn
    identity = np.eye(2, dtype=complex)
    q1 = (w - w2 * identity) / (w1 - w2)
    q2 = identity - q1
    p1 = cmath.phase(w1)
    p2 = cmath.phase(w2)
    candidates = []
    for i, (t0, t1) in enumerate(zip(params0, params1)):
        delta = t1 - t0
        if abs(delta) < _REBIND_TOL:
            continue
        for scale in _REBIND_SCALES:
            x = scale * delta
            if abs(cmath.exp(2j * x) - 1.0) < _REBIND_TOL:
                continue  # half/full turn: direction unidentifiable
            for lead, lead_q, trail_p, trail_q in (
                (p1, q1, p2, q2),
                (p2, q2, p1, q1),
            ):
                if abs(cmath.exp(1j * (lead + x)) - cmath.exp(1j * trail_p)) < 1e-9:
                    candidates.append(
                        ("u3conj", i, scale, t0, delta,
                         lead, lead + x, lead_q, trail_q, g0)
                    )
    # the swap symmetry (i, s, order) <-> (i, -s, swapped order) yields
    # the same gate-level model twice (they differ only in an unphysical
    # phase drift); collapse it before judging ambiguity
    distinct = {(rel[1], abs(rel[2])) for rel in candidates}
    if len(distinct) != 1:
        return None
    return candidates[0]


def _apply_u3conj(relation, params, guard: bool):
    """``((theta, phi, lam), gamma)`` of one re-bound merged ``u3``."""
    from repro.linalg.euler import u3_params_from_unitary

    _, slot, _scale, t0, delta, phi1, phi2, q1, q2, g0 = relation
    u = (params[slot] - t0) / delta
    w = cmath.exp(1j * phi1 * u) * q1 + cmath.exp(1j * phi2 * u) * q2
    theta, phi, lam, gamma = u3_params_from_unitary(w @ g0)
    if guard and (
        theta < _BRANCH_MARGIN
        or theta > math.pi - _BRANCH_MARGIN
        or abs(theta - math.pi / 2) < _BRANCH_MARGIN
    ):
        # a fresh compile near these boundaries emits a different gate
        # (u1/u2/anti-diagonal u3); declining the serve keeps template
        # hits structurally faithful
        raise _Unservable
    return (theta, phi, lam), gamma


def _derive_map(params0, result0, params1, result1):
    """Gate-level re-binding relations learned from two samples.

    ``params*`` are the input angle vectors (phase last), ``result*`` the
    corresponding compiled circuit payloads.  Returns a tuple of
    relations (one per output *gate* slot group, plus a trailing
    ``("phase", ...)`` -- or, when the samples' global-phase inputs are
    tied, ``("phasepin", ...)`` -- entry), or ``None`` when the two
    outputs differ
    structurally or some gate cannot be attributed.  The returned map is
    verified to reproduce sample 1 before it is trusted.
    """
    f0 = payload_fingerprints(result0)
    f1 = payload_fingerprints(result1)
    if f0 is None or f1 is None or f0[1] != f1[1]:
        return None  # structurally different outputs: not rebindable
    out0, out1 = f0[2], f1[2]
    groups = payload_param_slots(result0)
    if groups is None:
        return None
    relations = []
    has_matrix = False
    for cls, start, count in groups:
        avals = out0[start : start + count]
        bvals = out1[start : start + count]
        if cls == "U3Gate" and count == 3:
            # Euler-extraction outputs: per-slot affine fits are unsound
            # here even when two samples satisfy one (both may sit on the
            # same fold branch; a third point crosses it).  Either the
            # gate did not move at all, or it gets the matrix model.
            if all(abs(a - b) < _REBIND_TOL for a, b in zip(avals, bvals)):
                relations.extend(("const", a) for a in avals)
                continue
            relation = _fit_u3conj(avals, bvals, params0, params1)
            if relation is None:
                return None
            relations.append(relation)
            has_matrix = True
            continue
        slot_relations = []
        for offset in range(count):
            relation = _fit_slot(
                avals[offset], bvals[offset],
                params0, params1,
                _slot_periodic(cls, offset),
            )
            if relation is None:
                slot_relations = None
                break
            slot_relations.append(relation)
        if slot_relations is None:
            return None  # mixed or ambiguous dependence: stay exact-only
        relations.extend(slot_relations)
    # the trailing global-phase slot
    sub = _fit_slot(out0[-1], out1[-1], params0, params1, False)
    if sub is None and has_matrix:
        # Euler folds move pi in and out of the global phase; the
        # emission phases of the re-bound gates are the best available
        # estimate, and global phase is physically unobservable anyway
        sub = ("gamma", out0[-1])
    if sub is None:
        return None
    if abs(params0[-1] - params1[-1]) < _REBIND_TOL:
        # the global-phase input did not move between the samples, so no
        # learned relation can account for it; pin serves to the observed
        # phase value -- a request with a different input phase declines
        # the template and gets a real compile instead of a phase baked
        # in from the samples
        relations.append(("phasepin", params0[-1], sub))
    else:
        relations.append(("phase", sub))
    if not _verify_map(relations, params1, out1):
        return None
    return tuple(relations)


def _apply_map(relations, params, guard: bool = True):
    """``(values, modes)`` for ``params`` under learned ``relations``.

    ``values`` is the flat output vector :func:`payload_rebind` expects
    (phase last); ``modes`` tags each value with how faithful it is --
    ``"exact"`` (bit-level, up to float noise), ``"mod"`` (exact modulo
    2*pi) or ``"free"`` (best effort; only ever the global phase).
    """
    values: list[float] = []
    modes: list[str] = []
    gamma_total = 0.0
    for relation in relations:
        kind = relation[0]
        if kind == "const":
            values.append(relation[1])
            modes.append("exact")
        elif kind == "lin":
            _, slot, scale, offset = relation
            values.append(scale * params[slot] + offset)
            modes.append("exact")
        elif kind == "lin2pi":
            _, slot, scale, offset = relation
            values.append(normalize_angle(scale * params[slot] + offset))
            modes.append("mod")
        elif kind == "u3conj":
            triple, gamma = _apply_u3conj(relation, params, guard)
            values.extend(triple)
            modes.extend(("exact", "mod", "mod"))
            gamma_total += gamma
        else:  # ("phase", sub) or ("phasepin", pin, sub)
            if kind == "phasepin":
                if guard and abs(params[-1] - relation[1]) > _REBIND_TOL:
                    # learned under a tied phase input; only requests
                    # sharing that phase can be served faithfully
                    raise _Unservable
                sub = relation[2]
            else:
                sub = relation[1]
            if sub[0] == "const":
                values.append(sub[1])
                modes.append("exact")
            elif sub[0] == "lin":
                _, slot, scale, offset = sub
                values.append(scale * params[slot] + offset)
                modes.append("exact")
            else:  # ("gamma", base)
                values.append(sub[1] + gamma_total)
                modes.append("free")
    return values, modes


def _verify_map(relations, params1, out1) -> bool:
    """The learned map must reproduce sample 1 before it is trusted."""
    try:
        values, modes = _apply_map(relations, params1, guard=False)
    except Exception:  # pragma: no cover - defensive
        return False
    if len(values) != len(out1):
        return False
    for predicted, observed, mode in zip(values, out1, modes):
        if mode == "free":
            continue
        if mode == "mod":
            if not _mod_close(predicted, observed):
                return False
        elif abs(predicted - observed) > _REBIND_TOL:
            return False
    return True


def _copy_payload(result):
    """An isolated deep copy of one result payload.

    Result payloads carry mutable pieces -- the metrics and loops lists
    (PassMetrics objects) and nested property values -- so both the store
    and the serve sides must sever aliasing: the entry must not share
    state with whatever object the producer keeps, nor with any result
    handed to a caller.  Payloads are picklable by construction (they
    travel the pool and wire boundaries), so a pickle round-trip is the
    cheapest faithful deep copy.
    """
    return pickle.loads(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))


def _served(result, name):
    """A caller-safe copy of a cached result payload, re-labelled.

    Content addressing ignores circuit names, so the cached compile may
    have been stored under a different label; the serve patches the
    requester's name back in (slot 1 of the circuit payload), exactly
    what a fresh compile of their circuit would have carried.  The whole
    payload is deep-copied (:func:`_copy_payload`) so callers mutating
    their result -- metrics, loops, nested property values -- cannot
    corrupt the cached entry served to everyone after them.
    """
    circuit_payload, metrics, loops, elapsed, props = _copy_payload(result)
    patched = (circuit_payload[0], name) + tuple(circuit_payload[2:])
    return (patched, metrics, loops, elapsed, props)


class _Entry:
    """One exact-key entry: the result payload plus its expiry stamp."""

    __slots__ = ("result", "expires")

    def __init__(self, result, expires):
        self.result = result
        self.expires = expires


class _Template:
    """One template entry and its learning state.

    ``relations is None`` and not ``unbindable``: one sample seen, waiting
    for a second to learn from.  ``relations`` set: ready, serving by
    re-binding.  ``unbindable``: observation showed output angles mix or
    branch on inputs; exact-key caching only.
    """

    __slots__ = ("params", "result", "relations", "unbindable", "expires")

    def __init__(self, params, result, expires):
        self.params = params
        self.result = result
        self.relations = None
        self.unbindable = False
        self.expires = expires


class ResultCache:
    """Thread-safe content-addressed cache of compiled-result payloads."""

    def __init__(
        self,
        max_entries: int = 4096,
        ttl: float | None = None,
        max_templates: int = 512,
    ):
        """Args:
            max_entries: LRU bound on exact-key entries.
            ttl: seconds an entry stays servable (``None`` = forever).
                Measured against the wall clock so persisted snapshots
                age across restarts too.
            max_templates: LRU bound on template entries.
        """
        self.max_entries = int(max_entries)
        self.ttl = float(ttl) if ttl is not None else None
        self.max_templates = int(max_templates)
        self._entries: OrderedDict[str, _Entry] = OrderedDict()
        self._templates: OrderedDict[str, _Template] = OrderedDict()
        self._lock = threading.RLock()
        self._stats: Counter = Counter()
        #: why the most recent snapshot load was rejected (``None`` when
        #: nothing was rejected), so an operator can tell why a restart
        #: came up cold
        self.snapshot_skipped: str | None = None

    # -- addressing ---------------------------------------------------------

    def address(self, circuit_payload, target_payload, options_key):
        """``(exact_digest, template_digest, params)`` for one job.

        Returns ``None`` for jobs that cannot be content-addressed
        (circuits carrying operations with no canonical content form).
        """
        keys = payload_fingerprints(circuit_payload)
        if keys is None:
            return None
        exact_key, template_key, params = keys
        exact = _digest((exact_key, target_payload, options_key))
        template = _digest(("template", template_key, target_payload, options_key))
        return exact, template, params

    # -- expiry / eviction (call with the lock held) ------------------------

    def _expires(self) -> float | None:
        return time.time() + self.ttl if self.ttl is not None else None

    def _live(self, table: OrderedDict, digest: str):
        """The entry under ``digest`` if present and unexpired, else None."""
        entry = table.get(digest)
        if entry is None:
            return None
        if entry.expires is not None and entry.expires <= time.time():
            del table[digest]
            self._stats["evictions_ttl"] += 1
            return None
        table.move_to_end(digest)
        return entry

    def _insert(self, table: OrderedDict, digest: str, entry, limit: int) -> None:
        table[digest] = entry
        table.move_to_end(digest)
        while len(table) > limit:
            table.popitem(last=False)
            self._stats["evictions_lru"] += 1

    # -- the cache surface --------------------------------------------------

    def lookup(self, circuit_payload, target_payload, options_key):
        """``(result_payload, kind)`` for a job, or ``None`` on a miss.

        ``kind`` is ``"hit"`` (exact entry) or ``"template"`` (the payload
        was re-bound from a learned template).  An exact entry that was
        *stored* from a real compile is bit-identical to what that compile
        produced.  A template serve -- and the exact entry it is promoted
        into, which replays it bit-identically -- matches a fresh compile
        to re-binding arithmetic (~1e-12) in its angles, with one caveat:
        the serve-time guard (``_BRANCH_MARGIN``) only covers the ``u3``
        Euler-emission boundaries, so a re-bound angle landing on some
        *other* pipeline branch point (e.g. a rotation re-bound to 0 that
        a fresh compile's optimizer would eliminate or merge) yields a
        circuit that is unitarily equivalent but structurally different
        from what a fresh compile would emit.  Template serves also carry
        the template compile's per-pass metrics and wall time, not those
        of the compile they replace.
        """
        address = self.address(circuit_payload, target_payload, options_key)
        if address is None:
            with self._lock:
                self._stats["uncacheable"] += 1
            return None
        exact, template, params = address
        with self._lock:
            entry = self._live(self._entries, exact)
            if entry is not None:
                self._stats["hits"] += 1
                return _served(entry.result, circuit_payload[1]), "hit"
            tentry = self._live(self._templates, template)
            if tentry is not None and tentry.relations is not None:
                rebound = self._rebind(tentry, params)
                if rebound is not None:
                    self._stats["template_hits"] += 1
                    # promote the rebound result to a first-class exact
                    # entry: repeat requests skip the re-binding math.
                    # the promoted entry keeps template fidelity (see the
                    # lookup docstring), it does not become bit-identical
                    # to a fresh compile by promotion
                    self._insert(
                        self._entries,
                        exact,
                        _Entry(rebound, self._expires()),
                        self.max_entries,
                    )
                    return _served(rebound, circuit_payload[1]), "template"
            self._stats["misses"] += 1
            return None

    def _rebind(self, tentry: _Template, params) -> tuple | None:
        """A fresh result payload with ``params`` bound onto the template."""
        if len(params) != len(tentry.params):
            return None  # same structure but different angle count: never
        circuit_payload, metrics, loops, elapsed, props = tentry.result
        try:
            values, _modes = _apply_map(tentry.relations, params)
        except _Unservable:
            # near an emission-branch boundary: this one point is served
            # by a real compile, but the template itself stays good
            return None
        except Exception:  # pragma: no cover - defensive
            tentry.unbindable = True
            tentry.relations = None
            self._stats["template_unbindable"] += 1
            return None
        try:
            rebound_circuit = payload_rebind(circuit_payload, values)
        except Exception:  # pragma: no cover - map/payload disagreement
            tentry.unbindable = True
            tentry.relations = None
            self._stats["template_unbindable"] += 1
            return None
        return (rebound_circuit, metrics, loops, elapsed, dict(props))

    def store(self, circuit_payload, target_payload, options_key, result_payload):
        """Adopt one compiled result; feeds both exact and template entries.

        The first store of a template records the sample; the first later
        store whose angles *all* differ from that sample triggers map
        learning (partially-varied pairs are deferred, see the module
        docstring); further stores just refresh the exact entry.
        Idempotent and safe under concurrent duplicate stores -- last
        writer wins on equal content.  The payload is deep-copied on the
        way in, so the caller keeping (and mutating) its own reference
        cannot corrupt the entry.
        """
        address = self.address(circuit_payload, target_payload, options_key)
        if address is None:
            return
        exact, template, params = address
        # copied outside the lock: the producer (compile_job, _finish_chunk)
        # hands the same live metrics/properties objects to its caller
        result_payload = _copy_payload(result_payload)
        with self._lock:
            expires = self._expires()
            self._insert(
                self._entries, exact, _Entry(result_payload, expires), self.max_entries
            )
            self._stats["stores"] += 1
            if not params:
                return
            tentry = self._live(self._templates, template)
            if tentry is None:
                self._insert(
                    self._templates,
                    template,
                    _Template(params, result_payload, expires),
                    self.max_templates,
                )
                return
            tentry.expires = expires
            if tentry.unbindable or tentry.relations is not None:
                return
            if len(params) != len(tentry.params) or not all(
                abs(p0 - p1) > _REBIND_TOL
                for p0, p1 in zip(tentry.params[:-1], params[:-1])
            ):
                # a pair that moves only *some* inputs cannot implicate the
                # unmoved ones: _fit_slot would skip them and learn any
                # output they drive as a constant, and verification against
                # sample 1 (where they are equally unmoved) could not catch
                # it -- coordinate-descent traffic would then be served the
                # baked-in value.  Defer: keep the first sample and wait
                # for a pair in which every rotation slot differs.  (The
                # trailing global-phase input is exempt -- it is 0 in
                # virtually all traffic, so requiring it to move would
                # stop learning outright; a tied phase instead *pins*
                # template serves to that phase value, see _derive_map.)
                self._stats["template_deferred"] += 1
                return
            try:
                relations = _derive_map(
                    tentry.params, tentry.result[0], params, result_payload[0]
                )
            except Exception:  # noqa: BLE001 - malformed payloads: no template
                relations = None
            if relations is not None:  # _derive_map self-verifies vs sample 1
                tentry.relations = relations
                self._stats["template_learned"] += 1
            else:
                tentry.unbindable = True
                self._stats["template_unbindable"] += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._templates.clear()

    # -- introspection ------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        """JSON-ready counters (hits/misses/evictions/template states)."""
        with self._lock:
            ready = sum(
                1 for t in self._templates.values() if t.relations is not None
            )
            return {
                "entries": len(self._entries),
                "templates": len(self._templates),
                "templates_ready": ready,
                "max_entries": self.max_entries,
                "ttl": self.ttl,
                "hits": self._stats["hits"],
                "misses": self._stats["misses"],
                "template_hits": self._stats["template_hits"],
                "template_learned": self._stats["template_learned"],
                "template_deferred": self._stats["template_deferred"],
                "template_unbindable": self._stats["template_unbindable"],
                "stores": self._stats["stores"],
                "uncacheable": self._stats["uncacheable"],
                "evictions_lru": self._stats["evictions_lru"],
                "evictions_ttl": self._stats["evictions_ttl"],
            }

    # -- snapshots ----------------------------------------------------------

    def export_snapshot(self) -> dict:
        """A picklable snapshot of every live entry (stats excluded)."""
        now = time.time()
        with self._lock:
            entries = [
                (digest, entry.result, entry.expires)
                for digest, entry in self._entries.items()
                if entry.expires is None or entry.expires > now
            ]
            templates = [
                (
                    digest,
                    tentry.params,
                    tentry.result,
                    tentry.relations,
                    tentry.unbindable,
                    tentry.expires,
                )
                for digest, tentry in self._templates.items()
                if tentry.expires is None or tentry.expires > now
            ]
        return {
            "version": RESULT_SNAPSHOT_VERSION,
            "library": library_fingerprint(),
            "entries": entries,
            "templates": templates,
        }

    def import_snapshot(self, snapshot: dict) -> int:
        """Merge a snapshot; returns entries adopted (0 on rejection).

        Wrong shape, wrong format version or a foreign library
        fingerprint are observable no-ops (``snapshot_skipped``, a
        :class:`RuntimeWarning` naming the reason and the
        ``snapshot_rejected`` counter), never errors: a service must always
        be able to boot, cold at worst.  Existing entries win; expired
        entries are dropped on the way in.
        """
        if not isinstance(snapshot, dict):
            return self._reject(
                f"not a result snapshot mapping (got {type(snapshot).__name__})"
            )
        if snapshot.get("version") != RESULT_SNAPSHOT_VERSION:
            return self._reject(
                f"result snapshot format version {snapshot.get('version')!r} "
                f"!= this build's {RESULT_SNAPSHOT_VERSION!r}"
            )
        stamp = snapshot.get("library")
        if stamp is not None and stamp != library_fingerprint():
            return self._reject(
                f"result snapshot written by {stamp!r}, this build is "
                f"{library_fingerprint()!r}"
            )
        now = time.time()
        adopted = 0
        with self._lock:
            for digest, result, expires in snapshot.get("entries", []):
                if expires is not None and expires <= now:
                    continue
                if digest in self._entries:
                    continue
                self._insert(
                    self._entries, digest, _Entry(result, expires), self.max_entries
                )
                adopted += 1
            for digest, params, result, relations, unbindable, expires in (
                snapshot.get("templates", [])
            ):
                if expires is not None and expires <= now:
                    continue
                if digest in self._templates:
                    continue
                tentry = _Template(params, result, expires)
                tentry.relations = relations
                tentry.unbindable = unbindable
                self._insert(self._templates, digest, tentry, self.max_templates)
            self._stats["snapshot_imports"] += 1
            self._stats["snapshot_entries_adopted"] += adopted
        return adopted

    def _reject(self, reason: str) -> int:
        with self._lock:
            self._stats["snapshot_rejected"] += 1
        self.snapshot_skipped = reason
        warnings.warn(
            f"ignoring result-cache snapshot: {reason}; starting cold",
            RuntimeWarning,
            stacklevel=3,
        )
        return 0

    def save(self, path) -> None:
        """Persist atomically (tmp + rename), so a crash mid-save -- or a
        reader racing an autosave -- never sees a truncated snapshot."""
        snapshot = self.export_snapshot()
        tmp_path = f"{path}.tmp.{os.getpid()}"
        with open(tmp_path, "wb") as handle:
            pickle.dump(snapshot, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp_path, path)

    def load_snapshot(self, path) -> int:
        """Merge a persisted snapshot; returns entries adopted.

        A missing file is the expected first boot and stays quiet; an
        unreadable, malformed or foreign one is rejected through
        :meth:`import_snapshot`'s warning path and adopts nothing.
        """
        try:
            with open(path, "rb") as handle:
                snapshot = pickle.load(handle)
        except FileNotFoundError:
            return 0
        except Exception as exc:
            return self._reject(
                f"could not read result snapshot {str(path)!r} "
                f"({type(exc).__name__}: {exc})"
            )
        return self.import_snapshot(snapshot)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            return (
                f"<ResultCache entries={len(self._entries)} "
                f"templates={len(self._templates)} "
                f"hits={self._stats['hits']} "
                f"template_hits={self._stats['template_hits']}>"
            )
