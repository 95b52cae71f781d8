"""Non-unitary instructions and compiler directives.

``Annotation`` is the paper's ``ANNOT(theta, phi)`` (Sec. VI-C): a promise
from the programmer that a qubit is in the pure state ``|psi(theta, phi)>``
at that point.  It is a *directive*: simulators and hardware ignore it, but
the state-analysis passes consume it to re-enter tracked states (e.g. clean
``|0>`` ancillas after an uncomputation, Fig. 7).
"""

from __future__ import annotations

import math

from repro.circuit.instruction import Instruction

__all__ = ["Measure", "Reset", "Barrier", "Annotation"]


class Measure(Instruction):
    """Computational-basis measurement into one classical bit."""

    def __init__(self):
        super().__init__("measure", 1, num_clbits=1)

    def inverse(self):
        raise ValueError("measurement is not invertible")


class Reset(Instruction):
    """Reset a qubit to ``|0>`` (paper Sec. II-A / Fig. 5 RESET edge)."""

    def __init__(self):
        super().__init__("reset", 1)

    def inverse(self):
        raise ValueError("reset is not invertible")


class Barrier(Instruction):
    """Optimization barrier across the given qubits."""

    def __init__(self, num_qubits: int):
        super().__init__("barrier", num_qubits)

    @property
    def is_directive(self) -> bool:
        return True

    def inverse(self):
        return Barrier(self.num_qubits)


class Annotation(Instruction):
    """State annotation ``ANNOT(theta, phi)`` (paper Sec. VI-C).

    Parameters are the Bloch angles of the promised single-qubit pure state
    ``cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>``.  ``ANNOT(0, 0)``
    promises a clean ``|0>`` ancilla.  Both angles must be finite.
    """

    def __init__(self, theta: float, phi: float):
        theta, phi = float(theta), float(phi)
        for name, value in (("theta", theta), ("phi", phi)):
            if not math.isfinite(value):
                raise ValueError(f"annotation {name} must be finite, got {value!r}")
        super().__init__("annot", 1, params=[theta, phi])

    @property
    def is_directive(self) -> bool:
        return True

    def inverse(self):
        # Inverting a circuit invalidates forward-looking promises; the
        # safest inverse is to drop the promise, which a directive with the
        # same wires but no effect accomplishes.  We keep the annotation so
        # round-trips preserve structure; state trackers treat it the same.
        return Annotation(*self.params)

    @property
    def theta(self) -> float:
        return self.params[0]

    @property
    def phi(self) -> float:
        return self.params[1]

    def is_zero_state(self, atol: float = 1e-9) -> bool:
        return abs(self.theta) < atol and abs(self.phi) < atol
