"""repro: a from-scratch reproduction of *Relaxed Peephole Optimization:
A Novel Compiler Optimization for Quantum Circuits* (CGO 2021).

Top-level convenience re-exports; see the subpackages for the full API:

* :mod:`repro.circuit` -- circuit IR,
* :mod:`repro.gates` -- gate library (including SWAPZ and ANNOT),
* :mod:`repro.linalg` -- Euler/Weyl decompositions and synthesis,
* :mod:`repro.simulators` -- ideal and noisy simulation,
* :mod:`repro.transpiler` -- pass framework and preset levels 0-3,
* :mod:`repro.server` -- the networked compile server (HTTP server and
  remote client; ``python -m repro.server``),
* :mod:`repro.rpo` -- the paper's QBO/QPO passes and pipelines,
* :mod:`repro.backends` -- the three fake IBM devices,
* :mod:`repro.algorithms` -- the benchmark workloads.
"""

from repro.circuit import QuantumCircuit
from repro.transpiler import CompileService, Target, transpile

__version__ = "1.0.0"

__all__ = [
    "QuantumCircuit",
    "CompileService",
    "Target",
    "transpile",
    "__version__",
]
