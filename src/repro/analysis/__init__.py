"""Static and dynamic program analysis for the repro toolchain.

Two tools live here:

* :mod:`repro.analysis.qsan` -- **QSAN**, the translation-validation
  sanitizer: an opt-in :class:`~repro.transpiler.passmanager.PassManager`
  mode that checks, after every transformation pass, that the rewrite
  preserved the circuit's semantics under the pass's declared equivalence
  contract, and after every analysis pass that the circuit is unchanged.
* :mod:`repro.analysis.lint` -- **repro-lint**, an AST-based linter
  enforcing repo-specific invariants ruff cannot (pickle-boundary
  safety, deterministic fingerprints, locked module state, checked
  circuit records).  Run it as
  ``python -m repro.analysis.lint src/``.
"""

from repro.analysis.qsan import ContractViolation, QsanConfig, QsanValidator

__all__ = ["ContractViolation", "QsanConfig", "QsanValidator"]
