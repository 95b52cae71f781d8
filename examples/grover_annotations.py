#!/usr/bin/env python3
"""Annotations on clean ancillas (paper Sec. VIII-C / Fig. 7 / Table III).

Grover with the V-chain multi-controlled design reuses *clean* ancillas
every iteration.  After the first oracle the analysis conservatively loses
track of them (multi-qubit gates send states to TOP, Sec. VI), so RPO
stops finding rewrites.  ``ANNOT(0, 0)`` promises restore the knowledge and
keep the per-iteration savings coming.
"""

from repro.algorithms import grover_circuit
from repro.backends import FakeMelbourne
from repro.rpo import rpo_pass_manager
from repro.transpiler import level_3_pass_manager
from repro.transpiler.passmanager import PropertySet


def main():
    backend = FakeMelbourne()
    num_qubits = 6

    def transpile(circuit, factory):
        pm = factory(backend, seed=0)
        return pm.run(circuit.copy(), PropertySet()).count_ops().get("cx", 0)

    print(f"{num_qubits}-qubit Grover, V-chain oracle design\n")
    print("iters  level3   RPO   RPO+annot")
    for iterations in (1, 2, 3, 4):
        plain = grover_circuit(num_qubits, iterations=iterations, design="vchain")
        annotated = grover_circuit(
            num_qubits, iterations=iterations, design="vchain", annotate=True
        )
        level3 = transpile(plain, level_3_pass_manager)
        rpo = transpile(plain, rpo_pass_manager)
        rpo_annot = transpile(annotated, rpo_pass_manager)
        print(f"{iterations:5d}  {level3:6d}  {rpo:4d}  {rpo_annot:9d}")

    print(
        "\nWithout annotations the RPO savings saturate after the first\n"
        "iteration; annotations keep the clean-ancilla knowledge alive."
    )


if __name__ == "__main__":
    main()
