#!/usr/bin/env python3
"""The paper's Fig. 10 case study: boolean vs phase oracles.

The Bernstein-Vazirani boolean oracle flips an ancilla prepared in ``|->``
through one CNOT per secret bit.  QBO statically knows the ancilla state,
so Table I's ``|->``-target rule turns every oracle CNOT into a Z gate --
producing exactly the hand-optimized phase-oracle design.  Standard
unitary-preserving optimization (level 3) cannot do this.
"""

from repro import transpile
from repro.algorithms import bernstein_vazirani_boolean, bernstein_vazirani_phase
from repro.backends import FakeMelbourne
from repro.simulators import StatevectorSimulator


def main():
    secret = 0b101101
    num_qubits = 6
    backend = FakeMelbourne()

    boolean = bernstein_vazirani_boolean(num_qubits, secret)
    phase = bernstein_vazirani_phase(num_qubits, secret)

    print(f"secret = {secret:0{num_qubits}b}\n")
    for label, circuit in [("boolean oracle", boolean), ("phase oracle", phase)]:
        level3 = transpile(circuit.copy(), target=backend, pipeline="level3", seed=0)
        rpo = transpile(circuit.copy(), target=backend, pipeline="rpo", seed=0)
        print(f"{label}:")
        print(f"  level 3: {level3.count_ops().get('cx', 0):3d} CNOTs")
        print(f"  RPO    : {rpo.count_ops().get('cx', 0):3d} CNOTs")

    # verify the optimized boolean design still finds the secret
    rpo = transpile(boolean.copy(), target=backend, pipeline="rpo", seed=0)
    counts = StatevectorSimulator(seed=2).run(rpo, shots=500)
    print(f"\nmost frequent outcome: {counts.most_frequent()} "
          f"(expected {secret:0{num_qubits}b})")


if __name__ == "__main__":
    main()
