#!/usr/bin/env python3
"""The paper's hardware experiment (Sec. VIII-E / Fig. 11), simulated.

Transpiles 3-qubit QPE at level 3 and with RPO for each of the three
devices, then runs both under each device's Monte-Carlo noise model and
compares the probability of the correct outcome ``111``.
"""

from repro.algorithms import quantum_phase_estimation
from repro.backends import FakeAlmaden, FakeMelbourne, FakeRochester
from repro.rpo import rpo_pass_manager
from repro.simulators import NoiseModel, NoisySimulator, success_rate
from repro.transpiler import level_3_pass_manager
from repro.transpiler.passmanager import PropertySet

SHOTS = 4096


def main():
    circuit = quantum_phase_estimation(3)  # correct answer: 111
    print("3-qubit QPE under device noise\n")
    print(f"{'backend':<12} {'config':<8} {'CNOTs':>5} {'success(111)':>12}")

    for factory in (FakeMelbourne, FakeAlmaden, FakeRochester):
        backend = factory()
        simulator = NoisySimulator(NoiseModel.from_backend(backend), seed=7)
        rates = {}
        for label, pipeline in (
            ("level3", level_3_pass_manager),
            ("rpo", rpo_pass_manager),
        ):
            pm = pipeline(backend, seed=0)
            from repro.circuit import remove_idle_qubits

            compiled, _ = remove_idle_qubits(pm.run(circuit.copy(), PropertySet()))
            counts = simulator.run(compiled, shots=SHOTS)
            rates[label] = success_rate(counts, "111")
            print(
                f"{backend.name:<12} {label:<8} "
                f"{compiled.count_ops().get('cx', 0):>5} {rates[label]:>12.3f}"
            )
        print(f"{'':<12} improvement: {rates['rpo'] / rates['level3']:.2f}x\n")


if __name__ == "__main__":
    main()
