"""Linear-algebra substrate for quantum circuit synthesis and analysis.

This package contains everything the transpiler and the RPO passes need to
reason about unitaries as matrices:

* :mod:`repro.linalg.predicates` -- unitarity / equivalence checks,
* :mod:`repro.linalg.euler` -- one-qubit ZYZ (``u3``) Euler decomposition,
* :mod:`repro.linalg.weyl` -- two-qubit Weyl (KAK) decomposition,
* :mod:`repro.linalg.kron` -- tensor-product factorisation,
* :mod:`repro.linalg.state_prep` -- pure-state preparation synthesis,
* :mod:`repro.linalg.random` -- seeded random unitaries and states,
* :mod:`repro.linalg.batch` -- batched kernels over stacked operands
  (``N x 2 x 2`` / ``N x 4 x 4`` arrays).

Circuit-emitting synthesis routines (which need the circuit IR) live in
:mod:`repro.linalg.two_qubit_synthesis` and
:mod:`repro.linalg.controlled_synthesis`.
"""

from repro.linalg.predicates import (
    is_unitary,
    is_hermitian,
    is_identity_up_to_phase,
    matrices_equal_up_to_phase,
    phase_difference,
)
from repro.linalg.euler import (
    euler_zyz_angles,
    u3_params_from_unitary,
    u3_matrix,
    merge_u3,
)
from repro.linalg.kron import decompose_kron, nearest_kron_factors
from repro.linalg.weyl import WeylDecomposition, weyl_decompose, canonical_gate, num_cnots_required
from repro.linalg.state_prep import (
    schmidt_decomposition,
    prepare_one_qubit_state,
    two_qubit_state_prep_factors,
)
from repro.linalg.random import random_unitary, random_statevector, random_su2
from repro.linalg.batch import (
    chain_products,
    embed_1q_in_2q,
    fold_matmul,
    permute_2q,
    reduce_matmul,
    stack_chains,
    two_qubit_chain_unitaries,
    u3_params_batch,
)

__all__ = [
    "is_unitary",
    "is_hermitian",
    "is_identity_up_to_phase",
    "matrices_equal_up_to_phase",
    "phase_difference",
    "euler_zyz_angles",
    "u3_params_from_unitary",
    "u3_matrix",
    "merge_u3",
    "decompose_kron",
    "nearest_kron_factors",
    "WeylDecomposition",
    "weyl_decompose",
    "canonical_gate",
    "num_cnots_required",
    "schmidt_decomposition",
    "prepare_one_qubit_state",
    "two_qubit_state_prep_factors",
    "random_unitary",
    "random_statevector",
    "random_su2",
    "chain_products",
    "embed_1q_in_2q",
    "fold_matmul",
    "permute_2q",
    "reduce_matmul",
    "stack_chains",
    "two_qubit_chain_unitaries",
    "u3_params_batch",
]
