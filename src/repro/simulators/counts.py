"""Measurement outcome containers and batched multi-shot sampling.

Keys are bitstrings with classical bit 0 as the *rightmost* character
(the usual display convention).
"""

from __future__ import annotations

import numpy as np

__all__ = ["Counts", "sample_counts", "success_rate"]


class Counts(dict):
    """A ``{bitstring: count}`` dictionary with convenience accessors."""

    def __init__(self, data: dict[str, int] | None = None, num_clbits: int | None = None):
        super().__init__(data or {})
        self.num_clbits = num_clbits

    @property
    def shots(self) -> int:
        return sum(self.values())

    def probabilities(self) -> dict[str, float]:
        total = self.shots
        if total == 0:
            return {}
        return {key: value / total for key, value in sorted(self.items())}

    def most_frequent(self) -> str:
        if not self:
            raise ValueError("no counts recorded")
        return max(self.items(), key=lambda item: item[1])[0]


def sample_counts(
    probabilities: np.ndarray,
    shots: int,
    rng: np.random.Generator,
    measured: list[tuple[int, int]],
    num_clbits: int,
) -> Counts:
    """Sample ``shots`` outcomes from a terminal distribution, batched.

    ``probabilities`` is the (normalized, host) distribution over basis
    states; ``measured`` maps each measured ``qubit`` to its ``clbit``.
    All shots draw in **one** ``rng.choice`` call -- the exact call the
    per-shot loop used to make, so a fixed seed produces the identical
    multiset of outcomes -- then the outcome -> classical-bits mapping
    and the tallying run vectorized over the distinct outcomes instead
    of once per shot.
    """
    probabilities = np.asarray(probabilities, dtype=float)
    outcomes = rng.choice(len(probabilities), size=shots, p=probabilities)
    distinct, tallies = np.unique(outcomes, return_counts=True)
    bits = np.zeros(len(distinct), dtype=np.int64)
    for qubit, clbit in measured:  # in circuit order: the last write wins
        bits = (bits & ~(1 << clbit)) | (((distinct >> qubit) & 1) << clbit)
    counts: dict[str, int] = {}
    for pattern, tally in zip(bits, tallies):
        key = format(int(pattern), f"0{num_clbits}b")
        counts[key] = counts.get(key, 0) + int(tally)
    return Counts(counts, num_clbits=num_clbits)


def success_rate(counts: Counts, correct: str) -> float:
    """Fraction of shots that produced the ``correct`` bitstring.

    This is the paper's success-rate metric (Sec. VIII-E / artifact
    appendix): correct outcomes over total trials.
    """
    total = counts.shots
    if total == 0:
        return 0.0
    return counts.get(correct, 0) / total
