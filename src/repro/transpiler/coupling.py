"""Device connectivity graphs.

A :class:`CouplingMap` records which physical qubit pairs support two-qubit
gates.  The paper's experiments use three IBM devices with very different
connectivity (Fig. 9); the map's all-pairs distance matrix drives both
routing and the connectivity study of Table IV.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import networkx as nx
import numpy as np

from repro.transpiler.exceptions import TranspilerError

__all__ = ["CouplingMap"]


class CouplingMap:
    """An undirected connectivity graph over physical qubits."""

    def __init__(self, edges: Iterable[Sequence[int]], num_qubits: int | None = None):
        self.graph = nx.Graph()
        edge_list = [tuple(edge) for edge in edges]
        if num_qubits is None:
            num_qubits = 1 + max((max(a, b) for a, b in edge_list), default=-1)
        self.num_qubits = int(num_qubits)
        self.graph.add_nodes_from(range(self.num_qubits))
        for a, b in edge_list:
            if a == b:
                raise TranspilerError(f"self-loop edge ({a}, {b})")
            self.graph.add_edge(int(a), int(b))
        self._distance: np.ndarray | None = None
        self._routing_tables: tuple | None = None

    # ------------------------------------------------------------------

    @classmethod
    def line(cls, num_qubits: int) -> "CouplingMap":
        """A 1-D chain (worst-case connectivity, handy in tests)."""
        return cls([(i, i + 1) for i in range(num_qubits - 1)], num_qubits)

    @classmethod
    def ring(cls, num_qubits: int) -> "CouplingMap":
        edges = [(i, (i + 1) % num_qubits) for i in range(num_qubits)]
        return cls(edges, num_qubits)

    @classmethod
    def grid(cls, rows: int, cols: int) -> "CouplingMap":
        edges = []
        for r in range(rows):
            for c in range(cols):
                idx = r * cols + c
                if c + 1 < cols:
                    edges.append((idx, idx + 1))
                if r + 1 < rows:
                    edges.append((idx, idx + cols))
        return cls(edges, rows * cols)

    @classmethod
    def full(cls, num_qubits: int) -> "CouplingMap":
        edges = [(i, j) for i in range(num_qubits) for j in range(i + 1, num_qubits)]
        return cls(edges, num_qubits)

    # ------------------------------------------------------------------

    @property
    def edges(self) -> list[tuple[int, int]]:
        return [tuple(sorted(edge)) for edge in self.graph.edges]

    def neighbors(self, qubit: int) -> list[int]:
        return sorted(self.graph.neighbors(qubit))

    def is_connected(self) -> bool:
        return nx.is_connected(self.graph) if self.num_qubits else True

    def are_coupled(self, a: int, b: int) -> bool:
        return self.graph.has_edge(a, b)

    def distance(self, a: int, b: int) -> int:
        """Shortest-path distance between two physical qubits.

        Raises :class:`TranspilerError` when no path joins them.
        """
        length = self.distance_matrix[a, b]
        if np.isinf(length):
            raise TranspilerError(f"physical qubits {a} and {b} are not connected")
        return int(length)

    @property
    def distance_matrix(self) -> np.ndarray:
        if self._distance is None:
            matrix = np.full((self.num_qubits, self.num_qubits), np.inf)
            for source, lengths in nx.all_pairs_shortest_path_length(self.graph):
                for target, length in lengths.items():
                    matrix[source, target] = length
            self._distance = matrix
        return self._distance

    def routing_tables(self) -> tuple:
        """``(distance rows, neighbour tuples, coupled pairs)``, built once:
        the distance matrix as nested lists, each qubit's sorted neighbours,
        and every coupled ``(a, b)`` in both orders as a frozenset."""
        if self._routing_tables is None:
            self._routing_tables = (
                self.distance_matrix.tolist(),
                tuple(tuple(self.neighbors(q)) for q in range(self.num_qubits)),
                frozenset(pair for a, b in self.edges for pair in ((a, b), (b, a))),
            )
        return self._routing_tables

    def shortest_path(self, a: int, b: int) -> list[int]:
        return nx.shortest_path(self.graph, a, b)

    def degree(self, qubit: int) -> int:
        return self.graph.degree[qubit]

    def __repr__(self) -> str:
        return f"<CouplingMap {self.num_qubits} qubits, {self.graph.number_of_edges()} edges>"
