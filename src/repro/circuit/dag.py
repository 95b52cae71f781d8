"""Directed-acyclic-graph circuit representation.

:class:`DAGCircuit` is the dependency view of a circuit for callers that
want one (:func:`repro.circuit.converters.circuit_to_dag`).  The
transpiler passes do not use it: they walk a circuit's records and build
their output with :meth:`QuantumCircuit.splice
<repro.circuit.quantumcircuit.QuantumCircuit.splice>`.  Wires are ``("q", i)`` or ``("c", i)`` tuples; each
wire threads from an input boundary node through the operation nodes to an
output boundary node, exactly as in production transpilers.

Node identifiers are insertion-ordered integers, which makes
:meth:`topological_op_nodes` deterministic (lexicographic topological sort
keyed on the id) -- important for reproducible benchmark medians.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterator

import networkx as nx

from repro.circuit.instruction import Instruction

__all__ = ["DAGCircuit", "DAGNode"]

Wire = tuple[str, int]


class DAGNode:
    """A node in the circuit DAG: an input/output boundary or an operation."""

    __slots__ = ("node_id", "type", "wire", "operation", "qubits", "clbits")

    def __init__(
        self,
        node_id: int,
        node_type: str,
        wire: Wire | None = None,
        operation: Instruction | None = None,
        qubits: tuple[int, ...] = (),
        clbits: tuple[int, ...] = (),
    ):
        self.node_id = node_id
        self.type = node_type  # 'in' | 'out' | 'op'
        self.wire = wire
        self.operation = operation
        self.qubits = qubits
        self.clbits = clbits

    @property
    def name(self) -> str | None:
        return self.operation.name if self.operation is not None else None

    def is_op(self) -> bool:
        return self.type == "op"

    def wires(self) -> list[Wire]:
        if self.type != "op":
            return [self.wire] if self.wire is not None else []
        return [("q", q) for q in self.qubits] + [("c", c) for c in self.clbits]

    def __repr__(self) -> str:
        if self.type == "op":
            return f"<DAGNode {self.node_id} op={self.name} q={self.qubits}>"
        return f"<DAGNode {self.node_id} {self.type} wire={self.wire}>"


class DAGCircuit:
    """A quantum circuit as an operation dependency graph."""

    def __init__(self, num_qubits: int, num_clbits: int = 0, name: str | None = None):
        self.name = name or "dag"
        self.num_qubits = num_qubits
        self.num_clbits = num_clbits
        self.global_phase = 0.0
        self._graph = nx.MultiDiGraph()
        self._nodes: dict[int, DAGNode] = {}
        self._counter = itertools.count()
        self.input_map: dict[Wire, int] = {}
        self.output_map: dict[Wire, int] = {}
        for wire in self.wires():
            in_node = self._new_node("in", wire=wire)
            out_node = self._new_node("out", wire=wire)
            self.input_map[wire] = in_node.node_id
            self.output_map[wire] = out_node.node_id
            self._graph.add_edge(in_node.node_id, out_node.node_id, wire=wire)

    # ------------------------------------------------------------------

    def wires(self) -> list[Wire]:
        return [("q", q) for q in range(self.num_qubits)] + [
            ("c", c) for c in range(self.num_clbits)
        ]

    def _new_node(self, node_type: str, **kwargs) -> DAGNode:
        node = DAGNode(next(self._counter), node_type, **kwargs)
        self._nodes[node.node_id] = node
        self._graph.add_node(node.node_id)
        return node

    def node(self, node_id: int) -> DAGNode:
        return self._nodes[node_id]

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def apply_operation_back(
        self,
        operation: Instruction,
        qubits: tuple[int, ...],
        clbits: tuple[int, ...] = (),
    ) -> DAGNode:
        """Append an operation at the end of the DAG."""
        qubits = tuple(qubits)
        clbits = tuple(clbits)
        node = self._new_node("op", operation=operation, qubits=qubits, clbits=clbits)
        for wire in node.wires():
            out_id = self.output_map[wire]
            # the unique current edge into the output boundary on this wire
            predecessors = [
                (source, key)
                for source, _, key, data in self._graph.in_edges(
                    out_id, keys=True, data=True
                )
                if data["wire"] == wire
            ]
            if len(predecessors) != 1:
                raise RuntimeError(f"corrupt wire {wire}: {predecessors}")
            source, key = predecessors[0]
            self._graph.remove_edge(source, out_id, key)
            self._graph.add_edge(source, node.node_id, wire=wire)
            self._graph.add_edge(node.node_id, out_id, wire=wire)
        return node

    def remove_op_node(self, node: DAGNode | int) -> None:
        """Remove an operation node, reconnecting each wire across it."""
        node_id = node.node_id if isinstance(node, DAGNode) else node
        dag_node = self._nodes[node_id]
        if not dag_node.is_op():
            raise ValueError("can only remove op nodes")
        for wire in dag_node.wires():
            sources = [
                source
                for source, _, data in self._graph.in_edges(node_id, data=True)
                if data["wire"] == wire
            ]
            targets = [
                target
                for _, target, data in self._graph.out_edges(node_id, data=True)
                if data["wire"] == wire
            ]
            if len(sources) != 1 or len(targets) != 1:
                raise RuntimeError(f"corrupt wire {wire} at node {node_id}")
            self._graph.add_edge(sources[0], targets[0], wire=wire)
        self._graph.remove_node(node_id)
        del self._nodes[node_id]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def op_nodes(self, name: str | None = None) -> list[DAGNode]:
        nodes = [n for n in self._nodes.values() if n.is_op()]
        if name is not None:
            nodes = [n for n in nodes if n.name == name]
        return nodes

    def topological_op_nodes(self) -> Iterator[DAGNode]:
        """Op nodes in a deterministic topological order."""
        order = nx.lexicographical_topological_sort(self._graph, key=lambda nid: nid)
        for node_id in order:
            node = self._nodes[node_id]
            if node.is_op():
                yield node

    def successors(self, node: DAGNode) -> list[DAGNode]:
        return [self._nodes[i] for i in self._graph.successors(node.node_id)]

    def predecessors(self, node: DAGNode) -> list[DAGNode]:
        return [self._nodes[i] for i in self._graph.predecessors(node.node_id)]

    def wire_successor(self, node: DAGNode, wire: Wire) -> DAGNode:
        """The next node on ``wire`` after ``node``."""
        for _, target, data in self._graph.out_edges(node.node_id, data=True):
            if data["wire"] == wire:
                return self._nodes[target]
        raise ValueError(f"wire {wire} does not pass through node {node.node_id}")

    def wire_predecessor(self, node: DAGNode, wire: Wire) -> DAGNode:
        for source, _, data in self._graph.in_edges(node.node_id, data=True):
            if data["wire"] == wire:
                return self._nodes[source]
        raise ValueError(f"wire {wire} does not pass through node {node.node_id}")

    def count_ops(self) -> dict[str, int]:
        counts = Counter(n.name for n in self._nodes.values() if n.is_op())
        return dict(counts.most_common())

    def size(self) -> int:
        return sum(
            1
            for n in self._nodes.values()
            if n.is_op() and not n.operation.is_directive
        )

    def depth(self) -> int:
        """Longest path in operation count (directives excluded)."""
        lengths: dict[int, int] = {}
        for node_id in nx.topological_sort(self._graph):
            node = self._nodes[node_id]
            incoming = [
                lengths[source] for source in self._graph.predecessors(node_id)
            ]
            best = max(incoming, default=0)
            weight = 1 if node.is_op() and not node.operation.is_directive else 0
            lengths[node_id] = best + weight
        return max(lengths.values(), default=0)

    # ------------------------------------------------------------------
    # structured traversals used by passes
    # ------------------------------------------------------------------

    def layers(self) -> Iterator[list[DAGNode]]:
        """Yield maximal front layers of simultaneously-applicable ops."""
        in_degree: dict[int, int] = {}
        ready: list[int] = []
        for node_id in self._graph.nodes:
            node = self._nodes[node_id]
            degree = self._graph.in_degree(node_id)
            in_degree[node_id] = degree
            if degree == 0:
                ready.append(node_id)
        while ready:
            layer_ops: list[DAGNode] = []
            next_ready: list[int] = []
            for node_id in sorted(ready):
                node = self._nodes[node_id]
                if node.is_op():
                    layer_ops.append(node)
                for successor in self._graph.successors(node_id):
                    in_degree[successor] -= self._graph.number_of_edges(
                        node_id, successor
                    )
                    if in_degree[successor] == 0:
                        next_ready.append(successor)
            if layer_ops:
                yield layer_ops
            ready = next_ready

    def collect_1q_runs(self) -> list[list[DAGNode]]:
        """Maximal runs of single-qubit gates on the same wire."""
        runs: list[list[DAGNode]] = []
        seen: set[int] = set()

        def is_1q_gate(node: DAGNode) -> bool:
            return (
                node.is_op()
                and node.operation.is_gate()
                and node.operation.num_qubits == 1
                and not node.operation.is_directive
            )

        for node in self.topological_op_nodes():
            if node.node_id in seen or not is_1q_gate(node):
                continue
            wire = ("q", node.qubits[0])
            run = [node]
            seen.add(node.node_id)
            current = node
            while True:
                nxt = self.wire_successor(current, wire)
                if not is_1q_gate(nxt):
                    break
                run.append(nxt)
                seen.add(nxt.node_id)
                current = nxt
            runs.append(run)
        return runs

    def front_layer(self) -> list[DAGNode]:
        """Op nodes whose quantum-wire predecessors are all input boundaries.

        This is the working set of the routing pass: the gates that could be
        executed right now.
        """
        front = []
        for node in self.topological_op_nodes():
            if all(
                self.wire_predecessor(node, wire).type == "in"
                for wire in node.wires()
            ):
                front.append(node)
        return front
