"""Round-robin assignment of compute nodes to simulated clients."""

from __future__ import annotations

from dataclasses import dataclass

from .windows import WindowSequence


@dataclass
class ClientDataset:
    client_id: int
    sequences: list[WindowSequence]

    @property
    def n_samples(self) -> int:
        return len(self.sequences)


def round_robin_assign(nodes: list[str], k_clients: int) -> dict[str, int]:
    """Node at index i goes to client i mod k_clients."""
    if k_clients < 1:
        raise ValueError("k_clients must be >= 1")
    if not nodes:
        raise ValueError("nodes must be non-empty")
    if len(set(nodes)) != len(nodes):
        raise ValueError("node list contains duplicates")
    return {node: i % k_clients for i, node in enumerate(nodes)}


def materialize(
    windows: list[WindowSequence], assignment: dict[str, int], k_clients: int
) -> list[ClientDataset]:
    """Exact partition of windows into per-client datasets.

    The pipeline does not call this: it appends each node's windows to its
    client's `windows.WindowColumns` as they are cut. Tests use it as the
    reference grouping, and the benchmark tracer wraps it by name.
    """
    datasets = [ClientDataset(client_id=k, sequences=[]) for k in range(k_clients)]
    for w in windows:
        if w.node_id not in assignment:
            raise KeyError(f"window node {w.node_id!r} missing from assignment")
        datasets[assignment[w.node_id]].sequences.append(w)
    return datasets


def write_assignment_dump(assignment: dict[str, int], path) -> None:
    """Tab-separated node_id, client_id in first-seen node order."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("node_id\tclient_id\n")
        for node, client in assignment.items():
            fh.write(f"{node}\t{client}\n")
