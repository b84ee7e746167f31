"""Correctness checks, run after the measured phase.

Each check compares the program's output with an independent
computation (networkx) or with a property the method must have, and
returns a list of problems (empty when the check passes).  None of them
compares against a stored copy of an earlier run's output.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np

Edge = Tuple[int, int]

#: bc tolerance relative to the largest reference score; the engine and
#: networkx sum the same dependencies in different orders
BC_RTOL = 1e-9


def key(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def edge_set(edges: Iterable) -> Set[Edge]:
    return {key(int(u), int(v)) for u, v in edges}


def apply_writes(original: Set[Edge], writes: Sequence[tuple]) -> Set[Edge]:
    """The edge set after applying ``(op, u, v)`` writes in order."""
    edges = set(original)
    for op, u, v in writes:
        if op == "insert":
            edges.add(key(u, v))
        else:
            edges.discard(key(u, v))
    return edges


def edges_match(final: Set[Edge], expected: Set[Edge]) -> List[str]:
    if final == expected:
        return []
    return [f"edge set differs: {len(final - expected)} unexpected, "
            f"{len(expected - final)} missing"]


def bc_matches(bc: np.ndarray, n: int, edges: Set[Edge],
               sources: Sequence[int]) -> List[str]:
    """Source-sampled bc of *edges* computed by networkx equals *bc*.

    ``betweenness_centrality_subset`` halves undirected scores, so twice
    its value is the engine's sum of per-source dependencies."""
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(edges)
    ref = nx.betweenness_centrality_subset(
        graph, sources=[int(s) for s in sources], targets=list(range(n)),
        normalized=False)
    expected = 2.0 * np.array([ref[v] for v in range(n)])
    error = float(np.max(np.abs(bc - expected))) if n else 0.0
    scale = max(1.0, float(np.max(np.abs(expected)))) if n else 1.0
    if error <= BC_RTOL * scale:
        return []
    return [f"bc differs from networkx by {error:.3e} (scale {scale:.3e})"]


def top_k_sorted(tops: Iterable[list]) -> List[str]:
    for i, top in enumerate(tops):
        scores = [score for _, score in top]
        if any(b > a for a, b in zip(scores, scores[1:])):
            return [f"top-k answer {i} is not sorted"]
    return []


def watermarks_monotone(watermarks: Sequence[int]) -> List[str]:
    for i, (a, b) in enumerate(zip(watermarks, watermarks[1:])):
        if b < a:
            return [f"query watermark fell from {a} to {b} at answer {i + 1}"]
    return []


def journal_matches(journal: List[Tuple[int, tuple]],
                    submitted: List[tuple],
                    acked: Dict[int, tuple]) -> List[str]:
    """The journal holds exactly the submitted writes, in order, and
    every acknowledged seq names the write it acknowledged."""
    problems = []
    seqs = [seq for seq, _ in journal]
    if [write for _, write in journal] != submitted:
        problems.append(f"journal holds {len(journal)} records that differ "
                        f"from the {len(submitted)} submitted writes")
    if seqs and seqs != list(range(seqs[0], seqs[0] + len(seqs))):
        problems.append("journal seqs are not contiguous")
    by_seq = dict(journal)
    wrong = [seq for seq, write in acked.items() if by_seq.get(seq) != write]
    if wrong:
        problems.append(f"{len(wrong)} acked seqs missing from the journal "
                        f"or naming another write (first: {wrong[0]})")
    return problems
