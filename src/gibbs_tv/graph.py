"""Undirected simple graphs with dense integer labels and CSR adjacency.

Vertices are always 0..n-1; instance files with arbitrary labels are mapped
at parse time.  Adjacency lists are kept sorted so membership tests during
single-site updates are O(log degree), and the CSR arrays (``indptr``,
``indices``) feed the compiled chain kernel directly.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import InputError


class Graph:
    """Immutable undirected simple graph."""

    __slots__ = ("n", "m", "indptr", "indices", "_edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise InputError(f"vertex count must be nonnegative, got {n}")
        self.n = int(n)
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) references a vertex outside 0..{n - 1}")
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise InputError(f"parallel edge ({key[0]},{key[1]})")
            seen.add(key)
        self._edges: tuple[tuple[int, int], ...] = tuple(sorted(seen))
        self.m = len(self._edges)

        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self._edges:
            adj[u].append(v)
            adj[v].append(u)
        degrees = [len(a) for a in adj]
        self.indptr = np.zeros(self.n + 1, dtype=np.int32)
        np.cumsum(degrees, out=self.indptr[1:])
        self.indices = np.empty(self.m * 2, dtype=np.int32)
        for v, neigh in enumerate(adj):
            neigh.sort()
            self.indices[self.indptr[v] : self.indptr[v + 1]] = neigh

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges as sorted (u, v) pairs with u < v."""
        return self._edges

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor array of ``v`` (a view, do not mutate)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def max_degree(self) -> int:
        """Maximum degree; 0 for the empty graph."""
        if self.n == 0:
            return 0
        return int(np.max(self.degrees()))

    def has_edge(self, u: int, v: int) -> bool:
        neigh = self.neighbors(u)
        i = int(np.searchsorted(neigh, v))
        return i < len(neigh) and neigh[i] == v

    def is_independent_set(self, s: Iterable[int]) -> bool:
        """True iff no edge has both endpoints in ``s``."""
        sset = set(int(v) for v in s)
        for v in sset:
            if not 0 <= v < self.n:
                raise InputError(f"vertex {v} outside 0..{self.n - 1}")
        return all(not (u in sset and v in sset) for u, v in self._edges)

    def independent_sets(
        self, vertices: Iterable[int], max_size: Optional[int] = None
    ) -> Iterator[tuple[int, ...]]:
        """Independent sets of the subgraph induced on ``vertices``, as ascending tuples.

        Exclude-first order: read as binary numbers with the lowest vertex as
        the most significant bit, the sets come in increasing order, starting
        with the empty set.  Sets larger than ``max_size`` are never built.
        """
        order = sorted(set(int(v) for v in vertices))
        for v in order:
            if not 0 <= v < self.n:
                raise InputError(f"vertex {v} outside 0..{self.n - 1}")
        k = len(order)
        cap = k if max_size is None else max_size
        pos = {v: i for i, v in enumerate(order)}
        # neighbours within ``order``, as bitmasks over positions
        nbr = [0] * k
        for i, v in enumerate(order):
            for u in self.neighbors(v):
                j = pos.get(int(u))
                if j is not None:
                    nbr[i] |= 1 << j
        # Pre-order walk where each set's children add one later position; the
        # last position is pushed last so that it is expanded first.  ``free``
        # holds the positions a set may still add.
        stack = [((), (1 << k) - 1)]
        while stack:
            s, free = stack.pop()
            yield s
            if len(s) < cap:
                while free:
                    low = free & -free
                    j = low.bit_length() - 1
                    free ^= low
                    stack.append((s + (order[j],), free & ~nbr[j]))

    def induced_subgraph(self, keep: Iterable[int]) -> tuple["Graph", dict[int, int]]:
        """Subgraph on ``keep`` plus the old->new relabeling bijection."""
        kept = sorted(set(int(v) for v in keep))
        for v in kept:
            if not 0 <= v < self.n:
                raise InputError(f"vertex {v} outside 0..{self.n - 1}")
        old_to_new = {v: i for i, v in enumerate(kept)}
        sub_edges = [
            (old_to_new[u], old_to_new[v])
            for u, v in self._edges
            if u in old_to_new and v in old_to_new
        ]
        return Graph(len(kept), sub_edges), old_to_new

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self._edges == other._edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self._edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InputError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def random_graph(n: int, p: float, rng: np.random.Generator) -> Graph:
    """Erdos-Renyi G(n, p)."""
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)
