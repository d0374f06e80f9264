"""Seeded input generators.  They do not import the program: the program
sees these inputs only as graph files written during set-up."""

from __future__ import annotations

import random
from itertools import combinations

# The 6-vertex real projective plane: 10 triangles, every edge of K6 in two.
RP2_TRIANGLES = ((0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
                 (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5))


def rp2_sd():
    """Complement of the 1-skeleton of the barycentric subdivision of RP^2.

    Vertices are the 31 nonempty faces of RP^2; two faces are adjacent in
    the subdivision when one strictly contains the other.  The independence
    complex of the complement is the subdivision itself, so the graph is CM
    over Q and GF(3) but not over GF(2).
    """
    faces = sorted({frozenset(s) for t in RP2_TRIANGLES
                    for k in (1, 2, 3) for s in combinations(t, k)},
                   key=lambda f: (len(f), sorted(f)))
    edges = [(i, j) for i, j in combinations(range(len(faces)), 2)
             if not (faces[i] < faces[j] or faces[j] < faces[i])]
    assert len(faces) == 31 and len(edges) == 375
    return len(faces), edges


def gnp(rng: random.Random, n: int, p: float):
    """Erdos-Renyi G(n, p) as (n, 0-based edge list)."""
    return n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]


def whisker_list(n: int) -> str:
    """The --whisker argument that whiskers every vertex of an n-vertex graph."""
    return ",".join(str(v + 1) for v in range(n))


def whiskered_cover_count(n: int, edges) -> int:
    """Vertex covers of the graph with every vertex whiskered.

    A cover of the whiskered graph is the complement of an independent set;
    an independent set is an independent set I of the base graph plus any
    subset of the tips whose base is outside I, so the count is the sum of
    2^(n - |I|) over independent sets I.
    """
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    def count(avail: int, size: int) -> int:
        if not avail:
            return 1 << (n - size)
        low = avail & -avail
        v = low.bit_length() - 1
        return count(avail ^ low, size) + count(avail & ~low & ~adj[v], size + 1)

    return count((1 << n) - 1, 0)


def graph_text(n: int, edges) -> str:
    """The program's graph file format: 'n m' then 1-based edge lines."""
    lines = [f"{n} {len(edges)}"] + [f"{u + 1} {v + 1}" for u, v in sorted(edges)]
    return "\n".join(lines) + "\n"


def g14_pool_graph(i: int):
    """Graph i of the fixed G(14, 0.3) pool whose verdicts reference.json records."""
    return gnp(random.Random(i), 14, 0.3)
