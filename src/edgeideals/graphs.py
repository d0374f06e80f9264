"""Simple graphs with the operations the rest of the package is built on.

Vertices are integers 0..n-1 with display labels kept alongside.  Adjacency
is stored as one bitmask per vertex, which keeps vertex-cover enumeration
and the subgraph recursions elsewhere in the package cheap.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from itertools import combinations, groupby, permutations, product

from .errors import InputError

__all__ = [
    "Graph",
    "WhiskerMap",
    "ChordalityResult",
    "RemainderClass",
    "induced_subgraph",
    "delete_vertices",
    "add_whiskers",
    "is_chordal",
    "classify_remainder",
    "vertex_covers_of_size",
    "minimal_vertex_covers",
    "is_unmixed",
    "parse_graph",
    "format_graph",
    "cycle_graph",
    "path_graph",
]


def _mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@functools.cache
def _default_labels(n: int) -> tuple:
    """The display labels x1..xn of vertices (or variables) 0..n-1."""
    return tuple(f"x{i + 1}" for i in range(n))


def _drop(mask: int, v: int) -> int:
    """``mask`` without bit v: the bits below v stay, those above move down one."""
    low = (1 << v) - 1
    return mask & low | mask >> 1 & ~low


def _delete_adj(adj: tuple, gone: int) -> tuple:
    """The adjacency tuple without the vertices in ``gone``, reindexed as
    ``_drop`` does, from the highest down so the lower indices hold still."""
    while gone:
        v = gone.bit_length() - 1
        low = (1 << v) - 1
        adj = tuple(a & low | a >> 1 & ~low for a in adj[:v] + adj[v + 1:])
        gone ^= 1 << v
    return adj


def _whiskered_adj(adj: tuple, bases: int) -> tuple:
    """The adjacency tuple with one pendant vertex appended per bit of
    ``bases``, in ascending order of its base."""
    n = len(adj)
    out = list(adj)
    for i, b in enumerate(_bits(bases)):
        out[b] |= 1 << (n + i)
        out.append(1 << b)
    return tuple(out)


def _canonical(adj: tuple, smask: int) -> tuple:
    """The canonical form (adjacency tuple, S-mask, |Aut(G, S)|) of the
    graph ``adj`` with the vertex set ``smask``: ``_least_relabellings``
    with the relabellings counted."""
    best, canon_smask, seqs = _least_relabellings(adj, smask)
    return best, canon_smask, len(seqs)


def _least_relabellings(adj: tuple, smask: int) -> tuple:
    """The canonical form (adjacency tuple, S-mask) of the graph ``adj``
    with the vertex set ``smask``, and the relabellings that reach it, each
    as the sequence of old vertices in their new order: the search of
    ``_least_in_classes`` over the classes of ``_invariant_classes``.

    Vertices are sorted into classes by the invariant (S bit, degree,
    sorted neighbour degrees), the classes in invariant order, and every
    permutation inside each class is tried: the form is the least adjacency
    tuple reached, with the S-mask the class order fixes.  It is exact: the
    classes and their order are isomorphism invariants, so isomorphic
    pairs reach the same least tuple, and the relabellings that reach it
    form one coset of Aut(G, S), which preserves the classes.  On a
    canonical form the vertices already lie in class order, so the coset
    is Aut(G, S) itself: the relabellings are its automorphisms.
    """
    nbrs = [tuple(_bits(a)) for a in adj]
    return _least_in_classes(nbrs, _invariant_classes(adj, smask), smask.bit_count())


def _invariant_classes(adj: tuple, smask: int) -> list:
    """The vertices of ``adj`` grouped by the invariant (S bit, degree,
    sorted neighbour degrees), each group in index order, the groups in
    invariant order, so the S vertices come last."""
    degree = [a.bit_count() for a in adj]
    invariant = [(smask >> v & 1, degree[v], sorted(degree[u] for u in _bits(a)))
                 for v, a in enumerate(adj)]
    order = sorted(range(len(adj)), key=invariant.__getitem__)
    return [tuple(c) for _, c in groupby(order, key=invariant.__getitem__)]


def _least_in_classes(nbrs: list, classes, k: int) -> tuple:
    """The least adjacency tuple reached by relabelling the graph with the
    neighbour tuples ``nbrs`` (of indices) along the concatenation of
    one permutation of each class, the mask of its last k vertices (the S
    vertices, whose classes come last), and the vertex sequences that
    reach it."""
    n = len(nbrs)
    best, seqs = None, []
    bit = [0] * n
    for parts in product(*map(permutations, classes)):
        seq = [v for part in parts for v in part]
        for i, v in enumerate(seq):
            bit[v] = 1 << i
        cand = tuple(sum(map(bit.__getitem__, nbrs[v])) for v in seq)
        if best is None or cand < best:
            best, seqs = cand, [seq]
        elif cand == best:
            seqs.append(seq)
    return best, (1 << n) - (1 << n - k), seqs


def _mask_orbits(auts, n: int) -> list:
    """The least mask of each orbit of the relabellings ``auts`` (vertex
    sequences forming a group, as ``_least_relabellings`` gives them on a
    canonical form) on the subsets of n vertices, in ascending order."""
    images = [[1 << v for v in seq] for seq in auts]
    seen, reps = set(), []
    for m in range(1 << n):
        if m not in seen:
            reps.append(m)
            at = list(_bits(m))
            seen.update(sum(map(image.__getitem__, at)) for image in images)
    return reps


def _induces_one_cycle(adj, verts: int) -> bool:
    """Does ``verts`` induce a single cycle, that is, a nonempty 2-regular
    connected subgraph?"""
    if not verts or any((adj[v] & verts).bit_count() != 2 for v in _bits(verts)):
        return False
    seen = frontier = verts & -verts
    while frontier:
        reach = 0
        for u in _bits(frontier):
            reach |= adj[u]
        frontier = reach & verts & ~seen
        seen |= frontier
    return seen == verts


class Graph:
    """Immutable simple graph (no loops, no multiple edges)."""

    __slots__ = ("n", "adj", "labels")

    def __init__(self, n: int, edges=(), labels=None):
        if n < 0:
            raise InputError("vertex count must be nonnegative")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise InputError(f"loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj = tuple(adj)
        if labels is None:
            labels = _default_labels(n)
        else:
            labels = tuple(labels)
            if len(labels) != n:
                raise InputError("label count does not match vertex count")
        self.labels = labels

    @classmethod
    def _from_adj(cls, adj: tuple, labels: tuple) -> "Graph":
        g = object.__new__(cls)
        g.n = len(adj)
        g.adj = adj
        g.labels = labels
        return g

    def edges(self) -> tuple:
        out = []
        for u in range(self.n):
            for v in _bits(self.adj[u]):
                if u < v:
                    out.append((u, v))
        return tuple(out)

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj and self.labels == other.labels

    def __hash__(self):
        return hash((self.n, self.adj, self.labels))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={list(self.edges())})"

    def _check_vertices(self, vertices) -> int:
        mask = 0
        for v in vertices:
            if not (0 <= v < self.n):
                raise InputError(f"vertex {v} out of range for n={self.n}")
            mask |= 1 << v
        return mask


@dataclass(frozen=True)
class WhiskerMap:
    """Pairs (base vertex, new pendant vertex) added by ``add_whiskers``."""

    pairs: tuple


@dataclass(frozen=True)
class ChordalityResult:
    """Either a perfect elimination ordering or a chordless cycle witness."""

    chordal: bool
    elimination_order: tuple | None = None
    chordless_cycle: tuple | None = None

    def __bool__(self):
        return self.chordal


class RemainderClass(enum.Enum):
    CHORDAL = "chordal"
    FIVE_CYCLE = "five-cycle"
    OTHER = "other"


def induced_subgraph(G: Graph, vertices) -> Graph:
    """Subgraph on ``vertices``, reindexed to 0..k-1 in ascending order."""
    keep = G._check_vertices(vertices)
    return Graph._from_adj(_delete_adj(G.adj, ((1 << G.n) - 1) & ~keep),
                           tuple(G.labels[v] for v in _bits(keep)))


def delete_vertices(G: Graph, vertices) -> Graph:
    gone = G._check_vertices(vertices)
    return Graph._from_adj(_delete_adj(G.adj, gone),
                           tuple(l for v, l in enumerate(G.labels) if not gone >> v & 1))


def add_whiskers(G: Graph, S, tip_labels=None):
    """Attach one new degree-one vertex to each vertex in S.

    New vertices are appended after the original range, in ascending order
    of their base vertex.  Returns the new graph and the base/tip pairing.
    """
    mask = G._check_vertices(S)
    n, k = G.n, mask.bit_count()
    if tip_labels is None:
        tip_labels = _default_labels(n + k)[n:]
    else:
        tip_labels = tuple(tip_labels)
        if len(tip_labels) != k:
            raise InputError("tip label count does not match whisker count")
    H = Graph._from_adj(_whiskered_adj(G.adj, mask), G.labels + tip_labels)
    return H, WhiskerMap(tuple((b, n + i) for i, b in enumerate(_bits(mask))))


# ---------------------------------------------------------------------------
# chordality


def _edgeless(adj, verts: int) -> bool:
    """Does ``verts`` induce no edge?"""
    return not any(adj[v] & verts for v in _bits(verts))


def _elimination_order(adj, verts: int) -> list | None:
    """A perfect elimination ordering of the subgraph induced on ``verts``,
    or None when that subgraph is not chordal.

    It eliminates simplicial vertices, whose remaining neighbours are
    pairwise adjacent, the lowest first, until none is left.  Exact: the
    order eliminated in is a perfect elimination ordering, so a subgraph
    that runs dry is chordal (Fulkerson-Gross, Pacific J. Math. 1965); and
    every chordal graph has a simplicial vertex and stays chordal after
    losing it (Dirac, 1961), so a chordal one never gets stuck.
    """
    order = []
    while verts:
        rest = verts
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            nb = m = adj[v] & verts
            while m:  # v is simplicial when each neighbour u is adjacent to all of nb but u
                u = m & -m
                if nb & ~adj[u.bit_length() - 1] != u:
                    break
                m ^= u
            else:
                break
            rest ^= low
        else:
            return None
        order.append(v)
        verts ^= low
    return order


def _chordless_cycle(G: Graph) -> tuple | None:
    """Some chordless cycle of length >= 4, or None if the graph is chordal.

    For every vertex v with nonadjacent neighbors a, b, a shortest a-b path
    avoiding N[v] closes to a chordless cycle through v; any chordless cycle
    is found by one of these triples.
    """
    full = (1 << G.n) - 1
    for v in range(G.n):
        nbrs = sorted(_bits(G.adj[v]))
        for a, b in combinations(nbrs, 2):
            if G.has_edge(a, b):
                continue
            allowed = (full & ~G.adj[v] & ~(1 << v)) | (1 << a) | (1 << b)
            prev = {a: None}
            frontier = [a]
            while frontier and b not in prev:
                nxt = []
                for u in frontier:
                    for w in _bits(G.adj[u] & allowed):
                        if w not in prev:
                            prev[w] = u
                            nxt.append(w)
                frontier = sorted(nxt)
            if b in prev:
                path = []
                w = b
                while w is not None:
                    path.append(w)
                    w = prev[w]
                path.reverse()
                return tuple([v] + path)
    return None


def is_chordal(G: Graph) -> ChordalityResult:
    """Decide chordality with a self-checking certificate either way."""
    peo = _elimination_order(G.adj, (1 << G.n) - 1)
    if peo is not None:
        return ChordalityResult(True, elimination_order=tuple(peo))
    cycle = _chordless_cycle(G)
    if cycle is None:
        raise AssertionError("elimination check failed but no chordless cycle found")
    return ChordalityResult(False, chordless_cycle=cycle)


def classify_remainder(G: Graph, S) -> RemainderClass:
    """Classify G minus S as chordal, a five-cycle, or neither.

    Isolated vertices of the remainder are ignored for the five-cycle test;
    they carry no edges and hence no edge-ideal generators.
    """
    return _classify_remainder(G.adj, ((1 << G.n) - 1) & ~G._check_vertices(S))


def _classify_remainder(adj, rest: int) -> RemainderClass:
    """``classify_remainder`` of the subgraph induced on the mask ``rest``."""
    if _elimination_order(adj, rest) is not None:
        return RemainderClass.CHORDAL
    support = _mask_of(v for v in _bits(rest) if adj[v] & rest)
    if support.bit_count() == 5 and _induces_one_cycle(adj, support):
        return RemainderClass.FIVE_CYCLE
    return RemainderClass.OTHER


# ---------------------------------------------------------------------------
# vertex covers


def _independent_sets(adj, verts_mask: int, need: int = 0, maximal=False):
    """Yield every independent subset of verts_mask of at least ``need``
    vertices, as masks: first those avoiding its lowest vertex, then those
    containing it, recursively, pruning the branches that fall short.  With
    ``maximal``, only the maximal ones.  The walk is lazy, so a caller that
    stops early walks no further.

    One depth-first walk on an explicit stack.  A node is (candidates,
    need, waiting, taken): ``waiting`` holds the avoided vertices with no
    neighbour taken yet, and a branch ends once one of them has no
    candidate neighbour left.  Only the waiting vertices that can have lost
    their last candidate since the parent are checked: on avoiding v, v
    itself and the waiting neighbours of v; on taking v, the waiting
    vertices v leaves undominated.  The walk descends the avoiding branch
    in place and stacks the taking one, so a node's avoiding sets all come
    out before its taking sets.

    With ``maximal`` the walk settles tips instead of branching on them.  A
    tip is a vertex pendant in verts_mask whose one neighbour there, its
    base, has a lower index; a base is never a tip, as its tip is a higher
    neighbour.  A maximal set holds a tip exactly when it avoids the tip's
    base.  So the walk branches only on the other vertices: a base never
    waits, since its tip will dominate it; taking a base drops its tips, as
    any neighbours; and the tips still candidates at a leaf, whose bases
    are all left out, join the set there.  Tips stay candidates until then,
    so they count toward ``need`` exactly as before.  Lemma: the sets and
    their order are unchanged.  The first vertex at which two maximal sets
    differ is never a tip, since both sets agree on its base, of lower
    index, and the base decides the tip; and the walk orders the sets by
    that first vertex, avoiding it first.
    """
    if verts_mask.bit_count() < need:
        return
    tips = bases = 0
    if maximal:
        for v in _bits(verts_mask):
            nb = adj[v] & verts_mask
            if 0 < nb < 1 << v and not nb & (nb - 1):
                tips |= 1 << v
                bases |= nb
    branch, waits = ~tips, ~bases
    stack = [(verts_mask, need, 0, 0)]
    push = stack.append
    while stack:
        verts, need, waiting, taken = stack.pop()
        low = verts & branch
        while low:
            low &= -low
            nb = adj[low.bit_length() - 1]
            rest = verts ^ low
            take = rest & ~nb
            if need <= 1 or take.bit_count() >= need - 1:
                stay = waiting & ~nb
                if maximal:
                    check = stay
                    while check:
                        x = check & -check
                        if not adj[x.bit_length() - 1] & take:
                            break
                        check ^= x
                    else:
                        push((take, need - 1, stay, taken | low))
                else:
                    push((take, need - 1, stay, taken | low))
            if need > 0 and rest.bit_count() < need:
                break
            if maximal:
                if not nb & rest:
                    break
                check = waiting & nb
                while check:
                    x = check & -check
                    if not adj[x.bit_length() - 1] & rest:
                        break
                    check ^= x
                if check:
                    break
            verts = rest
            waiting |= low & waits
            low = verts & branch
        else:
            # the tips left have their bases out of the set, so they join it
            yield taken | verts


def _covers_by_size(adj, active: int, top: int) -> dict:
    """The vertex covers of at most ``top`` vertices of the induced
    subgraph on ``active``, keyed by size.

    Covers are subsets of ``active`` (complements of independent sets), so
    isolated vertices may pad a cover; larger covers are pruned unvisited.
    Each size class comes out in canonical lexicographic order on sorted
    vertex indices with no sort: ``_independent_sets`` branches on the
    lowest vertex and first returns the sets avoiding it, whose covers
    contain it, and two covers of one size are ordered by the lowest vertex
    in which they differ.
    """
    out = {}
    for s in _independent_sets(adj, active, active.bit_count() - top):
        cover = active ^ s
        out.setdefault(cover.bit_count(), []).append(cover)
    return out


def _minimal_cover_masks(adj, active: int) -> list:
    """Complements of maximal independent sets, canonically ordered (by
    size, then, as in ``_covers_by_size``, in enumeration order)."""
    covers = [active ^ s for s in _independent_sets(adj, active, maximal=True)]
    covers.sort(key=int.bit_count)
    return covers


def vertex_covers_of_size(G: Graph, d: int) -> list:
    """All size-d vertex covers as frozensets, lexicographically ordered."""
    if d < 0 or d > G.n:
        return []
    masks = _covers_by_size(G.adj, (1 << G.n) - 1, d).get(d, [])
    return [frozenset(_bits(m)) for m in masks]


def minimal_vertex_covers(G: Graph) -> list:
    """Inclusion-minimal covers; isolated vertices never appear."""
    masks = _minimal_cover_masks(G.adj, (1 << G.n) - 1)
    return [frozenset(_bits(m)) for m in masks]


def is_unmixed(G: Graph) -> bool:
    sizes = {m.bit_count() for m in _minimal_cover_masks(G.adj, (1 << G.n) - 1)}
    return len(sizes) <= 1


# ---------------------------------------------------------------------------
# text format


def parse_graph(text: str) -> Graph:
    """Parse the exchange format: header ``n m``, then m lines ``u v`` (1-based).

    ``#`` starts a comment line.  Duplicate and loop edges are rejected.
    """
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append(line)
    if not rows:
        raise InputError("empty graph file")
    head = rows[0].split()
    if len(head) != 2:
        raise InputError(f"bad header line {rows[0]!r}: expected 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise InputError(f"bad header line {rows[0]!r}") from None
    if n < 0 or m < 0:
        raise InputError("negative counts in header")
    if len(rows) - 1 != m:
        raise InputError(f"expected {m} edge lines, found {len(rows) - 1}")
    seen = set()
    edges = []
    for line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"bad edge line {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"bad edge line {line!r}") from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise InputError(f"edge ({u},{v}) out of range 1..{n}")
        if u == v:
            raise InputError(f"loop edge at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise InputError(f"duplicate edge ({u},{v})")
        seen.add(key)
        edges.append((u - 1, v - 1))
    return Graph(n, edges)


def format_graph(G: Graph) -> str:
    edges = sorted((min(u, v) + 1, max(u, v) + 1) for u, v in G.edges())
    lines = [f"{G.n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# small builders


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])
