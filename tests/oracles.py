"""Independent brute-force oracles used to freeze expected values.

Everything here recomputes from definitions (raw subset scans, permutation
checks, union-find, Burnside counts), deliberately sharing no machinery
with the package paths it is used to check; the exceptions, the
tip-containing subgraph scan and the labelled sweep recursion, call the
package's single-graph dual linear quotients check but none of the sweep's
canonical forms or memo, and the full-scan form of ``necessary_scm`` calls
the package's homology scan with no linear-quotients shortcut.  The
recursive independent-set walk branches as the package's stack walk does
and is the reference for its masks and their order.  The labelled-graph
enumeration and the benchmark's field pool are shared test inputs.
"""

import random
from itertools import combinations, permutations
from math import factorial

from edgeideals.decide import SyzygyWitness
from edgeideals.graphs import Graph, add_whiskers, delete_vertices, induced_subgraph
from edgeideals.homology import is_componentwise_linear
from edgeideals.monomials import Monomial, MonomialIdeal, alexander_dual_of_edge_ideal
from edgeideals.quotients import has_dual_linear_quotients


def colon_by_monomial(I, u):
    """I : (u), minimally generated."""
    return MonomialIdeal.from_generators(
        I.ambient, [Monomial.from_mask(g.mask & ~u.mask) for g in I.gens])


def brute_covers(G, d):
    """All size-d vertex covers by scanning every d-subset."""
    edges = G.edges()
    out = []
    for combo in combinations(range(G.n), d):
        s = set(combo)
        if all(u in s or v in s for u, v in edges):
            out.append(frozenset(s))
    return out


def brute_minimal_covers(G):
    """Inclusion-minimal covers as masks, in increasing order, by scanning
    all 2^n subsets.  A subset is a cover when its complement holds no edge
    (built up one lowest vertex at a time); covers are closed under adding
    vertices, so a cover is minimal when no single-vertex removal is one."""
    nbrs = [0] * G.n
    for u, v in G.edges():
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
    full = (1 << G.n) - 1
    edge_free = [True] * (full + 1)
    for s in range(1, full + 1):
        low = s & -s
        edge_free[s] = edge_free[s ^ low] and not nbrs[low.bit_length() - 1] & s
    out = []
    for m in range(full + 1):
        if edge_free[full ^ m]:
            rest = m
            while rest:
                low = rest & -rest
                if edge_free[full ^ m ^ low]:
                    break
                rest ^= low
            else:
                out.append(m)
    return out


def field_pool_graph(i):
    """Graph i of the G(14, 0.3) pool of the benchmark's field workload."""
    rng = random.Random(i)
    return Graph(14, [(u, v) for u in range(14) for v in range(u + 1, 14) if rng.random() < 0.3])


def every_labelled_graph(max_n):
    """Every graph on 0..max_n vertices labelled 0..n-1, one per edge set."""
    for n in range(max_n + 1):
        slots = list(combinations(range(n), 2))
        for bits in range(1 << len(slots)):
            yield Graph(n, [slots[i] for i in range(len(slots)) if bits >> i & 1])


def independent_sets_by_recursion(adj, verts_mask, need=0, maximal=False, waiting=0):
    """Yield every independent subset of verts_mask of at least ``need``
    vertices as a mask: first those avoiding its lowest vertex, then those
    containing it, recursively, pruning the branches that fall short.  With
    ``maximal``, only the maximal ones: ``waiting`` holds the excluded
    vertices with no neighbour in the set yet, and a branch ends once one
    of them can gain none; every node scans all of ``waiting``.
    """
    if verts_mask.bit_count() < need:
        return
    if maximal and any(adj[x] & verts_mask == 0
                       for x in range(len(adj)) if waiting >> x & 1):
        return
    if verts_mask == 0:
        yield 0
        return
    low = verts_mask & -verts_mask
    v = low.bit_length() - 1
    rest = verts_mask ^ low
    yield from independent_sets_by_recursion(adj, rest, need, maximal, waiting | low)
    for s in independent_sets_by_recursion(adj, rest & ~adj[v], need - 1, maximal,
                                           waiting & ~adj[v]):
        yield s | low


def brute_dual(supports):
    """Minimal hitting sets of a family of supports (frozensets)."""
    universe = sorted(set().union(*supports)) if supports else []
    hits = []
    for size in range(len(universe) + 1):
        for combo in combinations(universe, size):
            s = set(combo)
            if all(s & sup for sup in supports):
                hits.append(frozenset(s))
    return [h for h in hits if not any(o < h for o in hits)]


def naive_colon_is_linear(prefix, u):
    """Definition-level check that (prefix):(u) is variable-generated.

    The colon's generators are the minimal sets among {p - u}; it is
    generated by variables iff every minimal generator has size one.
    """
    diffs = [frozenset(p) - frozenset(u) for p in prefix]
    minimal = [d for d in diffs if not any(o < d for o in diffs)]
    return all(len(d) == 1 for d in minimal)


def colon_steps_by_ideal(ambient, sequence):
    """Per-step (linear, v1) of a generator sequence, from the colon ideals.

    Step i builds (sequence[:i]) : sequence[i] with ``colon_by_monomial``
    (monomial ideals only, none of the linear-quotients code).  The step is
    linear iff every minimal generator of the colon has degree one; v1 is
    the set of variables that are minimal generators.  ``sequence`` is a
    list of supports (iterables of variable indices).
    """
    gens = [Monomial(s) for s in sequence]
    out = []
    for i in range(1, len(gens)):
        colon = colon_by_monomial(MonomialIdeal.from_generators(ambient, gens[:i]), gens[i])
        linear = all(g.degree == 1 for g in colon.gens)
        v1 = frozenset(v for g in colon.gens if g.degree == 1 for v in g.support)
        out.append((linear, v1))
    return out


def permutation_order_exists(supports):
    """Exhaustive linear-quotients check over all generator orders."""
    gens = list(supports)
    if len(gens) <= 1:
        return True
    for perm in permutations(range(len(gens))):
        seq = [gens[i] for i in perm]
        if all(naive_colon_is_linear(seq[:i], seq[i]) for i in range(1, len(seq))):
            return True
    return False


def tip_induced_dlq_by_enumeration(G, S):
    """Do all induced subgraphs of G with the tips of S attached that
    contain every tip have dual linear quotients?

    Scans all 2^n subsets U of G's vertices and checks the subgraph on U
    plus every tip, tips whose base is not in U sitting isolated.
    """
    W, wm = add_whiskers(G, S)
    tips = [t for _, t in wm.pairs]
    for umask in range(1 << G.n):
        keep = [v for v in range(G.n) if umask >> v & 1] + tips
        if not has_dual_linear_quotients(induced_subgraph(W, keep),
                                         stop_at_failure=True).verdict:
            return False
    return True


def necessary_scm_by_full_scan(G, S, field):
    """``decide.necessary_scm`` with no shortcut: the first witness of the
    homology scan over the remainder's whole dual, on G's vertices."""
    keep = [v for v in range(G.n) if v not in S]
    H = delete_vertices(G, sorted(S))
    w = is_componentwise_linear(alexander_dual_of_edge_ideal(H), field).witness
    if w is None:
        return None
    d, i, b_local = w
    b = frozenset(keep[v] for v in b_local)
    return SyzygyWitness(d, i, b, b | frozenset(S))


def all_induced_dlq_labelled(G, S, memo):
    """Does whisker(G[U], S & U) have dual linear quotients for every U?

    The labelled recursion: one memo entry per labelled (adjacency tuple,
    S) pair, one-vertex deletions through ``delete_vertices`` and the
    checked graph through ``add_whiskers``, with no canonical form.
    """
    key = (G.adj, S)
    got = memo.get(key)
    if got is not None:
        return got
    ok = all(all_induced_dlq_labelled(delete_vertices(G, [v]),
                                      frozenset(w - (w > v) for w in S if w != v), memo)
             for v in range(G.n))
    if ok:
        ok = has_dual_linear_quotients(add_whiskers(G, S)[0], stop_at_failure=True).verdict
        if ok is None:
            raise AssertionError(f"undecided dual linear quotients of {G!r} with {set(S)}")
    memo[key] = ok
    return ok


def canonical_by_all_relabellings(G, S):
    """Least (invariant sequence, adjacency tuple, S-mask) over all n!
    relabellings of (G, S), without the invariant sequence, and the number
    of relabellings that reach it, checked against the number of
    automorphisms.  A vertex's invariant is (in S, degree, sorted
    neighbour degrees), read from the edge list.
    """
    n, edges = G.n, G.edges()
    nbrs = {v: [] for v in range(n)}
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    inv = [(int(v in S), len(nbrs[v]), tuple(sorted(len(nbrs[u]) for u in nbrs[v])))
           for v in range(n)]
    identity = None
    best, count, automorphisms = None, 0, 0
    for perm in permutations(range(n)):  # vertex v becomes perm[v]
        adj = [0] * n
        for u, v in edges:
            adj[perm[u]] |= 1 << perm[v]
            adj[perm[v]] |= 1 << perm[u]
        seq = [None] * n
        for v in range(n):
            seq[perm[v]] = inv[v]
        key = (tuple(seq), tuple(adj), sum(1 << perm[v] for v in S))
        if identity is None:
            identity = key
        automorphisms += key == identity
        if best is None or key < best:
            best, count = key, 1
        elif key == best:
            count += 1
    if count != automorphisms:
        raise AssertionError(f"{count} relabellings reach the minimum, {automorphisms} fix (G, S)")
    return best[1], best[2], count


def burnside_class_count(n):
    """Isomorphism classes of graphs on n vertices with a vertex subset:
    the mean over the permutations p of S_n of the pairs p fixes,
    2 ** (cycles of p on vertex pairs + cycles of p on vertices)."""
    def cycles(points, image):
        seen, out = set(), 0
        for x in points:
            if x not in seen:
                out += 1
                while x not in seen:
                    seen.add(x)
                    x = image(x)
        return out

    pairs = [frozenset(e) for e in combinations(range(n), 2)]
    total = 0
    for p in permutations(range(n)):
        total += 2 ** (cycles(pairs, lambda e: frozenset(p[v] for v in e))
                       + cycles(range(n), p.__getitem__))
    return total // factorial(n)


def component_count(vertices, edges):
    """Union-find component count, the oracle for reduced H_0 + 1."""
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in edges:
        parent[find(u)] = find(v)
    return len({find(v) for v in vertices})


def induces_one_cycle_by_union_find(G, vertices):
    """Does ``vertices`` induce one cycle: every vertex of degree 2 within
    it, and one union-find component?"""
    vs = set(vertices)
    edges = [(u, v) for u, v in G.edges() if u in vs and v in vs]
    degree = {v: 0 for v in vs}
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    return bool(vs) and set(degree.values()) == {2} and component_count(vs, edges) == 1


def koszul_faces_by_scan(gen_supports, b):
    """Faces of the upper Koszul complex by scanning all subsets of b."""
    b = frozenset(b)
    faces = set()
    for size in range(len(b) + 1):
        for combo in combinations(sorted(b), size):
            a = frozenset(combo)
            rest = b - a
            if any(g <= rest for g in gen_supports):
                faces.add(a)
    return faces


def hilbert_numerator_from_gens(M):
    """K-polynomial of R/M by inclusion-exclusion over generator lcms."""
    out = {}
    gens = M.masks
    for sub in range(1 << len(gens)):
        m = 0
        bits = 0
        s = sub
        while s:
            low = s & -s
            m |= gens[low.bit_length() - 1]
            bits += 1
            s ^= low
        deg = bin(m).count("1")
        out[deg] = out.get(deg, 0) + (-1 if bits & 1 else 1)
    return {k: v for k, v in out.items() if v}


def hilbert_numerator_from_betti(table):
    """K-polynomial of R/M from the Betti numbers of M."""
    out = {0: 1}
    for (i, j), r in table.totals.items():
        sign = 1 if i & 1 else -1
        out[j] = out.get(j, 0) + sign * r
    return {k: v for k, v in out.items() if v}
