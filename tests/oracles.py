"""Independent brute-force oracles used to freeze expected values.

Everything here recomputes from definitions (raw subset scans, permutation
checks, union-find, Burnside counts), deliberately sharing no machinery
with the package paths it is used to check; the exceptions, the
tip-containing subgraph scan and the labelled sweep recursion, call the
package's single-graph dual linear quotients check but none of the sweep's
canonical forms or memo, the full-scan form of ``necessary_scm`` calls
the package's homology scan with no linear-quotients shortcut, and the
Koszul lift oracle builds the package's graphs, duals, degree components
and upper Koszul complexes, where the lift check works on cover masks.  The
recursive independent-set walk branches as the package's stack walk does
and is the reference for its masks and their order.  The labelled-graph
enumeration and the benchmark's field pool are shared test inputs.  The
chordality oracle is maximum-cardinality search with a perfect-elimination
check, where the package eliminates simplicial vertices.  Ranks are dense
Gaussian elimination with pivot inverses, over Fractions or mod p, where
the package eliminates sparse columns fraction-free; the full-scan witness
oracle ranks every lcm-lattice point that way, where the package skips the
points the purity lemma settles.  The degree-component oracle joins index
combinations per generator, where the package adds bit values and can stop
at a size limit.  The campaign hypotheses on Graphs and vertex sets are
the reference for the mask hypotheses the samplers' draws are tested with,
and the simplicial-elimination scan with ``all`` over each neighbourhood
is the reference for the bit walk.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

from edgeideals.decide import SyzygyWitness, necessary_scm
from edgeideals.graphs import (Graph, RemainderClass, _mask_of, add_whiskers,
                              classify_remainder, delete_vertices, induced_subgraph, is_chordal)
from edgeideals.homology import _koszul_complex, is_componentwise_linear
from edgeideals.monomials import (Monomial, MonomialIdeal, _order_key,
                                  alexander_dual_of_edge_ideal, squarefree_degree_component)
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


def degree_component_by_generators(I, d):
    """The degree-d component of I, built one generator at a time: each
    generator's support joined by ``_mask_of`` with every choice of d - |g|
    other variable indices, then sorted into a canonical ideal."""
    masks = set()
    for g in I.masks:
        k = d - g.bit_count()
        if k >= 0:
            others = [v for v in range(I.ambient) if not g >> v & 1]
            masks.update(g | _mask_of(extra) for extra in combinations(others, k))
    return MonomialIdeal._from_canonical(I.ambient, sorted(masks, key=_order_key))


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


def graph_pair(adj, smask):
    """A campaign sampler's draw (adjacency tuple, S-mask) as the Graph
    with the default labels and the vertex set S."""
    n = len(adj)
    return (Graph(n, [(u, v) for u, v in combinations(range(n), 2) if adj[u] >> v & 1]),
            frozenset(v for v in range(n) if smask >> v & 1))


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


def mcs_order(G):
    """Maximum-cardinality search visit order (ties to the smallest index)."""
    n = G.n
    weight = [0] * n
    unnumbered = set(range(n))
    order = []
    for _ in range(n):
        z = max(unnumbered, key=lambda v: (weight[v], -v))
        unnumbered.discard(z)
        order.append(z)
        for y in range(n):
            if G.has_edge(z, y) and y in unnumbered:
                weight[y] += 1
    return order


def peo_violation(G, peo):
    """First (v, a, b) with a, b later neighbors of v and ab not an edge."""
    rank = {v: i for i, v in enumerate(peo)}
    for i, v in enumerate(peo):
        later = [w for w in range(G.n) if G.has_edge(v, w) and rank[w] > i]
        for a, b in combinations(sorted(later), 2):
            if not G.has_edge(a, b):
                return v, a, b
    return None


def is_chordal_by_mcs(G):
    """Chordality by maximum-cardinality search: G is chordal iff the
    reverse of the visit order is a perfect elimination ordering (Tarjan-
    Yannakakis, SIAM J. Comput. 1984)."""
    return peo_violation(G, list(reversed(mcs_order(G)))) is None


def classify_by_mcs(H):
    """``graphs.classify_remainder`` of the whole graph H, with chordality
    by ``is_chordal_by_mcs`` and the five-cycle test by
    ``induces_one_cycle_by_union_find`` on the non-isolated vertices."""
    support = [v for v in range(H.n) if H.degree(v)]
    if len(support) == 5 and induces_one_cycle_by_union_find(H, support):
        return "five-cycle"
    return "chordal" if is_chordal_by_mcs(H) else "other"


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


def koszul_lift_by_components(G, S, w, field):
    """``decide.check_koszul_lift`` through whole objects: delete S, build
    both duals and their degree components, take each upper Koszul complex
    with ``homology._koszul_complex``, re-embed the whiskered graph's
    complex onto the remainder's indices, compare the facet sets, and rank
    by dense elimination."""
    S = frozenset(S)
    keep = [v for v in range(G.n) if v not in S]
    pos = {v: i for i, v in enumerate(keep)}
    if len(w.multidegree) == w.base_degree + w.index:
        return False
    H = delete_vertices(G, sorted(S))
    comp_h = squarefree_degree_component(alexander_dual_of_edge_ideal(H), w.base_degree)
    k_b = _koszul_complex(comp_h.masks, sum(1 << pos[v] for v in w.multidegree))
    GW, _ = add_whiskers(G, S)
    comp_w = squarefree_degree_component(alexander_dual_of_edge_ideal(GW), w.lifted_degree)
    k_c = _koszul_complex(comp_w.masks, sum(1 << v for v in w.lifted))
    mapped = set()
    for m in k_c:
        face = [v for v in range(GW.n) if m >> v & 1]
        if any(v not in pos for v in face):
            return False
        mapped.add(sum(1 << pos[v] for v in face))
    if mapped != set(k_b):
        return False
    facets = [[v for v in range(H.n) if m >> v & 1] for m in k_b]
    ranks = reduced_homology_by_dense_elimination(facets, field.characteristic)
    return ranks.get(w.index - 1, 0) > 0


def rank_by_dense_elimination(cols, p=None):
    """Rank of sparse columns (dicts from row to integer entry) by Gaussian
    elimination on a dense matrix: over Q with Fraction entries, or mod the
    prime ``p`` with plain integers and Fermat inverses."""
    rows = sorted({r for c in cols for r in c})
    where = {r: i for i, r in enumerate(rows)}
    mat = [[0] * len(cols) for _ in rows]
    for j, c in enumerate(cols):
        for r, v in c.items():
            mat[where[r]][j] = v % p if p else Fraction(v)
    rank = 0
    for j in range(len(cols)):
        pivot = next((i for i in range(rank, len(rows)) if mat[i][j]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][j], p - 2, p) if p else 1 / mat[rank][j]
        for i in range(rank + 1, len(rows)):
            if not mat[i][j]:
                continue
            f = mat[i][j] * inv
            mat[i] = [a if not b else (a - f * b) % p if p else a - f * b
                      for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def boundary_columns(upper, lower):
    """The boundary map from the faces ``upper`` to the faces ``lower``
    (sorted vertex tuples) as sparse columns: row of face minus its j-th
    vertex, entry (-1)^j."""
    index = {f: i for i, f in enumerate(lower)}
    return [{index[f[:j] + f[j + 1:]]: (-1) ** j for j in range(len(f))} for f in upper]


def faces_by_size(facets):
    """Every subset of every vertex set in ``facets``, as sorted tuples,
    listed by size."""
    faces = {}
    for f in facets:
        for k in range(len(f) + 1):
            faces.setdefault(k, set()).update(combinations(sorted(f), k))
    return {k: sorted(v) for k, v in faces.items()}


def reduced_homology_by_dense_elimination(facets, p=None):
    """Reduced homology ranks of the complex whose faces are the subsets of
    the vertex sets ``facets``, from every face listed by size and the dense
    ranks of its boundary maps; an empty dict for no facets at all."""
    faces = faces_by_size(facets)
    if not faces:
        return {}
    top = max(faces)
    rank = {k: rank_by_dense_elimination(boundary_columns(faces[k], faces[k - 1]), p)
            for k in range(1, top + 1)}
    return {j: len(faces[j + 1]) - rank.get(j + 1, 0) - rank.get(j + 2, 0)
            for j in range(-1, top)}


def nonlinear_witness_by_full_scan(M, field):
    """``homology.nonlinear_witness`` with no point skipped: every point b
    of the lcm lattice, by size and then lexicographically on sorted
    supports (a tuple key), ranked by dense elimination on the facets of
    the upper Koszul complex at b; the first (i, b) off the linear strand,
    or None."""
    if M.is_zero:
        return None
    gens, d = M.masks, M.min_degree
    lattice = set()
    for g in gens:
        lattice |= {x | g for x in lattice}
        lattice.add(g)
    supports = sorted((tuple(v for v in range(b.bit_length()) if b >> v & 1) for b in lattice),
                      key=lambda t: (len(t), t))
    for b in supports:
        facets = [[v for v in b if not g >> v & 1] for g in gens
                  if all(v in b for v in range(g.bit_length()) if g >> v & 1)]
        ranks = reduced_homology_by_dense_elimination(facets, field.characteristic)
        for j in sorted(ranks):
            if ranks[j] and len(b) != d + j + 1:
                return (j + 1, frozenset(b))
    return None


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


def elimination_order_by_scan(adj, verts):
    """``graphs._elimination_order`` as a scan: the lowest vertex whose
    remaining neighbours are pairwise adjacent, tested with ``all`` over
    each of them, is eliminated until none is left or none qualifies."""
    order = []
    while verts:
        for v in (u for u in range(len(adj)) if verts >> u & 1):
            nb = adj[v] & verts
            if all(nb & ~adj[u] == 1 << u for u in range(len(adj)) if nb >> u & 1):
                break
        else:
            return None
        order.append(v)
        verts ^= 1 << v
    return order


# each campaign claim's hypothesis on a Graph G and a vertex set S
HYPOTHESES_ON_GRAPHS = {
    "T3.2": lambda G, S: is_chordal(delete_vertices(G, S)).chordal,
    "T3.3": lambda G, S: classify_remainder(G, S) is RemainderClass.FIVE_CYCLE,
    "T4.1": lambda G, S: necessary_scm(G, S) is not None,
    "C3.4": lambda G, S: all(u in S or v in S for u, v in G.edges()),
    "C3.5": lambda G, S: len(S) >= G.n - 3,
    "C3.6": lambda G, S: len(S) == G.n,
    "C4.2": lambda G, S: (G.n - len(S) in (4, 6, 7)
                          and induces_one_cycle_by_union_find(G, set(range(G.n)) - S)),
}
