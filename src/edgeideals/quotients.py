"""Linear-quotients certificates for square-free monomial ideals.

A certificate is a sequence of generator masks with one colon mask per
step: the variables generating the colon ideal of the prefix by that
generator.  Certificates are checkable in O(r*n) big-int operations (one
pass over the sequence with a bitset of generator positions per variable,
``_colon_walk``).  Ideals come in and go out as ``MonomialIdeal``s, which
hold their generator masks as well, so this module builds no ``Monomial``.

A dual component is ordered by the first of these that succeeds: its
canonical order (identity), the whisker decomposition at a pendant or
isolated vertex (structural), then the exact search.  At the search's
first backtrack a GF(2) Betti witness is sought once; it proves that no
order exists, and otherwise the search resumes where it stopped.  Two
kinds of order are certified by a lemma with their colons in closed form
and are not walked: the canonical order of a full whiskering (L2,
``_OrderSearch._whisker_bases``) and the whisker decomposition whose
blocks are orders (L1, ``_whisker_seq``).  Every other canonical order is
walked, and the search checks each step it takes.  ``verify_order``,
``find_order``, ``make_order`` and ``whisker_order`` trust neither lemma
and walk every sequence, so ``decide.check_evidence`` re-checks the
lemma-certified orders by the walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .errors import InputError, SearchBudgetExceeded
from .graphs import Graph, _bits, _covers_by_size, _default_labels
from .homology import GF2, BettiTable, BettiWitness, nonlinear_witness
from .monomials import MonomialIdeal, _minimal_masks, alexander_dual_of_edge_ideal

__all__ = [
    "QuotientOrder",
    "DLQReport",
    "make_order",
    "verify_order",
    "find_order",
    "has_dual_linear_quotients",
    "whisker_order",
    "betti_from_quotient_order",
    "search_stats",
    "reset_search_stats",
]


# statistics for the greedy-vs-backtracking open question; purely informational
search_stats = {
    "identity": 0,      # canonical order already had linear quotients
    "structural": 0,    # constructive whisker/extension order verified
    "greedy": 0,        # exact search succeeded with no backtracking
    "backtracked": 0,   # exact search succeeded after backtracking
    "exhausted": 0,     # exact search proved no order exists
    "refuted": 0,       # a GF(2) Betti witness proved no order exists
}


def reset_search_stats():
    for k in search_stats:
        search_stats[k] = 0


def _colon_step(col, vbit, u: int, i: int):
    """One colon step: the prefix of i generators, indexed by ``col``, by u.

    ``col[v]`` is the bitset of prefix positions whose generator contains
    x_v, and ``vbit[v]`` is 1 << v.  The prefix generators p with
    |p \\ u| = 1 are those met by exactly one column of a variable outside
    u; v1 is the set of outside variables whose column meets one of them.
    Since v1 avoids u, p \\ u meets v1 exactly when p does, so the step is
    linear iff the columns of v1 cover the whole prefix.  Costs O(n)
    big-int operations, for any mix of degrees.

    Returns (v1, linear, inside): ``inside`` lists the variables of u, the
    columns a caller sets bit i in when it appends u to the prefix.
    """
    once = twice = 0
    inside = []
    outside = []
    for v, b in enumerate(vbit):
        if u & b:
            inside.append(v)
        else:
            c = col[v]
            if c:
                outside.append(v)
                twice |= once & c
                once |= c
    single = once & ~twice
    v1 = covered = 0
    if single:
        for v in outside:
            c = col[v]
            if c & single:
                v1 |= vbit[v]
                covered |= c
    return v1, covered == (1 << i) - 1, inside


def _colon_walk(masks, stop_at_failure=False):
    """Colon variables of every step of a generator sequence, in one pass.

    Returns (colon, failed): the v1 mask of every position (0 at position
    0) and the bitset of positions whose step is not linear.  With
    ``stop_at_failure`` the walk ends at the first such step.
    """
    colon = [0] * len(masks)
    vbit = [1 << v for v in range(max(masks, default=0).bit_length())]
    col = [0] * len(vbit)
    failed = 0
    for i, u in enumerate(masks):
        colon[i], linear, inside = _colon_step(col, vbit, u, i)
        if not linear:
            failed |= 1 << i
            if stop_at_failure:
                break
        bit = 1 << i
        for v in inside:
            col[v] |= bit
    return colon, failed


@dataclass(frozen=True)
class QuotientOrder:
    """Generator masks in sequence order with the colon mask of each step.

    ``gens[i]`` is the support of the i-th generator and ``colon[i]`` the
    variables generating the colon ideal of ``gens[:i]`` by it, all as
    bitmasks over ``ambient`` variables.  Instances are plain data;
    ``verify_order`` is the gate that decides whether the sequence actually
    has linear quotients.
    """

    ambient: int
    gens: tuple
    colon: tuple

    @property
    def ideal(self) -> MonomialIdeal:
        """The ideal the sequence generates, in canonical order."""
        return MonomialIdeal._from_masks(self.ambient, self.gens)

    @property
    def colon_vars(self) -> tuple:
        return tuple(frozenset(_bits(m)) for m in self.colon)

    @property
    def degree(self):
        """The generators' common degree; None when they differ or there
        are none."""
        degrees = {m.bit_count() for m in self.gens}
        return degrees.pop() if len(degrees) == 1 else None

    def step_sizes(self) -> list:
        """|colon_vars| per position: the r_j feeding the Betti oracle."""
        return [m.bit_count() for m in self.colon]

    def to_json(self, labels=None) -> dict:
        if labels is None:
            labels = _default_labels(self.ambient)

        def names(m):
            out = []
            while m:
                low = m & -m
                out.append(labels[low.bit_length() - 1])
                m ^= low
            return out
        return {
            "ambient": self.ambient,
            "vars": list(labels),
            "ordered_gens": list(map(names, self.gens)),
            "colon_vars": list(map(names, self.colon)),
        }

    @classmethod
    def from_json(cls, data) -> "QuotientOrder":
        try:
            ambient = int(data["ambient"])
            names = list(data["vars"])
            ordered = data["ordered_gens"]
            colon = data["colon_vars"]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad certificate JSON: {exc}") from None
        if len(names) != ambient:
            raise InputError("vars length does not match ambient")
        bit = {name: 1 << i for i, name in enumerate(names)}

        def mask(labels):
            # distinct names add distinct bits; a repeated one carries, so
            # the count comes out short and the union is taken instead
            m = sum(map(bit.__getitem__, labels))
            return m if m.bit_count() == len(labels) else sum({bit[v] for v in labels})

        try:
            gens = tuple(map(mask, ordered))
            colon = tuple(map(mask, colon))
        except KeyError as exc:
            raise InputError(f"unknown variable {exc} in certificate") from None
        except TypeError as exc:
            raise InputError(f"bad certificate JSON: {exc}") from None
        q = cls(ambient, gens, colon)
        # distinct square-free monomials of one degree never divide each other
        if len(set(gens)) != len(gens) or (q.degree is None
                                           and len(_minimal_masks(gens)) != len(gens)):
            raise InputError("certificate generators are not minimal or not distinct")
        if len(colon) != len(gens):
            raise InputError("colon variable list length mismatch")
        return q


def make_order(ideal: MonomialIdeal, order) -> QuotientOrder:
    """Package an order with its computed colon variables (not validated)."""
    order = tuple(order)
    if sorted(order) != list(range(len(ideal.masks))):
        raise InputError("order is not a permutation of the generators")
    return _order_from_masks(ideal.ambient, [ideal.masks[i] for i in order])


def verify_order(q: QuotientOrder) -> bool:
    """Recompute every prefix colon and compare against the certificate."""
    r = len(q.gens)
    if len(set(q.gens)) != r:
        raise InputError("repeated generator in the order")
    if len(q.colon) != r:
        raise InputError("colon variable list length mismatch")
    outside = ~((1 << q.ambient) - 1)
    if any(m & outside for m in q.gens):
        raise InputError("generator outside ambient variables")
    if any(m & outside for m in q.colon):
        raise InputError("colon variable outside ambient")
    degs = [m.bit_count() for m in q.gens]
    if any(degs[i] > degs[i + 1] for i in range(r - 1)):
        return False
    colon, failed = _colon_walk(q.gens, stop_at_failure=True)
    return not failed and colon == list(q.colon)


def betti_from_quotient_order(Q: QuotientOrder) -> BettiTable:
    """Total Betti numbers implied by a verified linear-quotients order.

    For an order with colon-variable counts r_j on an ideal generated in
    degree d, beta_{i, d+i} is the sum of binomial(r_j, i).  Serves as an
    independent oracle against the homological computation.
    """
    if not verify_order(Q):
        raise InputError("certificate does not verify")
    d = Q.degree
    if d is None and Q.gens:
        raise InputError("Betti oracle needs an equigenerated ideal")
    totals = {}
    for rj in Q.step_sizes():
        for i in range(rj + 1):
            key = (i, d + i)
            totals[key] = totals.get(key, 0) + comb(rj, i)
    return BettiTable(Q.ambient, totals)


# ---------------------------------------------------------------------------
# exact search


def _search_masks(masks, spend=None, refute=None):
    """Lexicographically first linear-quotients order of ``masks`` with the
    colon mask of each of its steps, as (order, colon), or None.

    Depth-first search over prefixes, checking each candidate with
    ``_colon_step`` on columns kept along the way: an appended generator's
    columns gain its position bit and lose it when it is popped, and its
    colon mask is kept with it until then.  Failed prefix *sets* are
    memoized, which is exact because a step's colon depends on the prefix
    only as a set.  The memo needs no cap of its own: an entry follows each
    backtrack, which pops one expanded node (or ends at the root), so it
    holds at most one entry per ``spend`` call plus one.
    ``spend`` is called once per node expansion for budget accounting.
    ``refute`` is called once, at the first backtrack; when it returns
    True, no order exists and the search stops, else it resumes.
    """
    r = len(masks)
    if r <= 1:
        return list(masks), [0] * r
    vbit = [1 << v for v in range(max(masks).bit_length())]
    col = [0] * len(vbit)
    failed = set()
    chosen = []
    colon = []
    insides = []
    used = 0
    nexts = [0]
    backtracked = False
    while True:
        k = len(chosen)
        if k == r:
            search_stats["backtracked" if backtracked else "greedy"] += 1
            return [masks[i] for i in chosen], colon
        advanced = False
        i = nexts[-1]
        while i < r:
            if not used >> i & 1:
                child = used | 1 << i
                if child not in failed:
                    v1, linear, inside = _colon_step(col, vbit, masks[i], k)
                    if linear:
                        if spend is not None:
                            spend()
                        nexts[-1] = i + 1
                        chosen.append(i)
                        colon.append(v1)
                        insides.append(inside)
                        bit = 1 << k
                        for v in inside:
                            col[v] |= bit
                        used = child
                        nexts.append(0)
                        advanced = True
                        break
            i += 1
        if not advanced:
            if not backtracked and refute is not None and refute():
                search_stats["refuted"] += 1
                return None
            failed.add(used)
            if not chosen:
                search_stats["exhausted"] += 1
                return None
            backtracked = True
            used ^= 1 << chosen.pop()
            colon.pop()
            bit = 1 << (k - 1)
            for v in insides.pop():
                col[v] ^= bit
            nexts.pop()


def _order_from_masks(ambient: int, ordered, colon=None) -> QuotientOrder:
    """QuotientOrder for a sequence of generator masks.

    ``colon`` holds the sequence's colon-variable masks when a walk already
    computed them, and is derived here otherwise.
    """
    ordered = tuple(ordered)
    if colon is None:
        colon, _ = _colon_walk(ordered)
    return QuotientOrder(ambient, ordered, tuple(colon))


def find_order(I: MonomialIdeal, *, budget=None) -> QuotientOrder | None:
    """Some verified linear-quotients order of I, or None if none exists.

    Deterministic: the canonical generator order is tried first, then the
    search explores candidates lexicographically.  I must be equigenerated.
    """
    masks = I.masks
    if len(masks) > 1 and not I.is_equigenerated:
        raise InputError("find_order expects an equigenerated ideal")
    if len(masks) > 1:
        colon, failed = _colon_walk(masks, stop_at_failure=True)
        if not failed:
            search_stats["identity"] += 1
            return _order_from_masks(I.ambient, masks, colon)
    spend = _budget_counter(budget) if budget is not None else None
    found = _search_masks(masks, spend)
    return found and _order_from_masks(I.ambient, *found)


def _budget_counter(budget: int):
    state = {"left": budget}

    def spend(units=1):
        state["left"] -= units
        if state["left"] < 0:
            raise SearchBudgetExceeded(f"order search exceeded {budget} nodes")

    return spend


# ---------------------------------------------------------------------------
# dual components of a graph


class _OrderSearch:
    """Orders dual components of one graph's induced subgraphs.

    Works on bitmasks in the graph's own ambient so that the whisker
    recursion never reindexes.  ``order`` answers exactly: a list is an
    order with linear quotients, None means no order exists (proved by a
    GF(2) Betti witness, kept in ``witnesses``, or by exhaustive search); a
    budget overrun raises instead of guessing.  Covers are enumerated up to
    size ``top``, the largest degree asked for, since blocks only go down.
    Every ordered component keeps the colon masks of its order under its
    key in ``_colon``: from a walk, from the search, or from the closed
    forms of ``_whisker_bases`` and ``_whisker_seq``.
    """

    def __init__(self, adj, top: int, budget=None):
        self.adj = adj
        self.top = top
        self._covers = {}
        self._orders = {}
        self._colon = {}
        self.witnesses = {}
        self.spend = _budget_counter(budget) if budget is not None else None

    def gens(self, active: int, d: int) -> list:
        if d < 0:
            return []
        if active not in self._covers:
            self._covers[active] = _covers_by_size(self.adj, active, self.top)
        return self._covers[active].get(d, [])

    def order(self, active: int, d: int):
        key = (active, d)
        if key in self._orders:
            return self._orders[key]
        result = self._order_uncached(active, d)
        self._orders[key] = result
        return result

    def _order_uncached(self, active: int, d: int):
        """Identity, then structural order, then the exact search, which at
        its first backtrack asks ``_refuted`` for a GF(2) Betti witness.

        The canonical order of a full whiskering is certified by
        ``_whisker_bases`` and the structural candidate by ``_whisker_seq``,
        both in closed form; only the other canonical orders are walked.

        Lemma: if a component generated in degree d has linear quotients,
        its resolution is d-linear over every field, GF(2) included
        (Herzog-Takayama, Resolutions by mapping cones, 2002).  Proof
        sketch: the mapping cone of each colon step adds a Koszul complex
        on variables, shifted by d, so every step stays on the linear
        strand.  Hence a GF(2) Betti number off the strand proves that the
        search would end in None, and stopping there is exact.
        """
        gens = self.gens(active, d)
        if len(gens) <= 1:
            self._colon[active, d] = [0] * len(gens)
            return list(gens)
        bases = self._whisker_bases(active, d)
        if bases is not None:
            colon, failed = [bases & ~c for c in gens], 0
        else:
            colon, failed = _colon_walk(gens, stop_at_failure=True)
        if not failed:
            self._colon[active, d] = colon
            search_stats["identity"] += 1
            return list(gens)
        found = self._structural_candidate(active, d)
        if found is not None:
            search_stats["structural"] += 1
        else:
            found = _search_masks(gens, self.spend, lambda: self._refuted(active, d, gens))
            if found is None:
                return None
        self._colon[active, d] = found[1]
        return found[0]

    def _whisker_bases(self, active: int, d: int):
        """The mask of the bases when the graph on ``active`` is a full
        whiskering with d tips, else None.

        A full whiskering pairs every vertex of ``active`` off as a tip x,
        whose one neighbour is its base y < x, or as the base of exactly
        one tip.  The test takes one popcount unless |active| = 2d.

        Lemma (L2; Villarreal, Manuscripta Math. 1990): the canonical order
        of the degree-d covers has linear quotients, and the colon of a
        cover c is generated by the bases of the tips in c, the bases
        outside c.  Proof: a size-d cover holds exactly one end of each of
        the d disjoint edges y_j x_j, so c = (B minus I) + tips(I) for B
        the bases and I = B minus c, an independent set.  Two covers
        differ on whole pairs, and each pair's lowest vertex is its base,
        so c' comes before c exactly when the lowest base on which they
        differ lies in c' and not in c, that is, in I; then c' minus c
        holds that base.  Conversely each y in I gives c - x + y, a cover
        (x's one neighbour is y) that comes before c and has c' minus c =
        {y}.  So every earlier quotient meets I and each y in I is one.
        This is L1 of ``_whisker_seq`` unrolled at the lowest base's tip.
        """
        if active.bit_count() != 2 * d:
            return None
        tips = bases = 0
        for v in _bits(active):
            nb = self.adj[v] & active
            if nb and nb & (nb - 1) == 0 and nb >> v == 0:
                tips += 1
                bases |= nb
        # a tip is never a base: its base y < x would need x < y as a tip,
        # so d tips with d distinct bases pair off all 2d vertices
        return bases if tips == d == bases.bit_count() else None

    def _refuted(self, active: int, d: int, gens) -> bool:
        """Keep a GF(2) Betti witness of the component under (active, d);
        False when it has a linear resolution.  The lcm lattice the scan
        builds is charged to the search budget."""
        ideal = MonomialIdeal._from_canonical(len(self.adj), gens)
        w = nonlinear_witness(ideal, GF2, self.spend)
        if w is None:
            return False
        self.witnesses[(active, d)] = BettiWitness(d, *w)
        return True

    def _structural_candidate(self, active: int, d: int):
        """Order along the whisker decomposition at the first isolated
        vertex, else the last pendant vertex, with its colon masks; None
        when there is no such vertex or a block has no order."""
        x = None
        for v in _bits(active):
            nb = self.adj[v] & active
            if not nb:
                x = v
                break
            if nb & (nb - 1) == 0:
                x = v
        if x is None:
            return None
        return _whisker_seq(self, active, x, d, self.order)


def _whisker_seq(ctx, active: int, x: int, d: int, block):
    """Degree-d covers of ``active`` ordered along the decomposition at x,
    as (seq, colon).

    x is isolated in ``active`` or a degree-one tip with base y.  Isolated:
    E, the covers of the rest, then F*x.  Tip: y*B, B the covers avoiding
    x and y; then x*D*C, D the other neighbours of y and C the covers of
    what D leaves; then x times the A covers (those avoiding x) that
    contain y.  Those are y*e for e the covers of the rest, since y covers
    every edge at y, and adding y keeps their canonical order, so they are
    read off the rest's covers with no walk of their own.
    ``block(mask, degree)`` orders each smaller component; a None block
    makes the result None.
    ``colon`` is built from the blocks' colon masks in ``ctx._colon``, and
    is None when a block has none.  Which blocks get ordered shows in
    ``search_stats``: E and F are both ordered, C only after B.

    Lemma (L1): when the blocks are orders, so is seq, and with R the rest
    (``active`` minus x and y) its colons are: colon_B(b) at y*b, y plus
    colon_C(c) at x*D*c and R minus e at x*y*e; colon_E(e) at e and R
    minus f at x*f.  Proof: a y*b has only y*B before it, so its quotients
    are B's.  At x*D*c the earlier y*b give y times b minus (D + c), and y
    itself from b = D + c, a cover of R; the earlier x*D*c' give C's
    quotients.  At x*y*e every earlier quotient lies in R minus e and is
    nonempty (y*b: b has more vertices than e; x*D*c: D + c has too;
    x*y*e': e' is another set of e's size), and each v in R minus e is one,
    from y*(e + v).  At an isolated x, e has only E before it, and x*f
    sees only quotients in R minus f, each v there from the cover f + v
    of E.  (Herzog-Hibi-Zheng: linear quotients of a cover ideal are a
    shelling of the complementary complex.)
    """
    xbit = 1 << x
    ybit = ctx.adj[x] & active
    rest = active ^ xbit ^ ybit
    if not ybit:
        e_block = block(rest, d)
        f_block = block(rest, d - 1)
        if e_block is None or f_block is None:
            return None
        seq = list(e_block) + [m | xbit for m in f_block]
        head = ctx._colon.get((rest, d))
        tail = [rest & ~m for m in f_block]
    else:
        b_block = block(rest, d - 1)
        if b_block is None:
            return None
        dmask = ctx.adj[ybit.bit_length() - 1] & rest
        c_key = (rest & ~dmask, d - 1 - dmask.bit_count())
        c_block = block(*c_key)
        if c_block is None:
            return None
        a_covers = ctx.gens(rest, d - 2)
        seq = ([ybit | m for m in b_block]
               + [xbit | dmask | c for c in c_block]
               + [xbit | ybit | e for e in a_covers])
        b_colon, c_colon = ctx._colon.get((rest, d - 1)), ctx._colon.get(c_key)
        head = (None if b_colon is None or c_colon is None
                else b_colon + [ybit | c for c in c_colon])
        tail = [rest & ~e for e in a_covers]
    gens = ctx.gens(active, d)
    if len(seq) != len(gens) or set(seq) != set(gens):
        raise AssertionError("whisker blocks do not assemble the component")
    return seq, None if head is None else head + tail


@dataclass
class DLQReport:
    """Per-degree linear-quotients outcomes for a graph's dual components.

    A degree mapped to None has no order; ``witnesses`` holds the GF(2)
    ``BettiWitness`` that proves it, for the degrees that have one.
    ``dual`` is the Alexander dual whose components are reported.
    """

    graph: Graph
    per_degree: dict = field(default_factory=dict)
    unknown: tuple = ()
    skipped: tuple = ()
    witnesses: dict = field(default_factory=dict)
    dual: MonomialIdeal | None = None

    @property
    def verdict(self):
        if any(q is None for q in self.per_degree.values()):
            return False
        if self.unknown:
            return None
        return True

    @property
    def failing_degree(self):
        for d in sorted(self.per_degree):
            if self.per_degree[d] is None:
                return d
        return None

    def certificates(self) -> dict:
        return {d: q for d, q in self.per_degree.items() if q is not None}

    def to_json(self, labels=None) -> dict:
        """The dlq-report payload that ``decide.check_evidence`` reads.

        A degree without an order is written as its witness, or as null
        when it has none.
        """
        if labels is None:
            labels = self.graph.labels
        per_degree = {}
        for d, q in self.per_degree.items():
            w = q if q is not None else self.witnesses.get(d)
            per_degree[str(d)] = w.to_json(labels) if w is not None else None
        return {
            "kind": "dlq-report",
            "verdict": self.verdict,
            "per_degree": per_degree,
            "unknown": list(self.unknown),
            "skipped": list(self.skipped),
        }


def _dual_orders(adj, dual, budget, stop_at_failure):
    """``has_dual_linear_quotients`` on masks, for the graph with adjacency
    tuple ``adj`` and the generator masks ``dual`` of its Alexander dual,
    canonically ordered.  Returns (ordered, unknown, skipped, ctx):
    ``ordered`` maps each decided degree to its ordered generator masks, or
    to None when it has no order; ``ctx`` is the ``_OrderSearch``, which
    keeps their colon masks and witnesses under (full, d).  It builds no
    order or report, and an ideal only for a GF(2) witness scan.

    Degrees run from dmin to D, the least and the largest minimal-cover
    size: by the lemma below, every component above D has linear quotients
    (a linear resolution) when the degree-D component has.  With a
    budget, degrees whose exact search or witness scan was cut off are
    unknown rather than decided.  With ``stop_at_failure`` the degrees
    after the first without an order are skipped.

    Lemma: let J be generated by square-free monomials of degree d and J'
    by their square-free multiples of degree d+1.  If J has linear
    quotients, so has J'; if J has a linear resolution over a field, so
    has J' over that field.  Proof sketch: J is I_{Gamma^vee} for the pure
    complex Gamma whose facets are the complements of J's generators, and
    J' is I_{Gamma'^vee} for Gamma' the codimension-one skeleton of Gamma.
    Skeleta of shellable complexes are shellable (Bjorner-Wachs, Trans.
    AMS 1996), and skeleta of Cohen-Macaulay complexes are Cohen-Macaulay
    over the same field, so the claim follows from Herzog-Hibi-Zheng
    (Europ. J. Combin. 2004: linear quotients iff shellable) and
    Eagon-Reiner (JPAA 1998: linear resolution iff Cohen-Macaulay), in
    every characteristic.  For d >= D no generator of the dual has degree
    above d, so its degree-(d+1) component is the J' of its degree-d
    component (Herzog-Hibi, Nagoya Math. J. 1999), and each component
    above D inherits both properties from the degree-D one.

    Lemma (unmixed graphs): when every minimal cover has size D, the
    degree-D component is generated by the minimal covers themselves, so
    its generators are the dual's and are not enumerated again.  Proof: a
    cover of size D contains a minimal cover, which has size D too, so the
    two are equal.  The dual lists its generators in the canonical order
    ``graphs._covers_by_size`` gives each size class.  Sub-blocks, and
    every degree of a mixed graph, are still enumerated.
    """
    lo, hi = dual[0].bit_count(), dual[-1].bit_count()
    ctx = _OrderSearch(adj, hi, budget)
    full = (1 << len(adj)) - 1
    if lo == hi:
        ctx._covers[full] = {hi: dual}
    ordered = {}
    unknown = []
    skipped = []
    for d in range(lo, hi + 1):
        if stop_at_failure and None in ordered.values():
            skipped.append(d)
            continue
        try:
            ordered[d] = ctx.order(full, d)
        except SearchBudgetExceeded:
            unknown.append(d)
    return ordered, tuple(unknown), tuple(skipped), ctx


def has_dual_linear_quotients(G: Graph, *, budget=None, stop_at_failure=False) -> DLQReport:
    """Check linear quotients of the square-free degree components of the
    dual, from dmin to D (the lemmas of ``_dual_orders``, which this wraps).
    With a budget, degrees whose exact search or witness scan was cut off
    are reported as unknown rather than decided.  A degree without an
    order carries its GF(2) witness when the search found one.
    """
    dual = alexander_dual_of_edge_ideal(G)
    ordered, unknown, skipped, ctx = _dual_orders(G.adj, dual.masks, budget, stop_at_failure)
    full = (1 << G.n) - 1
    per_degree = {d: None if seq is None else _order_from_masks(G.n, seq, ctx._colon[full, d])
                  for d, seq in ordered.items()}
    witnesses = {d: ctx.witnesses[full, d] for d in per_degree if (full, d) in ctx.witnesses}
    return DLQReport(G, per_degree, unknown, skipped, witnesses, dual)


# ---------------------------------------------------------------------------
# the constructive whisker ordering


def whisker_order(K: Graph, whisker, d: int) -> QuotientOrder:
    """Order the degree-d dual component along the whisker decomposition.

    The smaller components (the B and C blocks, or E and F at an isolated
    vertex) are ordered by this module's own pipeline, falling back to the
    canonical order where none exists.  The result is a candidate: callers
    decide with ``verify_order`` whether it certifies, and with a failing
    hypothesis it genuinely may not.
    """
    x, y = whisker
    if not 0 <= x < K.n:
        raise InputError(f"whisker tip {x} out of range")
    deg = K.degree(x)
    if deg > 1:
        raise InputError(f"vertex {x} has degree {deg}; not a whisker tip")
    if deg == 1:
        nb = K.adj[x].bit_length() - 1
        if y is None or nb != y:
            raise InputError(f"whisker tip {x} is adjacent to {nb}, not {y}")
    elif y is not None and not 0 <= y < K.n:
        raise InputError(f"whisker base {y} out of range")
    ctx = _OrderSearch(K.adj, d)
    full = (1 << K.n) - 1
    if not ctx.gens(full, d):
        raise InputError(f"the degree-{d} dual component is zero")

    def block(mask: int, dd: int):
        got = ctx.order(mask, dd)
        return ctx.gens(mask, dd) if got is None else got

    return _order_from_masks(K.n, _whisker_seq(ctx, full, x, d, block)[0])
