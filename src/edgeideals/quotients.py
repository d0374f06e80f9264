"""Linear-quotients certificates for square-free monomial ideals.

A certificate is a sequence of generator masks with one colon mask per
step: the variables generating the colon ideal of the prefix by that
generator.  Certificates are checkable in O(r*n) big-int operations (one
pass over the sequence with a bitset of generator positions per variable),
so every order found here -- whether by exact search or by the constructive
whisker recursion -- is verified before it is trusted.  ``Monomial`` and
``MonomialIdeal`` objects appear only in the derived views and at the JSON
boundary.

A dual component is ordered by the first of these that succeeds: its
canonical order (identity), the whisker decomposition at a pendant or
isolated vertex (structural), then the exact search.  At the search's
first backtrack a GF(2) Betti witness is sought once; it proves that no
order exists, and otherwise the search resumes where it stopped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .errors import InputError, SearchBudgetExceeded
from .graphs import Graph, _bits, _covers_by_size, _mask_of
from .homology import GF2, BettiTable, BettiWitness, nonlinear_witness
from .monomials import Monomial, MonomialIdeal

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


def _step_linear(prefix_masks, u: int):
    """Is the colon of the prefix by u generated by single variables?

    Returns (ok, v1) where v1 is the union of the single-variable colon
    generators.  The colon generators are the supports p \\ u; the ideal they
    generate is variable-generated exactly when every difference meets v1.
    Only the order search uses this per-step scan: its prefixes change by
    one generator at a time, and most of them are short.
    """
    nu = ~u
    v1 = 0
    diffs = []
    for p in prefix_masks:
        dmask = p & nu
        diffs.append(dmask)
        if dmask & (dmask - 1) == 0:
            v1 |= dmask
    for dmask in diffs:
        if not dmask & v1:
            return False, v1
    return True, v1


def _colon_walk(masks, stop_at_failure=False):
    """Colon variables of every step of a generator sequence, in one pass.

    ``col[v]`` is the bitset of earlier positions whose generator contains
    x_v.  At step i with new generator u, the prefix generators p with
    |p \\ u| = 1 are those met by exactly one column of a variable outside
    u; v1 is the set of outside variables whose column meets one of them.
    Since v1 avoids u, p \\ u meets v1 exactly when p does, so the step is
    linear iff the columns of v1 cover the whole prefix.  Each step costs
    O(n) big-int operations, for any mix of degrees.

    Returns (colon, failed): the v1 mask of every position (0 at position
    0) and the bitset of positions whose step is not linear.  With
    ``stop_at_failure`` the walk ends at the first such step.
    """
    r = len(masks)
    colon = [0] * r
    top = 0
    for m in masks:
        top |= m
    vbit = [1 << v for v in range(top.bit_length())]
    col = [0] * len(vbit)
    failed = 0
    for i, u in enumerate(masks):
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
        if i:
            single = once & ~twice
            v1 = covered = 0
            if single:
                for v in outside:
                    c = col[v]
                    if c & single:
                        v1 |= vbit[v]
                        covered |= c
            colon[i] = v1
            if covered != (1 << i) - 1:
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
        return MonomialIdeal.from_generators(self.ambient, self.ordered_gens())

    @property
    def colon_vars(self) -> tuple:
        return tuple(frozenset(_bits(m)) for m in self.colon)

    def ordered_gens(self):
        return [Monomial.from_mask(m) for m in self.gens]

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
            labels = [f"x{i + 1}" for i in range(self.ambient)]
        return {
            "ambient": self.ambient,
            "vars": list(labels),
            "ordered_gens": [[labels[v] for v in _bits(m)] for m in self.gens],
            "colon_vars": [[labels[v] for v in _bits(m)] for m in self.colon],
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
        index = {name: i for i, name in enumerate(names)}
        try:
            gens = tuple(_mask_of(index[v] for v in g) for g in ordered)
            colon = tuple(_mask_of(index[v] for v in s) for s in colon)
        except KeyError as exc:
            raise InputError(f"unknown variable {exc} in certificate") from None
        except TypeError as exc:
            raise InputError(f"bad certificate JSON: {exc}") from None
        q = cls(ambient, gens, colon)
        # distinct square-free monomials of one degree never divide each other
        if len(set(gens)) != len(gens) or (q.degree is None and len(q.ideal.gens) != len(gens)):
            raise InputError("certificate generators are not minimal or not distinct")
        if len(colon) != len(gens):
            raise InputError("colon variable list length mismatch")
        return q


def make_order(ideal: MonomialIdeal, order) -> QuotientOrder:
    """Package an order with its computed colon variables (not validated)."""
    order = tuple(order)
    if sorted(order) != list(range(len(ideal.gens))):
        raise InputError("order is not a permutation of the generators")
    return _order_from_masks(ideal.ambient, [ideal.gens[i].mask for i in order])


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
    """Lexicographically first linear-quotients order of ``masks``, or None.

    Depth-first search over prefixes; failed prefix *sets* are memoized,
    which is exact because a step's colon depends on the prefix only as a
    set.  ``spend`` is called once per node expansion for budget accounting.
    ``refute`` is called once, at the first backtrack; when it returns
    True, no order exists and the search stops, else it resumes.
    """
    r = len(masks)
    if r <= 1:
        return list(masks)
    failed = set()
    chosen = []
    prefix = []
    used = 0
    nexts = [0]
    backtracked = False
    while True:
        if len(chosen) == r:
            search_stats["backtracked" if backtracked else "greedy"] += 1
            return list(prefix)
        advanced = False
        i = nexts[-1]
        while i < r:
            if not used >> i & 1:
                child = used | 1 << i
                if child not in failed:
                    ok, _ = _step_linear(prefix, masks[i])
                    if ok:
                        if spend is not None:
                            spend()
                        nexts[-1] = i + 1
                        chosen.append(i)
                        prefix.append(masks[i])
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
            prefix.pop()
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
    if len(I.gens) > 1 and not I.is_equigenerated:
        raise InputError("find_order expects an equigenerated ideal")
    masks = I.gen_masks()
    if len(masks) > 1:
        colon, failed = _colon_walk(masks, stop_at_failure=True)
        if not failed:
            search_stats["identity"] += 1
            return _order_from_masks(I.ambient, masks, colon)
    spend = _budget_counter(budget) if budget is not None else None
    found = _search_masks(masks, spend)
    if found is None:
        return None
    return _order_from_masks(I.ambient, found)


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
    recursion never reindexes.  ``order`` answers exactly: a list is a
    verified order, None means no order exists (proved by a GF(2) Betti
    witness, kept in ``witnesses``, or by exhaustive search); a budget
    overrun raises instead of guessing.
    """

    def __init__(self, adj, budget=None):
        self.adj = adj
        self._covers = {}
        self._orders = {}
        self._colon = {}
        self.witnesses = {}
        self.spend = _budget_counter(budget) if budget is not None else None

    def covers(self, active: int) -> dict:
        got = self._covers.get(active)
        if got is None:
            got = _covers_by_size(self.adj, active)
            self._covers[active] = got
        return got

    def gens(self, active: int, d: int) -> list:
        if d < 0:
            return []
        return self.covers(active).get(d, [])

    def order(self, active: int, d: int):
        key = (active, d)
        if key in self._orders:
            return self._orders[key]
        result = self._order_uncached(active, d)
        self._orders[key] = result
        return result

    def quotient_order(self, ambient: int, active: int, d: int):
        """``order`` packaged as a QuotientOrder, or None."""
        ordered = self.order(active, d)
        if ordered is None:
            return None
        return _order_from_masks(ambient, ordered, self._colon.get((active, d)))

    def _linear(self, key, seq) -> bool:
        """Walk seq once; keep its colon masks under key when it is linear."""
        colon, failed = _colon_walk(seq, stop_at_failure=True)
        if failed:
            return False
        self._colon[key] = colon
        return True

    def _order_uncached(self, active: int, d: int):
        """Identity, then structural order, then the exact search, which at
        its first backtrack asks ``_refuted`` for a GF(2) Betti witness.

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
            return list(gens)
        if self._linear((active, d), gens):
            search_stats["identity"] += 1
            return list(gens)
        cand = self._structural_candidate(active, d)
        if cand is not None and self._linear((active, d), cand):
            search_stats["structural"] += 1
            return cand
        return _search_masks(gens, self.spend, lambda: self._refuted(active, d, gens))

    def _refuted(self, active: int, d: int, gens) -> bool:
        """Keep a GF(2) Betti witness of the component under (active, d);
        False when it has a linear resolution.  The lcm lattice the scan
        builds is charged to the search budget."""
        ideal = MonomialIdeal._from_canonical(len(self.adj), [Monomial.from_mask(m) for m in gens])
        w = nonlinear_witness(ideal, GF2, self.spend)
        if w is None:
            return False
        self.witnesses[(active, d)] = BettiWitness(d, *w)
        return True

    def _structural_candidate(self, active: int, d: int):
        """Order along the whisker decomposition at the first isolated
        vertex, else the last pendant vertex; None when a block has none."""
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
    """Degree-d covers of ``active`` ordered along the decomposition at x.

    x is isolated in ``active`` or a degree-one tip with base y.  Isolated:
    E, the covers of the rest, then F*x.  Tip: y*B, B the covers avoiding
    x and y; then x*D*C, D the other neighbours of y and C the covers of
    what D leaves; then x times the A covers (those avoiding x) that
    contain y.  ``block(mask, degree)`` orders each smaller component; a
    None block makes the result None.  Which blocks get ordered shows in
    ``search_stats``: E and F are both ordered, C only after B.
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
    else:
        b_block = block(rest, d - 1)
        if b_block is None:
            return None
        dmask = ctx.adj[ybit.bit_length() - 1] & rest
        c_block = block(rest & ~dmask, d - 1 - dmask.bit_count())
        if c_block is None:
            return None
        div = [m for m in ctx.gens(active ^ xbit, d - 1) if m & ybit]
        seq = ([ybit | m for m in b_block]
               + [xbit | dmask | c for c in c_block]
               + [xbit | m for m in div])
    gens = ctx.gens(active, d)
    if len(seq) != len(gens) or set(seq) != set(gens):
        raise AssertionError("whisker blocks do not assemble the component")
    return seq


@dataclass
class DLQReport:
    """Per-degree linear-quotients outcomes for a graph's dual components.

    A degree mapped to None has no order; ``witnesses`` holds the GF(2)
    ``BettiWitness`` that proves it, for the degrees that have one.
    """

    graph: Graph
    per_degree: dict = field(default_factory=dict)
    unknown: tuple = ()
    skipped: tuple = ()
    witnesses: dict = field(default_factory=dict)

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


def has_dual_linear_quotients(G: Graph, *, budget=None, stop_at_failure=False) -> DLQReport:
    """Check linear quotients of every square-free degree component of the dual.

    Degrees run from the minimum cover size to the vertex count.  With a
    budget, degrees whose exact search or witness scan was cut off are
    reported as unknown rather than decided.  A degree without an order
    carries its GF(2) witness when the search found one.
    """
    ctx = _OrderSearch(G.adj, budget)
    full = (1 << G.n) - 1
    sizes = ctx.covers(full)
    dmin = min(sizes) if sizes else 0
    per_degree = {}
    unknown = []
    skipped = []
    failed = False
    for d in range(dmin, G.n + 1):
        if failed and stop_at_failure:
            skipped.append(d)
            continue
        try:
            ordered = ctx.order(full, d)
        except SearchBudgetExceeded:
            unknown.append(d)
            continue
        if ordered is None:
            per_degree[d] = None
            failed = True
        else:
            per_degree[d] = ctx.quotient_order(G.n, full, d)
    witnesses = {d: ctx.witnesses[full, d] for d in per_degree if (full, d) in ctx.witnesses}
    return DLQReport(G, per_degree, tuple(unknown), tuple(skipped), witnesses)


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
    ctx = _OrderSearch(K.adj)
    full = (1 << K.n) - 1
    if not ctx.gens(full, d):
        raise InputError(f"the degree-{d} dual component is zero")

    def block(mask: int, dd: int):
        got = ctx.order(mask, dd)
        return ctx.gens(mask, dd) if got is None else got

    return _order_from_masks(K.n, _whisker_seq(ctx, full, x, d, block))
