"""Reduced simplicial homology and multigraded Betti numbers over a field.

Betti numbers of a square-free monomial ideal are read off as ranks of
reduced homology of upper Koszul complexes; ranks alone suffice over a
field, so no normal forms are computed.  Inside the library a complex is
its list of facet masks, which one kernel (``_facet_ranks``) turns into
ranks; ``SimplicialComplex`` is the public type, built only by
``upper_koszul_complex`` and by callers.  GF(2) ranks run on bitmask
columns; odd primes and the rationals share one fraction-free elimination
on sparse columns, reduced mod p or divided by each column's gcd over Q.
The linear-resolution scan ranks only the lattice points that can carry a
Betti number off the linear strand (the purity lemma at
``nonlinear_witness``).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import InputError
from .graphs import _bits, _default_labels
from .monomials import (Monomial, MonomialIdeal, _minimal_masks, _order_key,
                        squarefree_degree_component)

__all__ = [
    "FieldSpec",
    "GF2",
    "GF3",
    "QQ",
    "SimplicialComplex",
    "BettiTable",
    "BettiWitness",
    "CWLReport",
    "upper_koszul_complex",
    "reduced_homology_ranks",
    "betti_numbers",
    "betti_at",
    "nonlinear_witness",
    "is_componentwise_linear",
]


# Prime characteristics are accepted below this cap only: primality is
# tested by trial division, which takes a few milliseconds just below it.
MAX_CHARACTERISTIC = 1 << 31


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The coefficient field: a prime characteristic, or None for Q."""

    characteristic: int | None

    def __post_init__(self):
        p = self.characteristic
        if p is not None and p >= MAX_CHARACTERISTIC:
            raise InputError(f"field characteristic {p} is not below 2**31")
        if p is not None and not _is_prime(p):
            raise InputError(f"{p} is not prime")

    @classmethod
    def parse(cls, text: str) -> "FieldSpec":
        t = text.strip().lower() if isinstance(text, str) else ""
        if t in ("q", "0", "rationals"):
            return cls(None)
        if t.startswith("p:"):
            t = t[2:]
        try:
            p = int(t)
        except ValueError:
            raise InputError(f"bad field spec {text!r}: expected q, a prime, or p:<n>") from None
        return cls(p)

    @property
    def is_rational(self) -> bool:
        return self.characteristic is None

    def __str__(self):
        return "q" if self.characteristic is None else str(self.characteristic)


GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
QQ = FieldSpec(None)


class SimplicialComplex:
    """Face complex stored by its facets (masks over variable indices).

    The public type: ``upper_koszul_complex`` builds it and callers may,
    while the library's own scans hand facet masks straight to the ranks
    kernel and build none.  The facets are the inclusion-maximal members of
    the given family, kept as a tuple of increasing ints: ranks of homology
    read no order, so none is imposed beyond a canonical one.  No facets at
    all is the void complex; the single facet 0 (empty mask) is the
    irrelevant complex whose only face is the empty set.
    """

    __slots__ = ("ground", "facets")

    def __init__(self, ground: int, facets):
        facets = set(facets)
        if any(m & ~ground for m in facets):
            raise InputError("facet outside the ground set")
        self.ground = ground
        # a facet is maximal exactly when its complement in ground is minimal
        self.facets = tuple(sorted(ground ^ c for c in _minimal_masks(ground ^ m for m in facets)))

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def dim(self):
        if self.is_void:
            return None
        return max(m.bit_count() for m in self.facets) - 1

    def face_masks(self) -> set:
        return _faces(self.facets)

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.ground == other.ground and self.facets == other.facets

    def __hash__(self):
        return hash((self.ground, self.facets))

    def __repr__(self):
        if self.is_void:
            return "SimplicialComplex(void)"
        return f"SimplicialComplex(facets={[sorted(_bits(m)) for m in self.facets]})"


def upper_koszul_complex(M: MonomialIdeal, b: Monomial) -> SimplicialComplex:
    """Faces are the a <= b with x^b / x^a in M.

    Equivalently the facets are the complements in b of the generators
    dividing x^b; void when x^b is not in M.
    """
    if b.mask >> M.ambient:
        raise InputError("multidegree outside the ambient variables")
    return SimplicialComplex(b.mask, _koszul_complex(M.masks, b.mask))


def _koszul_complex(gens, b: int) -> list:
    """Facet masks of the upper Koszul complex at the mask ``b`` of the
    ideal generated by the masks ``gens``: one facet b minus g per
    generator g inside b.

    Lemma: for minimal generators the facets form an antichain.  For g and
    h inside b, b minus g lies in b minus h only when h lies in g, and
    minimal generators are incomparable, so no facet lies in another.
    """
    return [b & ~g for g in gens if g & ~b == 0]


def _faces(facets) -> set:
    """Every subset of every mask in ``facets``."""
    faces = set()
    for f in facets:
        s = f
        while True:
            faces.add(s)
            if s == 0:
                break
            s = (s - 1) & f
    return faces


# ---------------------------------------------------------------------------
# ranks of boundary maps


def _rank_gf2(cols) -> int:
    pivots = {}
    rank = 0
    for c in cols:
        while c:
            low = c & -c
            p = pivots.get(low)
            if p is None:
                pivots[low] = c
                rank += 1
                break
            c ^= p
    return rank


def _rank_modp(cols, p: int) -> int:
    return _eliminate(cols, p)


def _rank_exact(cols) -> int:
    """Rank over Q."""
    return _eliminate(cols, None)


def _eliminate(cols, p) -> int:
    """Rank of sparse integer columns, each a dict from row to entry.

    Fraction-free elimination on the lowest row r: a column c meeting the
    pivot column q there becomes q[r] * c - c[r] * q, so no inverse is
    taken.  With a prime ``p`` entries are reduced mod p; over Q (``p``
    None) each new column is divided by the gcd of its entries, which
    keeps them small.
    """
    pivots = {}
    rank = 0
    for c in cols:
        c = {k: v % p for k, v in c.items() if v % p} if p else {k: v for k, v in c.items() if v}
        while c:
            r = min(c)
            q = pivots.get(r)
            if q is None:
                pivots[r] = c
                rank += 1
                break
            qr, cr = q[r], c[r]
            nxt = {}
            for k in c.keys() | q.keys():
                v = qr * c.get(k, 0) - cr * q.get(k, 0)
                if p:
                    v %= p
                if v:
                    nxt[k] = v
            c = nxt
            if not p:
                g = gcd(*c.values())
                if g > 1:
                    c = {k: v // g for k, v in c.items()}
    return rank


def _boundary_rank(upper, lower, field: FieldSpec) -> int:
    """Rank of the boundary map from faces ``upper`` to faces ``lower``."""
    if not upper or not lower:
        return 0
    index = {m: i for i, m in enumerate(lower)}
    if field.characteristic == 2:
        cols = []
        for m in upper:
            c, rest = 0, m
            while rest:
                low = rest & -rest
                c |= 1 << index[m ^ low]
                rest ^= low
            cols.append(c)
        return _rank_gf2(cols)
    cols = []
    for m in upper:
        col, rest, sign = {}, m, 1
        while rest:
            low = rest & -rest
            col[index[m ^ low]] = sign
            rest ^= low
            sign = -sign
        cols.append(col)
    if field.is_rational:
        return _rank_exact(cols)
    return _rank_modp(cols, field.characteristic)


def reduced_homology_ranks(K: SimplicialComplex, field: FieldSpec = GF2) -> dict:
    """Ranks of reduced homology in dimensions -1..dim.

    The void complex has no homology at all (empty dict); the irrelevant
    complex has rank one in dimension -1.
    """
    return _facet_ranks(K.facets, field)


def _facet_ranks(facets, field: FieldSpec) -> dict:
    """``reduced_homology_ranks`` of the complex whose faces are the
    subsets of the masks ``facets``, in increasing dimension.  Any family
    will do: a member inside another, or repeated, adds no face."""
    if not facets:
        return {}
    dim = max(m.bit_count() for m in facets) - 1
    out = dict.fromkeys(range(-1, dim + 1), 0)
    # a vertex in every facet makes the complex a cone, hence contractible
    common = -1
    for f in facets:
        common &= f
    if common:
        return out
    faces = {}
    for m in _faces(facets):
        faces.setdefault(m.bit_count(), []).append(m)
    bd_rank = {k: _boundary_rank(faces.get(k, []), faces.get(k - 1, []), field)
               for k in range(1, dim + 2)}
    for j in out:
        out[j] = len(faces.get(j + 1, [])) - bd_rank.get(j + 1, 0) - bd_rank.get(j + 2, 0)
    return out


# ---------------------------------------------------------------------------
# Betti tables


@dataclass
class BettiTable:
    """Multigraded Betti numbers with a total-degree view.

    ``entries`` maps (homological index i, multidegree as a frozenset) to a
    positive rank; it is None for tables that only carry the total view
    (the linear-quotients oracle produces those).
    """

    ambient: int
    totals: dict
    entries: dict | None = None
    field: FieldSpec | None = None

    def to_text(self) -> str:
        if not self.totals:
            return "(zero table)\n"
        is_ = sorted({i for i, _ in self.totals})
        js = sorted({j for _, j in self.totals})
        width = max(len(str(v)) for v in self.totals.values())
        width = max(width, max(len(str(j)) for j in js))
        head = "i\\j " + " ".join(f"{j:>{width}}" for j in js)
        lines = [head]
        for i in is_:
            row = [f"{i:<4}"]
            for j in js:
                v = self.totals.get((i, j), 0)
                row.append(f"{v if v else '.':>{width}}")
            lines.append(" ".join(row))
        return "\n".join(lines) + "\n"

    def to_json(self, labels=None) -> dict:
        out = {
            "ambient": self.ambient,
            "field": str(self.field) if self.field else None,
            "total": [[i, j, v] for (i, j), v in sorted(self.totals.items())],
        }
        if self.entries is not None:
            if labels is None:
                labels = _default_labels(self.ambient)
            out["multigraded"] = [
                [i, [labels[v] for v in sorted(b)], r]
                for (i, b), r in sorted(self.entries.items(), key=lambda kv: (kv[0][0], sorted(kv[0][1])))
            ]
        return out


def _lcm_lattice(gens, spend=None, least: int = 0) -> list:
    """All unions of nonempty sets of the generator masks ``gens`` with at
    least ``least`` elements, deduplicated, by size and then
    lexicographically.  Ranks read no order, but the first witness a scan
    meets here is the evidence it reports.

    ``spend(k)``, when given, is charged k units as k new elements join,
    those later dropped for falling short of ``least`` included.
    """
    lattice = set()
    for g in gens:
        size = len(lattice)
        lattice |= {x | g for x in lattice}
        lattice.add(g)
        if spend is not None:
            spend(len(lattice) - size)
    return sorted([b for b in lattice if b.bit_count() >= least], key=_order_key)


def betti_numbers(M: MonomialIdeal, field: FieldSpec = GF2) -> BettiTable:
    """Multigraded Betti numbers via upper Koszul homology.

    Only multidegrees in the lcm lattice of the generators can carry a
    nonzero entry, so the scan is restricted to those.
    """
    entries = {}
    totals = {}
    for b in _lcm_lattice(M.masks):
        size = b.bit_count()
        for j, r in _facet_ranks(_koszul_complex(M.masks, b), field).items():
            if r:
                i = j + 1
                entries[(i, frozenset(_bits(b)))] = r
                totals[(i, size)] = totals.get((i, size), 0) + r
    return BettiTable(M.ambient, totals, entries, field)


def betti_at(M: MonomialIdeal, b: Monomial, i: int, field: FieldSpec = GF2) -> int:
    """Single multigraded Betti number beta_{i,b}."""
    return reduced_homology_ranks(upper_koszul_complex(M, b), field).get(i - 1, 0)


# ---------------------------------------------------------------------------
# linear resolutions, componentwise linearity


def nonlinear_witness(M: MonomialIdeal, field: FieldSpec = GF2, spend=None):
    """First (i, multidegree) with a Betti number off the linear strand.

    Scans the lcm lattice by increasing size (then lexicographically) and
    stops at the first witness; None when the resolution is linear.
    ``spend`` is charged one unit per lcm-lattice element built.

    Lemma (purity; Miller-Sturmfels, Combinatorial Commutative Algebra,
    2005, ch. 1): let M be generated in degree d and b a point of its lcm
    lattice.  Each facet b minus g of the upper Koszul complex K^b has
    |b| - d elements, so K^b is pure of dimension |b| - d - 1, and that top
    dimension is the linear strand: beta_{i,b} = dim H~_{i-1}(K^b) lies on
    it exactly when i - 1 = |b| - d - 1.  Hence:

    - a point with |b| <= d + 1 carries no Betti number off the strand,
      since K^b is the irrelevant complex {empty set} or a set of points,
      whose only homology is in its top dimension;
    - a point with |b| = d + 2 carries one exactly when the graph K^b is
      disconnected, and then with index 1, over every field.

    So the scan skips the points with |b| <= d + 1 (their lattice elements
    are still built and charged), settles |b| = d + 2 by connectivity, and
    computes ranks only from |b| = d + 3 on.  The order of the points kept
    is unchanged, so the first witness is the same.
    """
    if M.is_zero:
        return None
    if not M.is_equigenerated:
        raise InputError("linear-resolution test needs an equigenerated ideal")
    d = M.min_degree
    gens = M.masks
    for b in _lcm_lattice(gens, spend, d + 2):
        facets = _koszul_complex(gens, b)
        size = b.bit_count()
        # at |b| = d + 2 only H~_0 can lie off the strand
        ranks = {0: not _connected(facets)} if size == d + 2 else _facet_ranks(facets, field)
        for j, r in ranks.items():
            if r and size != d + j + 1:
                return (j + 1, frozenset(_bits(b)))
    return None


def _connected(edges) -> bool:
    """Whether the graph with the 2-element masks ``edges`` (at least one)
    as its edges is connected on the union of its edges.  Each pass joins
    the edges that meet the vertices reached so far, starting from the
    first edge, and the walk stops at the first pass that joins none."""
    reach, left = edges[0], edges
    while left:
        rest = []
        for e in left:
            if e & reach:
                reach |= e
            else:
                rest.append(e)
        if len(rest) == len(left):
            return False
        left = rest
    return True


@dataclass(frozen=True)
class BettiWitness:
    """Nonlinear syzygy: beta_{index, multidegree} of the degree-`degree`
    dual component is nonzero with |multidegree| != degree + index."""

    degree: int
    index: int
    multidegree: frozenset

    kind = "betti-witness"

    def to_json(self, labels=None) -> dict:
        b = sorted(self.multidegree)
        return {
            "kind": self.kind,
            "degree": self.degree,
            "index": self.index,
            "multidegree": [labels[v] for v in b] if labels else b,
        }


@dataclass
class CWLReport:
    """Per-degree linear-resolution outcomes for the square-free components."""

    ideal: MonomialIdeal
    field: FieldSpec
    per_degree: dict
    witness: tuple | None = None   # (component degree, i, multidegree)

    @property
    def verdict(self) -> bool:
        return self.witness is None


def is_componentwise_linear(I: MonomialIdeal, field: FieldSpec = GF2) -> CWLReport:
    """Check that every (I_[d]) has a linear resolution.

    Degrees run from the least to the largest generator degree: above it,
    components inherit a linear resolution (the lemma of
    ``quotients._dual_orders``).  The scan stops at the first
    failing degree, whose witness is recorded.  Homology runs on every
    degree; ``decide._scan_open_degrees`` is the same scan with the degrees
    the order search settled filled in.
    """
    return _componentwise_scan(I, field, {})


def _componentwise_scan(I: MonomialIdeal, field: FieldSpec, known: dict) -> CWLReport:
    """The degree loop of ``is_componentwise_linear``.  ``known`` maps each
    degree already settled without homology to its witness (i, multidegree),
    or to None when its component has a linear resolution; homology runs on
    every other degree."""
    per_degree = {}
    if I.is_zero:
        return CWLReport(I, field, per_degree)
    for d in range(I.min_degree, I.max_degree + 1):
        if d in known:
            w = known[d]
        else:
            w = nonlinear_witness(squarefree_degree_component(I, d), field)
        per_degree[d] = w is None
        if w is not None:
            return CWLReport(I, field, per_degree, (d, w[0], w[1]))
    return CWLReport(I, field, per_degree)
