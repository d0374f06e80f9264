"""Reduced simplicial homology and multigraded Betti numbers over a field.

Betti numbers of a square-free monomial ideal are read off as ranks of
reduced homology of upper Koszul complexes; ranks alone suffice over a
field, so no normal forms are computed.  GF(2) ranks run on bitmask rows,
odd primes on sparse columns mod p, and the rationals on fraction-free
integer elimination.
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

    The facets are the inclusion-maximal members of the given family, kept
    as a tuple of increasing ints: ranks of homology read no order, so none
    is imposed beyond a canonical one.  No facets at all is the void
    complex; the single facet 1 (empty mask) is the irrelevant complex
    whose only face is the empty set.
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
        faces = set()
        for f in self.facets:
            s = f
            while True:
                faces.add(s)
                if s == 0:
                    break
                s = (s - 1) & f
        return faces

    def faces_by_size(self) -> dict:
        out = {}
        for m in self.face_masks():
            out.setdefault(m.bit_count(), []).append(m)
        return out

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
    full = (1 << M.ambient) - 1
    if b.mask & ~full:
        raise InputError("multidegree outside the ambient variables")
    return _koszul_complex(M.masks, b.mask)


def _koszul_complex(gens, b: int) -> SimplicialComplex:
    """The upper Koszul complex at the mask ``b`` of the ideal generated by
    the masks ``gens``: one facet b minus g per generator g inside b."""
    return SimplicialComplex(b, [b & ~g for g in gens if g & ~b == 0])


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
    pivots = {}
    rank = 0
    for c in cols:
        c = {k: v % p for k, v in c.items() if v % p}
        while c:
            r = min(c)
            piv = pivots.get(r)
            if piv is None:
                inv = pow(c[r], -1, p)
                pivots[r] = {k: (v * inv) % p for k, v in c.items()}
                rank += 1
                break
            f = c[r]
            nxt = {}
            for k in c.keys() | piv.keys():
                v = (c.get(k, 0) - f * piv.get(k, 0)) % p
                if v:
                    nxt[k] = v
            c = nxt
    return rank


def _rank_exact(cols) -> int:
    """Rank over Q by fraction-free integer elimination."""
    pivots = {}
    rank = 0
    for c in cols:
        c = {k: v for k, v in c.items() if v}
        while c:
            r = min(c)
            piv = pivots.get(r)
            if piv is None:
                g = 0
                for v in c.values():
                    g = gcd(g, v)
                pivots[r] = {k: v // g for k, v in c.items()}
                rank += 1
                break
            pr, cr = piv[r], c[r]
            nxt = {}
            for k in c.keys() | piv.keys():
                v = pr * c.get(k, 0) - cr * piv.get(k, 0)
                if v:
                    nxt[k] = v
            c = nxt
            if c:
                g = 0
                for v in c.values():
                    g = gcd(g, v)
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
            c = 0
            for v in _bits(m):
                c |= 1 << index[m ^ (1 << v)]
            cols.append(c)
        return _rank_gf2(cols)
    cols = []
    for m in upper:
        col = {}
        for j, v in enumerate(_bits(m)):
            col[index[m ^ (1 << v)]] = -1 if j & 1 else 1
        cols.append(col)
    if field.is_rational:
        return _rank_exact(cols)
    return _rank_modp(cols, field.characteristic)


def reduced_homology_ranks(K: SimplicialComplex, field: FieldSpec = GF2) -> dict:
    """Ranks of reduced homology in dimensions -1..dim.

    The void complex has no homology at all (empty dict); the irrelevant
    complex has rank one in dimension -1.
    """
    if K.is_void:
        return {}
    dim = K.dim
    out = {j: 0 for j in range(-1, dim + 1)}
    # a vertex in every facet makes the complex a cone, hence contractible
    common = K.facets[0]
    for f in K.facets[1:]:
        common &= f
    if common:
        return out
    faces = K.faces_by_size()
    bd_rank = {}
    for k in range(1, dim + 2):
        bd_rank[k] = _boundary_rank(faces.get(k, []), faces.get(k - 1, []), field)
    for j in range(-1, dim + 1):
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


def _lcm_lattice(gens, spend=None) -> list:
    """All unions of nonempty sets of the generator masks ``gens``,
    deduplicated, by size and then lexicographically.  Ranks read no order,
    but the first witness a scan meets here is the evidence it reports.

    ``spend(k)``, when given, is charged k units as k new elements join.
    """
    lattice = set()
    for g in gens:
        size = len(lattice)
        lattice |= {x | g for x in lattice}
        lattice.add(g)
        if spend is not None:
            spend(len(lattice) - size)
    return sorted(lattice, key=_order_key)


def betti_numbers(M: MonomialIdeal, field: FieldSpec = GF2) -> BettiTable:
    """Multigraded Betti numbers via upper Koszul homology.

    Only multidegrees in the lcm lattice of the generators can carry a
    nonzero entry, so the scan is restricted to those.
    """
    entries = {}
    totals = {}
    gens = M.masks
    for b in _lcm_lattice(gens):
        ranks = reduced_homology_ranks(_koszul_complex(gens, b), field)
        size = b.bit_count()
        for j, r in ranks.items():
            if r:
                i = j + 1
                entries[(i, frozenset(_bits(b)))] = r
                totals[(i, size)] = totals.get((i, size), 0) + r
    return BettiTable(M.ambient, totals, entries, field)


def betti_at(M: MonomialIdeal, b: Monomial, i: int, field: FieldSpec = GF2) -> int:
    """Single multigraded Betti number beta_{i,b}."""
    ranks = reduced_homology_ranks(upper_koszul_complex(M, b), field)
    return ranks.get(i - 1, 0)


# ---------------------------------------------------------------------------
# linear resolutions, componentwise linearity


def nonlinear_witness(M: MonomialIdeal, field: FieldSpec = GF2, spend=None):
    """First (i, multidegree) with a Betti number off the linear strand.

    Scans multidegrees by increasing size (then lexicographically) and
    stops at the first witness; None when the resolution is linear.
    ``spend`` is charged one unit per lcm-lattice element built.
    """
    if M.is_zero:
        return None
    if not M.is_equigenerated:
        raise InputError("linear-resolution test needs an equigenerated ideal")
    d = M.min_degree
    gens = M.masks
    for b in _lcm_lattice(gens, spend):
        ranks = reduced_homology_ranks(_koszul_complex(gens, b), field)
        size = b.bit_count()
        for j in sorted(ranks):
            if ranks[j] and size != d + j + 1:
                return (j + 1, frozenset(_bits(b)))
    return None


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
    ``quotients.has_dual_linear_quotients``).  The scan stops at the first
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
