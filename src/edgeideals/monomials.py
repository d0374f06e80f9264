"""Square-free monomials and minimally generated square-free monomial ideals.

A monomial is just a set of variable indices (stored as a bitmask); the
ambient variable count lives on the ideal so generators re-embed cleanly
when the ambient grows (whiskering appends variables).
"""

from __future__ import annotations

from itertools import combinations

from .errors import InputError
from .graphs import Graph, _bits, _default_labels, _mask_of, _minimal_cover_masks

__all__ = [
    "Monomial",
    "MonomialIdeal",
    "edge_ideal",
    "alexander_dual_of_edge_ideal",
    "squarefree_degree_component",
]


class Monomial:
    """Square-free monomial, identified with its support set."""

    __slots__ = ("mask",)

    def __init__(self, variables=()):
        if isinstance(variables, Monomial):
            self.mask = variables.mask
            return
        mask = 0
        for v in variables:
            if v < 0:
                raise InputError(f"negative variable index {v}")
            mask |= 1 << v
        self.mask = mask

    @classmethod
    def from_mask(cls, mask: int) -> "Monomial":
        m = object.__new__(cls)
        m.mask = mask
        return m

    @property
    def support(self) -> frozenset:
        return frozenset(_bits(self.mask))

    @property
    def degree(self) -> int:
        return self.mask.bit_count()

    def divides(self, other: "Monomial") -> bool:
        return self.mask & ~other.mask == 0

    @property
    def sort_key(self) -> tuple:
        return (self.degree, tuple(_bits(self.mask)))

    def names(self, labels) -> list:
        return [labels[v] for v in _bits(self.mask)]

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.mask == other.mask

    def __hash__(self):
        return hash(self.mask)

    def __repr__(self):
        if self.mask == 0:
            return "Monomial(1)"
        return "Monomial(" + ",".join(self.names(_default_labels(self.mask.bit_length()))) + ")"


def _minimal_masks(masks) -> list:
    """The inclusion-minimal members of ``masks``, each once, by increasing
    size.  Distinct masks of equal size never contain each other, so each
    mask is compared only with kept masks of strictly smaller size, and an
    equal-size family costs no comparisons."""
    kept = []
    lower = 0
    size = -1
    for m in sorted(set(masks), key=int.bit_count):
        s = m.bit_count()
        if s != size:
            size, lower = s, len(kept)
        if not any(k & ~m == 0 for k in kept[:lower]):
            kept.append(m)
    return kept


class MonomialIdeal:
    """Minimally generated square-free monomial ideal.

    Generators are stored in canonical order (degree, then lexicographic on
    sorted supports).  The zero ideal has no generators; the unit ideal has
    the single generator 1.
    """

    __slots__ = ("ambient", "gens")

    def __init__(self, ambient: int, gens):
        gens = tuple(gens)
        full = (1 << ambient) - 1
        for g in gens:
            if g.mask & ~full:
                raise InputError("generator outside ambient variables")
        if list(gens) != sorted(gens, key=lambda g: g.sort_key):
            raise InputError("generators not in canonical order")
        if len({g.mask for g in gens}) != len(gens):
            raise InputError("duplicate generators")
        if len(_minimal_masks(g.mask for g in gens)) != len(gens):
            raise InputError("generators are not minimal")
        self.ambient = ambient
        self.gens = gens

    @classmethod
    def _from_canonical(cls, ambient: int, gens) -> "MonomialIdeal":
        """Wrap generators already known to be in ambient, canonically
        ordered, distinct and minimal, skipping the checks of __init__."""
        ideal = object.__new__(cls)
        ideal.ambient = ambient
        ideal.gens = tuple(gens)
        return ideal

    @classmethod
    def from_generators(cls, ambient: int, gens) -> "MonomialIdeal":
        """Minimalize and sort an arbitrary generating set."""
        masks = {Monomial(g).mask if not isinstance(g, Monomial) else g.mask for g in gens}
        if any(m >> ambient for m in masks):
            raise InputError("generator outside ambient variables")
        out = [Monomial.from_mask(m) for m in _minimal_masks(masks)]
        out.sort(key=lambda g: g.sort_key)
        return cls._from_canonical(ambient, out)

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def min_degree(self):
        return min((g.degree for g in self.gens), default=None)

    @property
    def max_degree(self):
        return max((g.degree for g in self.gens), default=None)

    @property
    def is_equigenerated(self) -> bool:
        return self.min_degree == self.max_degree

    def gen_masks(self) -> list:
        return [g.mask for g in self.gens]

    def __eq__(self, other):
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.ambient == other.ambient and self.gens == other.gens

    def __hash__(self):
        return hash((self.ambient, self.gens))

    def __len__(self):
        return len(self.gens)

    def __repr__(self):
        return f"MonomialIdeal(ambient={self.ambient}, gens={list(self.gens)})"

    def to_json(self, labels=None) -> dict:
        if labels is None:
            labels = _default_labels(self.ambient)
        return {
            "ambient": self.ambient,
            "vars": list(labels),
            "gens": [g.names(labels) for g in self.gens],
        }

    @classmethod
    def from_json(cls, data) -> "MonomialIdeal":
        try:
            ambient = int(data["ambient"])
            names = list(data["vars"])
            gens = data["gens"]
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad ideal JSON: {exc}") from None
        if len(names) != ambient:
            raise InputError("vars length does not match ambient")
        index = {name: i for i, name in enumerate(names)}
        out = []
        for gen in gens:
            try:
                out.append(Monomial(index[v] for v in gen))
            except KeyError as exc:
                raise InputError(f"unknown variable {exc} in ideal JSON") from None
        return cls(ambient, out)


def edge_ideal(G: Graph) -> MonomialIdeal:
    """One degree-two generator x_u x_v per edge of G."""
    gens = [Monomial((u, v)) for u, v in G.edges()]
    return MonomialIdeal.from_generators(G.n, gens)


def alexander_dual_of_edge_ideal(G: Graph) -> MonomialIdeal:
    """Generators are the minimal vertex covers of G.

    For an edgeless graph the empty set is the unique minimal cover, so the
    dual is the unit ideal.  The cover masks come out minimal, distinct and
    canonically ordered, so they are wrapped as they are.
    """
    masks = _minimal_cover_masks(G.adj, (1 << G.n) - 1)
    return MonomialIdeal._from_canonical(G.n, [Monomial.from_mask(m) for m in masks])


def squarefree_degree_component(I: MonomialIdeal, d: int) -> MonomialIdeal:
    """Ideal generated by all square-free degree-d monomials lying in I."""
    if d < 0:
        raise InputError("degree must be nonnegative")
    masks = set()
    full = (1 << I.ambient) - 1
    for g in I.gens:
        k = d - g.degree
        if k < 0:
            continue
        others = list(_bits(full & ~g.mask))
        for extra in combinations(others, k):
            masks.add(g.mask | _mask_of(extra))
    gens = sorted((Monomial.from_mask(m) for m in masks), key=lambda g: g.sort_key)
    return MonomialIdeal._from_canonical(I.ambient, gens)
