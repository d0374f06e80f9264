"""Square-free monomials and minimally generated square-free monomial ideals.

A monomial is just a set of variable indices (stored as a bitmask); the
ambient variable count lives on the ideal so generators re-embed cleanly
when the ambient grows (whiskering appends variables).  A ``MonomialIdeal``
holds ``ambient`` and ``masks``, its generator masks in canonical order
(``_order_key``); ``gens`` builds ``Monomial`` objects from them on each
access, for the public API, ``to_json`` and ``repr``.  The library reads
``masks``.
"""

from __future__ import annotations

from itertools import combinations
from math import comb, inf

from .errors import InputError
from .graphs import Graph, _bits, _default_labels, _minimal_cover_masks

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


_FLIP = str.maketrans("01", "10")


def _order_key(mask: int) -> str:
    """The canonical order of square-free monomials: by degree, then
    lexicographically on sorted supports.

    The key is one string: the degree as a character, then the bits from
    the lowest up, each flipped.  For equal degrees, the lowest bit in
    which two masks differ belongs to the one whose sorted support comes
    first, and there its flipped bit reads 0.  Neither string is a proper
    prefix of the other: the longer mask would then have more bits.
    """
    return chr(mask.bit_count()) + bin(mask)[:1:-1].translate(_FLIP)


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

    ``masks`` holds the generator masks in canonical order (degree, then
    lexicographic on sorted supports); ``gens`` builds them as
    ``Monomial``s on each access.  The zero ideal has no generators; the
    unit ideal has the single generator 1.
    """

    __slots__ = ("ambient", "masks")

    def __init__(self, ambient: int, gens):
        masks = tuple(g.mask for g in gens)
        full = (1 << ambient) - 1
        if any(m & ~full for m in masks):
            raise InputError("generator outside ambient variables")
        if list(masks) != sorted(masks, key=_order_key):
            raise InputError("generators not in canonical order")
        if len(set(masks)) != len(masks):
            raise InputError("duplicate generators")
        if len(_minimal_masks(masks)) != len(masks):
            raise InputError("generators are not minimal")
        self.ambient = ambient
        self.masks = masks

    @classmethod
    def _from_canonical(cls, ambient: int, masks) -> "MonomialIdeal":
        """Wrap generator masks already known to be in ambient, canonically
        ordered, distinct and minimal, skipping the checks of __init__."""
        ideal = object.__new__(cls)
        ideal.ambient = ambient
        ideal.masks = tuple(masks)
        return ideal

    @classmethod
    def _from_masks(cls, ambient: int, masks) -> "MonomialIdeal":
        """Minimalize and sort arbitrary generator masks."""
        masks = set(masks)
        if any(m >> ambient for m in masks):
            raise InputError("generator outside ambient variables")
        return cls._from_canonical(ambient, sorted(_minimal_masks(masks), key=_order_key))

    @classmethod
    def from_generators(cls, ambient: int, gens) -> "MonomialIdeal":
        """Minimalize and sort an arbitrary generating set."""
        return cls._from_masks(ambient, (g.mask if isinstance(g, Monomial) else Monomial(g).mask
                                         for g in gens))

    @property
    def gens(self) -> tuple:
        """The generators as ``Monomial``s, built on each access."""
        return tuple(map(Monomial.from_mask, self.masks))

    @property
    def is_zero(self) -> bool:
        return not self.masks

    @property
    def min_degree(self):
        return self.masks[0].bit_count() if self.masks else None

    @property
    def max_degree(self):
        return self.masks[-1].bit_count() if self.masks else None

    @property
    def is_equigenerated(self) -> bool:
        return self.min_degree == self.max_degree

    def __eq__(self, other):
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.ambient == other.ambient and self.masks == other.masks

    def __hash__(self):
        return hash((self.ambient, self.masks))

    def __len__(self):
        return len(self.masks)

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
    return MonomialIdeal._from_masks(G.n, (1 << u | 1 << v for u, v in G.edges()))


def alexander_dual_of_edge_ideal(G: Graph) -> MonomialIdeal:
    """Generators are the minimal vertex covers of G.

    For an edgeless graph the empty set is the unique minimal cover, so the
    dual is the unit ideal.  The cover masks come out minimal, distinct and
    canonically ordered, so they are wrapped as they are.
    """
    return MonomialIdeal._from_canonical(G.n, _minimal_cover_masks(G.adj, (1 << G.n) - 1))


def _component_masks(masks, ambient: int, d: int, limit=inf):
    """The set of masks of the square-free degree-d monomials in the ideal
    generated by ``masks`` over ``ambient`` variables: each generator g of
    degree at most d, and g times every d - |g| variables outside it.

    None, with the rest unbuilt, as soon as the set provably has more
    than ``limit`` members: once the part built so far has, or once one
    generator g alone has more, since its comb(ambient - |g|, d - |g|)
    extensions are pairwise distinct.  Both are checked before each
    generator of degree below d is enumerated, and the first again at the
    end.  The extensions add g to sums of the bit values outside it.
    """
    bits = [1 << v for v in range(ambient)]
    out = set()
    for g in masks:
        k = d - g.bit_count()
        if k > 0:
            if len(out) > limit or comb(ambient - d + k, k) > limit:
                return None
            free = [b for b in bits if not g & b]
            out.update(map(g.__or__, map(sum, combinations(free, k))))
        elif k == 0:
            out.add(g)
    return out if len(out) <= limit else None


def squarefree_degree_component(I: MonomialIdeal, d: int) -> MonomialIdeal:
    """Ideal generated by all square-free degree-d monomials lying in I."""
    if d < 0:
        raise InputError("degree must be nonnegative")
    return MonomialIdeal._from_canonical(
        I.ambient, sorted(_component_masks(I.masks, I.ambient, d), key=_order_key))
