"""Sequentially Cohen-Macaulay / Cohen-Macaulay verdicts with evidence.

The fast path hunts for dual linear-quotients certificates, which decide
the question independently of the field; the fallback computes
componentwise linearity of the dual homologically over a declared field.
Each dual component is tried in its canonical order, then along the
whisker decomposition, then by an exact search that at its first backtrack
looks for a GF(2) Betti witness (which rules every order out) before it
resumes.  Every verdict carries evidence that ``check_evidence`` re-checks
without trusting the path that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import InputError, SearchBudgetExceeded
from .graphs import (Graph, RemainderClass, _bits, _classify_remainder, _default_labels,
                     _delete_adj, _edgeless, _independent_sets, _mask_of, _whiskered_adj)
from .monomials import MonomialIdeal, _component_masks, _order_key, alexander_dual_of_edge_ideal
from .quotients import QuotientOrder, find_order, has_dual_linear_quotients, verify_order
from .homology import (BettiWitness, CWLReport, FieldSpec, GF2, is_componentwise_linear,
                       _componentwise_scan, _facet_ranks)

__all__ = [
    "Verdict",
    "ZeroIdealConvention",
    "QuotientCertificates",
    "BettiWitness",
    "ComponentwiseScan",
    "TheoremHit",
    "SyzygyWitness",
    "is_sequentially_cm",
    "is_cm",
    "sufficient_scm",
    "necessary_scm",
    "check_koszul_lift",
    "check_evidence",
    "DEFAULT_SEARCH_BUDGET",
]

# node budget for the exact order search inside verdicts; overruns fall back
# to the homological path instead of stalling
DEFAULT_SEARCH_BUDGET = 20_000


@dataclass(frozen=True)
class ZeroIdealConvention:
    """Edgeless graph: the quotient is the whole polynomial ring."""

    kind = "zero-ideal-convention"

    def to_json(self, labels=None) -> dict:
        return {"kind": self.kind}


@dataclass
class QuotientCertificates:
    """Verified linear-quotients orders, one per dual component degree."""

    per_degree: dict

    kind = "quotient-certificates"

    def to_json(self, labels=None) -> dict:
        return {
            "kind": self.kind,
            "per_degree": {str(d): q.to_json(labels) for d, q in sorted(self.per_degree.items())},
        }


@dataclass
class ComponentwiseScan:
    """Per-degree linear-resolution outcomes from the homological fallback."""

    per_degree: dict

    kind = "componentwise-scan"

    def to_json(self, labels=None) -> dict:
        return {"kind": self.kind, "per_degree": {str(d): v for d, v in sorted(self.per_degree.items())}}


@dataclass(frozen=True)
class TheoremHit:
    """Which sufficient condition applied to (G, S)."""

    rule: str
    claim: str
    detail: str

    kind = "sufficient-condition"

    def to_json(self, labels=None) -> dict:
        return {"kind": self.kind, "rule": self.rule, "claim": self.claim, "detail": self.detail}


@dataclass
class Verdict:
    """Decision plus machine-checkable evidence."""

    property: str            # "SCM" or "CM"
    value: bool
    field: FieldSpec
    evidence: object
    field_independent: bool = False
    unmixed: bool | None = None
    notes: tuple = ()
    dual: object = None      # the Alexander dual decided on; not part of the JSON

    def to_json(self, labels=None) -> dict:
        out = {
            "property": self.property,
            "value": self.value,
            "field": str(self.field),
            "field_independent": self.field_independent,
            "evidence": self.evidence.to_json(labels),
        }
        if self.unmixed is not None:
            out["unmixed"] = self.unmixed
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def is_sequentially_cm(G: Graph, field: FieldSpec = GF2, *,
                       search_budget=DEFAULT_SEARCH_BUDGET) -> Verdict:
    """Decide sequential Cohen-Macaulayness via the Alexander dual.

    Dual linear quotients certify a field-independent True; otherwise the
    dual's componentwise linearity over ``field`` decides, with either a
    per-degree scan (True) or a nonlinear-syzygy witness (False).  The
    scan runs homology only on the degrees the search left without an
    order (``_scan_open_degrees``).
    """
    return _decide(G, (field,), search_budget=search_budget)[0]


def _decide(G: Graph, fields: tuple, S=None, *, cm=False,
            search_budget=DEFAULT_SEARCH_BUDGET) -> tuple:
    """One result per field of ``fields``: with no ``S`` the verdict of
    ``is_sequentially_cm`` (of ``is_cm`` with ``cm``) on G, and with ``S``
    the witness of ``necessary_scm`` for G minus S.

    The field-independent work runs once: the edge test, for a remainder
    the theorem test, and the dual linear-quotients search.  Per field only
    ``_scan_open_degrees`` runs, and that field's result is built.
    """
    if S is not None:
        smask = G._check_vertices(S)
        return _remainder_witnesses(_remainder_report(G.adj, smask, search_budget),
                                    fields, G.n, smask)
    if _edgeless(G.adj, (1 << G.n) - 1):
        dual = alexander_dual_of_edge_ideal(G)
        scm = [Verdict("SCM", True, f, ZeroIdealConvention(), field_independent=True, dual=dual)
               for f in fields]
    else:
        scm = _field_verdicts(
            has_dual_linear_quotients(G, budget=search_budget, stop_at_failure=True), fields)
    if cm:
        return tuple(Verdict("CM", v.value and v.dual.is_equigenerated, v.field, v.evidence,
                             v.field_independent, v.dual.is_equigenerated, v.notes, v.dual)
                     for v in scm)
    return tuple(scm)


def _remainder_report(adj: tuple, smask: int, search_budget=DEFAULT_SEARCH_BUDGET):
    """The dlq report of the graph ``adj`` minus the vertices of ``smask``,
    or None when the remainder is sequentially Cohen-Macaulay by a theorem
    of ``necessary_scm``'s docstring; then nothing is built."""
    rest = ((1 << len(adj)) - 1) & ~smask
    if rest.bit_count() < 4 or _edgeless(adj, rest) or \
            _classify_remainder(adj, rest) is not RemainderClass.OTHER:
        return None
    H = Graph._from_adj(_delete_adj(adj, smask), _default_labels(rest.bit_count()))
    return has_dual_linear_quotients(H, budget=search_budget, stop_at_failure=True)


def _field_verdicts(report, fields: tuple) -> list:
    """The SCM verdict over each field of ``fields`` on the graph of the
    dlq report ``report``."""
    if report.verdict is True:
        evidence = QuotientCertificates(report.certificates())
        return [Verdict("SCM", True, f, evidence, field_independent=True, dual=report.dual)
                for f in fields]
    return [_scan_verdict(report, f) for f in fields]


def _remainder_witnesses(report, fields: tuple, n: int, smask: int) -> tuple:
    """The witness of ``necessary_scm`` over each field of ``fields`` for
    the n-vertex graph minus the vertices of ``smask``, from the
    remainder's dlq report ``report`` (None for a remainder settled by
    theorem): None where the remainder is SCM, else the scan's witness
    lifted to G's vertex indices and S."""
    if report is None:
        return (None,) * len(fields)
    keep, lift = list(_bits(((1 << n) - 1) & ~smask)), frozenset(_bits(smask))

    def lifted(w):
        b = frozenset(keep[u] for u in w.multidegree)
        return SyzygyWitness(w.degree, w.index, b, b | lift)
    return tuple(None if v.value else lifted(v.evidence) for v in _field_verdicts(report, fields))


def _scan_verdict(report, field: FieldSpec) -> Verdict:
    """The verdict over ``field`` on the graph of the dlq report ``report``,
    which certified no order in some degree: ``_scan_open_degrees`` decides."""
    notes = ()
    if report.verdict is None:
        notes = ("dual linear quotients undecided within the search budget",)
    cwl = _scan_open_degrees(report, field)
    if not cwl.verdict:
        d, i, b = cwl.witness
        return Verdict("SCM", False, field, BettiWitness(d, i, b), notes=notes, dual=report.dual)
    if report.verdict is False:
        d = report.failing_degree
        why = (f"degree {d} has a nonlinear Betti number over GF(2), so the verdict "
               f"depends on the field" if d in report.witnesses else
               f"degree {d} has a linear resolution but no linear-quotients order")
        notes = notes + (f"componentwise linear without dual linear quotients: {why}",)
    return Verdict("SCM", True, field, ComponentwiseScan(dict(cwl.per_degree)),
                   notes=notes, dual=report.dual)


def _scan_open_degrees(report, field: FieldSpec) -> CWLReport:
    """``is_componentwise_linear(report.dual, field)``, with homology run
    only on the degrees that the dlq report ``report`` left open.

    It runs the full scan's own loop, ``homology._componentwise_scan``,
    told which degrees are already settled.  A degree with a
    linear-quotients order is settled linear with no homology: its
    component has a linear resolution over every field (Herzog-Takayama,
    the lemma of ``quotients._OrderSearch._order_uncached``).  Over GF(2) a
    degree the search refuted is settled by its witness:
    ``_OrderSearch._refuted`` ran ``nonlinear_witness`` over GF(2) on the
    same component (the size-d covers are its generators) and so walked
    the same sorted lcm lattice to the same first witness.  A witness with
    |b| = d + 2 settles its degree in every field: by the purity lemma at
    ``nonlinear_witness`` the points before it, all with |b| <= d + 2,
    carry a witness in no field or in every field alike (a disconnected
    K^b), so it is each field's first witness too.  Every other degree,
    unknown, skipped or refuted without a witness for this field, is
    scanned.  The report is therefore the full scan's, degree for degree
    and witness for witness.
    """
    known = {d: None for d, q in report.per_degree.items() if q is not None}
    known.update((d, (w.index, w.multidegree)) for d, w in report.witnesses.items()
                 if field == GF2 or len(w.multidegree) == d + 2)
    return _componentwise_scan(report.dual, field, known)


def is_cm(G: Graph, field: FieldSpec = GF2, *,
          search_budget=DEFAULT_SEARCH_BUDGET) -> Verdict:
    """Cohen-Macaulay = sequentially Cohen-Macaulay and unmixed: the dual's
    generators, G's minimal covers, share one size (dmin == D)."""
    return _decide(G, (field,), cm=True, search_budget=search_budget)[0]


def sufficient_scm(G: Graph, S) -> TheoremHit | None:
    """First sufficient condition guaranteeing that whiskering S yields SCM.

    Scanned in order: S a vertex cover; chordal remainder; five-cycle
    remainder.  None means the conditions are silent, not that whiskering
    fails.

    C3.5 (|S| >= |V|-3) needs no rule of its own, since it follows from
    T3.2: at most three vertices remain, and a graph on at most three
    vertices has no cycle of length four or more, so the remainder is
    edgeless (vertex-cover) or chordal (chordal-remainder).
    """
    smask = G._check_vertices(S)
    rest = ((1 << G.n) - 1) & ~smask
    if _edgeless(G.adj, rest):
        return TheoremHit("vertex-cover", "C3.4",
                          "S covers every edge, so the remainder is edgeless")
    remainder = _classify_remainder(G.adj, rest)
    if remainder is RemainderClass.CHORDAL:
        return TheoremHit("chordal-remainder", "T3.2",
                          "deleting S leaves a chordal graph")
    if remainder is RemainderClass.FIVE_CYCLE:
        return TheoremHit("five-cycle-remainder", "T3.3",
                          "deleting S leaves a five-cycle (ignoring isolated vertices)")
    return None


@dataclass(frozen=True)
class SyzygyWitness:
    """Nonlinear syzygy of a dual component of G minus S, plus its lift.

    ``multidegree`` lives on the surviving vertices of G; the lift adds
    every whiskered base vertex and lands in the degree
    ``base_degree + |S|`` component of the whiskered graph's dual.
    """

    base_degree: int
    index: int
    multidegree: frozenset
    lifted: frozenset

    @property
    def lifted_degree(self) -> int:
        return self.base_degree + len(self.lifted) - len(self.multidegree)

    def to_json(self, labels=None) -> dict:
        b = sorted(self.multidegree)
        c = sorted(self.lifted)
        return {
            "base_degree": self.base_degree,
            "index": self.index,
            "multidegree": [labels[v] for v in b] if labels else b,
            "lifted": [labels[v] for v in c] if labels else c,
            "lifted_degree": self.lifted_degree,
        }


def necessary_scm(G: Graph, S, field: FieldSpec = GF2) -> SyzygyWitness | None:
    """Witness that G minus S fails SCM, hence whiskering S cannot rescue it.

    Components are searched in increasing degree and witnesses in
    increasing multidegree size; None when G minus S is sequentially
    Cohen-Macaulay as far as the scan can tell (all components linear).

    Three exact tests settle most remainders before the scan.  With no edge
    left the dual is the unit ideal, which has no witness.

    Lemma: a remainder that is chordal, or that is a five-cycle once its
    isolated vertices are ignored, is sequentially Cohen-Macaulay over every
    field, so its dual is componentwise linear (Herzog-Hibi) and has no
    witness.  A chordal graph is vertex decomposable (Woodroofe, Proc. AMS
    2009), and a vertex decomposable graph is shellable and hence SCM over
    every field (Francisco-Van Tuyl, Proc. AMS 2007, who also prove chordal
    graphs SCM).  The five-cycle is Cohen-Macaulay over every field: its
    independence complex is a pentagon, a connected graph, which is a
    Cohen-Macaulay complex.  An isolated vertex x changes nothing: the edge
    ideal of H + x is that of H extended to R[x], and R[x]/I R[x] =
    (R/I)[x] is (sequentially) Cohen-Macaulay iff R/I is.  This test runs
    on the adjacency masks (``graphs._classify_remainder``) and builds no
    graph, dual or search.  A remainder of fewer than four vertices is
    settled first, with no walk: it has no room for a cycle of length four
    or more, so it is chordal.

    Otherwise, if the remainder's dual has linear quotients in every degree
    dmin..D, each component has a linear resolution over every field (the
    lemma of ``quotients._OrderSearch._order_uncached``, after
    Herzog-Takayama), and those above D inherit one (the lemma of
    ``quotients._dual_orders``), so no witness exists in any field.
    Only a failed or undecided search runs the scan, on the dual the search
    already built, and only on the degrees it left without an order
    (``_scan_open_degrees``).
    """
    return _decide(G, (field,), S, search_budget=DEFAULT_SEARCH_BUDGET)[0]


def check_koszul_lift(G: Graph, S, w: SyzygyWitness, field: FieldSpec = GF2) -> bool:
    """Re-check a witness by comparing both upper Koszul complexes.

    A witness on the linear strand (|multidegree| = base degree + index)
    is refused.  Otherwise the complex of the remainder's dual at the
    multidegree b is built from the minimal covers of G minus S, and that
    of the whiskered graph's dual at the lift b + S from the minimal covers
    of G with S whiskered, both in G's own vertex indices (the tips come
    after them), by ``_koszul_facets``, the bounded builder that
    ``check_evidence`` uses.  The witness holds when the two facet sets are
    equal and the Betti number at the witness index is nonzero.  All facets
    of both complexes have |b| - base degree vertices, so each family is an
    antichain, and two complexes are equal exactly when their facet sets
    are; a facet of the lift that holds a vertex of S equals none inside b.
    Equal complexes have equal Betti numbers, so one rank is computed.

    Raises InputError for a vertex out of range, a multidegree that meets
    S, or a lift other than b + S, and SearchBudgetExceeded, before any
    rank, when either complex may have more than ``DEFAULT_SEARCH_BUDGET``
    faces.
    """
    smask = G._check_vertices(S)
    b = G._check_vertices(w.multidegree)  # names a vertex out of range
    if b & smask:
        raise InputError("witness multidegree hits a whiskered vertex")
    if w.lifted != frozenset(_bits(b | smask)):
        raise InputError("witness lift does not match S")
    if len(w.multidegree) == w.base_degree + w.index:
        return False
    k_b = _koszul_facets(_covers_upto(G.adj, ((1 << G.n) - 1) & ~smask, w.base_degree),
                         w.base_degree, b)
    wadj = _whiskered_adj(G.adj, smask)
    k_c = _koszul_facets(_covers_upto(wadj, (1 << len(wadj)) - 1, w.lifted_degree),
                         w.lifted_degree, b | smask)
    return k_b == k_c and _facet_ranks(k_b, field).get(w.index - 1, 0) > 0


def _covers_upto(adj, active: int, d: int):
    """Yield the minimal vertex covers of at most d vertices of the graph
    on ``active``, lazily, so that ``_koszul_facets`` walks no cover past
    its bound; larger covers are pruned unvisited."""
    return (active ^ s for s in _independent_sets(adj, active, active.bit_count() - d, True))


# ---------------------------------------------------------------------------
# re-checking evidence


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise InputError(f"{what}: expected a JSON object")
    return value


def _int(value, what: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise InputError(f"bad {what} {value!r}") from None


def _check_certificate(G: Graph, dual, data, d=None):
    """Re-check one certificate against ``dual``, the Alexander dual of G.

    It must order the degree-d component of the dual (without d, the
    component of its own degree, or the whole dual when its generators'
    degrees differ) and pass ``verify_order``.  Its generators are
    compared with the component as sets of masks, and the component is
    built only up to the certificate's size
    (``monomials._component_masks``): one that is provably larger is
    refused with the rest unbuilt.
    """
    if _object(data, "certificate").get("vars") != list(G.labels):
        return False, "certificate variables do not match the graph's labels"
    q = QuotientOrder.from_json(data)
    if d is None:
        d = q.degree
    ref = (set(dual.masks) if d is None
           else _component_masks(dual.masks, dual.ambient, d, len(q.gens)))
    # from_json refused repeated generators, so the sets match exactly when
    # the steps order the component; None, a larger component, matches none
    if ref != set(q.gens):
        return False, "certificate generators do not match the graph's dual component"
    ok = verify_order(q)
    return ok, "linear quotients verified" if ok else "colon steps do not verify"


def _koszul_facets(gens, d: int, b: int) -> set:
    """The facets of the upper Koszul complex at the mask ``b`` of the
    degree-d component of the ideal generated by the masks ``gens``.

    The complex at b sees only the component's generators dividing x^b:
    the d-subsets F of b that hold a generator.  Each F leaves a facet of
    |b| - d vertices, b minus F, so the facets are counted only up to the
    bound, with no component built.  Raises SearchBudgetExceeded once the
    complex may have more than ``DEFAULT_SEARCH_BUDGET`` faces.
    """
    spare = b.bit_count() - d
    limit = DEFAULT_SEARCH_BUDGET >> max(spare, 0)
    facets = set()
    for g in gens:
        if g & ~b == 0 and g.bit_count() <= d:
            for extra in combinations(_bits(b & ~g), d - g.bit_count()):
                facets.add(b & ~(g | _mask_of(extra)))
                if len(facets) > limit:
                    raise SearchBudgetExceeded(
                        f"witness complex may have over {DEFAULT_SEARCH_BUDGET} faces: more "
                        f"than {limit} generators divide x^b, each leaving {spare} vertices")
    return facets


def _check_betti_witness(G: Graph, dual, ev, field: FieldSpec, key=None):
    """Why a betti-witness payload fails to re-check, or None when its
    Betti number, recomputed over ``field`` from the upper Koszul complex
    at the multidegree, is nonzero off the linear strand.  ``key`` is the
    degree it is filed under, if any.  A degree outside dmin..D is refused
    unbuilt: the components below dmin are zero and those above D have
    linear quotients (the lemma of ``quotients._dual_orders``), so
    neither has a nonlinear Betti number.  Raises SearchBudgetExceeded,
    before the complex is built, when the upper Koszul complex at the
    witness may have more than ``DEFAULT_SEARCH_BUDGET`` faces.
    """
    d = _int(ev.get("degree"), "witness degree")
    i = _int(ev.get("index"), "witness index")
    index = {name: v for v, name in enumerate(G.labels)}
    names = ev.get("multidegree")
    try:
        b = frozenset(index[name] for name in names)
    except (KeyError, TypeError):
        raise InputError(f"bad witness multidegree {names!r}") from None
    if key is not None and d != key:
        return f"witness of degree {d} filed under degree {key}"
    if len(b) == d + i:
        return "witness multidegree lies on the linear strand"
    if not dual.min_degree <= d <= dual.max_degree:
        return f"witness degree {d} lies outside the dual's degrees " \
               f"{dual.min_degree}..{dual.max_degree}"
    if _facet_ranks(_koszul_facets(dual.masks, d, _mask_of(b)), field).get(i - 1, 0) == 0:
        return "witness Betti number vanishes on re-computation"
    return None


def _check_per_degree(G: Graph, dual, per, undecided=()):
    """Re-check a map from degree keys to certificates, witnesses or null.

    The keys and the ``undecided`` degrees (unknown or skipped) must name
    every degree dmin..D of the dual exactly once (the components above D
    need none, by the lemma of ``quotients._dual_orders``).  A
    certificate must order the component of its own key's degree.  A
    betti-witness entry claims that component has no order, and must
    re-check over GF(2): a nonlinear Betti number over any field rules out
    linear quotients.  A null entry claims the same, which a search within
    ``DEFAULT_SEARCH_BUDGET`` nodes must confirm; an overrun raises
    SearchBudgetExceeded, and so does a component of more generators than
    that, before it is built.  A genuine null entry is never refused by
    this: a search that finds no order expands every generator as a first
    step, so it would overrun anyway.  Returns (reason, verdict): the first
    failure or None, and the dual-linear-quotients verdict the evidence
    supports (False with a confirmed witness or null, else None with an
    undecided degree, else True).
    """
    entries = sorted(((_int(k, "degree"), v) for k, v in _object(per, "per_degree").items()),
                     key=lambda e: e[0])
    degrees = sorted([d for d, _ in entries] + list(undecided))
    dmin, top = dual.min_degree, dual.max_degree  # the dual of an edge ideal is never zero
    if degrees != list(range(dmin, top + 1)):
        return f"degrees {degrees} do not account for {dmin}..{top} exactly once", None
    impossible = False
    for d, cert in entries:
        if cert is None:
            masks = _component_masks(dual.masks, dual.ambient, d, DEFAULT_SEARCH_BUDGET)
            if masks is None:
                raise SearchBudgetExceeded(f"degree {d} has over {DEFAULT_SEARCH_BUDGET} "
                                           "generators, more than a search may expand")
            component = MonomialIdeal._from_canonical(dual.ambient, sorted(masks, key=_order_key))
            if find_order(component, budget=DEFAULT_SEARCH_BUDGET) is not None:
                return f"degree {d} claimed impossible but an order exists", None
            impossible = True
        elif _object(cert, "degree entry").get("kind") == BettiWitness.kind:
            why = _check_betti_witness(G, dual, cert, GF2, d)
            if why:
                return f"degree {d}: {why}", None
            impossible = True
        else:
            ok, why = _check_certificate(G, dual, cert, d)
            if not ok:
                return f"degree {d}: {why}", None
    return None, False if impossible else (None if undecided else True)


def _check_dlq_report(G: Graph, dual, data):
    undecided = []
    for key in ("unknown", "skipped"):
        values = data.get(key, [])
        if not isinstance(values, list):
            raise InputError(f"{key}: expected a JSON list")
        undecided += [_int(d, f"{key} degree") for d in values]
    why, recomputed = _check_per_degree(G, dual, data.get("per_degree"), undecided)
    if why:
        return False, why
    verdict = data.get("verdict")
    if verdict != recomputed:
        return False, f"verdict {verdict} does not match re-checked {recomputed}"
    return True, "report verified"


def _check_verdict(G: Graph, dual, data):
    prop = data.get("property")
    if prop not in ("SCM", "CM"):
        raise InputError(f"unknown verdict property {prop!r}")
    value = data.get("value")
    field = FieldSpec.parse(data.get("field", "2"))
    ev = _object(data.get("evidence"), "evidence")
    kind = ev.get("kind")
    unmixed_claim = data.get("unmixed")
    if prop == "CM":
        if unmixed_claim is None:
            return False, "CM verdict lacks the unmixed flag"
        # G is unmixed iff its minimal covers, the dual's generators, share one size
        if dual.is_equigenerated != unmixed_claim:
            return False, "unmixed flag does not match the graph"
    if kind == "zero-ideal-convention":
        if G.edge_count() != 0:
            return False, "zero-ideal evidence but the graph has edges"
    elif kind == "quotient-certificates":
        why, dlq = _check_per_degree(G, dual, ev.get("per_degree"))
        if why:
            return False, why
        if not dlq:
            return False, "quotient-certificates evidence with a degree that has no order"
    elif kind == BettiWitness.kind:
        why = _check_betti_witness(G, dual, ev, field)
        if why:
            return False, why
    elif kind == "componentwise-scan":
        cwl = is_componentwise_linear(dual, field)
        if not cwl.verdict:
            return False, "componentwise-scan evidence but the dual is not componentwise linear"
        if ev.get("per_degree") != {str(d): True for d in cwl.per_degree}:
            return False, "componentwise-scan degrees are not the dual's dmin..D"
    else:
        raise InputError(f"evidence kind {kind!r} is not re-checkable here")
    scm_value = kind != "betti-witness"
    expected = scm_value if prop == "SCM" else (scm_value and unmixed_claim)
    if value != expected:
        return False, f"verdict value {value} does not match re-checked {expected}"
    return True, "verdict verified"


def check_evidence(G: Graph, data) -> tuple:
    """Re-check a payload against G without trusting the path that made it.

    ``data`` is the JSON of a ``Verdict``, of a dlq-report (as
    ``lin-quotients --json`` prints it) or of one ``QuotientOrder``.
    Returns (ok, reason).  A malformed payload raises InputError.  A
    degree claimed to have no order is re-checked through its GF(2) Betti
    witness when it carries one; re-searching a plain null raises
    SearchBudgetExceeded past ``DEFAULT_SEARCH_BUDGET`` nodes.
    """
    data = _object(data, "payload")
    if "property" in data:
        check = _check_verdict
    elif data.get("kind") == "dlq-report":
        check = _check_dlq_report
    elif "ordered_gens" in data:
        check = _check_certificate
    else:
        raise InputError("unrecognized payload: expected a verdict, dlq-report, or certificate")
    return check(G, alexander_dual_of_edge_ideal(G), data)
