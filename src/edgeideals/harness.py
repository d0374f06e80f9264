"""Randomized verification campaigns and fixed regression fixtures.

Each campaign samples (graph, vertex subset) pairs satisfying a claim's
hypothesis, evaluates the conclusion through the decision module, and
reports failures with a shrunken counterexample.  Fixtures recompute the
worked examples from scratch and diff them against their published data.

A claim of ``_CLAIMS`` is (sampler, hypothesis, conclusion).  The sampler
draws a pair as (adjacency tuple, S-mask).  The hypothesis reads that pair,
builds no ``Graph`` unless it has a dual to search, and returns a truthy
value when the pair is accepted.  Only the accepted pair is built as a
``Graph`` G and a vertex set S, and the conclusion takes (G, S, fields,
held), where ``held`` is the hypothesis's value: for T4.1 the remainder's
dlq report, so that the remainder is searched once.
"""

from __future__ import annotations

import random
from copy import deepcopy
from dataclasses import dataclass, field as dc_field
from functools import cache, partial
from itertools import combinations
from math import factorial

from .errors import InputError, SearchBudgetExceeded
from .graphs import (Graph, RemainderClass, add_whiskers, cycle_graph, delete_vertices,
                     format_graph, path_graph, _bits, _canonical, _classify_remainder,
                     _default_labels, _delete_adj, _drop, _edgeless, _elimination_order,
                     _induces_one_cycle, _invariant_classes, _least_in_classes, _mask_of,
                     _mask_orbits, _minimal_cover_masks, _whiskered_adj)
from .monomials import MonomialIdeal, alexander_dual_of_edge_ideal, squarefree_degree_component
from .quotients import (betti_from_quotient_order, has_dual_linear_quotients, make_order,
                        verify_order, search_stats, _dual_orders)
from .homology import GF2, GF3, QQ, betti_numbers
from .decide import (DEFAULT_SEARCH_BUDGET, check_koszul_lift, is_cm, is_sequentially_cm,
                     sufficient_scm, _decide, _remainder_report, _remainder_witnesses)

__all__ = [
    "Campaign",
    "Report",
    "FixtureResult",
    "CLAIM_STATEMENTS",
    "FIXTURE_IDS",
    "run_campaign",
    "run_fixture",
    "all_induced_dlq",
    "ex38_pair",
    "ex39_pair",
    "ex43_pair",
    "rp2_sd",
]

ATTEMPT_CAP = 1000
_SEED_STRIDE = 1_000_003
EDGE_PROBABILITIES = (0.2, 0.4, 0.6)

CLAIM_STATEMENTS = {
    "T3.2": "whiskering a set whose removal leaves a chordal graph yields a "
            "sequentially Cohen-Macaulay graph",
    "T3.3": "whiskering a set whose removal leaves a chordal graph or a "
            "five-cycle yields a sequentially Cohen-Macaulay graph",
    "T3.7": "all induced subgraphs of the remainder have dual linear "
            "quotients iff all induced subgraphs of the whiskered graph "
            "containing every added tip do",
    "T4.1": "if the remainder is not sequentially Cohen-Macaulay, the "
            "whiskered graph is not either, with an explicit syzygy lift",
    "C3.4": "whiskering a vertex cover yields a sequentially Cohen-Macaulay graph",
    "C3.5": "whiskering all but at most three vertices yields a sequentially "
            "Cohen-Macaulay graph",
    "C3.6": "whiskering every vertex yields a Cohen-Macaulay graph",
    "C4.2": "a remainder equal to a cycle of length 4, 6, or 7 never "
            "whiskers to a sequentially Cohen-Macaulay graph",
}

@dataclass(frozen=True)
class Campaign:
    theorem: str
    trials: int = 100
    max_n: int = 7
    seed: int = 0
    fields: tuple = (GF2,)

    def __post_init__(self):
        if self.theorem not in CLAIM_STATEMENTS:
            raise InputError(f"unknown claim id {self.theorem!r}; "
                             f"known: {', '.join(sorted(CLAIM_STATEMENTS))}")
        if self.trials < 1:
            raise InputError("trials must be >= 1")
        if self.trials >= _SEED_STRIDE:
            # _trial_rng seeds (seed, index) as seed * stride + index, which
            # collides across seeds once index reaches the stride
            raise InputError(f"trials must be < {_SEED_STRIDE}")
        least = _LEAST_N.get(self.theorem, 1)
        if self.max_n < least:
            raise InputError(f"max_n must be >= {least}"
                             + (f" for {self.theorem}" if least > 1 else ""))


@dataclass
class Report:
    campaign: Campaign
    statement: str
    passed: int = 0
    failed: int = 0
    skipped: int = 0
    failures: list = dc_field(default_factory=list)
    order_search_stats: dict = dc_field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    @property
    def trials(self) -> int:
        """The campaign's trials; for the exhaustive T3.7 sweep, which
        ignores them, the labelled pairs it swept."""
        if self.campaign.theorem == "T3.7":
            return self.passed + self.failed
        return self.campaign.trials

    def to_json(self) -> dict:
        return {
            "claim": self.campaign.theorem,
            "statement": self.statement,
            "trials": self.trials,
            "max_n": self.campaign.max_n,
            "seed": self.campaign.seed,
            "fields": [str(f) for f in self.campaign.fields],
            "passed": self.passed,
            "failed": self.failed,
            "skipped": self.skipped,
            "failures": self.failures,
            "order_search_stats": dict(sorted(self.order_search_stats.items())),
        }

    def to_text(self) -> str:
        lines = [
            f"claim {self.campaign.theorem}: {self.statement}",
            f"  trials={self.trials} max_n={self.campaign.max_n} "
            f"seed={self.campaign.seed} fields={','.join(str(f) for f in self.campaign.fields)}",
            f"  passed={self.passed} failed={self.failed} skipped={self.skipped}",
        ]
        for fail in self.failures:
            lines.append(f"  FAIL trial {fail['trial']}: {fail['detail']}")
            lines.append("    graph:")
            for row in fail["graph"].strip().splitlines():
                lines.append(f"      {row}")
            lines.append(f"    whisker_at: {fail['whisker_at']}")
            lines.append(f"    rerun: {fail['rerun']}")
        lines.append("RESULT: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# samplers


@cache
def _pairs(n: int) -> tuple:
    return tuple(combinations(range(n), 2))


def _random_adj(rng: random.Random, n: int, p: float) -> tuple:
    """The adjacency tuple of a G(n, p) draw, one ``rng.random()`` per
    vertex pair (u, v), u < v, in lexicographic order."""
    adj = [0] * n
    rand = rng.random
    for u, v in _pairs(n):
        if rand() < p:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return tuple(adj)


def _random_subset(rng: random.Random, n: int, p: float = 0.5) -> int:
    return _mask_of(v for v in range(n) if rng.random() < p)


def _force_cycle(rng: random.Random, adj: tuple, verts) -> tuple:
    """Overwrite the induced subgraph on ``verts`` with a random cycle."""
    vs = list(verts)
    rng.shuffle(vs)
    cyc = _mask_of(vs)
    adj = [a & ~cyc if cyc >> v & 1 else a for v, a in enumerate(adj)]
    for u, w in zip(vs, vs[1:] + vs[:1]):
        adj[u] |= 1 << w
        adj[w] |= 1 << u
    return tuple(adj)


def _sampler(subset):
    """The sampler that draws n from 1..max_n, G from G(n, p) with p one of
    EDGE_PROBABILITIES, and then the S-mask ``subset(rng, n)``."""
    def sample(rng, max_n):
        n = rng.randint(1, max_n)
        return _random_adj(rng, n, rng.choice(EDGE_PROBABILITIES)), subset(rng, n)
    return sample


_sample_plain = _sampler(_random_subset)
_sample_cover_biased = _sampler(lambda rng, n: _random_subset(rng, n, p=0.7))
_sample_near_all = _sampler(
    lambda rng, n: _mask_of(rng.sample(range(n), rng.randint(max(0, n - 3), n))))
_sample_all = _sampler(lambda rng, n: (1 << n) - 1)


def _sample_five_cycle(rng, max_n):
    n = rng.randint(5, max_n)
    adj = _random_adj(rng, n, rng.choice(EDGE_PROBABILITIES))
    zs = rng.sample(range(n), 5)
    adj = _force_cycle(rng, adj, zs)
    cyc = _mask_of(zs)
    rest = ((1 << n) - 1) & ~cyc
    if rest and rng.random() < 0.5:
        # one vertex off the cycle is cut from it and left out of S
        w = rng.choice(list(_bits(rest)))
        adj = [a & ~(1 << w) if cyc >> v & 1 else a for v, a in enumerate(adj)]
        adj[w] &= ~cyc
        adj = tuple(adj)
        rest ^= 1 << w
    return adj, rest


def _sample_bad_cycle(rng, max_n):
    length = rng.choice([c for c in (4, 6, 7) if c <= max_n])
    n = rng.randint(length, max_n)
    adj = _random_adj(rng, n, rng.choice(EDGE_PROBABILITIES))
    zs = rng.sample(range(n), length)
    return _force_cycle(rng, adj, zs), ((1 << n) - 1) & ~_mask_of(zs)


# ---------------------------------------------------------------------------
# hypotheses and conclusions


def _rest(adj: tuple, smask: int) -> int:
    return ((1 << len(adj)) - 1) & ~smask


def _hyp_chordal_remainder(adj, smask):
    return _elimination_order(adj, _rest(adj, smask)) is not None


def _hyp_five_cycle(adj, smask):
    return _classify_remainder(adj, _rest(adj, smask)) is RemainderClass.FIVE_CYCLE


def _hyp_vertex_cover(adj, smask):
    return _edgeless(adj, _rest(adj, smask))


def _hyp_near_all(adj, smask):
    return len(adj) - smask.bit_count() <= 3


def _hyp_all(adj, smask):
    return smask == (1 << len(adj)) - 1


def _hyp_not_scm_remainder(adj, smask):
    """The dlq report of the remainder when it has a GF(2) witness, else
    None.  A remainder that ``decide._remainder_report`` settles by theorem
    builds nothing."""
    report = _remainder_report(adj, smask)
    if report is not None and _remainder_witnesses(report, (GF2,), len(adj), smask)[0]:
        return report


def _hyp_bad_cycle(adj, smask):
    rest = _rest(adj, smask)
    return rest.bit_count() in (4, 6, 7) and _induces_one_cycle(adj, rest)


def _concl_whiskered(G, S, fields, held, expect=True, cm=False):
    """Is the whiskered graph SCM (CM with ``cm``) over each field exactly
    when ``expect``?"""
    kind = "CM" if cm else "SCM"
    for f, v in zip(fields, _decide(add_whiskers(G, S)[0], fields, cm=cm)):
        if v.value != expect:
            return False, (f"whiskered graph {'is not' if expect else 'unexpectedly'} "
                           f"{kind} over field {f}")
    return True, f"whiskered graph {kind if expect else 'not ' + kind} as expected"


def _concl_cover(G, S, fields, held):
    hit = sufficient_scm(G, S)
    if hit is None or hit.rule != "vertex-cover":
        return False, "vertex-cover sufficient condition did not fire"
    return _concl_whiskered(G, S, fields, held)


def _concl_near_all(G, S, fields, held):
    if sufficient_scm(G, S) is None:
        return False, "no sufficient condition fired despite the size bound"
    return _concl_whiskered(G, S, fields, held)


def _concl_lift(G, S, fields, report):
    """Does the remainder's witness over each field, scanned on the dlq
    report ``report`` that the hypothesis kept, lift, and is the whiskered
    graph not SCM?"""
    for f, w in zip(fields, _remainder_witnesses(report, fields, G.n, G._check_vertices(S))):
        if w is None:
            return False, f"remainder witness vanished over field {f}"
        if not check_koszul_lift(G, S, w, f):
            return False, f"Koszul lift check failed over field {f}"
    return _concl_whiskered(G, S, fields, report, expect=False)


_CLAIMS = {
    "T3.2": (_sample_plain, _hyp_chordal_remainder, _concl_whiskered),
    "T3.3": (_sample_five_cycle, _hyp_five_cycle, _concl_whiskered),
    "T4.1": (_sample_plain, _hyp_not_scm_remainder, _concl_lift),
    "C3.4": (_sample_cover_biased, _hyp_vertex_cover, _concl_cover),
    "C3.5": (_sample_near_all, _hyp_near_all, _concl_near_all),
    "C3.6": (_sample_all, _hyp_all, partial(_concl_whiskered, cm=True)),
    "C4.2": (_sample_bad_cycle, _hyp_bad_cycle, partial(_concl_whiskered, expect=False)),
}

# the fewest vertices a claim's sampler draws (a five-cycle, a 4-cycle);
# Campaign refuses a smaller max_n, which the report would misstate
_LEAST_N = {"T3.3": 5, "C4.2": 4}


def _trial_rng(campaign: Campaign, index: int) -> random.Random:
    return random.Random(campaign.seed * _SEED_STRIDE + index)


def _shrink(hypothesis, conclusion, G, S, fields):
    """Delete vertices while the hypothesis holds and the failure persists."""
    improved = True
    while improved:
        improved = False
        for v in range(G.n):
            H = delete_vertices(G, [v])
            S2 = frozenset((w - 1 if w > v else w) for w in S if w != v)
            try:
                held = hypothesis(H.adj, _mask_of(S2))
                if held and not conclusion(H, S2, fields, held)[0]:
                    G, S = H, S2
                    improved = True
                    break
            except (InputError, SearchBudgetExceeded):
                continue
    return G, S


def _counterexample(claim_id, trial, detail, G, S) -> dict:
    sj = ",".join(str(v + 1) for v in sorted(S))
    verb = "is-cm" if claim_id == "C3.6" else "is-scm"  # C3.6 is the one CM claim
    cmd = f"edgeideals {verb} GRAPH_FILE" + (f" --whisker {sj}" if sj else "")
    return {
        "claim": claim_id,
        "trial": trial,
        "detail": detail,
        "graph": format_graph(G),
        "whisker_at": sorted(v + 1 for v in S),
        "rerun": cmd,
    }


def run_campaign(campaign: Campaign) -> Report:
    """Run a claim's trials; deterministic for a fixed (seed, fields)."""
    stats_before = dict(search_stats)
    if campaign.theorem == "T3.7":
        report = _run_t37(campaign)
    else:
        sampler, hypothesis, conclusion = _CLAIMS[campaign.theorem]
        report = Report(campaign, CLAIM_STATEMENTS[campaign.theorem])
        for t in range(campaign.trials):
            rng = _trial_rng(campaign, t)
            for _ in range(ATTEMPT_CAP):
                adj, smask = sampler(rng, campaign.max_n)
                held = hypothesis(adj, smask)
                if held:
                    break
            else:
                report.skipped += 1
                continue
            G, S = Graph._from_adj(adj, _default_labels(len(adj))), frozenset(_bits(smask))
            ok, detail = conclusion(G, S, campaign.fields, held)
            if ok:
                report.passed += 1
            else:
                report.failed += 1
                G2, S2 = _shrink(hypothesis, conclusion, G, S, campaign.fields)
                held = hypothesis(G2.adj, _mask_of(S2))
                detail2 = conclusion(G2, S2, campaign.fields, held)[1]
                report.failures.append(_counterexample(campaign.theorem, t, detail2, G2, S2))
    report.order_search_stats = {k: search_stats[k] - stats_before.get(k, 0)
                                 for k in search_stats}
    return report


# ---------------------------------------------------------------------------
# the exhaustive equivalence sweep


def all_induced_dlq(G: Graph, memo=None, *, S=()) -> bool:
    """Does whisker(G[U], S & U) have dual linear quotients for every U?

    U ranges over all vertex subsets of G, so with S empty this asks
    whether every induced subgraph of G has dual linear quotients.  The
    recursion deletes one vertex at a time and decides each graph's own
    verdict only when all its one-vertex deletions pass.  It works on
    adjacency tuples and S-masks, reindexed by ``graphs._drop``, and checks
    each whiskered graph's dual on masks (``quotients._dual_orders``), so
    it builds no ``Graph``, order or report, and an ideal only for a GF(2)
    witness scan.  ``memo`` maps the
    canonical form (adjacency tuple, S-mask) of ``graphs._canonical`` to
    the answer for all subsets and may be shared across calls; the
    recursion runs on the deletions of the canonical representative.

    Lemma (relabelling): a permutation of the vertices maps the edge ideal,
    its Alexander dual and each degree component of the dual to those of
    the relabelled graph, and an order with linear quotients to one, so the
    dual linear-quotients verdict is invariant under relabelling.  The
    induced subgraphs of a relabelled (G, S) are relabellings of those of
    (G, S), so the answer here, and with it both sides of Theorem 3.7, is
    one per isomorphism class of (G, S).

    With S nonempty this is the whiskered side of Theorem 3.7: an induced
    subgraph of G with the tips of S attached that keeps every tip is
    whisker(G[U], S & U) plus the tips whose base is gone, which sit
    isolated, and isolated vertices do not change the verdict.

    Lemma: if x is an isolated vertex of H + x, then H + x has dual linear
    quotients iff H has.  Proof sketch: x lies in no minimal vertex cover,
    so dmin..D is unchanged, and the degree-d component of the dual of
    H + x is C_d + x*C_{d-1}, C_k the degree-k component of H's dual.
    (<=) Order C_d first, then x*C_{d-1} (the E, F*x block of
    ``quotients._whisker_seq``): the colon at x*m is generated by the
    variables outside m, since m + y is a cover for each such y.  (=>)
    Dropping the x-divisible generators from an order with linear
    quotients leaves an order of C_d with linear quotients: at an x-free
    generator u, every x-free predecessor w has a colon variable z in
    w - u, so z is not x, and the predecessor p with p - u = {z} cannot
    contain x, so z is a colon variable of the x-free prefix too.
    """
    return _all_induced_dlq(G.adj, G._check_vertices(S), {} if memo is None else memo, {})


def _all_induced_dlq(adj: tuple, smask: int, memo: dict, canon: dict) -> bool:
    """``all_induced_dlq`` on a labelled (adj, S-mask); ``canon`` maps the
    labelled pairs already met to their canonical forms, so that each is
    computed once per sweep."""
    key = canon.get((adj, smask))
    if key is None:
        key = canon[adj, smask] = _canonical(adj, smask)[:2]
    got = memo.get(key)
    if got is not None:
        return got
    adj, smask = key
    ok = all(_all_induced_dlq(_delete_adj(adj, 1 << v), _drop(smask, v), memo, canon)
             for v in range(len(adj)))
    if ok:
        wadj = _whiskered_adj(adj, smask)
        dual = _minimal_cover_masks(wadj, (1 << len(wadj)) - 1)
        ordered, unknown, _, _ = _dual_orders(wadj, dual, DEFAULT_SEARCH_BUDGET, True)
        ok = None not in ordered.values()
        if ok and unknown:  # undecided within the budget, which must not read as False
            W = Graph._from_adj(wadj, _default_labels(len(wadj)))
            raise SearchBudgetExceeded(f"dual linear quotients of {W!r} undecided")
    memo[key] = ok
    return ok


def _classes(limit: int):
    """Yield (n, classes) for n = 1..limit, where ``classes`` maps the
    canonical form (adjacency tuple, S-mask) of each isomorphism class of
    graphs G on n vertices with a vertex subset S to |Aut(G, S)|, in
    ascending order of the form.

    The plain graphs (S empty) grow by canonical augmentation (McKay,
    J. Algorithms 1998): deleting the last vertex of a graph on n vertices
    leaves one on n - 1, isomorphic to its class representative R, so
    every class on n vertices is R plus a vertex with some neighbourhood
    N; an automorphism of R carries N to any mask in its orbit without
    changing the class, so one N per Aut(R)-orbit, its least mask, suffices.

    The pairs then come from the plain representatives.  Lemma: isomorphic
    pairs (G, S) have isomorphic graphs; relabelling a pair along an
    isomorphism from G to its representative P puts the class on P, as
    (P, S'); and masks in one Aut(P)-orbit give one class.  So one
    canonical form of (P, S') per Aut(P)-orbit of masks reaches every
    class once.  Aut(P) itself is the set of relabellings that reach P's
    canonical form, since P is one (``graphs._least_relabellings``), and
    its orbits on masks serve both as the S-masks of P and as the
    neighbourhoods of the next vertex.

    P's invariant classes and neighbour lists are computed once
    (``graphs._invariant_classes`` with S empty), and the classes of each
    (P, S') by splitting P's, so only the permutation search
    (``graphs._least_in_classes``) runs per orbit.
    Lemma: the split gives the classes of (P, S') in order, each in index
    order: the S-free parts of P's classes, then the S' parts.  A
    canonical form lies in class order, so P's classes are runs of
    consecutive indices; the invariant of (P, S') is the S bit followed by
    P's, and its stable sort keeps each S bit's vertices in index order,
    which is already sorted by P's invariant.
    """
    level = [((), [0])]  # plain representatives on n - 1 vertices, with their mask orbits
    for n in range(1, limit + 1):
        new = 1 << (n - 1)
        plain = {_canonical(tuple(a | new if nbrs >> v & 1 else a for v, a in enumerate(adj))
                            + (nbrs,), 0)[0] for adj, orbits in level for nbrs in orbits}
        classes, level = {}, []
        for adj in plain:
            runs, nbrs = _invariant_classes(adj, 0), [tuple(_bits(a)) for a in adj]
            auts = _least_in_classes(nbrs, runs, 0)[2]
            orbits = _mask_orbits(auts, n)
            level.append((adj, orbits))
            classes[adj, 0] = len(auts)
            for smask in orbits[1:]:
                split = ([tuple(v for v in run if not smask >> v & 1) for run in runs]
                         + [tuple(v for v in run if smask >> v & 1) for run in runs])
                cadj, cmask, seqs = _least_in_classes(nbrs, list(filter(None, split)),
                                                      smask.bit_count())
                classes[cadj, cmask] = len(seqs)
        yield n, dict(sorted(classes.items()))


def _run_t37(campaign: Campaign) -> Report:
    """Exhaust all graphs up to min(max_n, 6) vertices and all subsets S.

    The remainder side is ``all_induced_dlq(G - S)``.  The whiskered side
    ranges over induced subgraphs of G with the tips of S attached that
    contain every added tip: that is the class the inductive argument
    concludes for, and the unrestricted reading is false already for a
    four-cycle with one whisker.  Isolated tips do not change the verdict
    (the lemma at ``all_induced_dlq``), so the whiskered side is
    ``all_induced_dlq(G, S=S)``, and one memoized recursion over
    single-vertex deletions serves both sides.

    Both sides are invariant under relabelling (the relabelling lemma at
    ``all_induced_dlq``), so the sweep decides one representative per
    isomorphism class of (G, S) on n vertices and counts it as its
    n!/|Aut(G, S)| labelled pairs (orbit-stabilizer).  The representatives
    are the canonical forms ``_classes`` grows from the plain graph
    classes, one per orbit of each plain representative's automorphisms
    on S-masks, swept in ascending order.  Per n the weights must sum to
    the 2^C(n,2) * 2^n labelled pairs, or the sweep raises AssertionError.
    A failing class is reported on its representative, with the running
    labelled count as its trial.
    """
    report = Report(campaign, CLAIM_STATEMENTS["T3.7"])
    memo, canon = {}, {}
    for n, classes in _classes(min(campaign.max_n, 6)):
        labelled = 0
        for (adj, smask), aut in classes.items():
            weight = factorial(n) // aut
            labelled += weight
            canon[adj, smask] = adj, smask  # _classes gives canonical forms
            lhs = _all_induced_dlq(_delete_adj(adj, smask), 0, memo, canon)
            rhs = _all_induced_dlq(adj, smask, memo, canon)
            if lhs == rhs:
                report.passed += weight
            else:
                report.failed += weight
                detail = f"remainder side {lhs}, whiskered side {rhs}"
                G = Graph._from_adj(adj, _default_labels(n))
                report.failures.append(_counterexample("T3.7", report.passed + report.failed,
                                                       detail, G, frozenset(_bits(smask))))
        if labelled != 1 << n * (n + 1) // 2:
            raise AssertionError(f"the classes on {n} vertices weigh {labelled} labelled "
                                 f"pairs, not 2^C({n},2) * 2^{n}")
    return report


# ---------------------------------------------------------------------------
# fixtures


def ex38_pair():
    """Six-vertex graph whose whiskered dual has syzygies off the linear strand."""
    G = Graph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (2, 4), (3, 4), (4, 5)])
    return G, frozenset({5})


def ex39_pair():
    """Six-vertex graph whose whiskered dual keeps linear quotients."""
    G = Graph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (2, 4), (3, 4), (1, 5), (2, 5)])
    return G, frozenset({5})


def ex43_pair():
    """Four-cycle with a pendant edge; whiskering only the pendant tip fails."""
    G = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)],
              labels=("y1", "y2", "y3", "y4", "y"))
    return G, frozenset({4})


# the 6-vertex real projective plane: 10 triangles, every edge of K6 in two
_RP2_TRIANGLES = ((0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
                  (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5))


def rp2_sd() -> Graph:
    """Complement of the 1-skeleton of the barycentric subdivision of RP^2.

    Vertices are the 31 nonempty faces of RP^2, adjacent when neither
    contains the other, so the independence complex is the subdivision
    itself: Cohen-Macaulay over Q and GF(3) but not over GF(2) (Katzman,
    JCTA 2006).  Its dual has no linear quotients in any field.
    """
    faces = sorted({frozenset(s) for t in _RP2_TRIANGLES
                    for k in (1, 2, 3) for s in combinations(t, k)},
                   key=lambda f: (len(f), sorted(f)))
    return Graph(len(faces), [(i, j) for i, j in combinations(range(len(faces)), 2)
                              if not (faces[i] < faces[j] or faces[j] < faces[i])])


# published values; a generator or colon set is a mask, bit v for vertex v
_EX38_DUAL = (0b0101101, 0b0101110, 0b0110101, 0b0111010, 0b1010101, 0b1011010)
_EX38_BETTI = {"0,4": 6, "1,5": 5, "1,6": 1, "2,7": 1}
_EX39_ORDER = (0b0101101, 0b0101110, 0b0110101, 0b0111010, 0b1001110, 0b1010111)
_EX43_DUAL = (0b010101, 0b011010, 0b100101, 0b101011)
_C5_ORDER = (0b01011, 0b01101, 0b10101, 0b10110, 0b11010)
_C5_COLON = (0b00000, 0b00010, 0b01000, 0b00001, 0b00101)


@dataclass
class FixtureResult:
    fixture: str
    expected: dict
    observed: dict

    @property
    def passed(self) -> bool:
        return self.expected == self.observed

    def to_json(self) -> dict:
        return {
            "fixture": self.fixture,
            "passed": self.passed,
            "expected": self.expected,
            "observed": self.observed,
        }

    def to_text(self) -> str:
        lines = [f"fixture {self.fixture}: " + ("PASS" if self.passed else "FAIL")]
        if not self.passed:
            for key in sorted(set(self.expected) | set(self.observed)):
                e, o = self.expected.get(key), self.observed.get(key)
                if e != o:
                    lines.append(f"  {key}: expected {e!r}, observed {o!r}")
        return "\n".join(lines) + "\n"


def _gens_as_lists(masks) -> list:
    return sorted(list(_bits(m)) for m in masks)


def _totals_as_json(totals) -> dict:
    return {f"{i},{j}": v for (i, j), v in sorted(totals.items())}


def _paper_order(ideal: MonomialIdeal, masks):
    pos = {m: i for i, m in enumerate(ideal.masks)}
    try:
        return make_order(ideal, [pos[m] for m in masks])
    except KeyError:
        return None


def _ex38() -> dict:
    dual = alexander_dual_of_edge_ideal(add_whiskers(*ex38_pair())[0])
    return {"dual": _gens_as_lists(dual.masks),
            "betti_gf2": _totals_as_json(betti_numbers(dual, GF2).totals),
            "betti_q": _totals_as_json(betti_numbers(dual, QQ).totals)}


def _ex39() -> dict:
    GW, _ = add_whiskers(*ex39_pair())
    q = _paper_order(alexander_dual_of_edge_ideal(GW), _EX39_ORDER)
    return {"listed_order_verifies": bool(q is not None and verify_order(q)),
            "scm": is_sequentially_cm(GW).value}


def _ex43() -> dict:
    GW, _ = add_whiskers(*ex43_pair(), tip_labels=("x",))
    dual = alexander_dual_of_edge_ideal(GW)
    comp3 = squarefree_degree_component(dual, 3)
    return {"dual": _gens_as_lists(dual.masks),
            "component3_betti": _totals_as_json(betti_numbers(comp3, GF2).totals),
            "scm": is_sequentially_cm(GW).value}


def _c5_order() -> dict:
    C5 = cycle_graph(5)
    dual = alexander_dual_of_edge_ideal(C5)
    q = _paper_order(dual, _C5_ORDER)
    verifies = bool(q is not None and verify_order(q))
    return {"listed_order_verifies": verifies,
            "colon_vars_match": verifies and q.colon == _C5_COLON,
            "scm": is_sequentially_cm(C5).value,
            "betti_oracle_agrees": verifies and (betti_from_quotient_order(q).totals
                                                 == betti_numbers(dual, GF2).totals)}


def _villarreal_edge() -> dict:
    return {"path3_scm": is_sequentially_cm(path_graph(3)).value,
            "path3_cm": is_cm(path_graph(3)).value,
            "path4_cm": is_cm(path_graph(4)).value}


def _rp2_sd() -> dict:
    G = rp2_sd()
    gf2, gf3, q = _decide(G, (GF2, GF3, QQ), cm=True)
    return {"cm_gf2": gf2.value, "cm_gf3": gf3.value, "cm_q": q.value,
            "dual_linear_quotients": has_dual_linear_quotients(
                G, budget=DEFAULT_SEARCH_BUDGET).verdict}


# fixture id -> (recompute from scratch, published values)
_FIXTURES = {
    "EX3.8": (_ex38, {"dual": _gens_as_lists(_EX38_DUAL), "betti_gf2": _EX38_BETTI,
                      "betti_q": _EX38_BETTI}),
    "EX3.9": (_ex39, {"listed_order_verifies": True, "scm": True}),
    "EX4.3": (_ex43, {"dual": _gens_as_lists(_EX43_DUAL),
                      "component3_betti": {"0,3": 3, "1,4": 1, "1,5": 1}, "scm": False}),
    "C5-ORDER": (_c5_order, {"listed_order_verifies": True, "colon_vars_match": True,
                             "scm": True, "betti_oracle_agrees": True}),
    "VILLARREAL-EDGE": (_villarreal_edge, {"path3_scm": True, "path3_cm": False,
                                           "path4_cm": True}),
    "RP2-SD": (_rp2_sd, {"cm_gf2": False, "cm_gf3": True, "cm_q": True,
                         "dual_linear_quotients": False}),
}
FIXTURE_IDS = tuple(_FIXTURES)


def run_fixture(fixture_id: str) -> FixtureResult:
    """Recompute one published example from scratch and diff it."""
    if fixture_id not in _FIXTURES:
        raise InputError(f"unknown fixture {fixture_id!r}; known: {', '.join(FIXTURE_IDS)}")
    recompute, expected = _FIXTURES[fixture_id]
    return FixtureResult(fixture_id, deepcopy(expected), recompute())
