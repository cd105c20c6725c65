"""Structural coloring procedures with runtime-audited decompositions.

Each colorer mirrors one decomposition argument for its class: split the
graph into blocks, color the blocks on disjoint palette slices (recursing
where the argument recurses, and coloring leaf cases by an exact search that
stops once the palette is within the leaf's audited bound), audit every
structural fact on the concrete vertex sets, and finally assert the concrete
palette against the class binding function.

Each audit call names a tag template of trace.CLAIMS, which fixes the
step's kind, assertion and soft flag, and passes the step's sets, numbers
and template fields.  Two claims are declared soft there and may record
soft-gap verdicts: the per-side palette claims for the J2/J3 split of the
hammer case inside the kite procedure (split-hammer/j2-palette, j3-palette),
and the per-part palette claims over the second-neighborhood partition
inside the C5 procedure (second-nbhd/b{idx}-palette).  Everything else is
hard: a failure raises AuditViolation, because on in-class inputs it cannot
happen unless the code (or the argument) is wrong.  The final palette
assertion is always hard.
"""

from __future__ import annotations

from functools import reduce
from itertools import zip_longest
from operator import or_
from typing import Callable

from .exact import SolveBudget, require_coloring, verify_coloring
from .graphs import (
    Coloring,
    Graph,
    bits,
    co_components,
    components,
    is_independent,
    mask_of,
    reachable,
)
from .patterns import (
    PATTERNS,
    ClassSpec,
    Embedding,
    class_by_name,
    find_induced,
    is_member,
)
from .trace import ProofTrace

BINDINGS: dict[str, Callable[[int], int]] = {
    "P3P2": lambda w: w * (w + 1) * (w + 2) // 6,
    "KiteFree": lambda w: 2 * w,
    "HammerFree": lambda w: w * w,
    "C5Free": lambda w: (3 * w * w + w) // 2,
    "K4Free": lambda w: 9,
    "P2K3Free": lambda w: w * w,
    "K1K3Free": lambda w: 2 * w,
    "TriangleFree": lambda w: 4,
}


def evaluate_bound(class_name: str, omega: int) -> int:
    """Value of the class binding function at clique number omega."""
    spec = class_by_name(class_name)
    if omega < 1:
        raise ValueError(f"omega must be >= 1, got {omega}")
    return BINDINGS[spec.name](omega)


def _bound_at(class_name: str, omega: int) -> int:
    """The binding of a canonical class name at omega, or 0 for the empty
    graph (omega 0): the palette bound every colorer run is checked against."""
    return BINDINGS[class_name](omega) if omega else 0


class ClassMembershipError(ValueError):
    """The input graph is outside the colorer's class; carries a witness."""

    def __init__(self, class_name: str, witness: Embedding):
        super().__init__(
            f"graph is not in {class_name}: induced {witness.pattern} on "
            f"{sorted(witness.vertices)}"
        )
        self.class_name = class_name
        self.witness = witness


# -- shared internals --------------------------------------------------------
#
# The recursive procedures take the run's ProofTrace, which holds the input
# graph and the run's SolveBudget, and work on subsets of that graph, carried
# as vertex masks.  Every set they audit or color, and every pattern search
# and exact solve they run (through the kernels' ``within`` mask), stays in
# the original vertex ids; no induced copy is built.
#
# A colored block is a list of color-class masks: class i is the set of
# vertices given the block's i-th color, and the block's palette is its
# length.  Blocks colored on disjoint palette slices are concatenated.


def _cluster(g: Graph, m: int) -> list[int]:
    """Color each connected component of G[m] as a clique, ids ascending:
    class i holds the i-th vertex of every component that has one."""
    classes: list[int] = []
    for comp in components(g, m):
        for i, v in enumerate(bits(comp)):
            if i == len(classes):
                classes.append(0)
            classes[i] |= 1 << v
    return classes


def _single_color_block(m: int) -> list[int]:
    return [m] if m else []


def _clique_block(m: int) -> list[int]:
    return [1 << v for v in bits(m)]


def _exact_block(trace: ProofTrace, m: int, cap: Callable[[int], int]) -> list[int]:
    """Classes of a coloring of G[m], given the trace's clique, that stops
    within the audit's bound cap(w), w read per join part (see
    ``exact.require_coloring``): exact unless omega < chi < cap on a part,
    so a site past its bound records the true palette."""
    res = require_coloring(
        trace.g, cap, trace.budget, within=m, clique=trace.clique(m).vertices
    )
    classes = [0] * res.coloring.palette
    for v, c in zip(bits(m), res.coloring.colors):
        classes[c] |= 1 << v
    return classes


def _leaf(trace: ProofTrace, live: int) -> list[int] | None:
    """One color for an independent part, with no step recorded; a coloring
    of a triangle-free part that stops within 4 colors, audited; None when
    omega > 2."""
    if is_independent(trace.g, live):
        return _single_color_block(live)
    if trace.clique(live).lower > 2:
        return None
    block = _exact_block(trace, live, lambda w: 4)
    trace.audit(
        "leaf/triangle-free", sets={"X": live}, numbers={"value": len(block), "bound": 4}
    )
    return block


def _dominated_pair(
    g: Graph, m: int, part_of: dict[int, int], start: int = 0
) -> tuple[int, int] | None:
    """First ordered pair (u, v) in the mask with u, v nonadjacent and
    N(u) within N(v), neighborhoods taken inside the mask.  The donors of u
    are its non-neighbors that see every neighbor of u; the pair is the
    lowest u with a donor and its lowest donor.  part_of[u] is u's
    co-component in some G[m'] with m' holding m, which holds u's
    co-component in G[m]: the donors lie in it and every vertex outside it
    sees all of it, so only u's neighbors inside it are read.  The scan
    starts at vertex start: the caller knows that no u below it has a
    donor."""
    rows = g.rows
    for u in bits(m >> start << start):
        part = part_of[u] & m
        donors = part & ~rows[u] & ~(1 << u)
        for w in bits(rows[u] & part):
            donors &= rows[w]
            if not donors:
                break
        if donors:
            return u, (donors & -donors).bit_length() - 1
    return None


def _fold_classes(g: Graph, classes: list[int]) -> list[int]:
    """Merge each color class into the earliest class it has no edge to.

    The decomposition accounts block palettes additively, so disjoint blocks
    that never conflict can share colors; folding keeps the coloring proper
    and never increases the palette.
    """
    folded: list[int] = []
    for members in classes:
        closed = 0
        for v in bits(members):
            closed |= g.rows[v]
        for i, taken in enumerate(folded):
            if taken & closed == 0:
                folded[i] |= members
                break
        else:
            folded.append(members)
    return folded


def _wrap(
    class_name: str,
    g: Graph,
    budget: SolveBudget | None,
    rec: Callable[[ProofTrace, int], list[int]],
) -> tuple[Coloring, ProofTrace]:
    spec: ClassSpec = class_by_name(class_name)
    verdict = is_member(g, spec)
    if not verdict:
        assert verdict.witness is not None
        raise ClassMembershipError(spec.name, verdict.witness)
    trace = ProofTrace(spec.name, g, budget)
    classes = rec(trace, g.full_mask)
    if reduce(or_, classes, 0) != g.full_mask or sum(c.bit_count() for c in classes) != g.n:
        raise RuntimeError("internal: color classes do not partition the vertices")
    colors = [0] * g.n
    for i, members in enumerate(_fold_classes(g, classes)):
        for v in bits(members):
            colors[v] = i
    coloring = Coloring(tuple(colors)).compacted()
    omega = trace.clique(g.full_mask).lower
    bound = _bound_at(spec.name, omega)
    trace.audit(
        "bound/final-palette", numbers={"value": coloring.palette, "bound": bound},
        cls=spec.name, omega=omega,
    )
    bad = verify_coloring(g, coloring)
    if bad is not None:
        raise RuntimeError(f"internal: improper coloring at edge {bad}")
    return coloring, trace


# -- kite-free ---------------------------------------------------------------


def color_kite_free(
    g: Graph, budget: SolveBudget | None = None
) -> tuple[Coloring, ProofTrace]:
    """Color a kite-free graph with at most 2*omega colors, audited."""
    return _wrap("KiteFree", g, budget, _kite)


def _kite(trace: ProofTrace, live: int) -> list[int]:
    g = trace.g
    # Removing a vertex never merges co-components: the lookup holds throughout.
    part_of = {v: part for part in co_components(g, live) for v in bits(part)}
    rules: list[tuple[int, int]] = []
    start = 0
    while True:
        pair = _dominated_pair(g, live, part_of, start)
        if pair is None:
            break
        u, v = pair
        trace.audit("reduce/dominated-pair", sets={
            "X": g.rows[u] & live, "Y": g.rows[v] & live, "removed": 1 << u, "donor": 1 << v
        }, u=u, v=v)
        rules.append((u, v))
        live &= ~(1 << u)
        # Only u's neighbors inside its co-component can gain a donor: one
        # outside it has its donors in its own, where every vertex sees u.
        near = g.rows[u] & part_of[u] & live | 2 << u
        start = (near & -near).bit_length() - 1
    classes = _kite_core(trace, live)
    class_of = {v: i for i, c in enumerate(classes) for v in bits(c)} if rules else {}
    for u, v in reversed(rules):
        class_of[u] = i = class_of[v]
        classes[i] |= 1 << u
    return classes


def _kite_core(trace: ProofTrace, live: int) -> list[int]:
    leaf = _leaf(trace, live)
    if leaf is not None:
        return leaf
    g = trace.g
    omega = trace.clique(live).lower
    emb = find_induced(g, PATTERNS["p2_union_k3"], within=live)
    if emb is not None:
        return _kite_split_p2k3(trace, live, emb, omega)
    emb = find_induced(g, PATTERNS["hammer"], within=live)
    if emb is not None:
        return _kite_split_hammer(trace, live, emb, omega)
    trace.audit("leaf/k1k3-absent", sets={"X": live})
    block = _exact_block(trace, live, lambda w: 2 * w)
    trace.audit("leaf/k1k3-free", numbers={"value": len(block), "bound": 2 * omega})
    return block


def _kite_split_p2k3(
    trace: ProofTrace, live: int, emb: Embedding, omega: int
) -> list[int]:
    g = trace.g
    u1, u2 = emb.vertices[0], emb.vertices[1]
    um = 1 << u1 | 1 << u2
    nw = (g.rows[u1] | g.rows[u2]) & live & ~um
    x1 = nw & g.rows[u1] & ~g.rows[u2]
    x2 = nw & g.rows[u2] & ~g.rows[u1]
    y = nw & g.rows[u1] & g.rows[u2]
    m = live & ~um & ~nw
    trace.audit("split-p2k3/eq1-x1", sets={"X": x1, "edge": um})
    trace.audit("split-p2k3/eq1-x2", sets={"X": x2, "edge": um})
    trace.audit("split-p2k3/m-anticomplete", sets={"X": um, "Y": m})
    trace.audit("split-p2k3/m-p3free", sets={"X": m})
    c1 = mask_of(trace.clique(m).vertices)
    c1_closed = c1
    for v in bits(c1):
        c1_closed |= g.rows[v] & live
    d = 0
    for v in bits(y):
        if g.rows[v] & y == y & ~(1 << v):
            d |= 1 << v
    c = y & ~d
    trace.audit("split-p2k3/d-clique", sets={"X": d})
    trace.audit("split-p2k3/eq2-c-meets-c1", sets={"X": c, "Y": c1_closed})
    trace.audit("split-p2k3/eq3-c-complete-c1", sets={"X": c, "Y": c1})
    omega1 = trace.clique(c).lower
    trace.audit(
        "split-p2k3/clique-budget",
        numbers={"value": c1.bit_count() + omega1, "bound": omega},
    )
    trace.audit("split-p2k3/edge-budget", numbers={"value": omega1 + 2, "bound": omega})
    trace.audit(
        "split-p2k3/d-budget", numbers={"value": d.bit_count() + 2 + omega1, "bound": omega}
    )
    cluster_block = _cluster(g, m | um)
    trace.audit(
        "split-p2k3/cluster-palette",
        numbers={"value": len(cluster_block), "bound": omega - omega1},
    )
    rec_block = _kite(trace, c)
    trace.audit(
        "split-p2k3/recursion-palette",
        numbers={"value": len(rec_block), "bound": 2 * omega1},
    )
    merged = (
        cluster_block
        + _clique_block(d)
        + _single_color_block(x1)
        + _single_color_block(x2)
        + rec_block
    )
    trace.audit("split-p2k3/total", numbers={"value": len(merged), "bound": 2 * omega})
    return merged


def _anchor_cells(
    g: Graph, live: int, anchors: dict[int, int]
) -> tuple[Callable[..., int], int, int]:
    """Split the anchors' neighborhood in G[live] into cells by which anchors
    a vertex sees.  Anchors are keyed by label.  Returns a lookup
    cell(*labels) giving the vertices that see exactly those anchors, the
    neighborhood mask, and the rest of live outside the anchors and their
    neighborhood."""
    am = mask_of(anchors.values())
    nm = 0
    for a in anchors.values():
        nm |= g.rows[a]
    nm &= live & ~am
    cells: dict[frozenset[int], int] = {}
    for w in bits(nm):
        s = frozenset(i for i, a in anchors.items() if g.rows[a] >> w & 1)
        cells[s] = cells.get(s, 0) | 1 << w

    def cell(*labels: int) -> int:
        return cells.get(frozenset(labels), 0)

    return cell, nm, live & ~am & ~nm


def _kite_split_hammer(
    trace: ProofTrace, live: int, emb: Embedding, omega: int
) -> list[int]:
    g = trace.g
    v1, v2, v3, v4, v5 = emb.vertices
    km = 1 << v1 | 1 << v2 | 1 << v4 | 1 << v5
    cell, nm, rest = _anchor_cells(g, live, {1: v1, 2: v2, 4: v4, 5: v5})
    trace.audit("split-hammer/cell-12-empty", sets={"X": cell(1, 2)})
    trace.audit("split-hammer/cell-45-empty", sets={"X": cell(4, 5)})
    for a in (1, 2, 4, 5):
        trace.audit("split-hammer/cell-{a}-empty", sets={"X": cell(a)}, a=a)
    j2_parts = [(1, 4), (1, 5), (2, 4), (2, 5)]
    j3_parts = [(1, 2, 4), (1, 2, 5), (1, 4, 5), (2, 4, 5)]
    for part in j2_parts + j3_parts:
        trace.audit(
            "split-hammer/cell-{cell}-independent", sets={"X": cell(*part)},
            cell="".join(map(str, part)),
        )
    j2 = 0
    for part in j2_parts:
        j2 |= cell(*part)
    j3 = 0
    for part in j3_parts:
        j3 |= cell(*part)
    full = cell(1, 2, 4, 5)
    trace.audit("split-hammer/cells-cover", sets={"X": nm, "Y": j2 | j3 | full})
    trace.audit("split-hammer/eq4-j2-j3", sets={"X": j2, "Y": j3})
    trace.audit(
        "split-hammer/hammer-complete-full", sets={"X": mask_of(emb.vertices), "Y": full}
    )
    trace.audit(
        "split-hammer/full-cell-omega", sets={"X": full}, numbers={"bound": omega - 3}
    )
    full_block = _kite(trace, full)
    trace.audit(
        "split-hammer/recursion-palette",
        numbers={"value": len(full_block), "bound": 2 * (omega - 3)},
    )
    j_blocks = []
    for tag, part in (("split-hammer/j2-palette", j2), ("split-hammer/j3-palette", j3)):
        block = _exact_block(trace, part, lambda w: 2)
        trace.audit(tag, sets={"X": part}, numbers={"value": len(block), "bound": 2})
        j_blocks.append(block)
    j_block = [a | b for a, b in zip_longest(*j_blocks, fillvalue=0)]
    trace.audit("split-hammer/n-block-palette", numbers={"value": len(j_block), "bound": 4})
    trace.audit("split-hammer/rest-components", sets={"X": rest | km})
    rest_block = _cluster(g, rest | km)
    trace.audit("split-hammer/rest-palette", numbers={"value": len(rest_block), "bound": 2})
    merged = full_block + j_block + rest_block
    trace.audit("split-hammer/total", numbers={"value": len(merged), "bound": 2 * omega})
    return merged


# -- spare-edge-free (P2+K3-free) --------------------------------------------


def color_p2k3_free(
    g: Graph, budget: SolveBudget | None = None
) -> tuple[Coloring, ProofTrace]:
    """Color a (P3+P2, P2+K3)-free graph with at most omega^2 colors."""
    return _wrap("P2K3Free", g, budget, _p2k3_main)


def _p2k3_main(trace: ProofTrace, live: int) -> list[int]:
    """One level per pass: split at a maximum clique's root and go on into
    its neighborhood; the levels are colored back up, deepest first."""
    g = trace.g
    # (omega, a_sets, b | root) per level, outermost first.
    levels: list[tuple[int, list[tuple[int, int]], int]] = []
    while not is_independent(g, live):
        cliq = trace.clique(live).vertices
        omega = len(cliq)
        v1 = cliq[0]
        outside = live & ~g.rows[v1] & ~(1 << v1)
        taken = 0
        a_sets: list[tuple[int, int]] = []  # (clique index i, mask)
        for i in range(2, omega + 1):
            vi = cliq[i - 1]
            ai = outside & ~taken & ~g.rows[vi]
            taken |= ai
            a_sets.append((i, ai))
        b = outside & ~taken
        for i, ai in a_sets:
            if ai:
                trace.audit("greedy-split/a{i}-components", sets={
                    "X": ai, "missed": 1 << cliq[i - 1], "root": 1 << v1
                }, i=i)
        trace.audit("greedy-split/b-complete", sets={"X": b, "Y": mask_of(cliq[1:])})
        trace.audit("greedy-split/b-independent", sets={"X": b})
        nbhd = g.rows[v1] & live
        trace.audit(
            "greedy-split/recursion-omega", sets={"X": nbhd}, numbers={"bound": omega - 1}
        )
        levels.append((omega, a_sets, b | 1 << v1))
        live = nbhd
    merged = _single_color_block(live)
    for omega, a_sets, base in reversed(levels):
        trace.audit(
            "greedy-split/recursion-palette",
            numbers={"value": len(merged), "bound": (omega - 1) * (omega - 1)},
        )
        for i, ai in a_sets:
            if ai:
                block = _cluster(g, ai)
                trace.audit(
                    "greedy-split/a{i}-palette", numbers={"value": len(block), "bound": 2},
                    i=i,
                )
                merged += block
        merged += _single_color_block(base)
        trace.audit(
            "greedy-split/total", numbers={"value": len(merged), "bound": omega * omega}
        )
    return merged


# -- hammer-free --------------------------------------------------------------


def color_hammer_free(
    g: Graph, budget: SolveBudget | None = None
) -> tuple[Coloring, ProofTrace]:
    """Color a hammer-free graph with at most omega^2 colors, audited."""
    return _wrap("HammerFree", g, budget, _hammer_rec)


def _hammer_rec(trace: ProofTrace, live: int) -> list[int]:
    """One level per pass: split at a twin edge and go on into its
    neighborhood; the last part, independent or free of P2+K3, goes to the
    P2+K3-free procedure, and the levels are colored back up, deepest first."""
    g = trace.g
    # (omega, the rest plus the twin edge) per level, outermost first.
    levels: list[tuple[int, int]] = []
    while not is_independent(g, live):
        emb = find_induced(g, PATTERNS["p2_union_k3"], within=live)
        if emb is None:
            break
        omega = trace.clique(live).lower
        u1, u2 = emb.vertices[0], emb.vertices[1]
        trace.audit(
            "twin-edge/eq5-closed-equal",
            sets={"X": (g.rows[u1] | 1 << u1) & live, "Y": (g.rows[u2] | 1 << u2) & live},
        )
        um = 1 << u1 | 1 << u2
        nbhd = g.rows[u1] & live & ~um
        rest = live & ~um & ~nbhd
        trace.audit("twin-edge/pair-complete", sets={"X": um, "Y": nbhd})
        trace.audit("twin-edge/n-omega", sets={"X": nbhd}, numbers={"bound": omega - 2})
        trace.audit("twin-edge/rest-p3free", sets={"X": rest | um})
        levels.append((omega, rest | um))
        live = nbhd
    merged = _p2k3_main(trace, live)
    for omega, rest in reversed(levels):
        trace.audit(
            "twin-edge/recursion-palette",
            numbers={"value": len(merged), "bound": (omega - 2) * (omega - 2)},
        )
        rest_block = _cluster(g, rest)
        trace.audit(
            "twin-edge/cluster-palette", numbers={"value": len(rest_block), "bound": omega}
        )
        merged += rest_block
        trace.audit(
            "twin-edge/total", numbers={"value": len(merged), "bound": omega * omega}
        )
    return merged


# -- C5-free -------------------------------------------------------------------


def color_c5_free(
    g: Graph, budget: SolveBudget | None = None
) -> tuple[Coloring, ProofTrace]:
    """Color a C5-free graph with at most (3*omega^2 + omega)/2 colors."""
    return _wrap("C5Free", g, budget, _c5_rec)


def _c5_rec(trace: ProofTrace, live: int) -> list[int]:
    leaf = _leaf(trace, live)
    if leaf is not None:
        return leaf
    g = trace.g
    omega = trace.clique(live).lower
    # Layers around a root of largest degree in G[live]: its neighbors, the
    # second sphere, and everything further or unreachable.
    v = max(bits(live), key=lambda w: ((g.rows[w] & live).bit_count(), -w))
    root = 1 << v
    n1 = g.rows[v] & live
    n2 = 0
    for u in bits(n1):
        n2 |= g.rows[u]
    n2 &= live & ~n1 & ~root
    far = live & ~root & ~n1 & ~n2
    n2plus_reach = reachable(g, live, root) & ~root & ~n1
    cats: dict[int, int] = {}
    a012 = 0
    for u in bits(n1):
        cats[u] = trace.clique(n2plus_reach & ~g.rows[u]).lower
        if cats[u] <= 2:
            a012 |= 1 << u
    aprime = n1 & ~a012
    trace.audit("layers/aprime-clique", sets={"X": aprime})
    trace.audit(
        "layers/aprime-size", numbers={"value": aprime.bit_count(), "bound": omega - 1}
    )
    if a012 == 0:
        # Unreachable: N(v) = aprime is a non-empty clique and v has largest
        # degree, so N[u] = N[v] for u in N(v); then cats[u] = 0, u in a012.
        raise RuntimeError("internal: C5 root has no low-category neighbor")
    c = trace.clique(a012).vertices
    omega0 = len(c)
    trace.audit("second-nbhd/base-clique", numbers={"value": omega0, "bound": omega - 1})
    cm = mask_of(c)
    d = 0
    for u in bits(n2):
        if g.rows[u] & cm == cm:
            d |= 1 << u
    remaining = n2 & ~d
    taken = 0
    b_masks: list[tuple[int, int]] = []
    for t in c:
        bi = remaining & ~taken & ~g.rows[t]
        taken |= bi
        b_masks.append((t, bi))
    trace.audit("second-nbhd/b-partition", sets={"X": taken, "Y": remaining})
    b_block: list[int] = []
    for idx, (t, bi) in enumerate(b_masks, start=1):
        cat = cats[t]
        if cat == 0:
            trace.audit(
                "second-nbhd/b{idx}-empty", sets={"X": bi, "anchor": 1 << t}, idx=idx
            )
            continue
        if not bi:
            continue
        trace.audit("second-nbhd/b{idx}-p3free", sets={"X": bi, "anchor": 1 << t}, idx=idx)
        block = _cluster(g, bi)
        trace.audit(
            "second-nbhd/b{idx}-palette",
            numbers={"value": len(block), "bound": 1 if cat <= 1 else 2}, idx=idx,
        )
        b_block += block
    trace.audit("second-nbhd/b-block", numbers={"value": len(b_block), "bound": 2 * omega0})
    trace.audit("second-nbhd/d-omega", sets={"X": d}, numbers={"bound": omega - omega0})
    a_block = _c5_rec(trace, a012)
    trace.audit(
        "second-nbhd/a-palette",
        numbers={"value": len(a_block), "bound": BINDINGS["C5Free"](omega0)},
    )
    d_block = _c5_rec(trace, d)
    trace.audit(
        "second-nbhd/d-palette",
        numbers={"value": len(d_block), "bound": BINDINGS["C5Free"](omega - omega0)},
    )
    trace.audit("second-nbhd/far-anticomplete", sets={"X": aprime, "Y": far})
    trace.audit("second-nbhd/far-p3free", sets={"X": far})
    far_block = [
        a | f for a, f in zip_longest(_clique_block(aprime), _cluster(g, far), fillvalue=0)
    ]
    trace.audit("second-nbhd/far-block", numbers={"value": len(far_block), "bound": omega})
    near = a_block + d_block + b_block
    merged = near + far_block
    # The root reuses a color from a part it cannot touch: the first class of
    # the complete side or of the second-sphere parts, else a far class with
    # no high-category vertex.  A fresh color is only possible when every
    # such part is empty, which forces the low-category side to carry a
    # reduced clique number.
    if len(near) > len(a_block):
        merged[len(a_block)] |= 1 << v
    elif len(far_block) > aprime.bit_count():
        merged[len(near) + aprime.bit_count()] |= 1 << v
    else:
        merged.append(1 << v)
    trace.audit(
        "second-nbhd/total",
        numbers={"value": len(merged), "bound": BINDINGS["C5Free"](omega)},
    )
    return merged


# -- K4-free -------------------------------------------------------------------


def color_k4_free(
    g: Graph, budget: SolveBudget | None = None
) -> tuple[Coloring, ProofTrace]:
    """Color a K4-free graph with at most 9 colors, audited."""
    return _wrap("K4Free", g, budget, _k4_rec)


def _k4_rec(trace: ProofTrace, live: int) -> list[int]:
    leaf = _leaf(trace, live)
    if leaf is not None:
        return leaf
    g = trace.g
    trace.audit("triangle-cap/omega", sets={"X": live}, numbers={"bound": 3})
    emb = find_induced(g, PATTERNS["2k3"], within=live)
    if emb is not None:
        return _k4_two_triangles(trace, live, emb)
    emb = find_induced(g, PATTERNS["p2_union_k3"], within=live)
    if emb is not None:
        return _k4_spare_edge(trace, live, emb)
    return _p2k3_main(trace, live)


def _triangle_shades(tri: tuple[int, ...], cell: Callable[..., int]) -> list[int]:
    """Three classes for a triangle and its two-vertex cells: each triangle
    vertex shares its class with the cell that misses it."""
    return [
        cell(2, 3) | 1 << tri[0],
        cell(1, 3) | 1 << tri[1],
        cell(1, 2) | 1 << tri[2],
    ]


def _k4_two_triangles(trace: ProofTrace, live: int, emb: Embedding) -> list[int]:
    g = trace.g
    tri = emb.vertices[:3]
    other = emb.vertices[3:]
    cell, _, rest = _anchor_cells(g, live, dict(enumerate(tri, 1)))
    trace.audit("two-triangles/cell-123-empty", sets={"X": cell(1, 2, 3)})
    for a in (1, 2, 3):
        trace.audit(
            "two-triangles/cell-{a}-empty",
            sets={"X": cell(a), "other-triangle": mask_of(other)}, a=a,
        )
    for a, b in ((1, 2), (1, 3), (2, 3)):
        trace.audit(
            "two-triangles/cell-{a}{b}-independent", sets={"X": cell(a, b)}, a=a, b=b
        )
    trace.audit("two-triangles/rest-p3free", sets={"X": rest})
    rest_block = _cluster(g, rest)
    trace.audit(
        "two-triangles/rest-palette", numbers={"value": len(rest_block), "bound": 3}
    )
    merged = _triangle_shades(tri, cell) + rest_block
    trace.audit("two-triangles/total", numbers={"value": len(merged), "bound": 6})
    return merged


def _k4_spare_edge(trace: ProofTrace, live: int, emb: Embedding) -> list[int]:
    g = trace.g
    u1, u2 = emb.vertices[:2]
    tri = emb.vertices[2:]
    cell, _, rest = _anchor_cells(g, live, dict(enumerate(tri, 1)))
    trace.audit("spare-edge/cell-123-empty", sets={"X": cell(1, 2, 3)})
    singles = cell(1) | cell(2) | cell(3)
    trace.audit(
        "spare-edge/singles-complete-pair", sets={"X": singles, "Y": 1 << u1 | 1 << u2}
    )
    trace.audit("spare-edge/singles-independent", sets={"X": singles})
    for a, b in ((1, 2), (1, 3), (2, 3)):
        trace.audit("spare-edge/cell-{a}{b}-independent", sets={"X": cell(a, b)}, a=a, b=b)
    trace.audit("spare-edge/rest-components", sets={"X": rest})
    rest_block = _cluster(g, rest)
    trace.audit("spare-edge/rest-palette", numbers={"value": len(rest_block), "bound": 2})
    merged = _triangle_shades(tri, cell) + _single_color_block(singles) + rest_block
    trace.audit("spare-edge/total", numbers={"value": len(merged), "bound": 6})
    return merged


COLORERS: dict[str, Callable[..., tuple[Coloring, ProofTrace]]] = {
    "KiteFree": color_kite_free,
    "HammerFree": color_hammer_free,
    "C5Free": color_c5_free,
    "K4Free": color_k4_free,
    "P2K3Free": color_p2k3_free,
}
