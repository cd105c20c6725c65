"""Induced-pattern detection and hereditary class membership."""

from functools import reduce
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chibound import (
    CLASSES,
    PATTERNS,
    Embedding,
    Graph,
    Pattern,
    SampleConfig,
    SampleExhausted,
    SplitMix64,
    class_by_name,
    complete,
    cycle,
    disjoint_union,
    empty,
    extremal_family,
    find_induced,
    gnp,
    is_member,
    join,
    named_graph,
    path,
    pattern_by_name,
    sample_class,
)
from chibound import patterns
from chibound.graphs import co_components
from chibound.patterns import (
    _ABSENT,
    _ANCHORED,
    _co_connected,
    _far_later,
    _search,
    in_class,
)

from oracles import (
    brute_find_induced,
    clique_components,
    count_induced,
    degree,
    embedding_is_induced,
    has_k1_union_k3,
    induced_embeddings,
    restrict,
)


class TestFindInduced:
    def test_c5_has_no_p3_union_p2(self):
        assert find_induced(cycle(5), PATTERNS["p3_union_p2"]) is None

    def test_kite_contains_diamond(self):
        emb = find_induced(named_graph("kite"), PATTERNS["diamond"])
        assert emb is not None
        assert embedding_is_induced(named_graph("kite"), PATTERNS["diamond"], emb)

    def test_grotzsch_is_triangle_free(self):
        assert find_induced(named_graph("grotzsch"), PATTERNS["k3"]) is None

    def test_witnesses_satisfy_induced_condition(self):
        host = named_graph("schlafli_complement")
        for name in ("k3", "c5", "p3_union_p2", "kite"):
            pattern = PATTERNS[name]
            emb = find_induced(host, pattern)
            if emb is not None:
                assert embedding_is_induced(host, pattern, emb)

    def test_pattern_order_cap(self):
        with pytest.raises(ValueError):
            Pattern("too-big", complete(9))

    def test_agrees_with_oracle_on_catalog_hosts(self):
        hosts = [named_graph(name) for name in ("kite", "hammer", "gem", "house", "w4")]
        for host in hosts:
            for pattern in PATTERNS.values():
                if pattern.graph.n > host.n:
                    continue
                mine = find_induced(host, pattern)
                oracle = brute_find_induced(host, pattern.graph)
                assert (mine is None) == (oracle is None), (host.name, pattern.name)

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_oracle_on_random_hosts(self, seed):
        host = gnp(6, 0.45, seed)
        for name in ("p3", "k3", "p3_union_p2", "diamond", "c5"):
            pattern = PATTERNS[name]
            mine = find_induced(host, pattern)
            oracle = brute_find_induced(host, pattern.graph)
            assert (mine is None) == (oracle is None), name
            if mine is not None:
                assert embedding_is_induced(host, pattern, mine)


class TestFindInducedWithin:
    @given(
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=0, max_value=2**8 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_induced_copy(self, seed, mask):
        host = gnp(8, 0.5, seed)
        keep = [v for v in host.vertices() if mask >> v & 1]
        sub = host.induced(keep)
        for name in ("p3", "k3", "p3_union_p2", "p2_union_k3", "hammer", "2k3"):
            pattern = PATTERNS[name]
            mine = find_induced(host, pattern, within=mask)
            ref = find_induced(sub, pattern)
            if ref is None:
                assert mine is None, name
            else:
                assert mine == Embedding(name, tuple(keep[i] for i in ref.vertices))

    def test_mask_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            find_induced(path(3), PATTERNS["p3"], within=1 << 5)
        with pytest.raises(ValueError, match="out of range"):
            find_induced(path(3), PATTERNS["p3"], within=-1)

    @given(
        st.integers(min_value=0, max_value=16),
        st.sampled_from([0.2, 0.5, 0.8]),
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=0, max_value=2**16 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_unrestricted_rows_give_the_same_result(self, n, p, seed, mask):
        # find_induced hands the search and the kernels the host's own rows:
        # each must confine itself to the mask, as on rows restricted to it.
        host = gnp(n, p, seed)
        within = mask & host.full_mask
        rows, full = restrict(host, within)
        for name, pattern in PATTERNS.items():
            got = _search(rows, full, pattern)
            assert _search(host.rows, within, pattern) == got, name
            absent = _ABSENT.get(pattern.graph)
            if absent is not None:
                assert absent(host.rows, within) == absent(rows, full), name


class TestWitnessOrder:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_first_copy_is_least_in_static_order(self, n):
        # The first embedding is the least copy read in static order:
        # descending pattern degree, then pattern id.
        for p in (0.25, 0.5, 0.75):
            for seed in range(6):
                host = gnp(n, p, seed)
                for name, pattern in PATTERNS.items():
                    g = pattern.graph
                    static = sorted(range(g.n), key=lambda i: (-degree(g, i), i))
                    every = induced_embeddings(host, g)
                    want = (
                        Embedding(name, min(every, key=lambda vs: [vs[i] for i in static]))
                        if every
                        else None
                    )
                    assert find_induced(host, pattern) == want, (name, n, p, seed)


PART_ORDERS = st.integers(min_value=0, max_value=6)
PART_DENSITIES = st.sampled_from([0.0, 0.3, 0.6, 1.0])


class TestFindInducedOnJoins:
    """On a join, with the parts interleaved in id order, find_induced
    gives the search's answer, witness and all."""

    @given(
        st.lists(
            st.tuples(PART_ORDERS, PART_DENSITIES, st.integers(0, 2**32)),
            min_size=2,
            max_size=3,
        ),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_unsplit_search(self, parts, data):
        j = reduce(join, (gnp(n, p, seed) for n, p, seed in parts))
        # Relabel, so that the parts interleave in id order.
        perm = data.draw(st.permutations(range(j.n)))
        host = Graph(j.n, [(perm[u], perm[v]) for u, v in j.edges()])
        within = data.draw(st.none() | st.integers(0, host.full_mask))
        keep = [v for v in host.vertices() if within is None or within >> v & 1]
        for name, pattern in PATTERNS.items():
            mine = find_induced(host, pattern, within=within)
            whole = _search(*restrict(host, within), pattern)
            assert mine == (None if whole is None else Embedding(name, whole)), name
            if host.n <= 8:
                oracle = brute_find_induced(host.induced(keep), pattern.graph)
                assert (mine is None) == (oracle is None), name

    def test_copy_found_in_a_later_part_is_the_first_copy(self):
        # Part A is vertex 0, isolated in A, plus a P3+P2 on 6..10; part B
        # is a P3+P2 on 1..5.  A holds the lowest id, B the first copy.
        p3p2 = named_graph("p3_union_p2")
        j = join(disjoint_union(empty(1), p3p2), p3p2)
        perm = [0, 6, 7, 8, 9, 10, 1, 2, 3, 4, 5]
        host = Graph(j.n, [(perm[u], perm[v]) for u, v in j.edges()])
        emb = find_induced(host, PATTERNS["p3_union_p2"])
        assert emb is not None and frozenset(emb.vertices) == frozenset(range(1, 6))


def _k2_first_join(copies: int) -> Graph:
    """The join of copies of K2 + K3, the K2's ids first in each copy."""
    return reduce(join, [disjoint_union(complete(2), complete(3))] * copies)


def _spy(calls: list, fn):
    """fn, recording the mask of every call in calls."""

    def spy(rows, m, *args):
        calls.append(m)
        return fn(rows, m, *args)

    return spy


class TestCoComponentSplit:
    """A co-connected pattern is sought one co-component at a time; any
    other pattern is sought in the whole mask."""

    def test_which_patterns_split(self):
        split = {name for name, p in PATTERNS.items() if _co_connected(p.graph)}
        assert split == {
            "2k3", "c5", "hammer", "house", "k1_union_k3", "kite", "p2_union_k3", "p3_union_p2"
        }

    def test_k2_first_join_is_searched_by_part(self, monkeypatch):
        # The whole search tries every triangle through the low K2s' parts
        # before it reaches the first copy: seconds at 300 copies.
        host = _k2_first_join(300)
        masks: list[int] = []
        monkeypatch.setattr(patterns, "_search", _spy(masks, _search))
        emb = find_induced(host, PATTERNS["p2_union_k3"])
        assert emb == Embedding("p2_union_k3", (0, 1, 2, 3, 4))
        parts = co_components(host, host.full_mask)
        assert len(parts) == 300
        # Only the first part is searched: its copy maps the first plan
        # vertex below every later part's lowest id.
        assert masks == parts[:1]

    def test_k2_first_join_matches_whole_search(self):
        host = _k2_first_join(40)
        for name in ("p2_union_k3", "k1_union_k3", "p3_union_p2", "house"):
            pattern = PATTERNS[name]
            whole = _search(host.rows, host.full_mask, pattern)
            mine = find_induced(host, pattern)
            assert mine == (None if whole is None else Embedding(name, whole)), name

    def test_kernel_runs_once_per_part(self, monkeypatch):
        # Each part reaches the kernel shifted down to bit 0.  The Grotzsch
        # part starts at vertex 0 and reads the host's rows, uncopied; the
        # Schlafli part, ids 11..37, reaches bit 30 and reads its own rows.
        g = extremal_family("kite-odd", 2)
        parts = co_components(g, g.full_mask)
        assert len(parts) == 2 and parts[0] & 1
        hammer = PATTERNS["hammer"].graph
        calls: list[tuple] = []
        kernel = _ABSENT[hammer]

        def spy(rows, m):
            calls.append((rows, m))
            return kernel(rows, m)

        monkeypatch.setitem(_ABSENT, hammer, spy)
        assert find_induced(g, PATTERNS["hammer"]) is None
        lows = [(part & -part).bit_length() - 1 for part in parts]
        assert lows == [0, 11]
        assert [m for _, m in calls] == [part >> lo for part, lo in zip(parts, lows)]
        assert calls[0][0] is g.rows
        assert calls[1][0] == [(r & parts[1]) >> 11 for r in g.rows[11:]]

    @pytest.mark.parametrize(
        "late",
        [PATTERNS[name].graph for name in ("p3_union_p2", "kite", "hammer", "c5", "k4")]
        + [named_graph("grotzsch"), named_graph("schlafli_complement")]
        + [gnp(9, 0.5, 1), gnp(12, 0.3, 2), gnp(14, 0.7, 3)],
        ids=["p3_union_p2", "kite", "hammer", "c5", "k4", "grotzsch", "schlafli_complement"]
        + ["gnp-9", "gnp-12", "gnp-14"],
    )
    def test_late_part_past_bit_30(self, late):
        # K_{2x16} holds ids 0..31, so the late graph's parts reach their
        # kernels shifted down from bit 32 and on, and hold the copies.
        host = join(reduce(join, [empty(2)] * 16), late)
        parts = co_components(host, host.full_mask)
        assert parts[16] & -parts[16] == 1 << 32
        for name in KERNEL_PATTERNS:
            pattern = PATTERNS[name]
            whole = _search(host.rows, host.full_mask, pattern)
            mine = find_induced(host, pattern)
            assert mine == (None if whole is None else Embedding(name, whole)), name

    @pytest.mark.parametrize("name", ["k4", "diamond"])
    def test_other_patterns_see_the_whole_mask(self, monkeypatch, name):
        g = extremal_family("kite-odd", 2)
        pattern = PATTERNS[name]
        masks: list[int] = []
        monkeypatch.setattr(patterns, "_search", _spy(masks, _search))
        if pattern.graph in _ABSENT:
            monkeypatch.setitem(_ABSENT, pattern.graph, _spy(masks, _ABSENT[pattern.graph]))
        assert find_induced(g, pattern) is not None
        assert masks and set(masks) == {g.full_mask}


KERNEL_PATTERNS = (
    "p3", "k3", "k4", "kite", "hammer", "c5", "p3_union_p2", "p2_union_k3", "k1_union_k3", "2k3"
)


def _within(host: Graph):
    """A full (as None or as a mask), random or empty vertex mask."""
    return st.sampled_from([None, host.full_mask, 0]) | st.integers(0, host.full_mask)


class TestAbsenceKernels:
    """Each anchored kernel says absent exactly when the search finds no
    copy, and find_induced still returns the search's first copy."""

    def _check(self, host: Graph, within):
        rows, full = restrict(host, within)
        keep = [v for v in host.vertices() if full >> v & 1]
        for name in KERNEL_PATTERNS:
            pattern = PATTERNS[name]
            absent = _ABSENT[pattern.graph](rows, full)
            whole = _search(rows, full, pattern)
            assert absent == (whole is None), name
            mine = find_induced(host, pattern, within=within)
            assert mine == (None if whole is None else Embedding(name, whole)), name
            if len(keep) <= 8:
                oracle = brute_find_induced(host.induced(keep), pattern.graph)
                assert absent == (oracle is None), name
        assert _ABSENT[PATTERNS["p3"].graph](rows, full) == clique_components(host, full)
        assert _ABSENT[PATTERNS["k1_union_k3"].graph](rows, full) == (
            not has_k1_union_k3(host, full)
        )

    @given(
        st.integers(min_value=0, max_value=14),
        st.sampled_from([0.2, 0.5, 0.8]),
        st.integers(min_value=0, max_value=2**32),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_match_search_on_random_hosts(self, n, p, seed, data):
        host = gnp(n, p, seed)
        self._check(host, data.draw(_within(host)))

    @given(
        st.lists(
            st.tuples(PART_ORDERS, st.sampled_from([0.2, 0.5, 0.8]), st.integers(0, 2**32)),
            min_size=2,
            max_size=3,
        ),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_match_search_on_joins(self, parts, data):
        j = reduce(join, (gnp(n, p, seed) for n, p, seed in parts))
        perm = data.draw(st.permutations(range(j.n)))
        host = Graph(j.n, [(perm[u], perm[v]) for u, v in j.edges()])
        self._check(host, data.draw(_within(host)))

    def test_only_the_last_edge_sees_the_p3(self):
        # P3 0-1-2 under a triangle 3,4,5 that sees all of it, and the edge
        # 6-7 apart from everything.  Every edge but 6-7, the last one
        # scanned, has only 6-7 left outside its neighbourhood.
        edges = [(0, 1), (1, 2), (3, 4), (3, 5), (4, 5), (6, 7)]
        edges += [(a, b) for a in range(3) for b in range(3, 6)]
        host = Graph(8, edges)
        far_with_p3 = [
            (x, y)
            for x, y in host.edges()
            if not clique_components(host, host.full_mask & ~(host.rows[x] | host.rows[y]))
        ]
        assert far_with_p3 == [(6, 7)]
        pattern = PATTERNS["p3_union_p2"]
        assert not _ABSENT[pattern.graph](host.rows, host.full_mask)
        emb = find_induced(host, pattern)
        assert emb is not None and frozenset(emb.vertices) == frozenset({0, 1, 2, 6, 7})
        self._check(host, None)
        self._check(host.toggled(6, 7), None)
        assert find_induced(host.toggled(6, 7), pattern) is None

    def test_kernels_are_keyed_by_graph(self):
        # A pattern that borrows a kernel pattern's name keeps its own graph
        # and is searched: C4 holds a C4 but no P3+P2.  One with a kernel
        # pattern's graph uses the kernel.
        impostor = Pattern("p3_union_p2", cycle(4))
        assert impostor.graph not in _ABSENT
        emb = find_induced(cycle(4), impostor)
        assert emb is not None and frozenset(emb.vertices) == frozenset(range(4))
        renamed = Pattern("cherry", path(3))
        assert _ABSENT[renamed.graph] is _ABSENT[PATTERNS["p3"].graph]
        assert find_induced(path(3), renamed) == Embedding("cherry", (0, 1, 2))
        assert find_induced(complete(3), renamed) is None


# The five off-triangle patterns and p3_union_p2: their kernels cut x's
# later neighbours by the vertices off N[x].
CUT = ("k1_union_k3", "p2_union_k3", "2k3", "hammer", "kite", "p3_union_p2")


class _CountedRows(list):
    """Adjacency rows that count their reads and fail past a limit."""

    def __init__(self, rows, limit: int):
        super().__init__(rows)
        self.limit = limit
        self.reads = 0

    def __getitem__(self, i):
        self.reads += 1
        assert self.reads <= self.limit, "too many row reads"
        return super().__getitem__(i)


class TestOffTriangleKernels:
    """The five patterns made of a triangle and more off it share one
    absence kernel, read triangle by triangle.  It and the p3_union_p2
    kernel read only the later neighbours y of x that leave G - N[x] - N[y]
    non-empty."""

    def test_every_graph_of_order_at_most_6(self):
        # Rows straight from the edge bits; the sub-mask runs through every
        # mask as the edges change.
        kernels = [(PATTERNS[name], _ABSENT[PATTERNS[name].graph]) for name in CUT]
        wrong = []
        for n in range(7):
            pairs = list(combinations(range(n), 2))
            full = (1 << n) - 1
            for code in range(1 << len(pairs)):
                rows = [0] * n
                for i, (u, v) in enumerate(pairs):
                    if code >> i & 1:
                        rows[u] |= 1 << v
                        rows[v] |= 1 << u
                for m in (full, code & full):
                    for pattern, absent in kernels:
                        if absent(rows, m) != (_search(rows, m, pattern) is None):
                            wrong.append((pattern.name, n, code, m))
        assert not wrong

    @pytest.mark.parametrize("name", CUT)
    def test_dense_host_reads_at_most_2n_rows(self, name):
        # K_{2x200}: no vertex off N[x] but x's twin, which sees every later
        # neighbour of x, so the prune leaves no edge xy to read.
        n = 400
        full = (1 << n) - 1
        rows = _CountedRows([full & ~(3 << (u & ~1)) for u in range(n)], 2 * n)
        assert _ABSENT[PATTERNS[name].graph](rows, full)

    def test_p3_union_p2_skips_far_sets_under_three(self):
        # On C5 each edge xy leaves one vertex off N[x] and N[y], which
        # holds no P3: the kernel reads x's row and y's, and no row of the
        # far vertex.
        g = cycle(5)
        rows = _CountedRows(g.rows, 10)
        assert _ABSENT[PATTERNS["p3_union_p2"].graph](rows, g.full_mask)
        assert rows.reads == 10

    def test_cut_reads_no_row_where_it_cannot_pay(self):
        # The Schlafli complement is 10-regular of order 27: each x has 16
        # vertices off N[x] and at most 10 later neighbours, so the cut,
        # a row read per vertex off N[x], is skipped and every y is kept.
        g = named_graph("schlafli_complement")
        rows = _CountedRows(g.rows, 0)
        full = g.full_mask
        for x in g.vertices():
            ys = g.rows[x] & full >> x + 1 << x + 1
            assert _far_later(rows, full & ~g.rows[x] & ~(1 << x), ys) == ys
        assert rows.reads == 0


def _member_toggles(spec):
    """Every single-pair toggle (u, v, candidate) of a few sampled members of
    the class, dense and sparse."""
    for seed in range(3):
        for n, p in ((12, 0.8), (12, 0.15)):
            g = _member(spec, n, p, seed)
            for u, v in combinations(range(n), 2):
                yield u, v, g.toggled(u, v)


class TestAnchoredKernels:
    """kernel(rows, m, w) says absent exactly when no induced copy in G[m]
    holds w."""

    def test_every_class_pattern_has_one(self):
        # sample_class and in_class look every forbidden pattern up here,
        # and in_class also in the absence kernels.
        for spec in CLASSES.values():
            for pattern in spec.forbidden:
                assert pattern.graph in _ANCHORED, (spec.name, pattern.name)
                assert pattern.graph in _ABSENT, (spec.name, pattern.name)

    @given(
        st.integers(min_value=1, max_value=9),
        st.sampled_from([0.2, 0.5, 0.8]),
        st.integers(min_value=0, max_value=2**32),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_match_brute_force(self, n, p, seed, data):
        host = gnp(n, p, seed)
        m = data.draw(st.integers(0, host.full_mask))
        for pattern in _ANCHORED:
            name = pattern.name
            copies = [vs for vs in induced_embeddings(host, pattern) if all(m >> v & 1 for v in vs)]
            for w in host.vertices():
                if m >> w & 1:
                    held = any(w in vs for vs in copies)
                    assert _ANCHORED[pattern](host.rows, m, w) == (not held), (name, w)

    @pytest.mark.parametrize("cls", sorted(CLASSES))
    def test_matches_full_search_on_member_toggles(self, cls):
        # Toggling uv in a member leaves every forbidden copy holding u, so
        # each kernel anchored at u answers as the search of the whole graph.
        spec = CLASSES[cls]
        for u, v, cand in _member_toggles(spec):
            for pattern in spec.forbidden:
                want = find_induced(cand, pattern) is None
                assert _ANCHORED[pattern.graph](cand.rows, cand.full_mask, u) == want

    @pytest.mark.parametrize("cls", sorted(CLASSES))
    def test_in_class_through_matches_is_member_on_member_toggles(self, cls):
        spec = CLASSES[cls]
        for u, v, cand in _member_toggles(spec):
            want = bool(is_member(cand, spec))
            assert in_class(cand, spec, through=(u, v)) == want, (cls, u, v)


class TestInClass:
    @given(
        st.sampled_from(sorted(CLASSES)),
        st.integers(min_value=0, max_value=13),
        st.sampled_from([0.1, 0.2, 0.5, 0.8, 0.95]),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_is_member(self, cls, n, p, seed):
        g = gnp(n, p, seed)
        assert in_class(g, CLASSES[cls]) == bool(is_member(g, CLASSES[cls]))

    @pytest.mark.parametrize("cls", sorted(CLASSES))
    def test_agrees_with_is_member_in_every_class(self, cls):
        # The anchored kernels' prefix sweeps decide kite, hammer and c5;
        # the grid reaches members and non-members of every class.
        spec = CLASSES[cls]
        for n in (5, 8, 11, 14):
            for p in (0.15, 0.5, 0.85):
                for seed in range(8):
                    g = gnp(n, p, seed)
                    assert in_class(g, spec) == bool(is_member(g, spec)), (cls, n, p, seed)

    def test_catalog_members_and_non_members(self):
        assert in_class(named_graph("schlafli_complement"), CLASSES["K4Free"])
        assert in_class(named_graph("grotzsch"), CLASSES["KiteFree"])
        assert not in_class(cycle(5), CLASSES["C5Free"])
        assert not in_class(complete(4), CLASSES["K4Free"])
        assert not in_class(named_graph("p3_union_p2"), CLASSES["P3P2"])


def _member(spec, n: int, p: float, seed: int):
    """A sampled member of the class, or the edgeless graph, which is in
    every class here."""
    cfg = SampleConfig(n=n, p=p, seed=seed, class_name=spec.name, max_tries=50)
    try:
        return sample_class(cfg)
    except SampleExhausted:
        return empty(n)


class TestMembershipThrough:
    @given(
        st.sampled_from(sorted(CLASSES)),
        st.integers(min_value=2, max_value=10),
        st.sampled_from([0.2, 0.5, 0.8]),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_full_test_along_a_walk(self, cls, n, p, seed):
        spec = CLASSES[cls]
        g = _member(spec, n, p, seed)
        rng = SplitMix64(seed)
        for _ in range(25):
            u = rng.below(n)
            v = (u + 1 + rng.below(n - 1)) % n
            cand = g.toggled(u, v)
            full = is_member(cand, spec)
            assert in_class(cand, spec, through=(u, v)) == bool(full), (cls, u, v)
            if full:
                g = cand
            else:
                # g is a member, so every forbidden copy holds u and v.
                assert {u, v} <= frozenset(full.witness.vertices)


class TestMembership:
    def test_schlafli_is_k4_free(self):
        assert is_member(named_graph("schlafli_complement"), CLASSES["K4Free"])

    def test_grotzsch_expansions_are_kite_free(self):
        g = named_graph("grotzsch")
        assert is_member(g, CLASSES["KiteFree"])
        doubled = join(g, g)
        assert is_member(doubled, CLASSES["KiteFree"])

    def test_c5_rejected_with_identity_witness(self):
        verdict = is_member(cycle(5), CLASSES["C5Free"])
        assert not verdict
        assert verdict.witness is not None
        assert verdict.witness.pattern == "c5"
        assert sorted(verdict.witness.vertices) == [0, 1, 2, 3, 4]

    def test_hereditary_consistency(self):
        g = named_graph("schlafli_complement")
        spec = CLASSES["K4Free"]
        assert is_member(g, spec)
        for pick in ([0, 3, 5, 9, 12, 20], [1, 2, 4, 8, 16], list(range(14))):
            assert is_member(g.induced(pick), spec)

    def test_class_by_name_normalizes(self):
        assert class_by_name("kitefree").name == "KiteFree"
        assert class_by_name("K4-Free").name == "K4Free"
        assert class_by_name("p2_k3_free").name == "P2K3Free"
        with pytest.raises(ValueError):
            class_by_name("cographs")

    def test_every_class_lists_its_patterns(self):
        assert {p.name for p in CLASSES["TriangleFree"].forbidden} == {
            "p3_union_p2",
            "k3",
        }
        for name, spec in CLASSES.items():
            assert spec.forbidden, name


class TestCountInduced:
    def test_k3_in_k4(self):
        assert count_induced(complete(4), PATTERNS["k3"]) == 4

    def test_k3_in_2k3(self):
        assert count_induced(named_graph("2k3"), PATTERNS["k3"]) == 2

    def test_c5_in_grotzsch_positive(self):
        assert count_induced(named_graph("grotzsch"), PATTERNS["c5"]) > 0

    def test_cap_truncates(self):
        assert count_induced(complete(6), PATTERNS["k3"], cap=5) == 5

    def test_counts_vertex_sets_not_maps(self):
        assert count_induced(path(3), PATTERNS["p3"]) == 1


class TestPatternByName:
    def test_lookup_and_errors(self):
        assert pattern_by_name("kite").graph.n == 5
        assert pattern_by_name("P3_UNION_P2").name == "p3_union_p2"
        with pytest.raises(ValueError):
            pattern_by_name("heptagon")

    def test_catalog_patterns_match_named_graphs(self):
        for name in ("kite", "hammer", "diamond", "gem", "house"):
            assert list(pattern_by_name(name).graph.edges()) == list(
                named_graph(name).edges()
            )
