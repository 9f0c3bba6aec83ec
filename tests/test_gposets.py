import itertools
import operator

import pytest

from isgenum import gposets
from isgenum.engine import _skeletons
from isgenum.groups import catalog
from isgenum.gposets import (
    GroupoidBasis,
    _children,
    _passes_cardinality_test,
    e_groupoid,
    g_posets,
    poset_possibilities,
    validate_hypotheses,
)
from isgenum.orders import _canonical_labeling, meet_semilattices, parse_cover_line
from isgenum.shapes import admissible_compositions, d_partitions, group_maps, partitions

VEE = parse_cover_line("3:0<1,0<2")
CHAIN2 = parse_cover_line("2:0<1")
CHAIN3 = parse_cover_line("3:0<1,1<2")


def _basis(E, P, names, groups_by_name):
    return e_groupoid(E, P, tuple(groups_by_name[t] for t in names))


def _brandt_basis(groups_by_name):
    return _basis(VEE, ((1, 2), (0,)), ("C1", "C1"), groups_by_name)


def _vee_c2_basis(groups_by_name):
    return _basis(VEE, ((1, 2), (0,)), ("C1", "C2"), groups_by_name)


# ---------------------------------------------------------------------------
# literal checkers, independent of the production code paths


def _literal_order_ok(basis, down, elements):
    """Transcribe the construction hypotheses on the given element subset."""
    elems = sorted(elements)
    E = basis.E
    dom, ran, compose = basis.dom, basis.ran, basis.compose
    inv = {
        s: basis.elem.index((i, b, a, basis.groups[i].inv[g]))
        for s, (i, a, b, g) in enumerate(basis.elem)
    }

    def rel(a, b):
        return bool((down[b] >> a) & 1)

    for t in elems:
        if not rel(t, t):
            return False
        for u in elems:
            if u != t and rel(u, t) and rel(t, u):
                return False
            for v in elems:
                if rel(u, v) and rel(v, t) and not rel(u, t):
                    return False
    m = E.size
    for e in elems:
        for f in elems:
            if e < m and f < m:
                if rel(e, f) != E.leq(e, f):
                    return False
    for s in elems:
        for t in elems:
            if rel(s, t) and not rel(inv[s], inv[t]):
                return False
    for s in elems:
        for y in elems:
            if not rel(s, y):
                continue
            for t in elems:
                for z in elems:
                    if not rel(t, z):
                        continue
                    st, yz = compose[s][t], compose[y][z]
                    if st >= 0 and yz >= 0 and not rel(st, yz):
                        return False
    for s in elems:
        for e in elems:
            if e < m and E.leq(e, dom[s]):
                if sum(1 for t in elems if rel(t, s) and dom[t] == e) != 1:
                    return False
            if e < m and E.leq(e, ran[s]):
                if sum(1 for t in elems if rel(t, s) and ran[t] == e) != 1:
                    return False
    return True


def _possibilities_bruteforce(basis, hi_pos, lo_pos):
    """All cross-block orders on a block pair, by filtering every relation.

    Enumerates each subset of the optional cross pairs (both directions, any
    pair that is not two idempotents) on top of the forced idempotent
    relations, and keeps those passing the literal checks.
    """
    E = basis.E
    m = E.size
    upper = basis.pos_elems[hi_pos]
    lower = basis.pos_elems[lo_pos]
    union = list(lower) + list(upper)
    forced = [
        (u, t)
        for u in union
        for t in union
        if u != t and u < m and t < m and E.leq(u, t)
    ]
    optional = [
        (u, t)
        for u in union
        for t in union
        if basis.block_of[u] != basis.block_of[t] and not (u < m and t < m)
    ]
    upper_mask = sum(1 << u for u in upper)
    out = set()
    for sub in itertools.product((0, 1), repeat=len(optional)):
        down = {t: 1 << t for t in union}
        for u, t in forced:
            down[t] |= 1 << u
        for bit, (u, t) in zip(sub, optional):
            if bit:
                down[t] |= 1 << u
        full = [0] * basis.size
        for t, mask in down.items():
            full[t] = mask
        if _literal_order_ok(basis, full, union):
            out.add(
                tuple(down[t] & ~(1 << t) & ~upper_mask for t in upper)
            )
    return out


def _orders_bruteforce(basis):
    """All basis orders, by assigning each non-idempotent a strict down-set
    drawn from the other blocks and filtering with the literal checks.

    Within-block comparabilities and non-idempotents below idempotents are
    excluded up front; test_literal_checker_rejects_* shows the literal
    checks reject those shapes on their own.
    """
    m = basis.E.size
    n = basis.size
    nonidem = list(range(m, n))
    pools = [
        [u for u in range(n) if basis.block_of[u] != basis.block_of[t]]
        for t in nonidem
    ]
    base = list(basis.root_down())
    found = []

    def rec(i):
        if i == len(nonidem):
            if _literal_order_ok(basis, base, range(n)):
                found.append(tuple(base))
            return
        t = nonidem[i]
        pool = pools[i]
        for r in range(len(pool) + 1):
            for picks in itertools.combinations(pool, r):
                base[t] = (1 << t) | sum(1 << u for u in picks)
                rec(i + 1)
        base[t] = 1 << t

    rec(0)
    return set(found)


def _all_bases_up_to(n_max, size_cap):
    from isgenum.groups import catalog

    cat = catalog(n_max)
    for n in range(1, n_max + 1):
        for mm in range(1, n + 1):
            shapes = [
                (s, admissible_compositions(n, s)) for s in partitions(mm)
            ]
            shapes = [(s, c) for s, c in shapes if c]
            if not shapes:
                continue
            for E in meet_semilattices(mm):
                for shape, comps in shapes:
                    for P in d_partitions(E, shape):
                        for C in comps:
                            for f in group_maps(P, C, cat):
                                basis = e_groupoid(E, P, f)
                                if basis.size <= size_cap:
                                    yield basis


# ---------------------------------------------------------------------------
# e_groupoid and block order


def test_e_groupoid_sizes(groups_by_name):
    single = _basis(parse_cover_line("1:"), ((0,),), ("C2",), groups_by_name)
    assert single.size == 2
    assert _brandt_basis(groups_by_name).size == 5
    chain = _basis(CHAIN2, ((0,), (1,)), ("C2", "C1"), groups_by_name)
    assert chain.size == 3


def test_e_groupoid_element_indexing(groups_by_name):
    basis = _vee_c2_basis(groups_by_name)
    for e in range(3):
        blk, a, b, g = basis.elem[e]
        assert a == b == e and g == 0
    tail = basis.elem[3:]
    assert tail == tuple(sorted(tail))


def test_e_groupoid_inverses_and_products(groups_by_name):
    for basis in _all_bases_up_to(6, 6):
        for s, (i, a, b, g) in enumerate(basis.elem):
            assert basis.ran[s] == a and basis.dom[s] == b
            for t, (j, c, d, h) in enumerate(basis.elem):
                p = basis.compose[s][t]
                if i == j and b == c:
                    assert basis.elem[p] == (i, a, d, basis.groups[i].mul[g][h])
                else:
                    assert p == -1


def test_e_groupoid_validates_input(groups_by_name):
    C1 = groups_by_name["C1"]
    with pytest.raises(ValueError):
        e_groupoid(VEE, ((1, 2),), (C1,))
    with pytest.raises(ValueError):
        e_groupoid(VEE, ((0,), (1, 2)), (C1,) * 2)
    # the shape is checked when the layout is built; a layout cached from
    # an E of order 3 must still refuse an E of order 4
    e_groupoid(VEE, ((1, 2), (0,)), (C1, C1))
    with pytest.raises(ValueError, match="partition the elements of E"):
        e_groupoid(parse_cover_line("4:0<1,0<2,0<3"), ((1, 2), (0,)), (C1, C1))


def _search_blocks(basis):
    return [basis.partition[i] for i in basis.pos_blocks]


def test_block_order_examples(groups_by_name):
    basis = _brandt_basis(groups_by_name)
    assert _search_blocks(basis) == [(0,), (1, 2)]  # bottom block first

    single = _basis(parse_cover_line("1:"), ((0,),), ("C4",), groups_by_name)
    assert _search_blocks(single) == [(0,)]

    chain = _basis(CHAIN3, ((0,), (1,), (2,)), ("C1",) * 3, groups_by_name)
    assert _search_blocks(chain) == [(0,), (1,), (2,)]


# ---------------------------------------------------------------------------
# poset possibilities


def test_possibilities_brandt(groups_by_name):
    basis = _brandt_basis(groups_by_name)
    poss = poset_possibilities(basis, 1, 0)
    assert len(poss) == 1
    bottom = 1 << 0
    assert poss[0] == (bottom,) * 4  # the zero sits below all four units


def test_possibilities_trivial_over_c2(groups_by_name):
    basis = _basis(CHAIN2, ((0,), (1,)), ("C2", "C1"), groups_by_name)
    poss = poset_possibilities(basis, 1, 0)
    assert len(poss) == 1
    assert poss[0] == (1 << 0,)  # only the bottom idempotent sits below


def test_possibilities_vee_c2(groups_by_name):
    basis = _vee_c2_basis(groups_by_name)
    poss = poset_possibilities(basis, 1, 0)
    assert len(poss) == 2
    seen = {p for p in poss}
    assert len(seen) == 2


def test_possibilities_match_bruteforce_examples(groups_by_name):
    cases = [
        (_brandt_basis(groups_by_name), 1, 0),
        (_vee_c2_basis(groups_by_name), 1, 0),
        (_basis(CHAIN2, ((0,), (1,)), ("C2", "C1"), groups_by_name), 1, 0),
        (_basis(CHAIN2, ((0,), (1,)), ("C2", "C2"), groups_by_name), 1, 0),
        (_basis(CHAIN2, ((0,), (1,)), ("C1", "C3"), groups_by_name), 1, 0),
        # the atoms of the vee: nothing of block (1,) lies under (2,)
        (_basis(VEE, ((0,), (1,), (2,)), ("C1", "C2", "C2"), groups_by_name),
         2, 1),
    ]
    for basis, hi, lo in cases:
        got = set(poset_possibilities(basis, hi, lo))
        assert got == _possibilities_bruteforce(basis, hi, lo)
    # the last case has nothing below: one possibility, all masks empty
    assert poset_possibilities(basis, hi, lo) == [(0, 0)]


def test_possibilities_match_bruteforce_sweep(groups_by_name):
    for basis in _all_bases_up_to(6, 6):
        for hi in range(1, len(basis.pos_blocks)):
            for lo in basis.covered_positions[hi]:
                got = set(poset_possibilities(basis, hi, lo))
                assert got == _possibilities_bruteforce(basis, hi, lo)


# ---------------------------------------------------------------------------
# children and the cardinality test


def test_children_root_is_leaf_for_single_block(groups_by_name):
    basis = _basis(parse_cover_line("1:"), ((0,),), ("C4",), groups_by_name)
    assert len(list(g_posets(basis))) == 1


def test_children_counts(groups_by_name):
    brandt = _brandt_basis(groups_by_name)
    assert len(list(_children(brandt, brandt.root_down(), 1))) == 1

    vee = _vee_c2_basis(groups_by_name)
    assert len(list(_children(vee, vee.root_down(), 1))) == 2


def test_cardinality_test_vacuous_at_root(groups_by_name):
    basis = _brandt_basis(groups_by_name)
    assert _passes_cardinality_test(basis, basis.root_down(), 0)


def test_cardinality_test_accepts_children(groups_by_name):
    basis = _vee_c2_basis(groups_by_name)
    for child in _children(basis, basis.root_down(), 1):
        assert _passes_cardinality_test(basis, child, 1)


def test_cardinality_test_rejects_lopsided_order(groups_by_name):
    # hand-built: one unit of the 2x2 block omits its bottom restriction
    basis = _vee_c2_basis(groups_by_name)
    valid = next(iter(g_posets(basis)))
    down = list(valid)
    upper = basis.pos_elems[1]
    bottom_mask = basis.pos_mask[0]
    victim = upper[-1]
    down[victim] &= ~bottom_mask | (1 << victim)
    down[victim] |= 1 << victim
    assert not _passes_cardinality_test(basis, down, 1)


# ---------------------------------------------------------------------------
# full search


def test_g_posets_counts(groups_by_name):
    assert len(list(g_posets(_brandt_basis(groups_by_name)))) == 1
    assert len(list(g_posets(_vee_c2_basis(groups_by_name)))) == 2
    single = _basis(parse_cover_line("1:"), ((0,),), ("C2",), groups_by_name)
    assert len(list(g_posets(single))) == 1


def test_g_posets_no_duplicates_and_validates(groups_by_name):
    # plus the one n = 8 skeleton where a closure adds a cross-block pair
    # beyond the chosen possibility, which only the cardinality test stops
    closure = _basis(parse_cover_line("5:0<1,0<2,1<4,2<3,3<4"),
                     ((1, 2), (0,), (3,), (4,)), ("C1", "C1", "C1", "C2"),
                     groups_by_name)
    for basis in itertools.chain(_all_bases_up_to(5, 5), [closure]):
        downs = list(g_posets(basis))
        assert len(downs) == len(set(downs))
        for d in downs:
            assert validate_hypotheses(basis, d)


def test_g_posets_within_block_is_equality(groups_by_name):
    for basis in (_brandt_basis(groups_by_name), _vee_c2_basis(groups_by_name)):
        for down in g_posets(basis):
            for t in range(basis.size):
                own = basis.pos_mask[basis.pos_blocks.index(basis.block_of[t])]
                assert down[t] & own == 1 << t


def test_g_posets_matches_bruteforce_oracle(groups_by_name):
    seen = 0
    for basis in _all_bases_up_to(6, 6):
        got = set(g_posets(basis))
        assert got == _orders_bruteforce(basis), repr(basis)
        seen += 1
    assert seen > 100


def test_cross_block_covers_have_idempotent_witnesses(groups_by_name):
    # if t covers u across blocks in an emitted order, the block of t covers
    # the block of u (so some idempotent pair covers correspondingly)
    for basis in _all_bases_up_to(6, 6):
        for down in g_posets(basis):
            for t in range(basis.size):
                for u_mask in [down[t] & ~(1 << t)]:
                    u = u_mask
                    while u:
                        low = u & -u
                        u ^= low
                        x = low.bit_length() - 1
                        between = any(
                            (down[t] >> v) & 1 and (down[v] >> x) & 1
                            for v in range(basis.size)
                            if v != t and v != x
                        )
                        if between:
                            continue
                        pt = basis.pos_blocks.index(basis.block_of[t])
                        pu = basis.pos_blocks.index(basis.block_of[x])
                        assert pu in basis.covered_positions[pt]
            break  # one order per basis keeps the sweep quick


def test_literal_checker_rejects_within_block_pair(groups_by_name):
    basis = _basis(parse_cover_line("1:"), ((0,),), ("C2",), groups_by_name)
    down = [1 << 0, (1 << 1) | (1 << 0)]  # nonidentity above the identity
    assert not _literal_order_ok(basis, down, range(2))


def test_literal_checker_rejects_nonidempotent_below_idempotent(groups_by_name):
    basis = _basis(CHAIN2, ((0,), (1,)), ("C2", "C1"), groups_by_name)
    # element 2 is the bottom block's non-identity; put it under the top idem
    down = list(basis.root_down())
    down[1] |= 1 << 2
    assert not _literal_order_ok(basis, down, range(3))


def _down_with(basis, relations):
    """The root order plus the given (lower, upper) element pairs, which
    must already be transitively closed over it."""
    down = list(basis.root_down())
    for lo, hi in relations:
        down[basis.index[hi]] |= 1 << basis.index[lo]
    return tuple(down)


def test_validate_hypotheses_rejects_order_not_closed_under_inverses(
        groups_by_name):
    # the vee with a C1 Brandt block over a C3 bottom: u = (1 -> 2) lies
    # over h_k and its inverse over h_k^-1, for each k in C3
    basis = _basis(VEE, ((1, 2), (0,)), ("C1", "C3"), groups_by_name)
    u, u_inv = (0, 1, 2, 0), (0, 2, 1, 0)
    orders = list(g_posets(basis))
    assert sorted(orders) == sorted(
        _down_with(basis, [((1, 0, 0, k), u), ((1, 0, 0, (3 - k) % 3), u_inv)])
        for k in range(3)
    )
    for down in orders:
        assert validate_hypotheses(basis, down)
    # u over h_1 with nothing under u^-1 is closed under products (no
    # composable pair has something under both factors) but not under
    # inverses; the restriction of u^-1 to 0 is missing too, since products
    # and unique restrictions together imply closure under inverses
    for relations in ([((1, 0, 0, 1), u)],
                      # u and u^-1 both over h_1: fails inverses, and
                      # products (h_1 h_1 = h_2 is not under u u^-1 = 1)
                      [((1, 0, 0, 1), u), ((1, 0, 0, 1), u_inv)]):
        with pytest.raises(AssertionError,
                           match="order not closed under inverses"):
            validate_hypotheses(basis, _down_with(basis, relations))


def test_validate_hypotheses_rejects_order_not_closed_under_products(
        groups_by_name):
    # C4 over C4 on a 2-chain: the top's g, g^2, g^3 over h, the bottom
    # idempotent and h^3 preserve inverses and give unique restrictions,
    # but g g = g^2 is not over h h = h^2
    basis = _basis(CHAIN2, ((1,), (0,)), ("C4", "C4"), groups_by_name)
    down = _down_with(basis, [((1, 0, 0, 1), (0, 1, 1, 1)),
                              ((1, 0, 0, 0), (0, 1, 1, 2)),
                              ((1, 0, 0, 3), (0, 1, 1, 3))])
    with pytest.raises(AssertionError, match="order not closed under products"):
        validate_hypotheses(basis, down)


# ---------------------------------------------------------------------------
# the search steps only over blocks that can branch


def _representative_bases(n, m_max):
    """The basis of every orbit-representative skeleton of order n over
    every E of order at most m_max, as the pipeline searches them."""
    cat = catalog(n)
    for m in range(1, min(n, m_max) + 1):
        for E in meet_semilattices(m):
            gens = _canonical_labeling(m, E.down)[2]
            for shape in partitions(m):
                comps = admissible_compositions(n, shape)
                if comps:
                    yield from _skeletons(E, comps, d_partitions(E, shape),
                                          cat, gens)


def _reference_search(basis, points):
    """Every order on the basis by `_children` at every position after the
    first, in search order; appends (position, order) to `points` for each
    reached position whose block is a point over C1."""
    k = len(basis.pos_blocks)

    def rec(p, down):
        if p == k:
            yield down
            return
        if len(basis.pos_elems[p]) == 1:
            points.append((p, down))
        for child in _children(basis, down, p):
            yield from rec(p + 1, child)

    yield from rec(1, basis.root_down())


def _check_against_reference(ns, m_max):
    bases = orders = 0
    for n in ns:
        for basis in _representative_bases(n, m_max):
            got = list(g_posets(basis))
            assert got == list(_reference_search(basis, [])), repr(basis)
            bases += 1
            orders += len(got)
    return bases, orders


def test_g_posets_matches_reference_search():
    assert _check_against_reference(range(1, 9), 6) == (2510, 3387)


@pytest.mark.stretch
def test_g_posets_matches_reference_search_stretch_order_9():
    assert _check_against_reference([9], 9) == (23004, 27101)


# ---------------------------------------------------------------------------
# one layout per (P, f), shared by every E


def _uncached(E, P, f):
    """The basis of (E, P, f) built from empty layout and tuple caches."""
    kept = gposets._LAYOUTS, gposets._SHARED
    gposets._LAYOUTS, gposets._SHARED = {}, {}
    try:
        return GroupoidBasis(E, P, f)
    finally:
        gposets._LAYOUTS, gposets._SHARED = kept


def _check_cached_against_uncached(ns, m_max):
    """Build every orbit-representative skeleton's basis through the layout
    cache, in sweep order and in reverse, each from a cleared cache, and
    compare it field by field with an uncached build."""
    skeletons = [(b.E, b.partition, b.groups)
                 for n in ns for b in _representative_bases(n, m_max)]
    layouts = set()
    for order in (skeletons, skeletons[::-1]):
        gposets._LAYOUTS.clear()
        gposets._SHARED.clear()
        for E, P, f in order:
            basis, fresh = GroupoidBasis(E, P, f), _uncached(E, P, f)
            for name in GroupoidBasis.__slots__:
                assert getattr(basis, name) == getattr(fresh, name), name
            assert basis.root_down() == fresh.root_down()
            # the caller's own objects, not those of the build that cached
            assert basis.E is E
            assert all(map(operator.is_, basis.groups, f))
        layouts.add(len(gposets._LAYOUTS))
    return len(skeletons), layouts.pop()


def test_cached_basis_equals_uncached_build():
    assert _check_cached_against_uncached(range(1, 9), 6) == (2510, 347)


@pytest.mark.stretch
def test_cached_basis_equals_uncached_build_stretch_order_9():
    assert _check_cached_against_uncached([9], 9) == (23004, 421)


def test_semilattices_share_a_layout_not_a_search_order(groups_by_name):
    # one labelled (P, f) over two semilattices: the layout is shared, the
    # search order is each E's own
    C1 = groups_by_name["C1"]
    for (E, F), P, blocks, covered in (
            ((CHAIN3, VEE), ((0,), (1,), (2,)),
             ((0, 1, 2), (0, 1, 2)), (((), (0,), (1,)), ((), (0,), (0,)))),
            ((parse_cover_line("4:0<1,1<2,2<3"),
              parse_cover_line("4:0<1,0<2,2<3")),
             ((0,), (1,), (2,), (3,)), ((0, 1, 2, 3), (0, 2, 1, 3)),
             (((), (0,), (1,), (2,)), ((), (0,), (0,), (1,))))):
        f = (C1,) * len(P)
        a, b = e_groupoid(E, P, f), e_groupoid(F, P, f)
        assert a.elem is b.elem and a.compose is b.compose
        assert (a.pos_blocks, b.pos_blocks) == blocks
        assert (a.covered_positions, b.covered_positions) == covered
        assert (a.root_down(), b.root_down()) == (E.down, F.down)


def test_point_over_c1_has_one_child_its_parent():
    reached = 0
    for n in range(1, 9):
        for basis in _representative_bases(n, 6):
            points = []
            list(_reference_search(basis, points))
            for p, down in points:
                assert basis.groups[basis.pos_blocks[p]].order == 1
                assert list(_children(basis, down, p)) == [down]
            reached += len(points)
    assert reached == 7940


def test_debug_validation_flag(groups_by_name):
    basis = _vee_c2_basis(groups_by_name)
    orders = list(g_posets(basis))
    assert len(orders) == 2
    for down in orders:
        assert validate_hypotheses(basis, down)
