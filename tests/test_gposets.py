import itertools

import pytest

from isgenum.gposets import (
    _children,
    _passes_cardinality_test,
    e_groupoid,
    g_posets,
    poset_possibilities,
    validate_hypotheses,
)
from isgenum.orders import meet_semilattices, parse_cover_line
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
    dom, ran, inv, compose = basis.dom, basis.ran, basis.inv, basis.compose

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
    basis = _vee_c2_basis(groups_by_name)
    for s, (i, a, b, g) in enumerate(basis.elem):
        assert basis.elem[basis.inv[s]] == (i, b, a, basis.groups[i].inv[g])
        assert basis.ran[s] == a and basis.dom[s] == b
        for t, (j, c, d, h) in enumerate(basis.elem):
            p = basis.compose[s][t]
            if i == j and b == c:
                assert basis.elem[p] == (i, a, d, basis.groups[i].mul[g][h])
            else:
                assert p == -1


def test_e_groupoid_validates_input(groups_by_name):
    with pytest.raises(ValueError):
        e_groupoid(VEE, ((1, 2),), (groups_by_name["C1"],))
    with pytest.raises(ValueError):
        e_groupoid(VEE, ((0,), (1, 2)), (groups_by_name["C1"],) * 2)


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
        _brandt_basis(groups_by_name),
        _vee_c2_basis(groups_by_name),
        _basis(CHAIN2, ((0,), (1,)), ("C2", "C1"), groups_by_name),
        _basis(CHAIN2, ((0,), (1,)), ("C2", "C2"), groups_by_name),
        _basis(CHAIN2, ((0,), (1,)), ("C1", "C3"), groups_by_name),
    ]
    for basis in cases:
        got = set(poset_possibilities(basis, 1, 0))
        assert got == _possibilities_bruteforce(basis, 1, 0)


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
    assert list(_children(basis, basis.root_down(), 1)) == []
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
    valid = next(iter(g_posets(basis))).down
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
    for basis in _all_bases_up_to(5, 5):
        downs = [o.down for o in g_posets(basis)]
        assert len(downs) == len(set(downs))
        for d in downs:
            assert validate_hypotheses(basis, d)


def test_g_posets_within_block_is_equality(groups_by_name):
    for basis in (_brandt_basis(groups_by_name), _vee_c2_basis(groups_by_name)):
        for order in g_posets(basis):
            for t in range(basis.size):
                own = basis.pos_mask[basis.pos_of_block[basis.block_of[t]]]
                assert order.down[t] & own == 1 << t


def test_g_posets_matches_bruteforce_oracle(groups_by_name):
    seen = 0
    for basis in _all_bases_up_to(6, 6):
        got = {o.down for o in g_posets(basis)}
        assert got == _orders_bruteforce(basis), repr(basis)
        seen += 1
    assert seen > 100


def test_cross_block_covers_have_idempotent_witnesses(groups_by_name):
    # if t covers u across blocks in an emitted order, the block of t covers
    # the block of u (so some idempotent pair covers correspondingly)
    for basis in _all_bases_up_to(6, 6):
        for order in g_posets(basis):
            down = order.down
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
                        pt = basis.pos_of_block[basis.block_of[t]]
                        pu = basis.pos_of_block[basis.block_of[x]]
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


def test_debug_validation_flag(groups_by_name):
    basis = _vee_c2_basis(groups_by_name)
    orders = list(g_posets(basis))
    assert len(orders) == 2
    for o in orders:
        assert validate_hypotheses(basis, o.down)
