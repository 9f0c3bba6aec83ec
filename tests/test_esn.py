from collections import Counter

from isgenum.esn import (
    d_restriction_from_table,
    esn,
    maximal_subgroup_of_table,
    natural_order_from_table,
    validate_inverse_semigroup,
)
from isgenum.gposets import e_groupoid, g_posets
from isgenum.orders import _bits, parse_cover_line
from isgenum.engine import enumerate_semigroups

VEE = parse_cover_line("3:0<1,0<2")
CHAIN2 = parse_cover_line("2:0<1")


def _build(E, P, names, groups_by_name):
    basis = e_groupoid(E, P, tuple(groups_by_name[t] for t in names))
    return basis, list(g_posets(basis))


def _brandt(groups_by_name):
    basis, orders = _build(VEE, ((1, 2), (0,)), ("C1", "C1"), groups_by_name)
    return basis, orders[0], esn(basis, orders[0])


def _multiply(basis, down, s, t):
    """Single product under the order, without building the full table."""
    e = basis.E.meet[basis.dom[s]][basis.ran[t]]
    (u1,) = [u for u in _bits(down[s]) if basis.dom[u] == e]
    (u2,) = [u for u in _bits(down[t]) if basis.ran[u] == e]
    return basis.compose[u1][u2]


def _expanded_sum_product(basis, down, s, t):
    """Multiset of nonzero pairwise products of the two down-sets."""
    out = Counter()
    for u in _bits(down[s]):
        for v in _bits(down[t]):
            p = basis.compose[u][v]
            if p >= 0:
                out[p] += 1
    return out


# ---------------------------------------------------------------------------
# construction examples


def test_esn_single_block_c2(groups_by_name):
    E1 = parse_cover_line("1:")
    basis, orders = _build(E1, ((0,),), ("C2",), groups_by_name)
    S = esn(basis, orders[0])
    assert S.table == groups_by_name["C2"].mul


def test_esn_semilattice_is_meet(groups_by_name):
    for line in ("3:0<1,1<2", "3:0<1,0<2", "4:0<1,0<2,2<3"):
        E = parse_cover_line(line)
        P = tuple((x,) for x in range(E.size))
        basis, orders = _build(E, P, ("C1",) * E.size, groups_by_name)
        assert len(orders) == 1
        S = esn(basis, orders[0])
        assert S.table == E.meet


def test_esn_brandt(groups_by_name):
    basis, order, S = _brandt(groups_by_name)
    assert S.size == 5
    assert validate_inverse_semigroup(S.table)
    assert sorted(x for x in range(5) if S.table[x][x] == x) == [0, 1, 2]
    e12 = basis.index[(0, 1, 2, 0)]
    e21 = basis.index[(0, 2, 1, 0)]
    assert S.table[e12][e21] == 1
    assert S.table[e21][e12] == 2
    assert S.table[e12][e12] == 0
    assert S.table[e12][0] == 0
    # D-classes: the bottom alone and the four units
    assert d_restriction_from_table(S.table) == ((1, 2), (0,))


def test_esn_idempotents_are_leading_labels(groups_by_name):
    basis, order, S = _brandt(groups_by_name)
    for e in range(3):
        for f in range(3):
            assert S.table[e][f] == VEE.meet[e][f]


def test_multiply_matches_table(groups_by_name):
    basis, order, S = _brandt(groups_by_name)
    for s in range(S.size):
        for t in range(S.size):
            assert _multiply(basis, order, s, t) == S.table[s][t]


def test_multiply_chain_restriction(groups_by_name):
    # top idempotent times the bottom block's non-identity lands below
    basis, orders = _build(CHAIN2, ((0,), (1,)), ("C2", "C1"), groups_by_name)
    S = esn(basis, orders[0])
    a = basis.index[(0, 0, 0, 1)]
    top = 1
    assert S.table[top][a] == a == _multiply(basis, orders[0], top, a)
    assert S.table[a][top] == a == _multiply(basis, orders[0], a, top)


# ---------------------------------------------------------------------------
# predicates


def test_is_commutative_examples(groups_by_name):
    _, _, brandt = _brandt(groups_by_name)
    assert not brandt.is_commutative()

    E1 = parse_cover_line("1:")
    basis, orders = _build(E1, ((0,),), ("C2",), groups_by_name)
    assert esn(basis, orders[0]).is_commutative()

    basis, orders = _build(
        CHAIN2, ((0,), (1,)), ("C2", "C1"), groups_by_name
    )
    assert esn(basis, orders[0]).is_commutative()


def test_is_monoid_examples(groups_by_name):
    _, _, brandt = _brandt(groups_by_name)
    assert not brandt.is_monoid()
    basis, orders = _build(CHAIN2, ((0,), (1,)), ("C2", "C1"), groups_by_name)
    assert esn(basis, orders[0]).is_monoid()
    E1 = parse_cover_line("1:")
    basis, orders = _build(E1, ((0,),), ("C1",), groups_by_name)
    assert esn(basis, orders[0]).is_monoid()


# ---------------------------------------------------------------------------
# the table validator as an oracle


def test_validator_accepts_all_small(groups_by_name):
    for n in range(1, 8):
        for S in enumerate_semigroups(n):
            assert validate_inverse_semigroup(S.table)


def test_validator_rejects_broken_associativity():
    # cyclic table with one corrupted cell: (1*2)*2 = 2 but 1*(2*2) = 1
    bad = ((0, 1, 2), (1, 2, 0), (2, 0, 0))
    assert not validate_inverse_semigroup(bad)


def test_validator_rejects_left_zero_band():
    # regular, every element idempotent, but idempotents do not commute
    bad = ((0, 0), (1, 1))
    assert not validate_inverse_semigroup(bad)


def test_validator_rejects_non_unique_inverse():
    # null semigroup with zero: x*y = 0 always; inverses are not unique
    bad = ((0, 0), (0, 0))
    assert not validate_inverse_semigroup(bad)


# ---------------------------------------------------------------------------
# structural properties over generated semigroups


def test_size_formula(groups_by_name):
    for n in range(1, 7):
        for S in enumerate_semigroups(n):
            total = sum(
                len(X) * len(X) * G.order
                for X, G in zip(S.d_restriction, S.groups)
            )
            assert S.size == n == total


def test_natural_order_matches_basis_order():
    for n in range(1, 7):
        for S in enumerate_semigroups(n):
            assert natural_order_from_table(S.table) == S.order_down


def test_d_restriction_matches_input():
    for n in range(1, 7):
        for S in enumerate_semigroups(n):
            assert d_restriction_from_table(S.table) == S.d_restriction


def test_maximal_subgroups_match_assignment(groups_by_name):
    from isgenum.groups import Group, is_isomorphic

    for S in enumerate_semigroups(6):
        for e in range(S.E.size):
            elems = maximal_subgroup_of_table(S.table, e)
            assert len(elems) == S.groups[S.label_block[e]].order
            relabel = {x: i for i, x in enumerate([e] + [x for x in elems if x != e])}
            tab = [[0] * len(elems) for _ in elems]
            for x in elems:
                for y in elems:
                    tab[relabel[x]][relabel[y]] = relabel[S.table[x][y]]
            assert is_isomorphic(Group(tab, "tmp"), S.groups[S.label_block[e]])


def test_product_equals_expanded_sum():
    # the restriction product must agree with literal sums of down-sets:
    # each element below s*t arises exactly once as a nonzero product u*v
    # with u below s and v below t
    for n in range(1, 7):
        for S in enumerate_semigroups(n):
            down = S.order_down
            for s in range(S.size):
                for t in range(S.size):
                    got = S.table[s][t]
                    out = _expanded_sum_from_semigroup(S, s, t)
                    expect = Counter(_bits(down[got]))
                    assert out == expect


def _expanded_sum_from_semigroup(S, s, t):
    out = Counter()
    elem = S.elem
    index = S.index
    groups = S.groups
    down = S.order_down
    for u in _bits(down[s]):
        iu, au, bu, gu = elem[u]
        for v in _bits(down[t]):
            iv, av, bv, gv = elem[v]
            if iu == iv and bu == av:
                out[index[(iu, au, bv, groups[iu].mul[gu][gv])]] += 1
    return out


def test_lemma_equal_when_related_within_d_class():
    # s D t and s <= t force s = t on every generated table
    for n in range(1, 7):
        for S in enumerate_semigroups(n):
            down = natural_order_from_table(S.table)
            for t in range(S.size):
                for s in _bits(down[t]):
                    if S.elem[s][0] == S.elem[t][0]:
                        assert s == t
