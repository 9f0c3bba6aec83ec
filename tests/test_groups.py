import itertools

import pytest

from isgenum.groups import Group, catalog, is_isomorphic

CLASS_COUNTS = (1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5, 1, 2, 1)


# ---------------------------------------------------------------------------
# independent oracles


def _all_group_tables(n):
    """Every group table on {0..n-1} with identity 0, by row backtracking.

    Row i of a group table is the left translation L_i, and associativity
    says L_i o L_j = L_(i*j).  Choosing one new row therefore forces the
    closure of all known rows under composition; backtrack over the choices
    of the least underived row.
    """
    identity = tuple(range(n))

    # a non-identity row is a left translation: fixed-point-free with all
    # cycles of one length (the element order), so prefilter candidates
    buckets = {i: [] for i in range(1, n)}
    for p in itertools.permutations(range(n)):
        if p[0] == 0:
            continue
        seen = 0
        lengths = set()
        for s in range(n):
            if (seen >> s) & 1:
                continue
            ln, x = 0, s
            while not (seen >> x) & 1:
                seen |= 1 << x
                x = p[x]
                ln += 1
            lengths.add(ln)
        if len(lengths) == 1:
            buckets[p[0]].append(p)

    def close(rows):
        rows = dict(rows)
        work = list(rows.items())
        while work:
            i, pi = work.pop()
            for j, pj in list(rows.items()):
                for a, pa, b, pb in ((i, pi, j, pj), (j, pj, i, pi)):
                    k = pa[b]
                    comp = tuple(pa[pb[x]] for x in range(n))
                    known = rows.get(k)
                    if known is None:
                        rows[k] = comp
                        work.append((k, comp))
                    elif known != comp:
                        return None
        return rows

    out = []

    def rec(rows):
        if len(rows) == n:
            out.append(tuple(rows[i] for i in range(n)))
            return
        i = min(x for x in range(n) if x not in rows)
        for p in buckets[i]:
            closed = close({**rows, i: p})
            if closed is not None:
                rec(closed)

    rec(close({0: identity}))
    return out


def _brute_force_group_classes(n):
    """Isomorphism classes of groups of order n via exhaustive tables."""
    reps = []
    for tab in _all_group_tables(n):
        try:
            G = Group(tab, f"tmp{n}")
        except ValueError:
            continue
        if not any(is_isomorphic(G, H) for H in reps):
            reps.append(G)
    return reps


def _brute_force_automorphisms(G):
    """All identity-fixing bijections that preserve multiplication."""
    n = G.order
    out = []
    for p in itertools.permutations(range(1, n)):
        images = (0,) + p
        if all(
            images[G.mul[x][y]] == G.mul[images[x]][images[y]]
            for x in range(n) for y in range(n)
        ):
            out.append(images)
    return out


# ---------------------------------------------------------------------------
# catalog


def test_catalog_trivial():
    cat = catalog(1)
    assert len(cat) == 1
    assert cat[0].order == 1


def test_catalog_counts_per_order(group_catalog):
    for o in range(1, 16):
        assert sum(1 for G in group_catalog if G.order == o) == CLASS_COUNTS[o - 1]


def test_catalog_deterministic_order(group_catalog):
    keys = [(G.order, G.name) for G in group_catalog]
    assert keys == sorted(keys)
    assert group_catalog == catalog(15)


def test_catalog_order4_names():
    names = [G.name for G in catalog(4) if G.order == 4]
    assert names == ["C2xC2", "C4"]


@pytest.mark.parametrize("o", range(1, 9))
def test_catalog_matches_bruteforce_oracle(o, group_catalog):
    reps = _brute_force_group_classes(o)
    assert len(reps) == CLASS_COUNTS[o - 1]
    mine = [G for G in group_catalog if G.order == o]
    for G in mine:
        assert sum(1 for H in reps if is_isomorphic(G, H)) == 1


def test_catalog_tables_are_groups(group_catalog):
    for G in (H for H in group_catalog if H.order <= 12):
        n = G.order
        for a in range(n):
            assert G.mul[0][a] == a == G.mul[a][0]
            assert G.mul[a][G.inv[a]] == 0 == G.mul[G.inv[a]][a]
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    assert G.mul[G.mul[a][b]][c] == G.mul[a][G.mul[b][c]]


def test_catalog_pairwise_non_isomorphic(group_catalog):
    small = [G for G in group_catalog if G.order <= 12]
    for i, G in enumerate(small):
        for H in small[i + 1:]:
            if G.order != H.order:
                continue
            assert not is_isomorphic(G, H), (G.name, H.name)
            if G.order <= 8:
                # cross-check with the raw bijection search
                found = any(
                    all(
                        images[G.mul[x][y]] == H.mul[images[x]][images[y]]
                        for x in range(G.order) for y in range(G.order)
                    )
                    for p in itertools.permutations(range(1, G.order))
                    for images in [(0,) + p]
                )
                assert not found


def test_catalog_rejects_out_of_range():
    with pytest.raises(ValueError):
        catalog(0)
    with pytest.raises(ValueError):
        catalog(16)


# ---------------------------------------------------------------------------
# automorphisms


def test_automorphisms_trivial(groups_by_name):
    assert groups_by_name["C1"].automorphism_images() == ((0,),)


@pytest.mark.parametrize("name,count", [("C3", 2), ("C2xC2", 6)])
def test_automorphism_counts(groups_by_name, name, count):
    G = groups_by_name[name]
    assert len(G.automorphism_images()) == count
    assert len(_brute_force_automorphisms(G)) == count


def test_automorphisms_match_bruteforce(group_catalog):
    for G in (H for H in group_catalog if H.order <= 8):
        assert sorted(G.automorphism_images()) == sorted(
            _brute_force_automorphisms(G)
        )


def test_automorphisms_form_group(group_catalog):
    for G in (H for H in group_catalog if H.order <= 10):
        images = set(G.automorphism_images())
        assert tuple(range(G.order)) in images
        for a in images:
            assert all(
                a[G.mul[x][y]] == G.mul[a[x]][a[y]]
                for x in range(G.order) for y in range(G.order)
            )
            for b in images:
                assert tuple(a[b[x]] for x in range(G.order)) in images
            inverse = [0] * G.order
            for x, y in enumerate(a):
                inverse[y] = x
            assert tuple(inverse) in images
