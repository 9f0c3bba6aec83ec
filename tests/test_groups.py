import hashlib
import itertools

import pytest

from isgenum import groups
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


def test_catalog_builds_each_order_once(monkeypatch):
    # orders are built on first use, up to the one asked for, and each
    # group stays one object: every catalog(k) is a prefix of catalog(15),
    # asked for in ascending or in descending order.  The digest is of the
    # names and tables that one build of all 15 orders gave before the
    # catalog was built per order
    digest = "19bbd9d6ee048352605dcafc3d36fe3696fe058d2f803039ca97e15356cb5f79"
    builds = []
    for ks in (range(1, 16), range(15, 0, -1)):
        monkeypatch.setattr(groups, "_BY_ORDER", [])
        cats = {k: catalog(k) for k in ks}
        assert len(groups._BY_ORDER) == 15
        for k, cat in cats.items():
            assert len(cat) == sum(CLASS_COUNTS[:k])
            assert all(G is H for G, H in zip(cat, cats[15]))
        builds.append([(G.name, G.mul) for G in cats[15]])
    assert builds[0] == builds[1]
    assert hashlib.sha256(repr(builds[0]).encode()).hexdigest() == digest
    monkeypatch.setattr(groups, "_BY_ORDER", [])
    catalog(9)
    assert len(groups._BY_ORDER) == 9


def test_catalog_rejects_out_of_range():
    with pytest.raises(ValueError):
        catalog(0)
    with pytest.raises(ValueError):
        catalog(16)


def test_group_rejects_power_cycle():
    # identity 0 and two-sided inverses, but 1 * 1 = 3 and 3 * 1 = 3, so the
    # powers of 1 never reach 0: construction must fail, not loop
    with pytest.raises(ValueError, match="never reaches 0"):
        Group([[0, 1, 2, 3], [1, 3, 0, 2], [2, 0, 1, 3], [3, 3, 1, 0]], "loop")


def test_group_rejects_non_associative_loop():
    # a Latin square with identity 0 and two-sided inverses, so every check
    # but associativity passes: (1 * 1) * 2 = 2 but 1 * (1 * 2) = 4
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    with pytest.raises(ValueError, match="not associative"):
        Group(loop, "loop")


# ---------------------------------------------------------------------------
# homomorphisms


def test_homomorphisms_match_bruteforce(group_catalog):
    # every map fixing 0 that respects products, ordered by generator images
    for G in (K for K in group_catalog if K.order <= 6):
        gens = G.generating_set()
        for H in (K for K in group_catalog if K.order <= 6):
            expected = sorted(
                (tuple(img[g] for g in gens), img)
                for p in itertools.product(range(H.order), repeat=G.order - 1)
                for img in [(0,) + p]
                if all(img[G.mul[x][y]] == H.mul[img[x]][img[y]]
                       for x in range(G.order) for y in range(G.order))
            )
            got = list(G.homomorphisms([range(H.order)] * len(gens), H.mul))
            assert got == [img for _, img in expected], (G.name, H.name)


def test_homomorphisms_respect_candidates(groups_by_name):
    S3, C2 = groups_by_name["S3"], groups_by_name["C2"]
    r, s = S3.generating_set()
    assert (S3.element_order(r), S3.element_order(s)) == (3, 2)
    # the sign map sends the rotations to 0 and the three reflections to 1
    (sign,) = S3.homomorphisms([(0,), (1,)], C2.mul)
    assert sign.count(1) == 3
    assert list(S3.homomorphisms([(0,), (0,)], C2.mul)) == [(0,) * 6]
    assert list(S3.homomorphisms([(1,), (0, 1)], C2.mul)) == []


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
