import hashlib
from fractions import Fraction

import pytest

from extremal_lie.scalars import QQ, GF
from extremal_lie.rootdata import (
    CONVENTION_VERSION,
    InvalidRank,
    NonIntegral,
    RootSystem,
    _symmetrizer,
    chevalley_constants,
)
from extremal_lie.liealg import LieAlgebra

from helpers import fraction_inner, root_inner, root_norm2, root_pairing


ROOT_COUNTS = {
    ("A", 1): 2, ("A", 2): 6, ("A", 3): 12, ("A", 4): 20,
    ("B", 2): 8, ("B", 3): 18, ("B", 4): 32,
    ("C", 2): 8, ("C", 3): 18,
    ("D", 4): 24, ("D", 5): 40,
    ("E", 6): 72, ("E", 7): 126, ("E", 8): 240,
    ("F", 4): 48, ("G", 2): 12,
}


def test_root_counts():
    for (t, n), count in ROOT_COUNTS.items():
        rs = RootSystem(t, n)
        assert len(rs.roots) == count, (t, n)
        assert len(rs.positive_roots) == count // 2


def test_long_root_counts():
    assert sum(RootSystem("G", 2).is_long(r) for r in RootSystem("G", 2).roots) == 6
    assert sum(RootSystem("B", 3).is_long(r) for r in RootSystem("B", 3).roots) == 12
    assert sum(RootSystem("C", 3).is_long(r) for r in RootSystem("C", 3).roots) == 6
    assert sum(RootSystem("F", 4).is_long(r) for r in RootSystem("F", 4).roots) == 24
    # simply laced: all long
    assert all(RootSystem("A", 3).is_long(r) for r in RootSystem("A", 3).roots)


def test_invalid_ranks_rejected():
    for t, n in [("D", 3), ("E", 5), ("F", 3), ("G", 3), ("A", 0), ("B", 1)]:
        with pytest.raises(InvalidRank):
            RootSystem(t, n)


def test_highest_root_b3_by_height_enumeration():
    rs = RootSystem("B", 3)
    heights = {root: sum(root) for root in rs.positive_roots}
    top = max(heights.values())
    maxima = [root for root, h in heights.items() if h == top]
    assert maxima == [rs.highest_root]
    assert rs.eps_coords(rs.highest_root) == (Fraction(1), Fraction(1), Fraction(0))
    assert rs.is_long(rs.highest_root)


def test_eps_round_trip():
    for t, n in [("A", 2), ("B", 3), ("C", 3), ("D", 4), ("F", 4)]:
        rs = RootSystem(t, n)
        for root in rs.roots:
            assert rs.root_from_eps(rs.eps_coords(root)) == root


def test_root_from_eps_rejects_bad_indices_and_non_roots():
    """An index outside 1..4 of D4 is an error, not a wrapped or missing
    coordinate: {0: 1, 1: -1} is not read as -eps1 + eps4.  Neither a dict
    nor a full vector of a non-root has a root, and E6 has no epsilon
    coordinates."""
    with pytest.raises(InvalidRank):
        RootSystem("E", 6).root_from_eps({1: 1})
    rs = RootSystem("D", 4)
    assert rs.root_from_eps({4: 1, 1: -1}) == rs.root_from_eps((-1, 0, 0, 1))
    for bad in ({0: 1, 1: -1}, {5: 1}, {1: 1}, (1, 1, 1, 0), (Fraction(1, 2),) * 4):
        with pytest.raises(ValueError):
            rs.root_from_eps(bad)


def test_closure_under_negation():
    rs = RootSystem("F", 4)
    for root in rs.roots:
        assert rs.is_root(tuple(-c for c in root))


def test_constants_zero_iff_not_root_sum():
    rs = RootSystem("A", 2)
    cc = chevalley_constants(rs)
    for a in rs.roots:
        for b in rs.roots:
            s = tuple(x + y for x, y in zip(a, b))
            if any(s):
                n = cc.N(a, b)
                assert (n != 0) == rs.is_root(s)
                if rs.is_root(s):
                    assert abs(n) == 1  # simply laced


def test_g2_has_constant_of_magnitude_three():
    rs = RootSystem("G", 2)
    cc = chevalley_constants(rs)
    mags = {abs(cc.N(a, b)) for a in rs.roots for b in rs.roots}
    assert mags == {0, 1, 2, 3}


def test_root_string_rule_exhaustive_small_ranks():
    for t, n in [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4)]:
        rs = RootSystem(t, n)
        cc = chevalley_constants(rs)
        for a in rs.roots:
            for b in rs.roots:
                s = tuple(x + y for x, y in zip(a, b))
                if rs.is_root(s):
                    assert abs(cc.N(a, b)) == rs.root_string_down(a, b) + 1


def test_root_string_rule_spot_check_e6():
    rs = RootSystem("E", 6)
    cc = chevalley_constants(rs)
    roots = rs.roots
    for a in roots[::17]:
        for b in roots[::23]:
            s = tuple(x + y for x, y in zip(a, b))
            if rs.is_root(s):
                assert abs(cc.N(a, b)) == rs.root_string_down(a, b) + 1


def test_antisymmetry_and_involution_conventions():
    rs = RootSystem("B", 3)
    cc = chevalley_constants(rs)
    for a in rs.roots:
        for b in rs.roots:
            if rs.is_root(tuple(x + y for x, y in zip(a, b))):
                assert cc.N(a, b) == -cc.N(b, a)
                na = tuple(-c for c in a)
                nb = tuple(-c for c in b)
                assert cc.N(na, nb) == -cc.N(a, b)


def test_integer_table_produces_valid_algebras():
    # Jacobi on all triples is the downstream validity check of the signs
    for t, n in [("A", 2), ("B", 3), ("C", 3), ("G", 2)]:
        rs = RootSystem(t, n)
        labels, table = chevalley_constants(rs).integer_table()
        for f in (QQ, GF(5)):
            ftab = {k: {kk: f.raw(v) for kk, v in row.items()} for k, row in table.items()}
            L = LieAlgebra(f, labels, ftab)
            assert L.n == len(rs.roots) + rs.rank


def test_coroot_coords_are_integral_and_pair_correctly():
    rs = RootSystem("G", 2)
    for root in rs.roots:
        coords = rs.coroot_coords(root)
        assert all(isinstance(c, int) for c in coords)
        assert root_pairing(rs, root, root) == 2


def test_convention_version_embedded():
    rs = RootSystem("A", 2)
    cc = chevalley_constants(rs)
    assert cc.convention_version == CONVENTION_VERSION


# sha256 of repr((labels, sorted (i, j, k, N) rows)) of ``integer_table()``,
# recorded with the Fraction-based root data that preceded the integer one:
# any change of convention, sign or basis order fails here
TABLE_DIGESTS = {
    ("A", 1): "971bebfc94de20e6782fd52bc2e5e73302fe6c27c90b3e5accd4804af6ac35ea",
    ("A", 2): "94ccc4ed4c7d2cc73cfb6cce8ed18916814df0d82556063330a62000f202a538",
    ("A", 3): "bbbe8422931dc6981d9d6136e62b8791f0b8ccb8a7bd76119f34a60ee023f571",
    ("A", 4): "a5a777b92fbefcd2ab32e46b20544ee5083e81a0a9c727cc152bfd908cbdc4e1",
    ("A", 5): "dc02b75205172cdc3afc07a2f861dafc7f0db9782fdf441c7ac5adb23a597ff2",
    ("A", 6): "a75f3182ddb1ccf5ff9b3214eb23bee2d79d54e71045511452f2b0d5f401419d",
    ("A", 7): "1fbfc15a78a53d5bbf7596c0634e9884189e3f15b065dd2f77b33a920666b90c",
    ("A", 8): "7a322c8c7d04746e74f511bae5fa6c116c0cba81350a8e375dd95a2ada0ab188",
    ("B", 2): "a280f08ba39a2d36d2b355b8567cb7ad94d900de3369f2369b7c71c7c971764d",
    ("B", 3): "a11b1dc3d8c5fd0eb5705fd683632e292184f06b9784fe59b38a4459a1bb9eae",
    ("B", 4): "27f2005c177ffd80f955f2ca3dc05bdfcc615f684b3cf434393c53c039142187",
    ("B", 5): "cb94e6a01764e7a53b86e1e1d1c59cbb682f2dd766bf282b54cef546e5a8baf1",
    ("B", 6): "29fcfb8fff59d769ced0ec01b342e78bd6813e2189c509519c8aee56dc42ffe4",
    ("B", 7): "8e64336aac7e2fe2483681ecd73973cfbf6083fd16c157e2cad476115c19c368",
    ("B", 8): "322444894b3355c79a79de915443356b3d7999b71564040f61a250a5ee2b0d99",
    ("C", 2): "558ef3610f2d88973b5f6854e5a71e31ff10b0f044d82488f4cf103657688086",
    ("C", 3): "df9507e987535b5c26a84bc613f05e7818eebf472dd7218523eddf07d443279e",
    ("C", 4): "5677b6f9123efd942c6f11eb692ab291abf228b15a9e741eec22f805e4054f03",
    ("C", 5): "35388b1c095446868cf47d4c04199120902adb3d5e88edfdf5e7f10392031629",
    ("C", 6): "d59ca67c417fe83bcc23dfd2f239354c03cf9b461853059a447ad78425176d1f",
    ("C", 7): "4b4735eff7468514fefa2534591452648e52783f9311d161dcf13679a0045f0f",
    ("C", 8): "d1d0618e104f8d30dc525ea7547ebd67d8bd05f34a17c01baace7a94f8c669f0",
    ("D", 4): "cdb9bb484d5a08ad180f43972516a8527c81770c2554cd03b1818e38dba35f95",
    ("D", 5): "4a433e9c135a2545bfe5d925252277fc599260c92f347e27277ee49e22727c6a",
    ("D", 6): "6fdd6db6898222a2827770f039027ac0de10e7d326b80262b5cb1f8510b72c59",
    ("D", 7): "5bc79132c088d8cb399da7e13f4dcb5ec24a0c3d65f1f330126115077183b62b",
    ("D", 8): "882706eb0ea318b204242d7f324b39f43ad60a62f50c12a88d0247c6a5d997a6",
    ("E", 6): "bfa235ef2f0e5dc3eaf9bfb5161807e1201de2109f74d6f30ce61fdf6aa2fa16",
    ("E", 7): "0f9358a27a03c16086f74ee875ea08fe8051ef041eb405266e615748a25a747f",
    ("E", 8): "11d9b9659f36cc162b976de76ad5ae56f69c740169400ca09aee0f7d91be14d7",
    ("F", 4): "ee866b6c0fca4b11b4ed2b8ad7b1cb621a72499e38795831bdfae77f97d4e6b6",
    ("G", 2): "f1ce0f7b9937525b3fae9a0bc7d8227eaeb5d68cf73120aca6ce456edb1027e5",
}

# every type of rank <= 8; E8 takes about 4 s in the Fraction reference and
# 0.2 s for its table
RANK8_TYPES = list(TABLE_DIGESTS)


@pytest.mark.parametrize("type_, rank", RANK8_TYPES)
def test_integer_root_data_matches_fraction_reference(type_, rank):
    rs = RootSystem(type_, rank)
    d = _symmetrizer(type_, rank)
    pos = rs.positive_roots
    norms = {t: fraction_inner(rs, t, t) for t in pos}
    for s in pos:
        assert root_norm2(rs, s) == norms[s]
        assert rs.coroot_coords(s) == tuple(s[i] * d[i] / (norms[s] / 2) for i in range(rank))
        for t in pos:
            ip = fraction_inner(rs, s, t)
            assert root_inner(rs, s, t) == ip
            assert root_pairing(rs, s, t) == 2 * ip / norms[t]


def _table_digest(type_, rank):
    """The digest of ``TABLE_DIGESTS`` for the integer table of a type."""
    labels, table = chevalley_constants(RootSystem(type_, rank)).integer_table()
    rows = sorted((i, j, k, v) for (i, j), row in table.items() for k, v in row.items())
    assert all(type(v) is int for *_, v in rows)
    return hashlib.sha256(repr((labels, rows)).encode()).hexdigest()


@pytest.mark.parametrize("type_, rank", RANK8_TYPES)
def test_integer_table_digest_is_pinned(type_, rank):
    assert _table_digest(type_, rank) == TABLE_DIGESTS[(type_, rank)]


# the same digests for the large-rank ``mingen`` types, recorded with the
# constants derived pair by pair on request, before each positive pair
# filled its triple
LARGE_RANK_DIGESTS = {
    ("A", 24): "64ebf46dfb51377653d82a16e3ad7276152bd2c0a08392bb04e881a4e84941bb",
    ("B", 12): "247561d617b83cdb925a5c944cee732f931c2b92ea658e47d31f36f2745610f0",
    ("C", 12): "b6a28ee10965b641f772b9410e78fdc5e47075da76255066b881843e59638dfe",
    ("D", 14): "d8d91b303ad8aea2e51693d06c01242ef95a69fc4056970cfab4135f8aae5e0a",
}


@pytest.mark.parametrize("type_, rank", list(LARGE_RANK_DIGESTS))
def test_large_rank_integer_table_digest_is_pinned(type_, rank):
    assert _table_digest(type_, rank) == LARGE_RANK_DIGESTS[(type_, rank)]


@pytest.mark.parametrize("type_, rank", [("B", 3), ("C", 3), ("G", 2), ("F", 4), ("E", 6)])
def test_each_zero_sum_triple_obeys_the_fill_rules(type_, rank):
    """Over every zero-sum triple a + b + c = 0 of roots: the cyclic
    relation N(a,b)/(c,c) = N(b,c)/(a,a) = N(c,a)/(b,b) with the norms of
    the Fraction reference, antisymmetry and N(-x,-y) = -N(x,y) on its six
    ordered pairs; and N = 0 exactly on the pairs whose sum is no root."""
    rs = RootSystem(type_, rank)
    cc = chevalley_constants(rs)
    norm = {t: fraction_inner(rs, t, t) for t in rs.roots}
    triples = 0
    for a in rs.roots:
        for b in rs.roots:
            s = tuple(x + y for x, y in zip(a, b))
            if not rs.is_root(s):
                assert cc.N(a, b) == 0
                continue
            c = tuple(-x for x in s)
            assert cc.N(a, b) != 0
            assert cc.N(a, b) / norm[c] == Fraction(cc.N(b, c)) / norm[a] == Fraction(cc.N(c, a)) / norm[b]
            for x, y in ((a, b), (b, c), (c, a)):
                assert cc.N(y, x) == -cc.N(x, y)
                assert cc.N(tuple(-v for v in x), tuple(-v for v in y)) == -cc.N(x, y)
            triples += 1
    # each triple {a, b, c} is met once per ordered pair of its roots
    assert triples % 6 == 0 and triples > 0


def test_pairing_and_coroot_coords_raise_on_a_remainder():
    """Exact division: half a simple root pairs to -1/2 with a neighbour."""
    g2, b3 = RootSystem("G", 2), RootSystem("B", 3)
    for rs, beta, alpha in [
        (g2, (Fraction(1, 2), 0), (0, 1)),
        (b3, (0, Fraction(1, 2), 0), (1, 0, 0)),
        (b3, (0, 0, Fraction(1, 2)), (0, 1, 0)),
    ]:
        assert fraction_inner(rs, beta, alpha) * 2 / fraction_inner(rs, alpha, alpha) == Fraction(-1, 2)
        with pytest.raises(NonIntegral):
            root_pairing(rs, beta, alpha)
    # (1, 2) is no root of G2: its first coroot coordinate is 1/7
    assert Fraction(1, 3) / (fraction_inner(g2, (1, 2), (1, 2)) / 2) == Fraction(1, 7)
    with pytest.raises(NonIntegral):
        g2.coroot_coords((1, 2))
