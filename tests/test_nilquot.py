import gc
import hashlib
import json
import math
import weakref
from unittest import mock

import pytest

from extremal_lie import nilquot
from extremal_lie.linalg import Echelon, canonical
from extremal_lie.scalars import QQ, GF

from helpers import (
    SPANNING_MONOMIALS_4GEN,
    DenseEchelon,
    assoc_algebra_direct_dims,
    check_subalgebra_embedding,
    free_nilpotent_quotient,
    graded_components,
    graded_report,
    left_normed_expansions,
    monomial,
    sandwich,
    spanning_set_check_4gen,
    tensor_bracket,
    witt,
    witt_multidegree,
)


def test_free_mode_matches_witt():
    for r, maxd in [(2, 8), (3, 6), (4, 5)]:
        q = free_nilpotent_quotient(r, maxd)
        assert q.dims_by_degree == [witt(r, d) for d in range(1, maxd + 1)]


def test_free_mode_multidegrees_match_necklace_counts():
    q = free_nilpotent_quotient(3, 5)
    for md, dim in q.multidegree_dims.items():
        assert dim == witt_multidegree(md), md


def test_free_mode_extra_consistency_rows_change_nothing():
    a = free_nilpotent_quotient(3, 6)
    b = free_nilpotent_quotient(3, 6, extra_consistency=True)
    assert a.dims_by_degree == b.dims_by_degree
    assert a.multidegree_dims == b.multidegree_dims


def test_sandwich_dimensions_small():
    assert sandwich(1).total_dim == 1
    assert sandwich(2).total_dim == 3
    assert sandwich(3).total_dim == 8
    assert sandwich(3).dims_by_degree == [3, 3, 2]
    assert sandwich(4).total_dim == 28
    assert sandwich(4).dims_by_degree == [4, 6, 8, 6, 4]


def test_sandwich_terminates_with_zero_component():
    q = sandwich(4)
    eng = q._engine
    assert eng.blocks[eng.completed] == {}  # the run stopped at an empty degree
    assert all(d > 0 for d in q.dims_by_degree)


def test_graded_report_schema():
    rep = graded_report(sandwich(3))
    assert rep["r"] == 3
    assert rep["total"] == 8
    assert rep["dims_by_degree"] == [3, 3, 2]
    assert {"degree": [1, 1, 0], "dim": 1} in rep["multidegree_dims"]


def test_assoc_dims_via_embedding():
    a = nilquot.assoc_dims_via_embedding(1)
    assert a.total_dim == 2 and a.dims_by_length == [1, 1]
    a = nilquot.assoc_dims_via_embedding(2)
    assert a.total_dim == 5 and a.dims_by_length == [1, 2, 2]
    a = nilquot.assoc_dims_via_embedding(3)
    assert a.total_dim == 19
    assert a.dims_by_length == [1, 3, 6, 6, 3]
    assert a.palindromic_after_identity


def test_assoc_direct_construction_agrees():
    # independent route: elimination in the free associative algebra
    for r in (1, 2, 3):
        direct = assoc_algebra_direct_dims(r)
        embedded = nilquot.assoc_dims_via_embedding(r)
        assert direct.dims_by_length == embedded.dims_by_length


def test_assoc_direct_construction_r4_to_length_5():
    # at length 5 the relations y_i w y_i need all of Lie_3: a spanning set
    # short of it leaves 44 words where R_4 has 40
    assert assoc_algebra_direct_dims(4, max_len=5).dims_by_length == nilquot.R_LENGTHS[4][:6]


def test_left_normed_expansions_span_the_free_lie_algebra():
    for r, max_m in ((2, 8), (3, 6), (4, 4)):
        for m in range(1, max_m + 1):
            ech = Echelon(QQ, r**m)
            for poly in left_normed_expansions(r, m).values():
                ech.insert({sum((a - 1) * r**k for k, a in enumerate(t)): c for t, c in poly.items()})
            assert ech.dim == witt(r, m), (r, m)


def test_left_normed_expansions_match_nested_tensor_brackets():
    r = 3
    for m in range(1, 6):
        got = left_normed_expansions(r, m)
        assert len(got) == (r if m == 1 else r * (r - 1) * r ** (m - 2))
        for word, poly in got.items():
            assert len(word) == m and (m == 1 or word[0] != word[1])
            nested = {word[:1]: 1}
            for a in word[1:]:
                nested = tensor_bracket(nested, {(a,): 1})
            assert poly == nested, word


def test_subalgebra_embedding():
    assert check_subalgebra_embedding(2)["pass"]
    rep = check_subalgebra_embedding(4)
    assert rep["pass"]
    assert rep["recovered_total"] == 8


def test_spanning_set_check_4gen():
    rep = spanning_set_check_4gen()
    assert rep["rank"] == 28
    assert rep["is_basis"]
    assert all(rep["identities_zero"])
    assert rep["length6_all_reduce_to_zero"]
    assert rep["pass"]


def test_monomial_evaluation_in_l3():
    L = sandwich(3).as_lie_algebra()
    # [x1,[x1,x2]] is a defining relation, so it vanishes
    assert monomial(L, (1, 1, 2)).coeffs == {}
    # the eight spanning monomials are a basis
    words = [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3), (2, 1, 3)]
    vecs = [monomial(L, w).coeffs for w in words]
    seen = set()
    for v in vecs:
        assert v
        seen.update(v)
    assert len(seen) == 8


def test_as_lie_algebra_validates_and_is_nilpotent():
    from extremal_lie.liealg import lower_central_series
    L = sandwich(3).as_lie_algebra()  # construction validates Jacobi
    assert L.n == 8
    assert lower_central_series(L)[-1].dim == 0


def test_every_basis_element_is_a_sandwich_in_l4():
    from extremal_lie.liealg import is_extremal
    L = sandwich(4).as_lie_algebra()
    for i in range(L.n):
        fx = is_extremal(L, L.basis_element(i))
        assert fx is not None and fx.is_zero()


def test_gf_p_recomputation_matches_rationals_smallr():
    # experimental option: recompute over GF(p) and report discrepancies
    for r in (2, 3):
        q0 = sandwich(r)
        qp = nilquot.sandwich_algebra(r, field=GF(5))
        assert qp.dims_by_degree == q0.dims_by_degree
        assert qp.multidegree_dims == q0.multidegree_dims


def test_degree_cap_guard(monkeypatch):
    monkeypatch.setattr(nilquot, "MAX_DEGREE", 2)
    with pytest.raises(nilquot.DegreeCapExceeded):
        nilquot.sandwich_algebra(3)


def test_bracket_in_quotient_multidegree_additive():
    q = sandwich(4)
    L = q.as_lie_algebra()
    out = L.bracket(monomial(L, (1, 2)), monomial(L, (3, 4))).coeffs
    assert out  # [[x1,x2],[x3,x4]] is nonzero in L_4
    # the basis of L runs by degree, so degree 4 is the fourth block
    lo = sum(q.dims_by_degree[:3])
    assert all(lo <= k < lo + q.dims_by_degree[3] for k in out)


@pytest.mark.parametrize("build", [
    *(lambda r=r: sandwich(r) for r in (1, 2, 3, 4)),
    lambda: nilquot.GradedQuotient(nilquot._companion_engine(3, QQ)),
    lambda: free_nilpotent_quotient(3, 5),
], ids=["L1", "L2", "L3", "L4", "R3-capped", "free3-5"])
def test_blocks_flatten_to_the_basis_in_index_order(build):
    """``as_lie_algebra`` builds its table on ``engine.basis`` and reads the
    index a bracket returns as a place in it: each element's index is its
    place, degrees never decrease along the basis, the blocks of a degree
    flatten to that degree's slice of it, and the labels follow it."""
    q = build()
    eng = q._engine
    basis = eng.basis
    assert [b.index for b in basis] == list(range(len(basis)))
    degrees = [b.degree for b in basis]
    assert degrees == sorted(degrees)
    lo = 0
    for d in range(1, eng.completed + 1):
        flat = [b for elts in eng.blocks[d].values() for b in elts]
        assert flat == basis[lo:lo + len(flat)] and all(b.degree == d for b in flat), d
        lo += len(flat)
    assert lo == len(basis)
    assert q.as_lie_algebra().labels == [nilquot._word_bracket_str(b.word) for b in basis]


def test_components_expose_words_and_ranks():
    q = sandwich(3)
    comps = graded_components(q)
    assert [len(words) for words, _ in comps] == [3, 3, 2]
    assert comps[0][0] == [(1,), (2,), (3,)]
    assert all(rank >= 0 for _, rank in comps[1:])


def test_r3_count_from_spanning_monomial_list():
    # monomials of the 4-generator list containing the last letter exactly once
    singles = [w for w in SPANNING_MONOMIALS_4GEN if w.count(4) == 1]
    assert len(singles) == 19
    assert len(singles) == nilquot.assoc_dims_via_embedding(3).total_dim


def test_subalgebra_embedding_r5_recovers_l4():
    rep = check_subalgebra_embedding(5)
    assert rep["pass"]
    assert rep["recovered_total"] == 28


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "GF5"])
def test_engine_state_matches_dense_reference_echelon(field):
    """The sparse kernel and the dense Fraction echelon build the same
    engine: basis words, multidegree dims, relation ranks and rewrites."""

    def state(r):
        q = nilquot.sandwich_algebra(r, field=field)
        eng = q._engine
        return [b.word for b in eng.basis], q.multidegree_dims, q.relation_ranks, eng.gen_bracket

    for r in (1, 2, 3, 4):
        fast = state(r)
        with mock.patch.object(nilquot, "Echelon", DenseEchelon):
            slow = state(r)
        assert fast == slow, r


def _block_state(eng, keep=lambda md: True):
    """The engine's basis words per (degree, multidegree) block, and the
    rewrite of each symbol [w, x_i] as {word: coefficient}, on the blocks
    ``keep`` accepts."""
    words = {(d, md): [b.word for b in elts]
             for d, bs in eng.blocks.items() for md, elts in bs.items() if keep(md)}
    rewrites = {}
    for key, vec in eng.gen_bracket.items():
        w, i = divmod(key, eng.r + 1)
        parent = eng.basis[w]
        if keep(nilquot._mdeg_add(parent.mdeg, i)):
            rewrites[parent.word + (i,)] = {eng.basis[k].word: c for k, c in vec.items()}
    return words, rewrites


@pytest.mark.parametrize(
    "r, field",
    [(r, f) for r in (1, 2, 3) for f in (QQ, GF(3), GF(101))] + [(4, QQ), (4, GF(101))],
    ids=repr,
)
def test_capped_engine_matches_full_engine_on_its_blocks(r, field):
    """The engine R_r is read from builds the blocks of L_{r+1} whose last
    coordinate is at most 1, with the same words and rewrites as the full
    L_{r+1}, and nothing else."""
    capped = nilquot._companion_engine(r, field)
    full = nilquot._CoverEngine(r + 1, field=field)
    while full.extend():
        pass
    assert _block_state(capped) == _block_state(full, keep=lambda md: md[r] <= 1)


def _engine_state(eng):
    """Basis words per block, rewrites and relation ranks of an engine."""
    return _block_state(eng) + (eng.relation_ranks,)


def _state_digest(eng):
    """sha256 of ``_engine_state``, written out in sorted order."""
    words, rewrites, ranks = _engine_state(eng)
    h = hashlib.sha256()
    for key in sorted(words):
        h.update(repr((key, words[key])).encode())
    for key in sorted(rewrites):
        h.update(repr((key, sorted((w, str(c)) for w, c in rewrites[key].items()))).encode())
    h.update(repr(ranks).encode())
    return h.hexdigest()


def _all_rows_engine(r, field, cap=None):
    """The verification engine: every block is its own orbit and takes
    every row, the heavy Jacobi rows included."""
    eng = nilquot._CoverEngine(r, field=field, extra_consistency=True, cap=cap)
    return nilquot._extend_until_empty(eng)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("field", [QQ, GF(3), GF(101)], ids=repr)
def test_orbit_rank_stop_matches_all_rows_engine(r, field):
    fast = nilquot.sandwich_algebra(r, field=field)._engine
    assert _engine_state(fast) == _engine_state(_all_rows_engine(r, field))


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("field", [QQ, GF(3), GF(101)], ids=repr)
def test_orbit_rank_stop_matches_all_rows_engine_capped(r, field):
    fast = nilquot._companion_engine(r, field)
    slow = _all_rows_engine(r + 1, field, cap=(math.inf,) * r + (1,))
    assert _engine_state(fast) == _engine_state(slow)


# sha256 of the engine state, recorded with the element-pair row loops that
# inserted every row into every block
PINNED_L5 = {
    "Q": "6623ca7f21b18a3346aaa52e539a85b3e807b4c11ebb4db198ce268dca3e5d82",
    "GF3": "7723c57fc7ae7148a7af67c92f90c3e85ea3ee24ddc68cbdcc2377df6b6ed29f",
}
PINNED_R4_CAPPED = {
    "Q": "bd2aaef32075c00d795253e73c48ebbda341efdf6d44be70b58c17747ba9fcca",
    "GF101": "985a34184b7b96fe4c0d45586ef8a8bff9a82e8937098065685dae06fe63abef",
}


@pytest.mark.parametrize("name, field", [("Q", QQ), ("GF3", GF(3))])
def test_l5_engine_state_is_pinned(name, field):
    assert _state_digest(nilquot.sandwich_algebra(5, field=field)._engine) == PINNED_L5[name]


@pytest.mark.parametrize("name, field", [("Q", QQ), ("GF101", GF(101))])
def test_capped_r4_engine_state_is_pinned(name, field):
    assert _state_digest(nilquot._companion_engine(4, field)) == PINNED_R4_CAPPED[name]


def test_orbit_block_whose_rows_run_out_raises():
    """On two generators (0,2) is the first block of the orbit {(0,2), (2,0)};
    a (2,0) that gets no rows stays below its rank 1."""
    rows = nilquot._CoverEngine._block_rows

    def planted(self, d, md, esym):
        return iter(()) if md == (2, 0) else rows(self, d, md, esym)

    with mock.patch.object(nilquot._CoverEngine, "_block_rows", planted):
        with pytest.raises(nilquot.OrbitRankMismatch, match="reached rank 0"):
            nilquot.sandwich_algebra(2)
        # the verification mode reduces every block on its own rows, so the
        # fault shows only as a basis word [x_1, x_1]
        eng = nilquot._CoverEngine(2, extra_consistency=True)
        eng.extend()
        assert [b.word for elts in eng.blocks[2].values() for b in elts] == [(2, 1), (1, 1)]


def test_orbit_block_of_other_width_raises():
    """x_1 listed twice doubles the symbols of block (2,0) but not of (0,2)."""
    eng = nilquot._CoverEngine(2)
    eng.blocks[1][(1, 0)].append(eng.blocks[1][(1, 0)][0])
    with pytest.raises(nilquot.OrbitRankMismatch, match="has 2 symbols"):
        eng.extend()


class _JacobiRowBuilt(Exception):
    """Raised by the patched Jacobi row builders of ``_no_jacobi_rows``."""


def _no_jacobi_rows():
    """A patch under which building a Jacobi row raises ``_JacobiRowBuilt``."""

    def refuse(self, *args):
        raise _JacobiRowBuilt

    return mock.patch.multiple(nilquot._CoverEngine, _jacobi_row=refuse, _heavy_jacobi_rows=refuse)


def _orientation_blind_skip(self, u, v):
    """A planted fault: the skip of an expansion that always runs through
    the definition of z, blind to the orientation (any u' other than z)."""
    if u.order < v.order:
        u, v = v, u
    if u is v or u.degree == 1:
        return False
    g = self.gen_bracket[v.index * (self.r + 1) + u.gen]
    if len(g) != 1:
        return False
    z = self.basis[next(iter(g))]
    return z.parent is v and z.gen == u.gen and u.parent is not z


def _no_diagonal_pairs(self, u, v, zero_pair=nilquot._CoverEngine._zero_pair):
    """A planted fault: the diagonal pairs u = v are skipped too."""
    return u is v or zero_pair(self, u, v)


# (name, fast build, all-rows build) of the complete-family check
COMPLETE_FAMILY_CASES = [
    ("L%d-%r" % (r, f), lambda r=r, f=f: nilquot.sandwich_algebra(r, field=f)._engine,
     lambda r=r, f=f: _all_rows_engine(r, f))
    for f in (QQ, GF(3), GF(101)) for r in (1, 2, 3, 4)
] + [
    ("R%d" % r, lambda r=r: nilquot._companion_engine(r, QQ),
     lambda r=r: _all_rows_engine(r + 1, QQ, cap=(math.inf,) * r + (1,)))
    for r in (1, 2, 3)
] + [
    ("free3-6", lambda: free_nilpotent_quotient(3, 6)._engine,
     lambda: free_nilpotent_quotient(3, 6, extra_consistency=True)._engine),
]
CASES = {name: builds for name, *builds in COMPLETE_FAMILY_CASES}


def _state_or_mismatch(build):
    """``_engine_state`` of the engine ``build`` returns, or the message of
    the ``OrbitRankMismatch`` it raises."""
    try:
        return _engine_state(build())
    except nilquot.OrbitRankMismatch as exc:
        return str(exc)


@pytest.mark.parametrize("fast, slow", [c[1:] for c in COMPLETE_FAMILY_CASES],
                         ids=[c[0] for c in COMPLETE_FAMILY_CASES])
def test_complete_family_alone_matches_all_rows_engine(fast, slow):
    """Every block draws only the sandwich and two-sided antisymmetry rows,
    and no Jacobi row can be built; the blocks that stop at their orbit's
    rank reach it, and the engine state is that of the all-rows engine."""
    with _no_jacobi_rows():
        got = _engine_state(fast())
    assert got == _engine_state(slow())


def test_no_jacobi_row_is_built_outside_verification_mode():
    with _no_jacobi_rows():
        nilquot.sandwich_algebra(4)
        nilquot._companion_engine(3, QQ)
        free_nilpotent_quotient(3, 6)
        with pytest.raises(_JacobiRowBuilt):
            _all_rows_engine(4, QQ)


def test_unoriented_skip_rule_fails_the_complete_family_and_the_table(capsys):
    """Skipping a pair whenever [v, x_k] defines some z other than u' drops
    rows that are not zero: L_3 comes out too large, the blocks of L_4 miss
    their orbit's rank, and ``tables lr`` fails both as checks."""
    from extremal_lie import cli

    with mock.patch.object(nilquot._CoverEngine, "_zero_pair", _orientation_blind_skip):
        assert nilquot.sandwich_algebra(3).total_dim == 20
        for name in ("L3-QQ", "free3-6"):
            fast, slow = CASES[name]
            assert _state_or_mismatch(fast) != _engine_state(slow()), name
        code = cli.main(["--json", "tables", "lr", "--max-r", "4"])
    assert code == 1
    checks = {c["name"]: c["pass"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks == {
        "dim L_1": True,
        "dim L_2": True,
        "dim L_3": False,
        "dim L_4: block (1, 2, 1, 1) reached rank 4, its orbit's first block (1, 1, 1, 2) has 6": False,
    }


def _skipped_pair_rows(build):
    """Run ``build`` and return the canonical two-sided row of every pair
    the engine skipped, built when it was skipped through a fresh
    ``_Expansion`` of the engine."""
    zero_pair = nilquot._CoverEngine._zero_pair
    rows = []

    def recording(self, u, v):
        skip = zero_pair(self, u, v)
        if skip:
            rows.append(canonical(self.field, self._pair_row(u, v, nilquot._Expansion(self))))
        return skip

    with mock.patch.object(nilquot._CoverEngine, "_zero_pair", recording):
        build()
    return rows


@pytest.mark.parametrize("build, skips", [
    (lambda: nilquot.sandwich_algebra(1), 0),
    (lambda: nilquot.sandwich_algebra(2), 0),
    (lambda: nilquot.sandwich_algebra(3), 0),
    (lambda: nilquot.sandwich_algebra(4), 4),
    (lambda: nilquot.sandwich_algebra(5), 1683),
    (lambda: nilquot.sandwich_algebra(1, field=GF(3)), 0),
    (lambda: nilquot.sandwich_algebra(2, field=GF(3)), 0),
    (lambda: nilquot.sandwich_algebra(3, field=GF(3)), 0),
    (lambda: nilquot.sandwich_algebra(4, field=GF(3)), 4),
    (lambda: nilquot._companion_engine(1, QQ), 0),
    (lambda: nilquot._companion_engine(2, QQ), 0),
    (lambda: nilquot._companion_engine(3, QQ), 2),
    (lambda: nilquot._companion_engine(4, QQ), 209),
    (lambda: free_nilpotent_quotient(3, 6), 21),
], ids=["L1", "L2", "L3", "L4", "L5", "L1-GF3", "L2-GF3", "L3-GF3", "L4-GF3",
        "R1", "R2", "R3", "R4", "free3-6"])
def test_skipped_jacobi_instances_expand_to_zero(build, skips):
    """The two-sided row of a pair u > v, u = [u', x_k], is pi' of the
    definitional Jacobi instance D(v, u) = del(v ^ u' ^ x_k).  It is skipped
    when [v, x_k] defines z and u' > z, because it is then the zero dict."""
    rows = _skipped_pair_rows(build)
    assert len(rows) == skips
    assert all(row == {} for row in rows)


def test_skipped_jacobi_row_check_can_fail():
    """A wider skip drops rows that are not zero, and the check above sees
    it; the dropped rows change the engine state, or a block misses its
    orbit's rank."""

    def l3():
        return nilquot.sandwich_algebra(3)._engine

    def l4():
        return nilquot.sandwich_algebra(4)._engine

    def l5():
        return nilquot.sandwich_algebra(5)._engine

    def r3():
        return nilquot._companion_engine(3, QQ)

    def free36():
        return free_nilpotent_quotient(3, 6)._engine

    states = {build: _engine_state(build()) for build in (l3, l4, r3, free36)}
    with mock.patch.object(nilquot._CoverEngine, "_zero_pair", _orientation_blind_skip):
        assert any(_skipped_pair_rows(free36))
        for build in (l3, free36):
            assert _engine_state(build()) != states[build], build.__name__
        for build in (l4, r3):
            with pytest.raises(nilquot.OrbitRankMismatch):
                build()
    l5_digest = _state_digest(l5())
    with mock.patch.object(nilquot._CoverEngine, "_zero_pair", _no_diagonal_pairs):
        assert any(_skipped_pair_rows(l3))
        for build in (l3, l4, r3):
            assert _state_or_mismatch(build) != states[build], build.__name__
        assert _state_digest(l5()) != l5_digest


def test_zero_brackets_share_one_read_only_value():
    eng = nilquot.sandwich_algebra(4)._engine
    zeros = [vec for vec in eng.pair_memo.values() if not vec]
    assert zeros and all(vec is nilquot._ZERO for vec in zeros)
    u = eng.basis[0]
    assert eng.bracket_basis(u, u) is nilquot._ZERO
    with pytest.raises(TypeError):
        eng.bracket_basis(u, u)[u.index] = 1
    assert not nilquot._ZERO


def test_an_engine_is_freed_without_the_cycle_collector():
    """No expansion refers to itself, so an engine goes with its last
    reference and does not wait, with all its memos, for a collection."""
    gc.disable()
    try:
        full = weakref.ref(nilquot.sandwich_algebra(4)._engine)
        capped = weakref.ref(nilquot._companion_engine(3, QQ))
        assert full() is None and capped() is None
    finally:
        gc.enable()


def _rows_drawn(build):
    """How many relation rows ``_block_rows`` yields while ``build`` runs."""
    rows = nilquot._CoverEngine._block_rows
    drawn = [0]

    def counting(self, *args):
        for row in rows(self, *args):
            drawn[0] += 1
            yield row

    with mock.patch.object(nilquot._CoverEngine, "_block_rows", counting):
        build()
    return drawn[0]


def test_cheap_rows_first_row_counts_are_pinned():
    """Every block draws the sandwich rows, then the two-sided antisymmetry
    rows, and a pair whose row is zero by definition is never built: L_5
    draws 9,235 rows and the capped R_4 1,625.  Earlier engines drew more:
    13,137 and 1,863 when an orbit's representative drew the Jacobi rows
    in place of the antisymmetry rows (degree 3 and up), 18,703 and 2,447
    when it drew both, and 36,070 and 5,841 with the Jacobi rows second in
    every block and every Jacobi instance built."""
    assert _rows_drawn(lambda: nilquot.sandwich_algebra(5)) == 9235
    assert _rows_drawn(lambda: nilquot._companion_engine(4, QQ)) == 1625


def test_verification_mode_builds_every_jacobi_instance():
    assert _skipped_pair_rows(lambda: _all_rows_engine(4, QQ)) == []
    assert _skipped_pair_rows(lambda: free_nilpotent_quotient(3, 6, extra_consistency=True)) == []
