"""Each numpy kernel must agree exactly with its scalar loop reference.

The loops below, and the rank reference ``conftest.rank_mod_loop``, compute
in Python integers, so they cannot overflow; the primes run up to the
largest one whose residue products fit in int64.
"""

import hashlib
import math
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import rank_mod_loop
from gincomplex import _kernels
from gincomplex import poly as poly_module
from gincomplex.errors import ConfigurationError, GincomplexError
from gincomplex.gin import random_change
from gincomplex.groebner import _ChainedCover, buchberger_trials
from gincomplex.poly import (
    GLEX,
    GREVLEX,
    factor_change,
    table_for,
)
from gincomplex.rng import SplitMix64

P = 32003
PRIMES = [7, 32003, 3037000493]


# -- scalar references ------------------------------------------------------

def _reduce_dense_loop(vec, table_exps, table_keys, lead_exps, tails, p):
    """Reference for ``_kernels.reduce_dense``: scans every row, in place."""
    keys = table_keys.tolist()
    exps = table_exps.tolist()
    leads = lead_exps.tolist()
    for idx in range(len(keys)):
        c = int(vec[idx])
        if c == 0:
            continue
        red = next((j for j, lead in enumerate(leads)
                    if all(a <= b for a, b in zip(lead, exps[idx]))), None)
        if red is None:
            continue
        vec[idx] = 0
        rel_keys, coeffs = tails[red]
        for rel, cf in zip(rel_keys.tolist(), coeffs.tolist()):
            lo = bisect_left(keys, keys[idx] + rel)
            vec[lo] = (int(vec[lo]) - c * cf) % p


def _transvect_loop(block, exp_col, table_keys, wdelta, binom_c, p):
    """Reference for ``_kernels.transvect``: slice by slice, term by term.

    Each term of a slice's old coefficients is added to the rows it moves
    to, found by bisection on the keys; ``block`` is updated in place.
    """
    keys = table_keys.tolist()
    for vec in block:
        for idx, v in enumerate(vec.tolist()):
            if v == 0:
                continue
            e = int(exp_col[idx])
            for k in range(1, e + 1):
                lo = bisect_left(keys, keys[idx] + k * wdelta)
                vec[lo] = (int(vec[lo]) + v * int(binom_c[e, k])) % p


def _transvection_by_search(tab, i, j):
    """A table's transvection plan, one ``searchsorted`` per entry."""
    shift = int(tab.weights[j] - tab.weights[i])
    entries = sorted(
        (int(np.searchsorted(tab.keys, tab.keys[r] + k * shift)), r,
         e * (tab.degree + 1) + k)
        for r, e in enumerate(tab.exps[:, i].tolist())
        for k in range(1, e + 1))
    targets = [t for t, _, _ in entries]
    starts = [n for n, t in enumerate(targets)
              if n == 0 or t != targets[n - 1]]
    return ([r for _, r, _ in entries], [c for _, _, c in entries], starts,
            [targets[n] for n in starts])


# -- random inputs ------------------------------------------------------------

def _entry(rng, p):
    """A residue: uniform, or one of the top few, whose products are largest."""
    if rng.below(2):
        return rng.below(p)
    return p - 1 - rng.below(min(p, 3))


def _random_pack(rng, nvars, degree, order, nred, p, trials=1):
    """Degree slices plus monic reducers of degree <= ``degree`` + 1.

    There are ``trials`` slices, one per row, and each tail has one row of
    coefficients per trial over shared keys; a trial lacks a tail term
    where its coefficient is 0.  Each tail monomial comes after its lead in
    the order, as in a basis, so every shifted tail lands on a later row of
    the slice.  A reducer of degree ``degree`` + 1 divides no row of the
    slice.
    """
    tab = table_for(nvars, degree, order)
    vecs = np.zeros((trials, len(tab)), dtype=np.int64)
    for vec in vecs:
        for _ in range(len(tab) // 2 + 1):
            vec[rng.below(len(tab))] = _entry(rng, p)
    lead_rows, tails = [], []
    for _ in range(nred):
        low = table_for(nvars, 1 + rng.below(degree + 1), order)
        lead = rng.below(len(low))
        lead_rows.append(low.exps[lead])
        later = range(lead + 1, len(low))
        rows = sorted({later[rng.below(len(later))]
                       for _ in range(rng.below(6))}) if later else []
        coeffs = [[_entry(rng, p) if t == 0 or rng.below(4) else 0
                   for _ in rows] for t in range(trials)]
        tails.append((low.keys[rows] - low.keys[lead],
                      np.array(coeffs, dtype=np.int64).reshape(trials, -1)))
    return tab, vecs, np.array(lead_rows, dtype=np.int64), tails


def _divisible_rows(table_exps, lead_exps):
    """Rows some lead divides, tested on plain tuples."""
    leads = [tuple(lead) for lead in lead_exps.tolist()]
    return np.array([any(all(a <= b for a, b in zip(lead, row))
                         for lead in leads)
                     for row in table_exps.tolist()], dtype=bool)


# -- kernel against loop ------------------------------------------------------

def _block(vecs):
    """Slices, one per row, as the kernel's trial-major block (a copy)."""
    return vecs.T.copy(order="F")


def _trial_tails(tails, trial):
    """The 1D tails of one trial, as the loop reads them."""
    return [(keys, np.atleast_2d(coeffs)[trial]) for keys, coeffs in tails]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("order", [GLEX, GREVLEX], ids=["glex", "grevlex"])
def test_reduce_dense_matches_loop(order, p):
    rng = SplitMix64(404)
    above = 0
    for trial in range(20):
        tab, vecs, lexp, tails = _random_pack(
            rng, 3 + trial % 2, 2 + trial % 4, order, 1 + trial % 4, p,
            trials=1 + trial % 3)
        high = lexp[lexp.sum(axis=1) > tab.degree]
        above += len(high)
        assert not _ChainedCover(tab.nvars, order, high).mask(
            tab.degree).any()
        reducible = _divisible_rows(tab.exps, lexp)
        # the chained cover behind the backend's masks marks the same rows
        assert (_ChainedCover(tab.nvars, order, lexp).mask(tab.degree)
                == reducible).all()
        loops = vecs.copy()
        for t, loop in enumerate(loops):
            _reduce_dense_loop(loop, tab.exps, tab.keys, lexp,
                               _trial_tails(tails, t), p)
        # a mask that marks every row only costs time
        for mask in (reducible, np.ones(len(tab), dtype=bool)):
            kernel = _block(vecs)
            _kernels.reduce_dense(kernel, tab.exps, tab.keys, mask, lexp,
                                  tails, p)
            # each trial's column is its own slice's loop result
            assert (kernel.T == loops).all()
    assert above > 0


def _check_reduce_dense(tab, vec, lead_exps, tails, p):
    """Check the kernel against the loop under the exact and the all-True
    mask, and return the loop's result; ``vec`` is left as it was.

    ``vec`` is one slice and each tail's coefficients one 1D array, or
    ``vec`` holds one slice per row and each tail one coefficient row per
    trial.  The kernel reduces all trials as one block, and each trial's
    column must equal the loop on that trial's slice and tails.
    """
    vecs = np.atleast_2d(vec)
    block_tails = [(keys, np.atleast_2d(cf)) for keys, cf in tails]
    loops = vecs.copy()
    for t, loop in enumerate(loops):
        _reduce_dense_loop(loop, tab.exps, tab.keys, lead_exps,
                           _trial_tails(block_tails, t), p)
    for mask in (_divisible_rows(tab.exps, lead_exps),
                 np.ones(len(tab), dtype=bool)):
        kernel = _block(vecs)
        _kernels.reduce_dense(kernel, tab.exps, tab.keys, mask, lead_exps,
                              block_tails, p)
        assert (kernel.T == loops).all()
    return loops.reshape(np.shape(vec))


def _hand_pack(nvars, degree, reducers, entries, p):
    """A graded-lex pack from exponent tuples.

    ``reducers`` lists (lead, [(tail monomial, coefficient)]), tails in
    term order, and ``entries`` maps monomials of the slice to residues.
    """
    tab = table_for(nvars, degree, GLEX)
    weights = GLEX.index_weights(nvars)
    vec = np.zeros(len(tab), dtype=np.int64)
    for mono, value in entries.items():
        vec[tab.rows(np.array(mono, dtype=np.int64))] = value % p
    leads = np.array([lead for lead, _ in reducers],
                     dtype=np.int64).reshape(-1, nvars)
    tails = []
    for lead, tail in reducers:
        monos = np.array([m for m, _ in tail],
                         dtype=np.int64).reshape(-1, nvars)
        tails.append((monos @ weights - np.dot(lead, weights),
                      np.array([c % p for _, c in tail], dtype=np.int64)))
    return tab, vec, leads, tails


def _only(tab, entries, p):
    """The slice holding ``entries`` and zeros elsewhere."""
    return _hand_pack(tab.nvars, tab.degree, [], entries, p)[1]


# x0 - x1 and x1 - x2, in three variables
X0_X1 = ((1, 0, 0), [((0, 1, 0), -1)])
X1_X2 = ((0, 1, 0), [((0, 0, 1), -1)])


@pytest.mark.parametrize("p", PRIMES)
def test_reduce_dense_closure_takes_a_zero_row_in_a_later_round(p):
    # x0^3 -> x0^2 x1 -> x0 x1^2 -> x1^3: each step lands on a marked row
    # that was zero, so the closure grows over three rounds
    tab, vec, leads, tails = _hand_pack(3, 3, [X0_X1], {(3, 0, 0): 5}, p)
    got = _check_reduce_dense(tab, vec, leads, tails, p)
    assert (got == _only(tab, {(0, 3, 0): 5}, p)).all()


@pytest.mark.parametrize("p", PRIMES)
def test_reduce_dense_solve_carries_a_multiple_forward(p):
    # x0^2 and x0 x1 are both nonzero, and the tail of x0^2's reducer lands
    # on x0 x1, whose multiple becomes 3 + 4
    tab, vec, leads, tails = _hand_pack(
        3, 2, [X0_X1], {(2, 0, 0): 3, (1, 1, 0): 4, (0, 0, 2): 1}, p)
    got = _check_reduce_dense(tab, vec, leads, tails, p)
    assert (got == _only(tab, {(0, 2, 0): 7, (0, 0, 2): 1}, p)).all()


@pytest.mark.parametrize("p", PRIMES)
def test_reduce_dense_takes_a_row_two_tails_land_on_once(p):
    # x0 x2 (by x0 - x1) and x1^2 (by x1 - x2) both land on x1 x2, which
    # was zero and joins the next round once, with multiple 2 + 1
    tab, vec, leads, tails = _hand_pack(
        3, 2, [X0_X1, X1_X2], {(1, 0, 1): 2, (0, 2, 0): 1}, p)
    got = _check_reduce_dense(tab, vec, leads, tails, p)
    assert (got == _only(tab, {(0, 0, 2): 3}, p)).all()


@pytest.mark.parametrize("p", PRIMES)
def test_reduce_dense_closure_of_one_row(p):
    # x0^2 + 2 x2^2: one elimination, whose tail lands on an unmarked row
    tab, vec, leads, tails = _hand_pack(
        3, 2, [((2, 0, 0), [((0, 0, 2), 2)])],
        {(2, 0, 0): 3, (0, 1, 1): 4, (0, 0, 2): 1}, p)
    got = _check_reduce_dense(tab, vec, leads, tails, p)
    assert (got == _only(tab, {(0, 1, 1): 4, (0, 0, 2): 1 - 6}, p)).all()


@pytest.mark.parametrize("p", PRIMES)
def test_reduce_dense_leaves_a_slice_with_no_marked_nonzero_row(p):
    for entries in ({(0, 1, 1): p - 1, (0, 0, 2): 2}, {}):
        tab, vec, leads, tails = _hand_pack(3, 2, [X0_X1], entries, p)
        before = vec.copy()
        assert (_check_reduce_dense(tab, vec, leads, tails, p)
                == before).all()
    # and no reducer at all
    tab, vec, leads, tails = _hand_pack(3, 2, [], {(2, 0, 0): 1}, p)
    kernel = _block(vec[None])
    _kernels.reduce_dense(kernel, tab.exps, tab.keys,
                          np.ones(len(tab), dtype=bool), leads, tails, p)
    assert (kernel[:, 0] == vec).all()


@pytest.mark.parametrize("p", PRIMES)
def test_reduce_dense_all_true_mask_leaves_indivisible_rows(p):
    # every row is marked, but only the rows x0 or x1 divides are reduced;
    # x1 - x2 comes first, so x0 x1 takes it
    tab, vec, leads, tails = _hand_pack(
        3, 2, [X1_X2, X0_X1],
        {(2, 0, 0): 1, (1, 1, 0): p - 2, (0, 0, 2): 6}, p)
    got = _check_reduce_dense(tab, vec, leads, tails, p)
    # x0^2 -> x0 x1, whose multiple p - 1 goes to x0 x2 -> x1 x2 -> x2^2
    assert (got == _only(tab, {(0, 0, 2): 5}, p)).all()


@st.composite
def _packs(draw):
    """Degree slices of 1-3 trials, 1-6 monic reducers and a prime.

    Each tail monomial comes after its lead, so every shifted tail lands on
    a later row; the trials share the tail keys, and a trial lacks a tail
    term where its coefficient is 0.  The residues lean towards p - 1,
    whose products are the largest.
    """
    nvars = draw(st.integers(2, 5))
    degree = draw(st.integers(0, 6))
    order = draw(st.sampled_from([GLEX, GREVLEX]))
    p = draw(st.sampled_from(PRIMES))
    trials = draw(st.integers(1, 3))
    residue = st.one_of(st.integers(1, p - 1), st.integers(max(1, p - 3),
                                                           p - 1))
    tab = table_for(nvars, degree, order)
    vecs = np.zeros((trials, len(tab)), dtype=np.int64)
    for vec in vecs:
        entries = draw(st.dictionaries(st.integers(0, len(tab) - 1),
                                       residue))
        vec[list(entries)] = list(entries.values())
    leads, tails = [], []
    for _ in range(draw(st.integers(1, 6))):
        low = table_for(nvars, draw(st.integers(1, degree + 1)), order)
        lead = draw(st.integers(0, len(low) - 1))
        rows = sorted(draw(st.sets(st.integers(lead + 1, len(low) - 1),
                                   max_size=6))) if lead + 1 < len(low) else []
        leads.append(low.exps[lead])
        coeffs = [[draw(residue) if t == 0 else draw(st.just(0) | residue)
                   for _ in rows] for t in range(trials)]
        tails.append((low.keys[rows] - low.keys[lead],
                      np.array(coeffs, dtype=np.int64).reshape(trials, -1)))
    return tab, vecs, np.array(leads, dtype=np.int64), tails, p


@given(_packs())
def test_reduce_dense_matches_loop_property(pack):
    _check_reduce_dense(*pack)


def test_reduce_dense_matches_loop_on_a_buchberger_run(store, monkeypatch):
    # one plain ci23 glex run, then two moved copies in lockstep
    ideal = store.ideal("ci23")
    kernel = _kernels.reduce_dense
    for trials in (1, 2):
        moves = [random_change(2024 + t, ideal.nvars,
                               ideal.p).apply_ideal(ideal)
                 for t in range(trials)]
        calls = []

        def recording(block, table_exps, table_keys, reducible, lead_exps,
                      tails, p):
            # the backend replaces tails and extends masks as the run goes
            before = (block.copy(), table_exps, table_keys, lead_exps,
                      list(tails), p)
            kernel(block, table_exps, table_keys, reducible, lead_exps,
                   tails, p)
            calls.append((before, block.copy()))

        monkeypatch.setattr(_kernels, "reduce_dense", recording)
        assert len(buchberger_trials(moves, GLEX)) == trials
        assert len(calls) > 20
        for (block, exps, keys, leads, tails, p), after in calls:
            # every call of the run reduced all trials together
            assert block.shape == (len(keys), trials)
            for t in range(trials):
                vec = block[:, t].copy()
                _reduce_dense_loop(vec, exps, keys, leads,
                                   _trial_tails(tails, t), p)
                assert (vec == after[:, t]).all()


def _check_chained_cover(nvars, order, leads):
    """Both ways of feeding ``leads`` give the divisibility masks."""
    top = max(int(lead.sum()) for lead in leads)

    def divisible(tab, known):
        known = np.array(known, dtype=np.int64).reshape(-1, nvars)
        return _divisible_rows(tab.exps, known)

    # every lead known up front, degrees read from the bottom up and from
    # the top down
    for degrees in (range(top + 3), range(top + 2, -1, -1)):
        static = _ChainedCover(nvars, order, leads)
        for d in degrees:
            tab = table_for(nvars, d, order)
            assert (static.mask(d) == divisible(tab, leads)).all()
    # the engine's way: an empty cover, each degree's mask read before that
    # degree's lead rows are marked in it
    cover = _ChainedCover(nvars, order)
    for d in range(top + 3):
        tab = table_for(nvars, d, order)
        below = [lead for lead in leads if lead.sum() < d]
        assert (cover.mask(d) == divisible(tab, below)).all()
        for lead in leads:
            if lead.sum() == d:
                cover.mark(d, int(tab.rows(lead)))
        known = [lead for lead in leads if lead.sum() <= d]
        assert (cover.mask(d) == divisible(tab, known)).all()


def _check_cover_cases(order):
    # leads at a few scattered degrees, so some degrees in between and every
    # degree below the lowest have none
    rng = SplitMix64(505)
    for trial in range(36):
        nvars = 1 + trial % 6
        degrees = sorted({1 + rng.below(7) for _ in range(1 + rng.below(3))})
        leads = []
        for d in degrees:
            tab = table_for(nvars, d, order)
            leads.extend(tab.exps[rng.below(len(tab))]
                         for _ in range(1 + rng.below(3)))
        _check_chained_cover(nvars, order, leads)
    # the unit ideal: a degree-0 lead covers every row, with or without
    # leads above it
    for nvars in range(1, 7):
        unit = np.zeros(nvars, dtype=np.int64)
        _check_chained_cover(nvars, order, [unit])
        _check_chained_cover(nvars, order,
                             [unit, table_for(nvars, 2, order).exps[0]])


@pytest.mark.parametrize("order", [GLEX, GREVLEX], ids=["glex", "grevlex"])
def test_chained_cover_matches_divisibility(order, monkeypatch):
    _check_cover_cases(order)
    # again on an empty cache with a budget of one row: each new table
    # evicts every other, so chain steps read tables that the cache has
    # dropped and rebuilt
    monkeypatch.setattr(poly_module, "_TABLE_CACHE", {})
    monkeypatch.setattr(poly_module, "_table_rows", 0)
    monkeypatch.setattr(poly_module, "_TABLE_ROW_BUDGET", 1)
    _check_cover_cases(order)


def test_chained_cover_rejects_a_mark_off_the_chained_top():
    cover = _ChainedCover(3, GLEX, [(1, 1, 0)])
    assert cover.mask(3).sum() == 3
    # at the chained degree a lead row marks its own row
    tab = table_for(3, 3, GLEX)
    cover.mark(3, int(tab.rows(np.array([0, 0, 3]))))
    assert cover.mask(3).sum() == 4
    # below it a kept mask would go stale, and above it there is no mask
    for degree in (2, 4):
        with pytest.raises(GincomplexError, match="chained to degree 3"):
            cover.mark(degree, 0)
    assert cover.mask(3).sum() == 4


def test_chained_cover_refuses_a_dropped_degree():
    cover = _ChainedCover(3, GLEX, [(1, 1, 0)])
    top = cover.mask(5).copy()
    cover.drop_below(4)
    assert sorted(cover._masks) == [4, 5]
    assert (cover.mask(5) == top).all()
    # a dropped mask, or one below where the chain began, is not all False
    for degree in (0, 2, 3):
        with pytest.raises(GincomplexError, match="dropped"):
            cover.mask(degree)
    assert (cover.mask(6) == (table_for(3, 6, GLEX).exps[:, :2] >= 1)
            .all(axis=1)).all()


def _binom_c(degree, c, p):
    """C(n, k) * c^k mod p for n, k <= degree."""
    return np.array([[math.comb(n, k) * pow(c, k, p) % p
                      for k in range(degree + 1)]
                     for n in range(degree + 1)], dtype=np.int64)


@pytest.mark.parametrize("p", PRIMES)
def test_transvect_matches_loop(p):
    rng = SplitMix64(808)
    for trial in range(20):
        nvars = 3 + trial % 3
        degree = 2 + trial % 5
        tab = table_for(nvars, degree, GLEX)
        vec = np.zeros(len(tab), dtype=np.int64)
        for _ in range(len(tab) // 2 + 1):
            vec[rng.below(len(tab))] = _entry(rng, p)
        i = rng.below(nvars)
        j = (i + 1 + rng.below(nvars - 1)) % nvars
        c = 1 + _entry(rng, p - 1)
        binom_c = _binom_c(degree, c, p)
        wdelta = int(tab.weights[j] - tab.weights[i])
        col = np.ascontiguousarray(tab.exps[:, i])
        kernel = vec[None, None, :].copy()
        loop = vec[None, :].copy()
        _kernels.transvect(kernel, tab.transvection(i, j),
                           binom_c.reshape(1, -1), p)
        _transvect_loop(loop, col, tab.keys, wdelta, binom_c, p)
        assert (kernel[0] == loop).all()


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("order", [GLEX, GREVLEX], ids=["glex", "grevlex"])
def test_transvect_moves_a_block_of_slices(order, p):
    # 1-3 trials, each with its own c (0 among them), of dense, sparse and
    # zero slices side by side; each slice moves as it would alone
    rng = SplitMix64(818)
    for trial in range(12):
        nvars = 2 + trial % 4
        degree = 1 + trial % 6
        trials = 1 + trial % 3
        tab = table_for(nvars, degree, order)
        block = np.zeros((trials, 1 + rng.below(5), len(tab)),
                         dtype=np.int64)
        for row in block[:, 1:].reshape(-1, len(tab)):
            for _ in range(1 + rng.below(len(tab))):
                row[rng.below(len(tab))] = _entry(rng, p)
        i = rng.below(nvars)
        j = (i + 1 + rng.below(nvars - 1)) % nvars
        # every other case, trial 0 has c = 0: the identity
        binoms = [_binom_c(degree, 0 if t == 0 and trial % 2
                           else 1 + _entry(rng, p - 1), p)
                  for t in range(trials)]
        binom_c = np.array([b.ravel() for b in binoms])
        plan = tab.transvection(i, j)
        kernel = block.copy()
        _kernels.transvect(kernel, plan, binom_c, p)
        for t, binom in enumerate(binoms):
            loop = block[t].copy()
            _transvect_loop(loop, tab.exps[:, i], tab.keys,
                            int(tab.weights[j] - tab.weights[i]), binom, p)
            assert (kernel[t] == loop).all()
            assert not kernel[t, 0].any()
            for row, moved in zip(block[t], kernel[t]):
                alone = row[None, None, :].copy()
                _kernels.transvect(alone, plan, binom.reshape(1, -1), p)
                assert (alone[0, 0] == moved).all()


def test_transvect_on_a_degree_zero_table_is_the_identity():
    for nvars in (2, 4):
        tab = table_for(nvars, 0, GREVLEX)
        for i in range(nvars):
            for j in range(nvars):
                if i == j:
                    continue
                plan = tab.transvection(i, j)
                assert all(a.dtype == np.intp and a.shape == (0,)
                           for a in plan)
                block = np.array([[[5], [0], [P - 1]]] * 2, dtype=np.int64)
                binom_c = np.array([_binom_c(0, c, P).ravel()
                                    for c in (3, 4)])
                _kernels.transvect(block, plan, binom_c, P)
                assert block.ravel().tolist() == [5, 0, P - 1] * 2


@pytest.mark.parametrize("order", [GLEX, GREVLEX], ids=["glex", "grevlex"])
def test_transvection_plan_is_cached_and_matches_a_search(order,
                                                          monkeypatch):
    for nvars in range(2, 5):
        for degree in range(5):
            tab = table_for(nvars, degree, order)
            for i in range(nvars):
                for j in range(nvars):
                    if i == j:
                        continue
                    plan = tab.transvection(i, j)
                    assert tab.transvection(i, j) is plan
                    assert all(a.dtype == np.intp for a in plan)
                    want = _transvection_by_search(tab, i, j)
                    assert [a.tolist() for a in plan] == list(want)
    # the plans live on the table: one rebuilt after eviction builds its own
    monkeypatch.setattr(poly_module, "_TABLE_CACHE", {})
    monkeypatch.setattr(poly_module, "_table_rows", 0)
    monkeypatch.setattr(poly_module, "_TABLE_ROW_BUDGET", 20)
    cubics = table_for(3, 3, GLEX)                  # 10 rows
    plan = cubics.transvection(0, 2)
    table_for(3, 4, GLEX)                           # 15: evicts the cubics
    rebuilt = table_for(3, 3, GLEX)
    assert rebuilt is not cubics
    assert rebuilt.transvection(0, 2) is not plan
    assert ([a.tolist() for a in rebuilt.transvection(0, 2)]
            == [a.tolist() for a in plan])


def _product(rng, rows, inner, cols, p):
    """A rows x cols matrix through ``inner`` columns, so of rank <= inner."""
    left = [[_entry(rng, p) for _ in range(inner)] for _ in range(rows)]
    right = [[_entry(rng, p) for _ in range(cols)] for _ in range(inner)]
    return np.array([[sum(a * b for a, b in zip(row, col)) % p
                      for col in zip(*right)] for row in left],
                    dtype=np.int64).reshape(rows, cols)


# rank_mod's update budget is 2 at 2147483647 and 9 at 1000000007, so these
# primes run its deferred reduction of the trailing block between the
# every-step reduction at 3037000493 and none at all at 32003
RANK_PRIMES = PRIMES + [2147483647, 1000000007]


@pytest.mark.parametrize("p", RANK_PRIMES)
def test_rank_mod_matches_loop(p):
    rng = SplitMix64(909)
    ranks = []
    for trial in range(40):
        if trial < 30:
            rows = 1 + rng.below(12)
            cols = 1 + rng.below(12)
            inner = 1 + rng.below(min(rows, cols) + 1)
        else:
            # more pivots than a budget of 9 allows between reductions
            rows = 12 + rng.below(7)
            cols = 12 + rng.below(7)
            inner = min(rows, cols) - rng.below(2)
        mat = _product(rng, rows, inner, cols, p)
        rank = _kernels.rank_mod(mat.copy(), p)
        assert rank == rank_mod_loop(mat, p)
        assert rank <= min(rows, cols, inner)
        ranks.append(rank)
    budget = _kernels._update_budget(p)
    if budget < 10:
        assert sum(r > budget + 1 for r in ranks) >= 10


def _square(rng, p, size=6):
    """A square matrix of 1..size rows: uniform, sparse, or of deficient rank."""
    n = 1 + rng.below(size)
    kind = rng.below(3)
    if kind == 0:
        return [[rng.below(p) for _ in range(n)] for _ in range(n)]
    if kind == 1:
        return [[_entry(rng, p) if rng.below(2) else 0 for _ in range(n)]
                for _ in range(n)]
    inner = 1 + rng.below(n - 1) if n > 1 and rng.below(2) else n
    return _product(rng, n, inner, n, p).tolist()


@pytest.mark.parametrize("p", PRIMES)
def test_factor_change_matches_loop(p):
    """A factorization exists exactly when the reference rank is full."""
    rng = SplitMix64(1010)
    singular = 0
    for _ in range(10_000):
        m = _square(rng, p)
        factored = factor_change(m, p)
        assert (factored is None) == (rank_mod_loop(m, p) < len(m))
        singular += factored is None
    assert 1_000 < singular < 9_000


# sha256 over repr(factor_change(m, p)) of 300 matrices of 1..8 rows per
# prime, drawn by _square from seed 1111, among them singular ones and ones
# whose pivots need a row swap.  It pins the steps themselves, which
# GOLDEN_MOVES_SHA256 does not: any correct factorization moves an ideal
# the same way.
GOLDEN_FACTOR_CHANGE_SHA256 = (
    "26fb097c6eeb098a227ba8e6599966fad976f73f1be7dd4cf0f25a90caf87b51")


def test_factor_change_is_pinned():
    digest = hashlib.sha256()
    singular = swapped = 0
    for p in PRIMES:
        rng = SplitMix64(1111)
        for _ in range(300):
            factored = factor_change(_square(rng, p, size=8), p)
            singular += factored is None
            swapped += factored is not None and any(
                op[0] == "perm" for op in factored[0])
            digest.update(repr(factored).encode())
    assert singular >= 50 and swapped >= 50
    assert digest.hexdigest() == GOLDEN_FACTOR_CHANGE_SHA256


def _matmul_loop(a, b, p):
    """Reference for ``_kernels.matmul_mod``: Python-int dot products."""
    cols = b.T.tolist()
    return [[sum(x * y for x, y in zip(row, col)) % p for col in cols]
            for row in a.tolist()]


# one 16-bit limb up to 65521, two from 65537 on
@pytest.mark.parametrize("p", [7, 65521, 65537, 32003, 3037000493])
def test_matmul_mod_matches_python_ints(p):
    rng = np.random.default_rng(p)
    for rows, inner, cols in ((1, 1, 1), (3, 5, 4), (0, 4, 2), (4, 0, 3),
                              (6, 3000, 5)):
        a = rng.integers(0, p, (rows, inner))
        b = rng.integers(0, p, (inner, cols))
        out = _kernels.matmul_mod(a, b, p)
        assert out.dtype == np.int64 and out.shape == (rows, cols)
        assert out.tolist() == _matmul_loop(a, b, p)
    # every entry p - 1: the largest limb products and sums
    a = np.full((3, 4000), p - 1, dtype=np.int64)
    b = np.full((4000, 2), p - 1, dtype=np.int64)
    assert _kernels.matmul_mod(a, b, p).tolist() == _matmul_loop(a, b, p)
    # views, as the Macaulay oracle passes a column slice
    wide = rng.integers(0, p, (5, 9))
    assert _kernels.matmul_mod(wide[:, :4], wide[:4], p).tolist() == \
        _matmul_loop(wide[:, :4], wide[:4], p)


def test_matmul_mod_refuses_an_inner_dimension_of_2_21():
    # zero-stride views: the shape is checked before any data is read
    a = np.broadcast_to(np.int64(1), (1, 2**21))
    b = np.broadcast_to(np.int64(1), (2**21, 1))
    with pytest.raises(ConfigurationError, match="2097152"):
        _kernels.matmul_mod(a, b, P)
    with pytest.raises(ConfigurationError, match="3037000493"):
        _kernels.matmul_mod(a[:, :2], b[:2], 3037000507)


def test_rank_identity_and_singular():
    eye = np.eye(5, dtype=np.int64)
    assert _kernels.rank_mod(eye.copy(), P) == 5
    sing = np.ones((4, 4), dtype=np.int64)
    assert _kernels.rank_mod(sing.copy(), P) == 1
    scaled = (np.eye(3, dtype=np.int64) * P)
    assert _kernels.rank_mod(scaled.copy(), P) == 0
    # eliminating leaves 2 - 3 * 3 = -7 below the pivot: zero mod 7 though
    # not reduced, so the column is reduced before its pivot is sought
    assert _kernels.rank_mod(np.array([[1, 3], [3, 2]]), 7) == 1
    assert _kernels.rank_mod(np.array([[1, 3, 0], [3, 2, 1]]), 7) == 2


def test_rank_mod_budgets():
    assert [_kernels._update_budget(p) for p in
            (3037000493, 2147483647, 1000000007)] == [1, 2, 9]
    for p in RANK_PRIMES:
        # the largest k with p + k (p - 1)^2 within int64
        k = _kernels._update_budget(p)
        assert p + k * (p - 1) ** 2 <= 2**63 - 1 < p + (k + 1) * (p - 1) ** 2
