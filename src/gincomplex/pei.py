"""Partial elimination ideals extracted from a graded-lex Groebner basis.

For an element f with graded-lex leading x0-power t, write f = x0^t*fbar + g
with every term of g of strictly smaller x0-power; the i-th stratum collects
the images fbar in the ring without x0.  Extraction with the strict filter
t == i is only a Groebner basis in generic coordinates, which is why the
non-generic monomial counterexample ships as a permanent regression target;
the relaxed filter t <= i works in any coordinates.
"""

from dataclasses import dataclass

from .errors import ConfigurationError, NonBorelGinError
from .gin import (
    DEFAULT_MIN_AGREE,
    DEFAULT_SEED_BASE,
    DEFAULT_TRIAL_BUDGET,
    gin,
    saturate_irrelevant,
)
from .groebner import MonomialIdeal, hilbert_function_macaulay, ideals_equal
from .poly import GLEX, Ideal, Polynomial

MODE_EQUAL = "equal"
MODE_UPTO = "upto"

# stratum sub-seeds stay disjoint from the main trial seeds, which advance
# by 1 per trial
_STRATUM_SEED_STEP = 1000


@dataclass(frozen=True)
class PartialEliminationData:
    """One stratum: its index, extraction mode and generators.

    The generators live in a ring with one variable fewer; reports keep the
    ambient labels by shifting indices up by one.
    """

    index: int
    mode: str
    ideal: Ideal
    is_full_ring: bool


def partial_elimination(gb, index, mode=MODE_EQUAL, generic=False):
    """Stratum ``index`` of a reduced graded-lex basis.

    mode "equal" keeps elements with leading x0-power exactly ``index`` and
    is a Groebner basis of the stratum only in generic coordinates -- the
    caller asserts that via ``generic=True``.  mode "upto" keeps powers up to
    ``index`` and is a basis in any coordinates.
    """
    if gb.order is not GLEX:
        raise ConfigurationError("partial elimination needs a graded-lex basis")
    if not gb.reduced:
        raise ConfigurationError("partial elimination needs a reduced basis")
    if gb.nvars < 2:
        raise ConfigurationError("quotient ring needs at least one variable")
    if mode not in (MODE_EQUAL, MODE_UPTO):
        raise ConfigurationError(f"unknown extraction mode {mode!r}")
    if mode == MODE_EQUAL and not generic:
        raise ConfigurationError(
            "mode 'equal' is a Groebner basis only in generic coordinates; "
            "pass generic=True to assert that (the gin pipeline does)")
    if index < 0:
        raise ConfigurationError("stratum index must be nonnegative")
    gens = []
    for f in gb.elements:
        t = f.d0()
        take = (t == index) if mode == MODE_EQUAL else (t <= index)
        if not take:
            continue
        top = f.exps[:, 0] == t
        gens.append(Polynomial.from_terms(
            ((tuple(e[1:]), c) for e, c in
             zip(f.exps[top].tolist(), f.coeffs[top].tolist())),
            f.nvars - 1, f.p, GLEX))
    ideal = Ideal(gens, gb.nvars - 1, gb.p)
    is_full = any(g.degree == 0 for g in gens)
    return PartialEliminationData(index, mode, ideal, is_full)


def beta(gb):
    """Smallest degree of a nonzero element, from the reduced basis."""
    return gb.min_degree()


@dataclass(frozen=True)
class Stratum:
    index: int
    data: PartialEliminationData
    gin: MonomialIdeal
    complexity: int


@dataclass(frozen=True)
class RecombinationResult:
    value: int
    beta: int
    strata: tuple
    seeds: tuple


def recombine_m(ideal, seed_base=DEFAULT_SEED_BASE,
                min_agree=DEFAULT_MIN_AGREE,
                trial_budget=DEFAULT_TRIAL_BUDGET,
                gin_result=None):
    """M(I) recomputed as max over strata of (stratum complexity + index).

    The ideal is moved to generic coordinates first (reusing ``gin_result``
    when the caller already stabilized one); each proper stratum then gets
    its own gin in the smaller ring.  Must agree with the direct graded-lex
    degree complexity.
    """
    result = gin_result
    if result is None:
        result = gin(ideal, GLEX, seed_base, min_agree, trial_budget)
    gb = result.basis
    b = beta(gb)
    nsub = gb.nvars - 1
    strata = []
    best = 0
    for i in range(b + 1):
        data = partial_elimination(gb, i, MODE_EQUAL, generic=True)
        if data.is_full_ring:
            sub_gin = MonomialIdeal([(0,) * nsub], nsub)
            complexity = 0
        elif data.ideal.is_zero:
            sub_gin = MonomialIdeal([], nsub)
            complexity = 0
        else:
            sub = gin(data.ideal, GLEX,
                      seed_base + _STRATUM_SEED_STEP * (i + 1),
                      min_agree, trial_budget)
            if not sub.borel:
                raise NonBorelGinError(
                    f"stratum {i} stabilized on a non-Borel initial ideal; "
                    "rerun with a different prime or seed base")
            sub_gin = sub.gin
            complexity = sub_gin.regularity()
        best = max(best, complexity + i)
        strata.append(Stratum(i, data, sub_gin, complexity))
    return RecombinationResult(best, b, tuple(strata), result.seeds)


@dataclass(frozen=True)
class HilbertIdentityResult:
    ok: bool
    failed_m: int
    lhs: tuple
    rhs: tuple

    def __bool__(self):
        return self.ok


def hilbert_identity_check(ideal, m_max, seed_base=DEFAULT_SEED_BASE,
                           min_agree=DEFAULT_MIN_AGREE,
                           trial_budget=DEFAULT_TRIAL_BUDGET,
                           gin_result=None):
    """H(R/I, m) against the stratum sum of H(Rbar/K_i, m - i), m <= m_max.

    Both sides go through the Macaulay-matrix rank so neither can lean on
    the other's bookkeeping; values at negative shifts count as zero.
    """
    result = gin_result
    if result is None:
        result = gin(ideal, GLEX, seed_base, min_agree, trial_budget)
    gb = result.basis
    b = beta(gb)
    strata = [partial_elimination(gb, i, MODE_EQUAL, generic=True)
              for i in range(b + 1)]
    lhs = []
    rhs = []
    failed = -1
    for m in range(m_max + 1):
        left = hilbert_function_macaulay(ideal, m)
        right = 0
        for i, data in enumerate(strata):
            if data.is_full_ring or m - i < 0:
                continue
            right += hilbert_function_macaulay(data.ideal, m - i)
        lhs.append(left)
        rhs.append(right)
        if left != right and failed < 0:
            failed = m
    return HilbertIdentityResult(failed < 0, failed, tuple(lhs), tuple(rhs))


def k1_saturation_check(ideal, seed_base=DEFAULT_SEED_BASE,
                        min_agree=DEFAULT_MIN_AGREE,
                        trial_budget=DEFAULT_TRIAL_BUDGET,
                        gin_result=None):
    """True when the first stratum is already saturated.

    Saturation is Bayer-Stillman's I : l^inf for one seeded general linear
    form l; equality is mutual membership, so the check does not depend on
    generator presentation.  The error is one-sided: I : l^inf contains
    I^sat, which contains I, for every l, so True is a proof.  Only a
    saturated K_1 can be misreported as unsaturated, with probability about
    deg/p over the draw of l.
    """
    result = gin_result
    if result is None:
        result = gin(ideal, GLEX, seed_base, min_agree, trial_budget)
    data = partial_elimination(result.basis, 1, MODE_EQUAL, generic=True)
    k1 = data.ideal
    if k1.is_zero:
        return True
    saturated = saturate_irrelevant(k1)
    return ideals_equal(saturated, k1)
