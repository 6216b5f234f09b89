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
    is_saturated,
    reduced_grevlex,
)
from .groebner import MonomialIdeal, hilbert_function_macaulay
# not called here; kept because perfbench/tracer.py patches both names here
from .gin import saturate_irrelevant  # noqa: F401
from .groebner import ideals_equal  # noqa: F401
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
    its own gin in the smaller ring.  That gin is taken of the stratum's
    reduced grevlex basis, which in these generic coordinates has the
    lowest degrees, rather than of the extracted generators: a gin depends
    only on the ideal, so every result is the same, and ``Stratum.data``
    keeps the extracted generators.  Must agree with the direct graded-lex
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
            sub = gin(reduced_grevlex(data.ideal), GLEX,
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
    A negative ``m_max`` checks nothing and is a ``ConfigurationError``.
    """
    if m_max < 0:
        raise ConfigurationError(
            f"Hilbert identity needs m_max >= 0, got {m_max}")
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

    ``is_saturated`` on K_1's reduced grevlex basis: one seeded general
    linear form l, and K_1 is saturated iff K_1 = K_1 : l^inf, read off one
    grevlex initial ideal (Bayer-Stillman).  The grevlex basis is taken
    first, in the gin's generic coordinates, so the coordinate change moves
    a few low-degree generators instead of the extracted ones.  The error is
    one-sided: I : l^inf contains I^sat, which contains I, for every l, so
    True is a proof.  Only a saturated K_1 can be misreported as
    unsaturated, with probability about deg/p over the draw of l.
    """
    result = gin_result
    if result is None:
        result = gin(ideal, GLEX, seed_base, min_agree, trial_budget)
    data = partial_elimination(result.basis, 1, MODE_EQUAL, generic=True)
    return is_saturated(reduced_grevlex(data.ideal))
