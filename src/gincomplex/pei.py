"""Partial elimination ideals extracted from a graded-lex Groebner basis.

For an element f with graded-lex leading x0-power t, write f = x0^t*fbar + g
with every term of g of strictly smaller x0-power; the i-th stratum collects
the images fbar in the ring without x0.  Extraction with the strict filter
t == i is only a Groebner basis in generic coordinates, which is why the
non-generic monomial counterexample ships as a permanent regression target;
the relaxed filter t <= i works in any coordinates.

So the leading monomials of the relaxed extraction, x0^t stripped, give the
Hilbert function of K_i exactly, whatever the coordinates.  The pipeline
works with the strict extraction J of a gin result, which lies in K_i, and
its reduced grevlex basis is pruned with that Hilbert function.  The same
Hilbert function checks the basis: a J smaller than K_i -- coordinates that
are not generic for the stratum -- raises ``InvariantError`` and never
stands in for K_i.
"""

from dataclasses import dataclass

from .errors import ConfigurationError, InvariantError, NonBorelGinError
from .gin import (
    DEFAULT_MIN_AGREE,
    DEFAULT_SEED_BASE,
    DEFAULT_TRIAL_BUDGET,
    gin,
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
        # the kept terms share the x0-power t and the degree, so without
        # column 0 they stay distinct and in graded-lex order
        top = f.exps[:, 0] == t
        gens.append(Polynomial(f.exps[top, 1:], f.coeffs[top],
                               f.nvars - 1, f.p, GLEX, _presorted=True))
    ideal = Ideal(gens, gb.nvars - 1, gb.p)
    is_full = any(g.degree == 0 for g in gens)
    return PartialEliminationData(index, mode, ideal, is_full)


def _stratum(result, index):
    """Stratum ``index`` of a graded-lex gin result, once per result.

    The ``PartialEliminationData`` is kept in ``result._strata`` under
    ``(index, "data")``.  ``partial_elimination`` is looked up as a module
    global, so a wrapper put on it sees every extraction.
    """
    key = (index, "data")
    if key not in result._strata:
        result._strata[key] = partial_elimination(
            result.basis, index, MODE_EQUAL, generic=True)
    return result._strata[key]


def _stratum_hilbert(result, index):
    """The initial ideal of stratum ``index``, once per result.

    Its ``hilbert_function`` is d -> dim (Rbar/K_index)_d.  The elements of
    the graded-lex basis with leading x0-power t <= ``index`` extract to a
    Groebner basis of K_index in any coordinates (the relaxed filter), and
    each one's leading monomial is the element's own with x0^t stripped.
    Kept in ``result._strata`` under ``(index, "hilbert")``.
    """
    key = (index, "hilbert")
    if key not in result._strata:
        gb = result.basis
        leads = [f.leading_monomial()[1:] for f in gb.elements
                 if f.d0() <= index]
        result._strata[key] = MonomialIdeal(leads, gb.nvars - 1)
    return result._strata[key]


def _stratum_basis(result, index):
    """The ideal of stratum ``index``'s reduced grevlex basis, once per result.

    The basis is that of the strict extraction J, pruned with K_index's
    Hilbert function from ``_stratum_hilbert``; J lies in K_index, so its
    basis is K_index's exactly when the two Hilbert functions agree up to
    the top generator degree of K_index's initial ideal.  A contradiction
    during the run or a disagreement after it means the coordinates are not
    generic for the stratum and raises ``InvariantError``.

    Kept in ``result._strata`` under ``(index, "grevlex")``;
    ``reduced_grevlex`` is looked up as a module global, like
    ``partial_elimination`` in ``_stratum``.
    """
    key = (index, "grevlex")
    if key not in result._strata:
        lead_ideal = _stratum_hilbert(result, index)
        hilbert = lead_ideal.hilbert_function
        ideal = _stratum(result, index).ideal
        try:
            basis = reduced_grevlex(ideal, hilbert=hilbert)
        except InvariantError as exc:
            raise _not_generic(result, index, exc) from None
        got = MonomialIdeal([g.leading_monomial() for g in basis.generators],
                            ideal.nvars)
        for d in range(lead_ideal.max_generator_degree() + 1):
            if got.hilbert_function(d) != hilbert(d):
                raise _not_generic(
                    result, index,
                    f"{got.hilbert_function(d)} standard monomials in degree "
                    f"{d}, {hilbert(d)} expected")
        result._strata[key] = basis
    return result._strata[key]


def _not_generic(result, index, detail):
    return InvariantError(
        f"stratum {index}: the strict extraction does not generate K_{index}, "
        f"so the coordinates are not generic for it (prime {result.prime}, "
        f"seeds {result.seeds}): {detail}")


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
    keeps the extracted generators.  Strata and their grevlex bases come
    from the gin result's memo, which ``hilbert_identity_check`` and
    ``k1_saturation_check`` share; a stratum that its strict extraction
    does not generate raises ``InvariantError`` (see ``_stratum_basis``).
    Must agree with the direct graded-lex degree complexity.

    Each stratum gin gets K_i's Hilbert function from ``_stratum_hilbert``
    as its ``hilbert`` input, so its trials are pruned and its certificate
    checked with it and no basis is computed without pruning.  That H is
    exact: it is read off the relaxed extraction of the certified basis,
    a Groebner basis of K_i in any coordinates, and ``_stratum_basis``
    has already pruned and checked the stratum's basis with it.

    A principal stratum needs no gin run.  When the strict extraction is
    one form g of degree d and K_i's initial ideal is one monomial of
    degree d, then (g) lies in K_i with the same Hilbert function, so
    J = (g) = K_i.  Its gin is (y_0^d) under every graded order: after a
    generic change the coefficient of y_0^d is g at a generic point, which
    is nonzero.  Its complexity is d.
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
        data = _stratum(result, i)
        lead_ideal = _stratum_hilbert(result, i)
        if data.is_full_ring:
            sub_gin = MonomialIdeal([(0,) * nsub], nsub)
            complexity = 0
        elif data.ideal.is_zero:
            sub_gin = MonomialIdeal([], nsub)
            complexity = 0
        elif _is_principal(data, lead_ideal):
            complexity = data.ideal.generators[0].degree
            sub_gin = MonomialIdeal([(complexity,) + (0,) * (nsub - 1)],
                                    nsub)
        else:
            sub = gin(_stratum_basis(result, i), GLEX,
                      seed_base + _STRATUM_SEED_STEP * (i + 1),
                      min_agree, trial_budget,
                      hilbert=lead_ideal.hilbert_function)
            try:
                complexity = sub.complexity()
            except NonBorelGinError as exc:
                raise NonBorelGinError(f"stratum {i}: {exc}") from None
            sub_gin = sub.gin
        best = max(best, complexity + i)
        strata.append(Stratum(i, data, sub_gin, complexity))
    return RecombinationResult(best, b, tuple(strata), result.seeds)


def _is_principal(data, lead_ideal):
    """True when the strict extraction is one form and K_i's initial ideal
    one monomial of its degree, so that form generates K_i."""
    gens = data.ideal.generators
    return (len(gens) == 1 and len(lead_ideal.gens) == 1
            and sum(lead_ideal.gens[0]) == gens[0].degree)


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
    strata = [_stratum(result, i) for i in range(beta(result.basis) + 1)]
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

    Read off the reduced grevlex basis of K_1 in the gin's coordinates, the
    one ``_stratum_basis`` keeps and ``recombine_m`` reads: True iff no
    leading monomial involves the last variable x_last.  Under grevlex,
    in(J : x_last^inf) = in(J) : x_last^inf for every homogeneous J
    (Eisenbud, *Commutative Algebra*, 15.12), so when no minimal generator
    of in(J) involves x_last, J = J : x_last^inf, which contains J^sat,
    which contains J.  That holds in any coordinates, so True is a proof.
    The converse needs x_last general for K_1 (Bayer-Stillman, Invent.
    Math. 87, 1987), and the gin's coordinates are generic, so a saturated
    K_1 reads False only when the gin's draw is special: the same one-sided
    error as ``gin.is_saturated`` with its seeded change.  No coordinate
    change and no Groebner run beyond the shared stratum basis;
    ``is_saturated`` and ``saturate_irrelevant`` stay each other's oracle.
    """
    result = gin_result
    if result is None:
        result = gin(ideal, GLEX, seed_base, min_agree, trial_budget)
    return all(g.leading_monomial()[-1] == 0
               for g in _stratum_basis(result, 1).generators)
