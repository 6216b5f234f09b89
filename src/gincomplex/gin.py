"""Generic initial ideals via seeded coordinate changes, and degree complexity.

Saturation lives here too: it needs one general coordinate change.

"Generic" is realized operationally: independent uniform invertible matrices
over F_p, accepted once enough consecutive trials produce the same initial
ideal.  Two agreements over p ~ 3*10^4 make a coincidental non-generic match
negligible; exhausting the trial budget is an error, never a silent
best-effort answer.
"""

from dataclasses import dataclass

from .errors import ConfigurationError, NonBorelGinError, UnstableGinError
from .field import DEFAULT_PRIME
from .groebner import GroebnerBasis, MonomialIdeal, buchberger
from .poly import (
    GREVLEX,
    Ideal,
    MonomialOrder,
    Polynomial,
    apply_linear_change,
    factor_change,
)
from .rng import SplitMix64

DEFAULT_SEED_BASE = 12345
DEFAULT_MIN_AGREE = 2
DEFAULT_TRIAL_BUDGET = 6

# coordinate change behind saturate_irrelevant; fixed so a saturation replays
_SATURATION_SEED = 0x5A7


@dataclass(frozen=True)
class CoordinateChange:
    """Invertible substitution matrix with its seed and one factorization.

    ``ops`` multiply to ``matrix`` and ``inverse_ops`` to ``inverse`` (see
    ``poly.factor_change``); both directions substitute with stored steps.
    """

    matrix: tuple
    inverse: tuple
    seed: int
    p: int
    ops: tuple
    inverse_ops: tuple

    @property
    def nvars(self):
        return len(self.matrix)

    @property
    def inverted(self):
        """The inverse change, with the factorization swapped round."""
        return CoordinateChange(self.inverse, self.matrix, self.seed, self.p,
                                self.inverse_ops, self.ops)

    def apply(self, f):
        return apply_linear_change(f, self)

    def apply_inverse(self, f):
        return apply_linear_change(f, self.inverted)

    def apply_ideal(self, ideal):
        return Ideal([self.apply(g) for g in ideal.generators],
                     ideal.nvars, ideal.p)


def random_change(seed, nvars, p=DEFAULT_PRIME):
    """Deterministic-from-seed uniform invertible matrix over F_p.

    Each draw is factored once; a singular draw is drawn again.
    """
    rng = SplitMix64(seed)
    while True:
        matrix = tuple(tuple(rng.below(p) for _ in range(nvars))
                       for _ in range(nvars))
        factored = factor_change(matrix, p)
        if factored is not None:
            ops, inverse_ops, inverse = factored
            return CoordinateChange(matrix, inverse, seed, p, ops,
                                    inverse_ops)


def saturate_irrelevant(ideal):
    """Saturation I : m^inf by the irrelevant maximal ideal m of I's own ring.

    Bayer-Stillman: once the last variable x_last is general for I, the
    saturation is I : x_last^inf, and under grevlex a basis of that is the
    reduced basis of I with each element divided by the largest power of
    x_last dividing it.  One seeded random change supplies the general
    coordinates; its inverse maps the result back.  For any linear form
    l, I : l^inf contains I^sat, so a non-general draw (probability about
    deg/p) can only make the result too large.
    """
    if ideal.is_zero:
        return ideal
    change = random_change(_SATURATION_SEED, ideal.nvars, ideal.p)
    gb = buchberger(change.apply_ideal(ideal), GREVLEX)
    gens = []
    for g in gb.elements:
        exps = g.exps.copy()
        exps[:, -1] -= exps[:, -1].min()
        # dividing every term by one monomial keeps the term order
        divided = Polynomial(exps, g.coeffs, g.nvars, g.p, g.order,
                             _presorted=True)
        gens.append(change.apply_inverse(divided))
    return Ideal(gens, ideal.nvars, ideal.p)


@dataclass(frozen=True)
class GinResult:
    """A stabilized generic initial ideal plus everything needed to replay it.

    ``basis`` is the reduced graded-lex/grevlex basis of the last agreeing
    trial, i.e. the ideal in generic coordinates; the partial-elimination
    pipeline extracts its strata directly from it.
    """

    gin: MonomialIdeal
    order: MonomialOrder
    trials_agreed: int
    seeds: tuple
    borel: bool
    prime: int
    basis: GroebnerBasis


def gin(ideal, order, seed_base=DEFAULT_SEED_BASE,
        min_agree=DEFAULT_MIN_AGREE, trial_budget=DEFAULT_TRIAL_BUDGET):
    """Stabilized initial ideal of a random coordinate change of ``ideal``.

    Trials run with seeds seed_base, seed_base+1, ...; the result is accepted
    once ``min_agree`` consecutive trials produce identical monomial ideals.
    """
    if min_agree < 1:
        raise ConfigurationError("min_agree must be at least 1")
    if trial_budget < min_agree:
        raise ConfigurationError("trial budget smaller than min_agree")
    # sorted once: each moved generator keeps this order into buchberger
    ideal = ideal.with_order(order)
    trials = []
    streak = 0
    prev = None
    for k in range(trial_budget):
        seed = seed_base + k
        change = random_change(seed, ideal.nvars, ideal.p)
        moved = change.apply_ideal(ideal)
        gb = buchberger(moved, order)
        current = gb.initial_ideal()
        trials.append((seed, current))
        if prev is not None and current == prev:
            streak += 1
        else:
            streak = 1
        prev = current
        if streak >= min_agree:
            return GinResult(
                gin=current,
                order=order,
                trials_agreed=streak,
                seeds=tuple(s for s, _ in trials),
                borel=current.is_borel_fixed(),
                prime=ideal.p,
                basis=gb,
            )
    raise UnstableGinError(
        f"no {min_agree} consecutive agreeing trials within budget "
        f"{trial_budget} (order {order!r}, prime {ideal.p})",
        trials=trials,
    )


def degree_complexity(ideal, order, seed_base=DEFAULT_SEED_BASE,
                      min_agree=DEFAULT_MIN_AGREE,
                      trial_budget=DEFAULT_TRIAL_BUDGET):
    """Maximal degree of minimal generators of the stabilized initial ideal.

    Under graded-lex this is M(I); under graded-revlex it is m(I), which
    equals the Castelnuovo-Mumford regularity.
    """
    result = gin(ideal, order, seed_base, min_agree, trial_budget)
    if not result.borel:
        raise NonBorelGinError(
            f"stabilized initial ideal is not Borel-fixed at prime "
            f"{ideal.p}; rerun with a different prime or seed base")
    return result.gin.regularity()


def witness_check(gin_ideal, d, deg_y1, nodes_y1):
    """Check the three witness monomials of a surface-on-a-quadric gin.

    Membership of x1^d, x0*x2^deg_y1 and x0*x1*x3^nodes_y1 is required; the
    third must additionally be a minimal generator when it attains the
    complexity 2 + nodes_y1.
    """
    n = gin_ideal.nvars
    if n < 4:
        raise ConfigurationError("witness check needs at least 4 variables")

    def mono(pairs):
        e = [0] * n
        for var, power in pairs:
            e[var] = power
        return tuple(e)

    m1 = mono([(1, d)])
    m2 = mono([(0, 1), (2, deg_y1)])
    m3 = mono([(0, 1), (1, 1), (3, nodes_y1)])
    if not (gin_ideal.contains_monomial(m1)
            and gin_ideal.contains_monomial(m2)
            and gin_ideal.contains_monomial(m3)):
        return False
    if 2 + nodes_y1 == gin_ideal.max_generator_degree():
        return m3 in gin_ideal.gens
    return True
