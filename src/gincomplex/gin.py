"""Generic initial ideals via seeded coordinate changes, and degree complexity.

Saturation lives here too: it needs one general coordinate change.  A
saturation test reads the verdict off the initial ideal of one reduced grevlex
basis, and ``reduced_grevlex`` shrinks a generating set before it is moved.

"Generic" is realized operationally: independent uniform invertible matrices
over F_p, accepted once enough consecutive trials produce the same initial
ideal.  Two agreements over p ~ 3*10^4 make a coincidental non-generic match
negligible; exhausting the trial budget is an error, never a silent
best-effort answer.

The Hilbert function of I depends on neither the coordinates nor the term
order.  The first trial reads it off the reduced grevlex basis of its moved
ideal -- the cheap basis in generic coordinates, and for a grevlex gin the
trial's own result -- and every later basis computation uses it to drop
S-pairs that must reduce to zero.  The stabilized gin is then certified
against it: the two Hilbert functions must agree up to one past the largest
generator degree.  The certificate checks the pruning against H, not H
itself -- an H one too large where a new leading monomial is due would drop
a productive pair and certify the result -- so H is always read off a basis
computed without pruning.

The one exception is a partial elimination stratum K_i (see ``pei``).  Its H
comes from the relaxed extraction of the stabilized graded-lex basis, which
is a Groebner basis of K_i in any coordinates (Green, *Generic initial
ideals*, 1998), and ``reduced_grevlex`` prunes with it the basis of the
strict extraction J, which lies in K_i.  The leads of J never leave fewer
standard monomials than H allows, and pruning fires only where they leave
exactly H(d), which forces J_d = (K_i)_d.  Where J is smaller than K_i --
coordinates not generic for the stratum -- a disagreeing strict extraction
raises ``InvariantError`` instead of returning the basis of J.

``check_surface`` is the paper's test of one surface ideal: both gins, M and
m, and with the surface's invariants the closed-form prediction and its
witness monomials.
"""

from dataclasses import dataclass, field
from functools import cache
from typing import Optional

from .errors import (
    ConfigurationError,
    InvariantError,
    NonBorelGinError,
    UnstableGinError,
)
from .field import DEFAULT_PRIME
from .geometry import Prediction, surface_complexity_on_quadric
from .groebner import GroebnerBasis, MonomialIdeal, buchberger
from .poly import (
    GLEX,
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

# coordinate change behind saturate_irrelevant and is_saturated; fixed so a
# saturation replays
_SATURATION_SEED = 0x5A7


@dataclass(frozen=True)
class CoordinateChange:
    """Invertible substitution matrix with its seed and one factorization.

    ``ops`` multiply to ``matrix`` and ``inverse_ops`` to ``inverse`` (see
    ``poly.factor_change``); both directions substitute with stored steps,
    into a polynomial or, all generators in one move, an ideal.
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
        return apply_linear_change(ideal, self)


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


def reduced_grevlex(ideal, hilbert=None):
    """The ideal generated by its reduced grevlex basis, in its own coordinates.

    In generic coordinates that basis has the lowest degrees of any term
    order (Bayer-Stillman), so later coordinate changes and Groebner runs
    carry the fewest and smallest generators.  ``hilbert`` goes to
    ``buchberger`` unchanged: a Hilbert function to prune with, and one the
    leading monomials contradict raises ``InvariantError``.
    """
    if ideal.is_zero:
        return ideal
    gb = buchberger(ideal, GREVLEX, hilbert=hilbert)
    return Ideal(gb.elements, ideal.nvars, ideal.p)


def _saturation_basis(ideal):
    """The seeded saturation change and the reduced grevlex basis it gives."""
    change = random_change(_SATURATION_SEED, ideal.nvars, ideal.p)
    # sorted once: each moved generator keeps this order into buchberger
    moved = change.apply_ideal(ideal.with_order(GREVLEX))
    return change, buchberger(moved, GREVLEX)


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
    change, gb = _saturation_basis(ideal)
    divided = []
    for g in gb.elements:
        exps = g.exps.copy()
        exps[:, -1] -= exps[:, -1].min()
        # dividing every term by one monomial keeps the term order
        divided.append(Polynomial(exps, g.coeffs, g.nvars, g.p, g.order,
                                  _presorted=True))
    return change.apply_inverse(Ideal(divided, ideal.nvars, ideal.p))


def is_saturated(ideal):
    """True iff I = I : l^inf, l the general linear form of the saturation.

    l is the form the seeded change of ``saturate_irrelevant`` sends to
    x_last, so the verdict is exactly ``saturate_irrelevant(I) == I``.
    Under grevlex in(J : x_last^inf) = in(J) : x_last^inf (Bayer-Stillman),
    so the moved ideal J equals its colon iff no minimal generator of in(J)
    involves x_last: one Groebner run, no map back, no membership test.
    The error is one-sided as for ``saturate_irrelevant``: True is a proof
    that I is saturated, and a saturated I reads False only for a
    non-general draw.
    """
    if ideal.is_zero:
        return True
    _, gb = _saturation_basis(ideal)
    return all(m[-1] == 0 for m in gb.initial_ideal().gens)


@dataclass(frozen=True)
class GinResult:
    """A stabilized generic initial ideal plus everything needed to replay it.

    ``basis`` is the reduced graded-lex/grevlex basis of the last agreeing
    trial, i.e. the ideal in generic coordinates; the partial-elimination
    pipeline extracts its strata directly from it.  ``hilbert_checked_to``
    is the top degree up to which the gin's Hilbert function was checked
    against the ideal's (one past the largest generator degree).

    ``_strata`` is an opaque memo owned by ``pei``, which alone reads and
    fills it, so each stratum of ``basis`` is worked out once per result.
    It takes no part in equality, hashing or the repr, and it lives exactly
    as long as the result.
    """

    gin: MonomialIdeal
    order: MonomialOrder
    trials_agreed: int
    seeds: tuple
    borel: bool
    prime: int
    basis: GroebnerBasis
    hilbert_checked_to: int
    _strata: dict = field(default_factory=dict, compare=False, repr=False,
                          init=False)

    def complexity(self):
        """The gin's largest generator degree: M(I) or m(I) by the order.

        Only a Borel-fixed gin has one; any other signals a bad prime or
        unlucky coordinates and raises ``NonBorelGinError``.
        """
        if not self.borel:
            name = "graded-revlex" if self.order is GREVLEX else "graded-lex"
            raise NonBorelGinError(
                f"{name} gin is not Borel-fixed; retry with another prime "
                "or seed")
        return self.gin.max_generator_degree()


def hilbert_function_of(basis):
    """d -> dim (R/I)_d, memoized, from a reduced Groebner basis of I."""
    return cache(basis.initial_ideal().hilbert_function)


def gin(ideal, order, seed_base=DEFAULT_SEED_BASE,
        min_agree=DEFAULT_MIN_AGREE, trial_budget=DEFAULT_TRIAL_BUDGET):
    """Stabilized initial ideal of a random coordinate change of ``ideal``.

    Trials run with seeds seed_base, seed_base+1, ...; the result is accepted
    once ``min_agree`` consecutive trials produce identical monomial ideals,
    and its Hilbert function must match the ideal's up to degree M + 1, M
    the largest generator degree (``InvariantError`` otherwise).
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
    hilbert = None
    for k in range(trial_budget):
        seed = seed_base + k
        change = random_change(seed, ideal.nvars, ideal.p)
        moved = change.apply_ideal(ideal)
        if hilbert is None:
            gb = buchberger(moved, GREVLEX)
            hilbert = hilbert_function_of(gb)
            if order is not GREVLEX:
                gb = buchberger(moved, order, hilbert=hilbert)
        else:
            gb = buchberger(moved, order, hilbert=hilbert)
        current = gb.initial_ideal()
        trials.append((seed, current))
        if prev is not None and current == prev:
            streak += 1
        else:
            streak = 1
        prev = current
        if streak >= min_agree:
            top = current.max_generator_degree() + 1
            for d in range(top + 1):
                if current.hilbert_function(d) != hilbert(d):
                    raise InvariantError(
                        f"gin Hilbert function {current.hilbert_function(d)} "
                        f"in degree {d} differs from the ideal's "
                        f"{hilbert(d)} (order {order!r}, prime {ideal.p})")
            return GinResult(
                gin=current,
                order=order,
                trials_agreed=streak,
                seeds=tuple(s for s, _ in trials),
                borel=current.is_borel_fixed(),
                prime=ideal.p,
                basis=gb,
                hilbert_checked_to=top,
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
    return gin(ideal, order, seed_base, min_agree, trial_budget).complexity()


def witness_monomials(nvars, d, deg_y1, nodes_y1):
    """x1^d, x0*x2^deg_y1 and x0*x1*x3^nodes_y1 as exponent tuples.

    The third attains M = 2 + nodes_y1 for a surface of degree d >= 6 on a
    quadric with double curve Y1 of degree deg_y1 and nodes_y1 nodes.
    """
    if nvars < 4:
        raise ConfigurationError("witness check needs at least 4 variables")
    rest = (0,) * (nvars - 4)
    return ((0, d, 0, 0) + rest,
            (1, 0, deg_y1, 0) + rest,
            (1, 1, 0, nodes_y1) + rest)


def witness_check(gin_ideal, d, deg_y1, nodes_y1):
    """Check the three witness monomials of a surface-on-a-quadric gin.

    Membership of all three is required; the third must additionally be a
    minimal generator when it attains the complexity 2 + nodes_y1.
    """
    monos = witness_monomials(gin_ideal.nvars, d, deg_y1, nodes_y1)
    if not all(gin_ideal.contains_monomial(m) for m in monos):
        return False
    if 2 + nodes_y1 == gin_ideal.max_generator_degree():
        return monos[2] in gin_ideal.gens
    return True


@dataclass(frozen=True)
class SurfaceCheck:
    """Both gins of a surface ideal, M and m, and the paper's prediction.

    ``prediction`` and ``witness`` (the ``witness_check`` verdict on the
    graded-lex gin) are None when no surface invariants were given.
    """

    glex: GinResult
    grevlex: GinResult
    M: int
    m: int
    prediction: Optional[Prediction]
    witness: Optional[bool]


def check_surface(ideal, invariants=None, seed_base=DEFAULT_SEED_BASE,
                  min_agree=DEFAULT_MIN_AGREE,
                  trial_budget=DEFAULT_TRIAL_BUDGET):
    """The graded-lex and graded-revlex gins of ``ideal`` with M and m.

    With ``invariants`` (a ``SurfaceInvariants``) the closed-form prediction
    is evaluated and the witness monomials are looked up in the graded-lex
    gin.  A gin that is not Borel-fixed raises ``NonBorelGinError``.
    """
    glex = gin(ideal, GLEX, seed_base, min_agree, trial_budget)
    big_m = glex.complexity()
    grevlex = gin(ideal, GREVLEX, seed_base, min_agree, trial_budget)
    small_m = grevlex.complexity()
    prediction = witness = None
    if invariants is not None:
        prediction = surface_complexity_on_quadric(invariants)
        witness = witness_check(glex.gin, invariants.degree,
                                prediction.deg_y1, prediction.nodes_y1)
    return SurfaceCheck(glex, grevlex, big_m, small_m, prediction, witness)
