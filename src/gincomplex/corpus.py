"""Builtin surface ideals and the regression targets their pipelines must hit.

Each randomized entry rebuilds exactly from (name, seed, prime).  The
expected generic initial ideals, M and m values below are the golden targets
for the two families on a quadric and for the degree-3 scroll; the degree-5
entry is realized as the alpha=3 member of the determinantal family, the
classification of degree-(2*alpha - 1) surfaces on a quadric being what pins
that construction down.

The canonical monomial and polynomial strings live here too: golden gins are
stored in them, and reports and exported ideal files are written in them.
"""

from dataclasses import dataclass
from typing import Optional

from .errors import ConfigurationError, GincomplexError
from .field import DEFAULT_PRIME
from .geometry import SurfaceInvariants, acm_invariants, ci_invariants
from .poly import GLEX, Ideal, Polynomial, table_for
from .rng import SplitMix64


def _dense_form(degree, nvars, p, rng):
    """Fully dense homogeneous form with nonzero coefficients from the stream."""
    tab = table_for(nvars, degree, GLEX)
    return Polynomial.from_terms(
        ((tuple(e), rng.field_nonzero(p)) for e in tab.exps.tolist()),
        nvars, p, GLEX)


def scroll(p=DEFAULT_PRIME):
    """The degree-3 rational normal scroll in P^4 (three fixed quadrics)."""
    def q(terms):
        return Polynomial.from_terms(terms, 5, p, GLEX)
    return Ideal([
        q([((1, 0, 0, 1, 0), 1), ((0, 1, 1, 0, 0), -1)]),   # x0*x3 - x1*x2
        q([((1, 1, 0, 0, 0), 1), ((0, 0, 0, 1, 1), -1)]),   # x0*x1 - x3*x4
        q([((2, 0, 0, 0, 0), 1), ((0, 0, 1, 0, 1), -1)]),   # x0^2 - x2*x4
    ], 5, p)


def complete_intersection(alpha, seed, p=DEFAULT_PRIME):
    """One random quadric and one random degree-alpha form in P^4."""
    if alpha < 2:
        raise GincomplexError("complete intersection needs alpha >= 2")
    rng = SplitMix64(seed)
    quadric = _dense_form(2, 5, p, rng)
    form = _dense_form(alpha, 5, p, rng)
    return Ideal([quadric, form], 5, p)


def acm_surface(alpha, seed, p=DEFAULT_PRIME):
    """Degree-(2*alpha - 1) surface from a random 3x2 presentation matrix.

    Four random linear forms and two random degree-(alpha - 1) forms combine
    through the 2x2-minor pattern (L1*L4 - L2*L3, L1*F5 - L2*F6,
    L3*F5 - L4*F6).
    """
    if alpha < 3:
        raise GincomplexError("determinantal family needs alpha >= 3")
    rng = SplitMix64(seed)
    l1, l2, l3, l4 = (_dense_form(1, 5, p, rng) for _ in range(4))
    f5 = _dense_form(alpha - 1, 5, p, rng)
    f6 = _dense_form(alpha - 1, 5, p, rng)
    return Ideal([l1 * l4 - l2 * l3, l1 * f5 - l2 * f6, l3 * f5 - l4 * f6],
                 5, p)


def remark_counterexample(p=DEFAULT_PRIME):
    """(x0^2, x0*x1, x0*x2, x3): deliberately NOT in generic coordinates.

    The strict stratum filter fails on it, which is exactly what it guards.
    """
    def mono(e):
        return Polynomial.monomial(e, 4, p, GLEX)
    return Ideal([
        mono((2, 0, 0, 0)),
        mono((1, 1, 0, 0)),
        mono((1, 0, 1, 0)),
        mono((0, 0, 0, 1)),
    ], 4, p)


# golden generic initial ideals (graded-lex), one string per minimal generator
_GIN_SCROLL = (
    "x0^2", "x0*x1", "x0*x2", "x1^3",
)

_GIN_CI22 = (
    "x0^2", "x0*x1", "x1^4", "x0*x2^2",
)

_GIN_CASTELNUOVO = (
    "x0^2", "x0*x1^2", "x1^5", "x0*x1*x2", "x0*x2^4", "x0*x1*x3^2",
)

_GIN_CI23 = (
    "x0^2", "x0*x1^2", "x1^6", "x0*x1*x2^2", "x0*x2^6", "x0*x1*x2*x3^2",
    "x0*x1*x3^6", "x0*x1*x2*x3*x4^2", "x0*x1*x2*x4^4",
)

_GIN_ACM4 = (
    "x0^2", "x0*x1^3", "x1^7", "x0*x1^2*x2", "x0*x1*x2^4", "x0*x2^9",
    "x0*x1^2*x3^2", "x0*x1*x2^3*x3^2", "x0*x1*x2^2*x3^5", "x0*x1*x2*x3^8",
    "x0*x1*x3^18", "x0*x1*x2^2*x3^4*x4", "x0*x1^2*x3*x4^2",
    "x0*x1*x2^3*x3*x4^2", "x0*x1*x2^2*x3^3*x4^2", "x0*x1*x2*x3^7*x4^2",
    "x0*x1*x2^3*x4^3", "x0*x1^2*x4^4", "x0*x1*x2^2*x3^2*x4^4",
    "x0*x1*x2*x3^6*x4^4", "x0*x1*x2^2*x3*x4^5", "x0*x1*x2*x3^5*x4^6",
    "x0*x1*x2^2*x4^7", "x0*x1*x2*x3^4*x4^8", "x0*x1*x2*x3^3*x4^10",
    "x0*x1*x2*x3^2*x4^12", "x0*x1*x2*x3*x4^14", "x0*x1*x2*x4^16",
)

_GIN_CI24 = (
    "x0^2", "x0*x1^3", "x1^8", "x0*x1^2*x2^2", "x0*x1*x2^6", "x0*x2^12",
    "x0*x1^2*x2*x3^2", "x0*x1*x2^5*x3^2",
    "x0*x1^2*x3^5", "x0*x1*x2^4*x3^5", "x0*x1*x2^3*x3^7",
    "x0*x1*x2^2*x3^11", "x0*x1*x2*x3^17", "x0*x1*x3^36",
    "x0*x1^2*x3^4*x4", "x0*x1*x2^4*x3^4*x4", "x0*x1*x2^3*x3^6*x4",
    "x0*x1*x2^2*x3^10*x4", "x0*x1^2*x2*x3*x4^2",
    "x0*x1*x2^5*x3*x4^2", "x0*x1^2*x3^3*x4^2", "x0*x1*x2^4*x3^3*x4^2",
    "x0*x1*x2^2*x3^9*x4^2", "x0*x1*x2*x3^16*x4^2",
    "x0*x1^2*x2*x4^3", "x0*x1*x2^5*x4^3", "x0*x1*x2^4*x3^2*x4^3",
    "x0*x1*x2^3*x3^5*x4^3", "x0*x1^2*x3^2*x4^4",
    "x0*x1*x2^3*x3^4*x4^4", "x0*x1*x2^2*x3^8*x4^4", "x0*x1*x2*x3^15*x4^4",
    "x0*x1^2*x3*x4^5", "x0*x1*x2^4*x3*x4^5",
    "x0*x1*x2^3*x3^3*x4^5", "x0*x1*x2^2*x3^7*x4^5", "x0*x1*x2^4*x4^6",
    "x0*x1*x2*x3^14*x4^6", "x0*x1^2*x4^7",
    "x0*x1*x2^3*x3^2*x4^7", "x0*x1*x2^2*x3^6*x4^7", "x0*x1*x2^3*x3*x4^8",
    "x0*x1*x2^2*x3^5*x4^8", "x0*x1*x2*x3^13*x4^8",
    "x0*x1*x2^3*x4^9", "x0*x1*x2^2*x3^4*x4^10", "x0*x1*x2*x3^12*x4^10",
    "x0*x1*x2^2*x3^3*x4^11", "x0*x1*x2*x3^11*x4^12",
    "x0*x1*x2^2*x3^2*x4^13", "x0*x1*x2^2*x3*x4^14", "x0*x1*x2*x3^10*x4^14",
    "x0*x1*x2^2*x4^16", "x0*x1*x2*x3^9*x4^16",
    "x0*x1*x2*x3^8*x4^18", "x0*x1*x2*x3^7*x4^20", "x0*x1*x2*x3^6*x4^22",
    "x0*x1*x2*x3^5*x4^24", "x0*x1*x2*x3^4*x4^26",
    "x0*x1*x2*x3^3*x4^28", "x0*x1*x2*x3^2*x4^30", "x0*x1*x2*x3*x4^32",
    "x0*x1*x2*x4^34",
)


@dataclass(frozen=True)
class CorpusEntry:
    """A named construction with its golden expectations."""

    name: str
    family: str                       # scroll | ci | acm | monomial
    alpha: Optional[int]
    seed: Optional[int]
    invariants: Optional[SurfaceInvariants]
    expected_gin: Optional[tuple]
    expected_M: Optional[int]
    expected_m: Optional[int]         # None: computed, no reference value
    budget_seconds: Optional[float]
    extended: bool = False
    generic: bool = True

    def build(self, seed=None, p=DEFAULT_PRIME):
        seed = self.seed if seed is None else seed
        if self.family == "scroll":
            return scroll(p)
        if self.family == "ci":
            return complete_intersection(self.alpha, seed, p)
        if self.family == "acm":
            return acm_surface(self.alpha, seed, p)
        if self.family == "monomial":
            return remark_counterexample(p)
        raise GincomplexError(f"unknown family {self.family!r}")


ENTRIES = {
    # the scroll is the alpha=2 member of the determinantal family
    "scroll": CorpusEntry(
        name="scroll", family="scroll", alpha=2, seed=None,
        invariants=acm_invariants(2),
        expected_gin=_GIN_SCROLL, expected_M=3, expected_m=None,
        budget_seconds=1.0),
    "ci22": CorpusEntry(
        name="ci22", family="ci", alpha=2, seed=101,
        invariants=ci_invariants(2),
        expected_gin=_GIN_CI22, expected_M=4, expected_m=3,
        budget_seconds=1.0),
    "castelnuovo": CorpusEntry(
        name="castelnuovo", family="acm", alpha=3, seed=102,
        invariants=acm_invariants(3),
        expected_gin=_GIN_CASTELNUOVO, expected_M=5, expected_m=3,
        budget_seconds=5.0),
    "ci23": CorpusEntry(
        name="ci23", family="ci", alpha=3, seed=103,
        invariants=ci_invariants(3),
        expected_gin=_GIN_CI23, expected_M=8, expected_m=4,
        budget_seconds=30.0),
    "acm4": CorpusEntry(
        name="acm4", family="acm", alpha=4, seed=104,
        invariants=acm_invariants(4),
        expected_gin=_GIN_ACM4, expected_M=20, expected_m=4,
        budget_seconds=300.0),
    "ci24": CorpusEntry(
        name="ci24", family="ci", alpha=4, seed=105,
        invariants=ci_invariants(4),
        expected_gin=_GIN_CI24, expected_M=38, expected_m=5,
        budget_seconds=1800.0, extended=True),
    "remark": CorpusEntry(
        name="remark", family="monomial", alpha=None, seed=None,
        invariants=None, expected_gin=None, expected_M=None, expected_m=None,
        budget_seconds=None, generic=False),
}


def entry(name):
    if name not in ENTRIES:
        raise ConfigurationError(
            f"unknown corpus entry {name!r}; available: "
            + ", ".join(sorted(ENTRIES)))
    return ENTRIES[name]


def build(name, seed=None, p=DEFAULT_PRIME):
    return entry(name).build(seed=seed, p=p)


def default_names(extended=False):
    return [n for n, e in ENTRIES.items()
            if (extended or not e.extended)]


def ideal_file_text(name, seed=None, p=DEFAULT_PRIME):
    """Entry rendered in the ideal-file grammar, for external tools."""
    ideal = build(name, seed=seed, p=p)
    lines = [f"ring {ideal.nvars} {p}"]
    lines += [format_polynomial(g) for g in ideal.generators]
    return "\n".join(lines) + "\n"


# canonical strings of ideal files, reports and golden gins;
# parse_monomial_string is the inverse of format_monomial

def format_monomial(exps, offset=0):
    """Canonical monomial string: x<i>^<e> factors ascending, ^1 elided."""
    parts = []
    for i, e in enumerate(exps):
        if e == 0:
            continue
        name = f"x{i + offset}"
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def format_polynomial(poly, offset=0):
    """Round-trippable polynomial string with balanced coefficients."""
    if poly.is_zero:
        return "0"
    p = poly.p
    pieces = []
    for exps, coeff in poly.terms():
        negative = coeff > p // 2
        mag = p - coeff if negative else coeff
        mono = format_monomial(exps, offset)
        if mono == "1":
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        pieces.append(("-" if negative else "+", body))
    sign, body = pieces[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


def monomial_strings(mono_ideal, order=GLEX, offset=0):
    """Minimal generators as strings, descending in the order's lex part.

    Dropping the degree component reproduces the conventional listing
    (x0-heavy generators first, e.g. x0^2 before x1^3), which is the frozen
    JSON format golden files use.
    """
    return [format_monomial(g, offset)
            for g in sorted(mono_ideal.gens,
                            key=lambda g: order.key(g)[1:], reverse=True)]


def parse_monomial_string(s, nvars=5):
    """Exponent tuple of a canonical monomial string like ``x0^2*x1``."""
    e = [0] * nvars
    s = s.strip()
    if s == "1":
        return tuple(e)
    for factor in s.split("*"):
        name, _, power = factor.partition("^")
        if not (name.startswith("x") and name[1:].isdigit()):
            raise GincomplexError(f"bad monomial factor {factor!r}")
        e[int(name[1:])] = int(power) if power else 1
    return tuple(e)


def golden_monomial_ideal(name, nvars=5):
    """The expected gin of an entry as a monomial ideal."""
    from .groebner import MonomialIdeal

    target = entry(name).expected_gin
    if target is None:
        raise GincomplexError(f"entry {name!r} has no golden gin")
    return MonomialIdeal([parse_monomial_string(s, nvars) for s in target],
                         nvars)


# sanity guards on the transcribed targets
assert len(_GIN_ACM4) == 28
assert len(_GIN_CI24) == 63
