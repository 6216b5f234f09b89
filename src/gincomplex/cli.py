"""Command-line front end: ideal-file parser, subcommands, text/JSON reports.

Grammar of an ideal file::

    ring <nvars> [<prime>]      # header, first significant line
    <polynomial>                # one per line, variables x0..x(nvars-1)

Polynomial tokens: integer literals, ``x<k>``, ``+ - * ^`` and parentheses;
``#`` starts a comment; whitespace is insignificant; multiplication is always
explicit.  Every polynomial must be nonzero and homogeneous.

Exit codes: 0 success, 1 computational mismatch, 2 usage/parse error,
3 gin instability (including a non-Borel stabilized gin).
"""

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field

from . import corpus, geometry
from .corpus import format_monomial, format_polynomial, monomial_strings
from .errors import (
    ConfigurationError,
    ExceptionalCaseError,
    GincomplexError,
    InvariantError,
    NonBorelGinError,
    ParseError,
    UnstableGinError,
)
from .field import DEFAULT_PRIME, check_int64_prime, check_prime, is_prime
from .gin import (
    DEFAULT_MIN_AGREE,
    DEFAULT_SEED_BASE,
    DEFAULT_TRIAL_BUDGET,
    check_surface,
    gin,
    witness_monomials,
)
from .groebner import buchberger
from .pei import (
    MODE_EQUAL,
    MODE_UPTO,
    hilbert_identity_check,
    partial_elimination,
    recombine_m,
)
from .poly import (
    DEGREE_CAP,
    GLEX,
    GREVLEX,
    NVARS_CAP,
    ORDERS,
    Ideal,
    Polynomial,
    monomial_mul,
    unit_exponent,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_UNSTABLE = 3

PRIME_ENV_VAR = "GINCOMPLEX_PRIME"


# ---------------------------------------------------------------------------
# tokenizer / parser
# ---------------------------------------------------------------------------

_SYMBOLS = set("+-*^()")

# each parenthesis level costs the parser four Python frames
MAX_NESTING = 100


def _tokenize(text, lineno):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "#":
            break
        if ch.isspace():
            i += 1
            continue
        col = i + 1
        # decimal digits, which int() reads; a superscript digit is a
        # digit but not a decimal one
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("INT", int(text[i:j]), lineno, col))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            word = text[i:j]
            if word == "ring":
                tokens.append(("RING", word, lineno, col))
            elif word[0] == "x" and word[1:].isdecimal():
                tokens.append(("VAR", int(word[1:]), lineno, col))
            else:
                raise ParseError(f"unexpected word {word!r}", lineno, col)
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, lineno, col))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", lineno, col)
    return tokens


class _LineParser:
    """Recursive descent over one polynomial line.

    A parsed value is a ``Polynomial`` or, while it is a product of one-term
    factors, one term: a pair (coefficient in [0, p), exponent tuple), with
    the zero exponent when the coefficient is 0.  Products and powers of
    terms are integer work; only a parenthesized sum is multiplied out.
    """

    def __init__(self, tokens, lineno, nvars, p, end):
        self.tokens = tokens
        self.pos = 0
        self.lineno = lineno
        # the column an "unexpected end of line" points at
        self.end = end
        self.nvars = nvars
        self.p = p
        self.depth = 0

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of line", self.lineno, self.end)
        self.pos += 1
        return tok

    def _expect(self, kind):
        tok = self._next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}",
                             self.lineno, tok[3])
        return tok

    def parse(self):
        result = self._expr()
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok[1]!r}", self.lineno, tok[3])
        if isinstance(result, tuple):
            return Polynomial.monomial(result[1], self.nvars, self.p,
                                       coeff=result[0])
        return result

    # -- values ----------------------------------------------------------

    def _term(self, c, exponent):
        """The one-term value c * x^exponent, c reduced mod p."""
        c %= self.p
        return (c, exponent) if c else (0, (0,) * self.nvars)

    @staticmethod
    def _degree(value):
        """Total degree of a value, -1 for zero."""
        if isinstance(value, tuple):
            return sum(value[1]) if value[0] else -1
        return value.degree

    def _times(self, a, b):
        if isinstance(a, tuple) and isinstance(b, tuple):
            return self._term(a[0] * b[0], monomial_mul(a[1], b[1]))
        if isinstance(a, tuple):
            a, b = b, a
        if isinstance(b, tuple):
            return a.mul_term(*b)
        return a * b

    def _power(self, base, k):
        if isinstance(base, tuple):
            return self._term(pow(base[0], k, self.p),
                              tuple(e * k for e in base[1]))
        out = Polynomial.constant(1, self.nvars, self.p)
        for _ in range(k):
            out = out * base
        return out

    # -- grammar -----------------------------------------------------------

    def _expr(self):
        """A signed sum of products, merged into one polynomial at the end."""
        summands = []
        tok = self._peek()
        sign = "+"
        if tok is not None and tok[0] in ("+", "-"):
            self._next()
            sign = tok[0]
        while True:
            value = self._product()
            if sign == "-":
                value = (self._term(-value[0], value[1])
                         if isinstance(value, tuple) else -value)
            summands.append(value)
            tok = self._peek()
            if tok is None or tok[0] not in ("+", "-"):
                break
            self._next()
            sign = tok[0]
        if len(summands) == 1:
            return summands[0]
        terms = []
        for value in summands:
            if isinstance(value, tuple):
                terms.append((value[1], value[0]))
            else:
                terms.extend(value.terms())
        return Polynomial.from_terms(terms, self.nvars, self.p)

    def _check_degree(self, degree, col):
        """Reject a product above the degree cap before expanding it."""
        if degree > DEGREE_CAP:
            raise ParseError(f"polynomial degree {degree} exceeds the degree "
                             f"cap {DEGREE_CAP}", self.lineno, col)

    def _product(self):
        acc = self._factor()
        while True:
            tok = self._peek()
            if tok is None or tok[0] != "*":
                return acc
            self._next()
            rhs = self._factor()
            self._check_degree(max(self._degree(acc), 0)
                               + max(self._degree(rhs), 0), tok[3])
            acc = self._times(acc, rhs)

    def _factor(self):
        base = self._atom()
        tok = self._peek()
        if tok is not None and tok[0] == "^":
            self._next()
            _, exp, _, col = self._expect("INT")
            if exp > DEGREE_CAP:
                raise ParseError(
                    f"exponent {exp} exceeds the degree cap {DEGREE_CAP}",
                    self.lineno, col)
            self._check_degree(max(self._degree(base), 0) * exp, col)
            return self._power(base, exp)
        return base

    def _atom(self):
        tok = self._next()
        if tok[0] == "INT":
            return self._term(tok[1], (0,) * self.nvars)
        if tok[0] == "VAR":
            if tok[1] >= self.nvars:
                raise ParseError(
                    f"variable x{tok[1]} outside ring with {self.nvars} "
                    "variables", self.lineno, tok[3])
            return (1, unit_exponent(self.nvars, tok[1]))
        if tok[0] == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than "
                                 f"{MAX_NESTING}", self.lineno, tok[3])
            self.depth += 1
            inner = self._expr()
            self.depth -= 1
            closing = self._next()
            if closing[0] != ")":
                raise ParseError("expected ')'", self.lineno, closing[3])
            return inner
        raise ParseError(f"unexpected token {tok[1]!r}", self.lineno, tok[3])


def _end_column(raw):
    """The column just past the last token of a line."""
    return len(raw.split("#", 1)[0].rstrip()) + 1


def scan_header(text):
    """(nvars, file prime or None, its line) from the first significant line.

    Each header error is a ``ParseError`` at the token it is about: a
    missing token's column is the end of the line.  The file prime is
    checked here, against the int64 bound first and then for primality,
    whether or not a caller overrides it.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw, lineno)
        if not tokens:
            continue
        if tokens[0][0] != "RING":
            raise ParseError("first line must be 'ring <nvars> [<prime>]'",
                             lineno, tokens[0][3])
        if len(tokens) == 1:
            raise ParseError("ring header needs the number of variables",
                             lineno, _end_column(raw))
        for tok in tokens[1:3]:
            if tok[0] != "INT":
                raise ParseError(f"malformed ring header: expected an "
                                 f"integer, found {tok[1]!r}", lineno, tok[3])
        if len(tokens) > 3:
            raise ParseError(f"malformed ring header: trailing input "
                             f"{tokens[3][1]!r}", lineno, tokens[3][3])
        _, nvars, _, col = tokens[1]
        if nvars < 1:
            raise ParseError("ring needs at least one variable", lineno, col)
        if nvars > NVARS_CAP:
            raise ParseError(f"{nvars} variables exceed the variable cap "
                             f"{NVARS_CAP}", lineno, col)
        if len(tokens) == 2:
            return nvars, None, lineno
        _, file_prime, _, col = tokens[2]
        try:
            # the size check first: trial division of a huge p never returns
            check_int64_prime(file_prime)
        except ConfigurationError as exc:
            raise ParseError(str(exc), lineno, col) from None
        if not is_prime(file_prime):
            raise ParseError(f"modulus {file_prime} is not prime", lineno,
                             col)
        return nvars, file_prime, lineno
    raise ParseError("empty ideal file", 1, 1)


def parse_ideal_file(text, prime=None):
    """Parse a complete ideal file into an Ideal.

    ``prime`` overrides the header prime; with neither, the default applies.
    """
    nvars, file_prime, header_line = scan_header(text)
    if prime is not None:
        check_prime(prime)
        p = prime
    else:
        p = file_prime if file_prime is not None else DEFAULT_PRIME
    polys = []
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        if lineno <= header_line:
            continue
        tokens = _tokenize(raw, lineno)
        if not tokens:
            continue
        poly = _LineParser(tokens, lineno, nvars, p, _end_column(raw)).parse()
        if poly.is_zero:
            raise ParseError("polynomial is zero", lineno, tokens[0][3])
        if not poly.is_homogeneous:
            raise ParseError("polynomial is not homogeneous", lineno,
                             tokens[0][3])
        polys.append(poly)
    if not polys:
        # where the first polynomial line was due: past the end of the file
        raise ParseError("no polynomial lines", len(lines) + 1, 1)
    return Ideal(polys, nvars, p)


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """The settings of one run, each checked on construction.

    ``sources`` maps a field name to where its value came from (a flag, the
    ideal file's header, a config file's key or the environment variable);
    an error about that field starts with it.  It takes no part in equality.
    """

    prime: int = DEFAULT_PRIME
    seed_base: int = DEFAULT_SEED_BASE
    min_agree: int = DEFAULT_MIN_AGREE
    trial_budget: int = DEFAULT_TRIAL_BUDGET
    order: str = "glex"
    output_format: str = "text"
    m_max: int = 6
    sources: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        try:
            check_int64_prime(self.prime)
        except ConfigurationError as exc:
            self._fail("prime", str(exc))
        if not is_prime(self.prime):
            self._fail("prime", f"prime {self.prime} is not prime")
        if self.min_agree < 1:
            self._fail("min_agree", "agree must be at least 1")
        if self.trial_budget < self.min_agree:
            agreed = self.sources.get("min_agree")
            self._fail("trial_budget",
                       f"budget {self.trial_budget} must be at least agree "
                       f"{self.min_agree}"
                       + (f" ({agreed})" if agreed else ""))
        if self.order not in ORDERS:
            self._fail("order", f"unknown order {self.order!r}")
        if self.output_format not in ("text", "json"):
            self._fail("output_format",
                       f"unknown format {self.output_format!r}")
        if self.m_max < 0:
            self._fail("m_max", "mmax must be nonnegative")

    def _fail(self, name, message):
        source = self.sources.get(name)
        raise ConfigurationError(f"{source}: {message}" if source
                                 else message)


_CONFIG_KEYS = {"prime", "seed", "agree", "budget", "order", "format", "mmax"}


def _read_text(path, error):
    """The file's UTF-8 text; undecodable bytes raise ``error``."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text (byte {exc.start})") from None


def load_config_file(path):
    """Plain ``key = value`` settings; '#' comments allowed."""
    values = {}
    text = _read_text(path, ConfigurationError)
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(
                f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigurationError(
                f"{path}:{lineno}: unknown setting {key!r}")
        values[key] = value
    return values


def _as_int(text, source):
    """int(text), or a ConfigurationError naming the key or flag it came from."""
    try:
        return int(text)
    except ValueError:
        raise ConfigurationError(
            f"{source}: expected an integer, got {text!r}") from None


def _as_text(text, source):
    return text


def resolve_config(args, file_prime=None):
    """Precedence: CLI flag > ideal-file header > config file > env > default.

    Each value's source goes into ``RunConfig.sources``, so an invalid one
    is reported with the flag, header, config key or variable it came from.
    """
    settings = {}
    if getattr(args, "config", None):
        settings = load_config_file(args.config)
    sources = {}

    def pick(name, flag, key, default, convert=_as_int):
        value = getattr(args, flag, None) if flag else None
        if value is not None:
            sources[name] = f"--{flag}"
            return value
        if key in settings:
            sources[name] = f"{args.config}: setting {key!r}"
            return convert(settings[key], sources[name])
        return default

    prime = pick("prime", "prime", None, None)
    if prime is None and file_prime is not None:
        sources["prime"] = f"{args.file}: ring header"
        prime = file_prime
    if prime is None:
        prime = pick("prime", None, "prime", None)
    env_prime = os.environ.get(PRIME_ENV_VAR)
    if prime is None and env_prime:
        sources["prime"] = PRIME_ENV_VAR
        prime = _as_int(env_prime, PRIME_ENV_VAR)
    if prime is None:
        prime = DEFAULT_PRIME
    return RunConfig(
        prime=prime,
        seed_base=pick("seed_base", "seed", "seed", DEFAULT_SEED_BASE),
        min_agree=pick("min_agree", "agree", "agree", DEFAULT_MIN_AGREE),
        trial_budget=pick("trial_budget", "budget", "budget",
                          DEFAULT_TRIAL_BUDGET),
        order=pick("order", "order", "order", "glex", _as_text),
        output_format=pick("output_format", "format", "format", "text",
                           _as_text),
        m_max=pick("m_max", "mmax", "mmax", 6),
        sources=sources,
    )


def _read_ideal(args):
    text = _read_text(args.file, ParseError)
    _, file_prime, _ = scan_header(text)
    cfg = resolve_config(args, file_prime)
    ideal = parse_ideal_file(text, prime=cfg.prime)
    return ideal, cfg


def _emit(payload_text, payload_obj, cfg):
    if cfg.output_format == "json":
        print(json.dumps(payload_obj, indent=2, sort_keys=True))
    else:
        print(payload_text, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# complexity report
# ---------------------------------------------------------------------------

def _prediction_dict(pred):
    inv = pred.invariants
    return {
        "degree": inv.degree,
        "sectional_genus": inv.sectional_genus,
        "arithmetic_genus": inv.arithmetic_genus,
        "chi": inv.chi,
        "deg_y1": pred.deg_y1,
        "g_y1": pred.g_y1,
        "nodes_y1": pred.nodes_y1,
        "triple_points": pred.triple_points,
        "M": pred.M,
        "m": pred.m,
        "exceptional_case": pred.exceptional_case,
        # the witnesses involve x0..x3 only, so four variables render them
        "witness_monomials": [
            format_monomial(m) for m in witness_monomials(
                4, inv.degree, pred.deg_y1, pred.nodes_y1)],
    }


def build_complexity_report(ideal, cfg, surface=None):
    """Run the whole pipeline on one ideal; the report as its JSON object."""
    check = check_surface(ideal, surface, cfg.seed_base, cfg.min_agree,
                          cfg.trial_budget)
    rec = recombine_m(ideal, cfg.seed_base, cfg.min_agree, cfg.trial_budget,
                      gin_result=check.glex)
    hilbert = hilbert_identity_check(ideal, cfg.m_max, gin_result=check.glex)
    pred = check.prediction
    return {
        "prime": ideal.p,
        "seeds": sorted(set(check.glex.seeds) | set(check.grevlex.seeds)),
        "order": "glex",
        "gin": monomial_strings(check.glex.gin, GLEX),
        "gin_grevlex": monomial_strings(check.grevlex.gin, GREVLEX),
        "M": check.M,
        "m": check.m,
        "m_provenance": "computed",
        "beta": rec.beta,
        "kI": [{"i": stratum.index,
                "generators": monomial_strings(stratum.gin, GLEX, offset=1),
                "M_Ki": stratum.complexity} for stratum in rec.strata],
        "predictions": None if pred is None else _prediction_dict(pred),
        "verdicts": {
            "recombination": "ok" if rec.value == check.M else "mismatch",
            "recombined_M": rec.value,
            "hilbert_identity": hilbert.ok,
            "hilbert_m_max": cfg.m_max,
            "witness": check.witness,
            "prediction_match": None if pred is None else pred.M == check.M,
            "m_expected": None if pred is None else pred.m,
            "m_match": (None if pred is None or pred.m is None
                        else pred.m == check.m),
        },
    }


def complexity_ok(report):
    """False when any verdict of the report failed."""
    verdicts = report["verdicts"]
    return verdicts["recombination"] == "ok" and all(
        verdicts[key] is not False for key in
        ("hilbert_identity", "witness", "prediction_match", "m_match"))


def complexity_text(report):
    verdicts = report["verdicts"]
    lines = [f"prime: {report['prime']}",
             f"seeds: {','.join(map(str, report['seeds']))}",
             f"M (graded-lex): {report['M']}",
             f"m (graded-revlex, computed): {report['m']}",
             f"beta: {report['beta']}",
             "gin (glex):"]
    lines += [f"  {s}" for s in report["gin"]]
    lines.append("gin (grevlex):")
    lines += [f"  {s}" for s in report["gin_grevlex"]]
    lines.append("partial elimination strata (labels x1..):")
    for item in report["kI"]:
        gens = ", ".join(item["generators"]) if item["generators"] else "0"
        lines.append(f"  K_{item['i']}: M = {item['M_Ki']}; gin = ({gens})")
    lines.append(f"recombination: {verdicts['recombined_M']} -> "
                 f"{verdicts['recombination']}")
    lines.append(
        f"stratum Hilbert identity (m <= {verdicts['hilbert_m_max']}): "
        f"{verdicts['hilbert_identity']}")
    pred = report["predictions"]
    if pred is not None:
        lines.append(
            f"prediction: M = {pred['M']}"
            + (f" ({pred['exceptional_case']})"
               if pred["exceptional_case"] else ""))
        lines.append(
            f"  deg Y1 = {pred['deg_y1']}, g(Y1) = {pred['g_y1']}, "
            f"nodes = {pred['nodes_y1']}")
        lines.append(
            f"  witness monomials "
            f"({', '.join(pred['witness_monomials'])}) present: "
            f"{verdicts['witness']}")
        lines.append(f"  prediction match: {verdicts['prediction_match']}")
        if verdicts["m_expected"] is not None:
            lines.append(f"  m expected {verdicts['m_expected']}: "
                         f"{verdicts['m_match']}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _parse_surface(args):
    if getattr(args, "surface", None) is None:
        return None
    parts = args.surface.split(",")
    if len(parts) != 3:
        raise ConfigurationError("--surface wants 'd,gH,pa'")
    d, g_h, p_a = (_as_int(v, "--surface") for v in parts)
    return geometry.SurfaceInvariants(d, g_h, p_a,
                                      chi=getattr(args, "chi", None))


def cmd_gin(args):
    ideal, cfg = _read_ideal(args)
    order = ORDERS[cfg.order]
    result = gin(ideal, order, cfg.seed_base, cfg.min_agree,
                 cfg.trial_budget)
    strings = monomial_strings(result.gin, order)
    obj = {
        "prime": result.prime,
        "seeds": list(result.seeds),
        "order": cfg.order,
        "gin": strings,
        "borel": result.borel,
    }
    text = (f"gin ({cfg.order}), prime {result.prime}, "
            f"seeds {','.join(map(str, result.seeds))}\n")
    text += "".join(f"  {s}\n" for s in strings)
    text += f"borel-fixed: {'yes' if result.borel else 'NO'}\n"
    return _emit(text, obj, cfg)


def cmd_complexity(args):
    ideal, cfg = _read_ideal(args)
    surface = _parse_surface(args)
    report = build_complexity_report(ideal, cfg, surface)
    _emit(complexity_text(report), report, cfg)
    return EXIT_OK if complexity_ok(report) else EXIT_MISMATCH


def cmd_pei(args):
    ideal, cfg = _read_ideal(args)
    mode = MODE_EQUAL if args.mode == "equal" else MODE_UPTO
    gb = buchberger(ideal, GLEX)
    data = partial_elimination(gb, args.index, mode, generic=True)
    strings = [format_polynomial(g, offset=1)
               for g in data.ideal.generators]
    obj = {
        "prime": ideal.p,
        "index": data.index,
        "mode": data.mode,
        "generators": strings,
        "full_ring": data.is_full_ring,
    }
    label = "= i" if mode == MODE_EQUAL else "<= i"
    text = (f"K_{args.index} via strata {label} of the reduced glex basis "
            f"(labels x1..x{ideal.nvars - 1}):\n")
    text += "".join(f"  {s}\n" for s in strings) if strings else "  0\n"
    if mode == MODE_EQUAL:
        text += ("note: the strict filter is a basis of K_i only in "
                 "generic coordinates\n")
    return _emit(text, obj, cfg)


def cmd_predict(args):
    cfg = resolve_config(args)
    given = [v is not None
             for v in (args.surface, args.ci, args.acm)].count(True)
    if given != 1:
        raise ConfigurationError(
            "predict wants exactly one of --surface, --ci, --acm")
    if args.ci is not None:
        inv = geometry.ci_invariants(args.ci)
    elif args.acm is not None:
        inv = geometry.acm_invariants(args.acm)
    else:
        inv = _parse_surface(args)
    pred = geometry.surface_complexity_on_quadric(inv)
    closed = None
    if args.ci is not None and args.ci >= 3:
        closed = geometry.ci_complexity(args.ci)
    elif args.acm is not None and args.acm >= 4:
        closed = geometry.acm_complexity(args.acm)
    if closed is not None and closed != pred.M:
        raise InvariantError(
            f"closed form {closed} disagrees with case table {pred.M}")
    obj = _prediction_dict(pred)
    text = (f"M = {pred.M}"
            + (f" ({pred.exceptional_case}, exceptional)"
               if pred.exceptional_case else "") + "\n")
    if pred.m is not None:
        text += f"m = {pred.m}\n"
    text += (f"deg Y1 = {pred.deg_y1}, g(Y1) = {pred.g_y1}, "
             f"nodes = {pred.nodes_y1}\n")
    if pred.triple_points is not None:
        text += f"apparent triple points = {pred.triple_points}\n"
    return _emit(text, obj, cfg)


def cmd_tables(args):
    cfg = resolve_config(args)
    rows = geometry.table_rows()
    obj = {
        "ci": [{"alpha": a, "M": big, "m": small}
               for a, big, small in rows["ci"]],
        "acm": [{"alpha": a, "M": big, "m": small}
                for a, big, small in rows["acm"]],
    }
    lines = ["complete intersections on a quadric (degree 2*alpha):",
             "  alpha        M      m"]
    for a, big, small in rows["ci"]:
        lines.append(f"  {a:5d} {big:8d} {small:6d}")
    lines.append("projectively CM surfaces on a quadric "
                 "(degree 2*alpha - 1):")
    lines.append("  alpha        M      m")
    for a, big, small in rows["acm"]:
        lines.append(f"  {a:5d} {big:8d} {small:6d}")
    return _emit("\n".join(lines) + "\n", obj, cfg)


def cmd_export(args):
    cfg = resolve_config(args)
    text = corpus.ideal_file_text(args.entry, seed=args.seed, p=cfg.prime)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="")
    return EXIT_OK


def _next_prime(n):
    n += 1
    while not is_prime(n):
        n += 1
    return n


def _golden_problems(entry, check):
    """How a surface check (None: a gin not Borel-fixed) misses the entry."""
    if check is None:
        return ["gin not Borel-fixed"]
    problems = []
    got = set(monomial_strings(check.glex.gin, GLEX))
    want = set(entry.expected_gin)
    if got != want:
        problems.append(f"gin differs ({len(got)} vs {len(want)} gens)")
    if check.M != entry.expected_M:
        problems.append(f"M={check.M} expected {entry.expected_M}")
    if problems:
        return problems
    if entry.expected_m is not None and check.m != entry.expected_m:
        return [f"m={check.m} expected {entry.expected_m}"]
    if check.witness is False:
        return ["witness monomials missing"]
    return []


def _verify_gin_entry(entry, cfg, retries, out):
    """Golden-gin check with the documented reseed/re-prime retry policy.

    Appends (line, timing) pairs to ``out``; a PASS line's timing is its
    attempt's wall-clock time, which only the text report shows.
    """
    attempts = [(entry.seed, cfg.prime)]
    for k in range(1, retries + 1):
        seed = (entry.seed + 1000 * k) if entry.seed is not None else None
        prime = _next_prime(cfg.prime) if entry.extended else cfg.prime
        attempts.append((seed, prime))
    for attempt, (seed, prime) in enumerate(attempts):
        ideal = entry.build(seed=seed, p=prime)
        started = time.monotonic()
        try:
            check = check_surface(ideal, entry.invariants, cfg.seed_base,
                                  cfg.min_agree, cfg.trial_budget)
        except NonBorelGinError:
            check = None
        elapsed = time.monotonic() - started
        problems = _golden_problems(entry, check)
        if not problems:
            m_note = (f", m={check.m}" if entry.expected_m is not None
                      else ", m computed-only")
            witness_note = ", witness ok" if check.witness else ""
            retry_note = f" (retry {attempt})" if attempt else ""
            out.append((f"PASS {entry.name}: gin ok, M={check.M}{m_note}"
                        f"{witness_note}{retry_note}", f" [{elapsed:.2f}s]"))
            return True
        detail = (f"{'; '.join(problems)} "
                  f"(attempt {attempt}, seed {seed}, prime {prime})")
        if attempt < len(attempts) - 1:
            out.append((f"RETRY {entry.name}: {detail}", ""))
        else:
            out.append((f"FAIL {entry.name}: {detail}", ""))
    return False


def _verify_remark(cfg, out):
    ideal = corpus.remark_counterexample(cfg.prime)
    gb = buchberger(ideal, GLEX)
    strict = partial_elimination(gb, 1, MODE_EQUAL, generic=True)
    relaxed = partial_elimination(gb, 1, MODE_UPTO)
    strict_gens = sorted(format_polynomial(g, offset=1)
                         for g in strict.ideal.generators)
    relaxed_gens = sorted(format_polynomial(g, offset=1)
                          for g in relaxed.ideal.generators)
    ok = (strict_gens == ["x1", "x2"]
          and relaxed_gens == ["x1", "x2", "x3"]
          and strict_gens != relaxed_gens)
    out.append((("PASS" if ok else "FAIL")
                + f" remark: strict=({', '.join(strict_gens)}) "
                f"relaxed=({', '.join(relaxed_gens)})", ""))
    return ok


def cmd_verify(args):
    cfg = resolve_config(args)
    names = ([args.entry] if args.entry
             else corpus.default_names(extended=args.extended))
    out = []
    all_ok = True
    for name in names:
        entry = corpus.entry(name)
        if entry.family == "monomial":
            all_ok &= _verify_remark(cfg, out)
            continue
        retries = 1 if entry.extended else 3
        all_ok &= _verify_gin_entry(entry, cfg, retries, out)
    summary = "all checks passed" if all_ok else "FAILURES present"
    # wall-clock timings stay out of the byte-stable JSON report
    obj = {"prime": cfg.prime, "results": [line for line, _ in out],
           "ok": all_ok}
    text = ("\n".join(line + timing for line, timing in out)
            + f"\n{summary}\n")
    _emit(text, obj, cfg)
    return EXIT_OK if all_ok else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _add_common(sub, with_order=False):
    sub.add_argument("--prime", type=int, default=None,
                     help="field modulus (prime); a small one such as 7 "
                          "can give a wrong gin with no error")
    sub.add_argument("--seed", type=int, default=None,
                     help="base seed for coordinate-change trials")
    sub.add_argument("--agree", type=int, default=None,
                     help="consecutive agreeing trials required")
    sub.add_argument("--budget", type=int, default=None,
                     help="maximal number of trials")
    sub.add_argument("--config", default=None,
                     help="key = value settings file")
    sub.add_argument("--format", choices=("text", "json"), default=None)
    if with_order:
        sub.add_argument("--order", choices=("glex", "grevlex"),
                         default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gincomplex",
        description="Degree complexity of homogeneous ideals via generic "
                    "initial ideals and partial elimination ideals.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("gin", help="stabilized generic initial ideal")
    sub.add_argument("file")
    _add_common(sub, with_order=True)
    sub.set_defaults(handler=cmd_gin)

    sub = subs.add_parser("complexity",
                          help="full degree-complexity report")
    sub.add_argument("file")
    sub.add_argument("--surface", default=None,
                     help="d,gH,pa surface invariants for predictions")
    sub.add_argument("--chi", type=int, default=None,
                     help="chi(O_S), enables the triple-point count")
    sub.add_argument("--mmax", type=int, default=None)
    _add_common(sub)
    sub.set_defaults(handler=cmd_complexity)

    sub = subs.add_parser("pei", help="partial elimination ideal K_i")
    sub.add_argument("file")
    sub.add_argument("--index", type=int, required=True)
    sub.add_argument("--mode", choices=("equal", "upto"), default="equal")
    _add_common(sub)
    sub.set_defaults(handler=cmd_pei)

    sub = subs.add_parser("predict", help="closed-form predictions")
    sub.add_argument("--surface", default=None, help="d,gH,pa")
    sub.add_argument("--chi", type=int, default=None)
    sub.add_argument("--ci", type=int, default=None,
                     help="quadric-and-degree-alpha complete intersection")
    sub.add_argument("--acm", type=int, default=None,
                     help="degree-(2*alpha - 1) projectively CM family")
    _add_common(sub)
    sub.set_defaults(handler=cmd_predict)

    sub = subs.add_parser("tables", help="regenerate both value tables")
    _add_common(sub)
    sub.set_defaults(handler=cmd_tables)

    sub = subs.add_parser("verify", help="run the builtin golden corpus")
    sub.add_argument("--entry", default=None)
    sub.add_argument("--extended", action="store_true",
                     help="include the heavy degree-8 target")
    _add_common(sub)
    sub.set_defaults(handler=cmd_verify)

    sub = subs.add_parser("export",
                          help="write a builtin entry as an ideal file")
    sub.add_argument("--entry", required=True)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--out", default=None)
    sub.add_argument("--prime", type=int, default=None)
    sub.add_argument("--config", default=None)
    sub.set_defaults(handler=cmd_export)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, ConfigurationError, InvariantError,
            ExceptionalCaseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnstableGinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # report the divergent trials verbatim so the run can be compared
        # against a rerun at another prime
        for seed, mono in exc.trials:
            print(f"  seed {seed}: " + ", ".join(monomial_strings(mono)),
                  file=sys.stderr)
        return EXIT_UNSTABLE
    except NonBorelGinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except GincomplexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
