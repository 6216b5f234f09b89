import json
import math
import re
from pathlib import Path

import pytest

from gincomplex.cli import (
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_UNSTABLE,
    EXIT_USAGE,
    MAX_NESTING,
    RunConfig,
    main,
    parse_ideal_file,
)
from gincomplex.corpus import (
    format_monomial,
    format_polynomial,
    golden_monomial_ideal,
    ideal_file_text,
    monomial_strings,
    scroll,
)
from gincomplex.errors import ConfigurationError, NonBorelGinError, ParseError
from gincomplex.poly import GLEX, Polynomial
from gincomplex.rng import SplitMix64

P = 32003

SCROLL_TEXT = """\
ring 5
# the three scroll quadrics
x0*x3 - x1*x2
x0*x1 - x3*x4
x0^2 - x2*x4
"""


@pytest.fixture
def scroll_file(tmp_path):
    path = tmp_path / "scroll.ideal"
    path.write_text(SCROLL_TEXT)
    return str(path)


# -- formatting ----------------------------------------------------------------

def test_format_monomial():
    assert format_monomial((2, 1, 0, 0, 0)) == "x0^2*x1"
    assert format_monomial((0, 0, 0, 0, 0)) == "1"
    assert format_monomial((0, 3, 0, 0), offset=1) == "x2^3"


def test_format_polynomial_balanced_signs():
    f = Polynomial.from_terms(
        [((1, 0, 0, 1, 0), 1), ((0, 1, 1, 0, 0), -1)], 5, P, GLEX)
    assert format_polynomial(f) == "x0*x3 - x1*x2"
    g = Polynomial.from_terms([((1, 0, 0, 0, 0), 2), ((0, 1, 0, 0, 0), -2)],
                              5, P, GLEX)
    assert format_polynomial(g) == "2*x0 - 2*x1"


def test_gin_display_order_matches_frozen_format():
    assert monomial_strings(golden_monomial_ideal("scroll")) == [
        "x0^2", "x0*x1", "x0*x2", "x1^3"]


# -- parsing -------------------------------------------------------------------

def test_parse_scroll_file():
    ideal = parse_ideal_file(SCROLL_TEXT)
    built = scroll()
    assert [g.terms() for g in ideal.generators] == \
        [g.terms() for g in built.generators]


def test_parse_single_quadric():
    ideal = parse_ideal_file("ring 3\nx0^2 + x1*x2\n")
    assert ideal.nvars == 3
    assert ideal.generators[0].terms() == [((2, 0, 0), 1), ((0, 1, 1), 1)]


def test_parse_round_trip_random():
    rng = SplitMix64(17)
    from gincomplex.poly import table_for
    for trial in range(30):
        nvars = 3 + trial % 3
        deg = 1 + trial % 4
        tab = table_for(nvars, deg, GLEX)
        rows = {rng.below(len(tab)) for _ in range(1 + rng.below(5))}
        f = Polynomial.from_terms(
            [(tuple(tab.exps[r]), rng.field_nonzero(P)) for r in rows],
            nvars, P, GLEX)
        text = f"ring {nvars}\n{format_polynomial(f)}\n"
        parsed = parse_ideal_file(text)
        assert parsed.generators[0] == f


def test_parse_parentheses_and_constants():
    ideal = parse_ideal_file("ring 2\n(x0 + x1)*(x0 - x1)\n")
    assert ideal.generators[0].terms() == [((2, 0), 1), ((0, 2), P - 1)]
    ideal = parse_ideal_file("ring 2\n3*x0^2 - 2*x0*x1\n")
    assert ideal.generators[0].terms() == [((2, 0), 3), ((1, 1), P - 2)]


def test_parse_sum_builds_one_polynomial(monkeypatch):
    # a dense 5-variable degree-10 form, 1001 terms on one line
    rng = SplitMix64(23)
    from gincomplex.poly import table_for
    tab = table_for(5, 10, GLEX)
    f = Polynomial.from_terms(
        [(tuple(e), rng.field_nonzero(P)) for e in tab.exps], 5, P, GLEX)
    text = f"ring 5\n{format_polynomial(f)}\n"
    adds = []
    add = Polynomial.__add__

    def counted(self, other):
        adds.append(1)
        return add(self, other)

    monkeypatch.setattr(Polynomial, "__add__", counted)
    (parsed,) = parse_ideal_file(text).generators
    assert parsed == f and parsed.num_terms == 1001
    # the sum is merged once, not rebuilt at every '+'
    assert not adds


def test_parse_inhomogeneous_reports_line():
    with pytest.raises(ParseError) as err:
        parse_ideal_file("ring 3\nx0^2 + x1*x2\nx0 + x1^2\n")
    assert err.value.line == 3


def test_parse_variable_out_of_range():
    with pytest.raises(ParseError) as err:
        parse_ideal_file("ring 3\nx5 + x1\n")
    assert err.value.line == 2 and err.value.column == 1


def test_parse_rejects_implicit_multiplication():
    with pytest.raises(ParseError):
        parse_ideal_file("ring 2\n2x0\n")


def test_parse_rejects_zero_polynomial():
    with pytest.raises(ParseError):
        parse_ideal_file("ring 2\nx0 - x0\n")


def test_parse_requires_header():
    with pytest.raises(ParseError):
        parse_ideal_file("x0 + x1\n")


def test_parse_negative_coefficients_reduce():
    ideal = parse_ideal_file("ring 2 7\n-x0 - 3*x1\n")
    assert ideal.p == 7
    assert ideal.generators[0].terms() == [((1, 0), 6), ((0, 1), 4)]


def test_header_prime_and_override():
    ideal = parse_ideal_file("ring 2 7\nx0 + x1\n")
    assert ideal.p == 7
    ideal = parse_ideal_file("ring 2 7\nx0 + x1\n", prime=11)
    assert ideal.p == 11
    with pytest.raises(ParseError):
        parse_ideal_file("ring 2 6\nx0 + x1\n")


# -- configuration ----------------------------------------------------------------

def test_run_config_validation():
    with pytest.raises(ConfigurationError):
        RunConfig(prime=32001)
    with pytest.raises(ConfigurationError):
        RunConfig(min_agree=0)
    with pytest.raises(ConfigurationError):
        RunConfig(min_agree=4, trial_budget=2)
    with pytest.raises(ConfigurationError):
        RunConfig(order="lex")


def test_env_prime(tmp_path, monkeypatch, capsys):
    path = tmp_path / "q.ideal"
    path.write_text("ring 3\nx0^2 + x1*x2\n")
    monkeypatch.setenv("GINCOMPLEX_PRIME", "101")
    assert main(["gin", str(path), "--format", "json"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["prime"] == 101


def test_config_file_and_cli_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("prime = 101\nseed = 222\n# comment\n")
    path = tmp_path / "q.ideal"
    path.write_text("ring 3\nx0^2 + x1*x2\n")
    assert main(["gin", str(path), "--config", str(cfg),
                 "--format", "json"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["prime"] == 101 and out["seeds"][0] == 222
    # explicit flag beats the config file
    assert main(["gin", str(path), "--config", str(cfg), "--prime", "32003",
                 "--format", "json"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["prime"] == 32003


def test_malformed_config_integer_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = abc\n")
    path = tmp_path / "q.ideal"
    path.write_text("ring 3\nx0^2 + x1*x2\n")
    assert main(["gin", str(path), "--config", str(cfg)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'seed'" in err


def test_malformed_env_prime_is_a_usage_error(tmp_path, monkeypatch, capsys):
    path = tmp_path / "q.ideal"
    path.write_text("ring 3\nx0^2 + x1*x2\n")
    monkeypatch.setenv("GINCOMPLEX_PRIME", "abc")
    assert main(["gin", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "GINCOMPLEX_PRIME" in err


# -- subcommands -------------------------------------------------------------------

def test_cmd_gin_scroll_json(scroll_file, capsys):
    assert main(["gin", scroll_file, "--order", "glex",
                 "--format", "json"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["gin"] == ["x0^2", "x0*x1", "x0*x2", "x1^3"]
    assert out["borel"] is True
    assert out["order"] == "glex"


def test_cmd_complexity_scroll(scroll_file, capsys):
    code = main(["complexity", scroll_file, "--surface", "3,0,0",
                 "--chi", "1", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert out["M"] == 3 and out["m"] == 2 and out["beta"] == 2
    assert out["verdicts"]["recombination"] == "ok"
    assert out["verdicts"]["witness"] is True
    assert out["verdicts"]["prediction_match"] is True
    assert out["kI"][0] == {"M_Ki": 3, "generators": ["x1^3"], "i": 0}
    assert out["predictions"]["deg_y1"] == 1
    assert out["predictions"]["witness_monomials"] == \
        ["x1^3", "x0*x2", "x0*x1"]
    assert out["verdicts"]["hilbert_identity"] is True


def test_cmd_complexity_deterministic_bytes(scroll_file, capsys):
    main(["complexity", scroll_file, "--surface", "3,0,0",
          "--format", "json"])
    first = capsys.readouterr().out
    main(["complexity", scroll_file, "--surface", "3,0,0",
          "--format", "json"])
    second = capsys.readouterr().out
    assert first == second


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("golden, entry, args", [
    ("complexity_ci23.json", "ci23",
     ["complexity", "--surface", "6,4,1", "--chi", "2"]),
    ("complexity_acm4.json", "acm4",
     ["complexity", "--surface", "7,6,2", "--chi", "3"]),
    ("gin_glex_acm4.json", "acm4", ["gin", "--order", "glex"]),
])
def test_report_bytes_match_the_committed_golden(tmp_path, capsys, golden,
                                                 entry, args):
    path = tmp_path / f"{entry}.ideal"
    path.write_text(ideal_file_text(entry))
    assert main([args[0], str(path), *args[1:], "--format", "json"]) == EXIT_OK
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


def test_cmd_complexity_ci23_full_pipeline(tmp_path, capsys):
    # a non-exceptional surface: prediction comes from the d >= 6 branch
    from gincomplex.corpus import ideal_file_text
    path = tmp_path / "ci23.ideal"
    path.write_text(ideal_file_text("ci23"))
    code = main(["complexity", str(path), "--surface", "6,4,1", "--chi", "2",
                 "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert out["M"] == 8 and out["m"] == 4
    assert out["predictions"]["M"] == 8
    assert out["predictions"]["exceptional_case"] is None
    assert out["predictions"]["witness_monomials"] == \
        ["x1^6", "x0*x2^6", "x0*x1*x3^6"]
    assert out["verdicts"]["witness"] is True
    assert out["verdicts"]["m_expected"] == 4
    assert out["verdicts"]["m_match"] is True
    assert [row["M_Ki"] for row in out["kI"]] == [6, 7, 0]


def test_cmd_pei_modes_differ(tmp_path, capsys):
    path = tmp_path / "remark.ideal"
    from gincomplex.corpus import ideal_file_text
    path.write_text(ideal_file_text("remark"))
    assert main(["pei", str(path), "--index", "1", "--mode", "equal",
                 "--format", "json"]) == EXIT_OK
    strict = json.loads(capsys.readouterr().out)
    assert main(["pei", str(path), "--index", "1", "--mode", "upto",
                 "--format", "json"]) == EXIT_OK
    relaxed = json.loads(capsys.readouterr().out)
    assert strict["generators"] == ["x1", "x2"]
    assert relaxed["generators"] == ["x1", "x2", "x3"]
    assert strict["generators"] != relaxed["generators"]


def test_cmd_predict_ci5(capsys):
    assert main(["predict", "--ci", "5", "--format", "json"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["M"] == 122 and out["m"] == 6


def test_cmd_predict_surface(capsys):
    assert main(["predict", "--surface", "7,6,2", "--chi", "3",
                 "--format", "json"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["M"] == 20 and out["nodes_y1"] == 18
    assert out["triple_points"] == 0


def test_cmd_predict_usage_errors(capsys):
    assert main(["predict", "--ci", "5", "--acm", "4"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["predict", "--surface", "3,0"]) == EXIT_USAGE
    capsys.readouterr()


def test_cmd_predict_malformed_surface_is_a_usage_error(capsys):
    assert main(["predict", "--surface", "a,b,c"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--surface" in err


def test_cmd_tables(capsys):
    assert main(["tables", "--format", "json"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    ci = {row["alpha"]: (row["M"], row["m"]) for row in out["ci"]}
    acm = {row["alpha"]: (row["M"], row["m"]) for row in out["acm"]}
    assert ci[10] == (3242, 11) and acm[20] == (58484, 20)
    assert ci[6] == (302, 7)
    assert len(ci) == len(acm) == 9


def test_cmd_verify_scroll(capsys):
    assert main(["verify", "--entry", "scroll"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS scroll" in out


def test_cmd_verify_json_has_no_wall_clock(capsys):
    reports = []
    for _ in range(2):
        assert main(["verify", "--entry", "scroll", "--format", "json"]) \
            == EXIT_OK
        reports.append(capsys.readouterr().out)
    results = json.loads(reports[0])["results"]
    assert results and results[0].startswith("PASS scroll")
    assert not any(re.search(r"\[\d+\.\d+s\]", line) for line in results)
    assert reports[0] == reports[1]
    # the text report keeps the attempt's timing
    assert main(["verify", "--entry", "scroll"]) == EXIT_OK
    assert re.search(r"PASS scroll: .* \[\d+\.\d+s\]\n",
                     capsys.readouterr().out)


def test_cmd_verify_remark(capsys):
    assert main(["verify", "--entry", "remark"]) == EXIT_OK
    assert "PASS remark" in capsys.readouterr().out


def test_cmd_verify_unknown_entry(capsys):
    assert main(["verify", "--entry", "nonesuch"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: unknown corpus entry 'nonesuch'")


def test_cmd_verify_default_corpus_completes(capsys):
    # the non-extended corpus must finish and pass as a whole
    assert main(["verify"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in ("scroll", "ci22", "castelnuovo", "ci23", "acm4", "remark"):
        assert f"PASS {name}" in out
    assert "ci24" not in out


def test_cmd_export_unknown_entry_is_a_usage_error(capsys):
    assert main(["export", "--entry", "nonesuch"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: unknown corpus entry 'nonesuch'")


def test_cmd_export_has_no_format_option(capsys):
    # export always writes the ideal-file grammar, so a format is refused
    with pytest.raises(SystemExit) as exc:
        main(["export", "--entry", "scroll", "--format", "json"])
    assert exc.value.code == EXIT_USAGE
    assert "--format" in capsys.readouterr().err


def test_cmd_export_parses_back(tmp_path, capsys):
    out_path = tmp_path / "ci22.ideal"
    assert main(["export", "--entry", "ci22",
                 "--out", str(out_path)]) == EXIT_OK
    parsed = parse_ideal_file(out_path.read_text())
    from gincomplex.corpus import build
    built = build("ci22")
    assert [g.terms() for g in parsed.generators] == \
        [g.terms() for g in built.generators]


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.ideal"
    path.write_text("ring 3\nx0 + x1^2\n")
    assert main(["gin", str(path)]) == EXIT_USAGE
    assert "not homogeneous" in capsys.readouterr().err


def test_parse_exponent_above_degree_cap(tmp_path, capsys):
    # rejected at the exponent's column, before any expansion
    with pytest.raises(ParseError, match="line 2, column 4: exponent"):
        parse_ideal_file("ring 2\nx0^99999999 - x1\n")
    with pytest.raises(ParseError,
                       match="line 2, column 7: polynomial degree 400"):
        parse_ideal_file("ring 5\nx0^200*x1^200\n")
    path = tmp_path / "big.ideal"
    path.write_text("ring 2\nx0^256\n")
    assert main(["gin", str(path)]) == EXIT_USAGE
    assert "column 4" in capsys.readouterr().err


def test_parse_power_or_product_above_degree_cap_gives_its_column():
    # the degree is known from the factors, so nothing is expanded first:
    # a power is rejected at its exponent, a product at its '*'
    with pytest.raises(ParseError,
                       match="line 2, column 9: polynomial degree 256"):
        parse_ideal_file("ring 5\n(x0*x1)^128\n")
    with pytest.raises(ParseError,
                       match="line 3, column 27: polynomial degree 256"):
        parse_ideal_file("ring 5\nx0\nx0*(x1+x2)^100*(x1+x3)^100*x2^55\n")
    # a zero base has no degree to grow
    with pytest.raises(ParseError, match="line 2: polynomial is zero"):
        parse_ideal_file("ring 2\n(x0-x0)^255*x1\n")


def test_parse_large_power_expands_exactly():
    (f,) = parse_ideal_file("ring 5\n(x0+x1+x2+x3+x4)^30\n").generators
    assert f.num_terms == 46376
    terms = dict(f.terms())
    # multinomial 30! / (6!)^5 and 30! / (26! 4!) mod p
    assert terms[(6, 6, 6, 6, 6)] == (math.factorial(30)
                                      // math.factorial(6) ** 5) % P
    assert terms[(26, 4, 0, 0, 0)] == math.comb(30, 4) % P


def test_basis_degree_above_cap_is_a_usage_error(tmp_path, capsys):
    # the inputs fit the cap, but the glex basis needs degree 256 and up
    path = tmp_path / "ci.ideal"
    path.write_text("ring 2\nx0^200\nx1^200\n")
    assert main(["gin", str(path)]) == EXIT_USAGE
    assert "cap 255" in capsys.readouterr().err


def test_prime_above_int64_bound_is_a_usage_error(scroll_file, capsys):
    assert main(["gin", scroll_file, "--prime", "4294967311"]) == EXIT_USAGE
    assert "3037000493" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert main(["gin", "/nonexistent/nowhere.ideal"]) == EXIT_USAGE


def test_parse_nesting_above_the_cap_gives_its_column(tmp_path, capsys):
    deep = "(" * MAX_NESTING + "x0" + ")" * MAX_NESTING
    (f,) = parse_ideal_file(f"ring 2\n{deep}\n").generators
    assert f.terms() == [((1, 0), 1)]
    # one more level, opened at column 6, puts the last '(' of deep one too
    # deep; 300 levels used to overflow the Python stack
    with pytest.raises(ParseError, match=f"line 2, column {MAX_NESTING + 6}: "
                                         "parentheses nested deeper"):
        parse_ideal_file(f"ring 2\nx0 + ({deep})\n")
    path = tmp_path / "deep.ideal"
    path.write_text("ring 2\n" + "(" * 300 + "x0" + ")" * 300 + "\n")
    assert main(["gin", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: line 2, column {MAX_NESTING + 1}: parentheses nested "
        f"deeper than {MAX_NESTING}\n")


def test_non_utf8_ideal_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "latin1.ideal"
    path.write_bytes(b"ring 2\nx0 + x1 \xff\n")
    assert main(["gin", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err == \
        f"error: {path}: not UTF-8 text (byte 15)\n"


def test_non_utf8_config_file_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"prime = 7 \xff\n")
    path = tmp_path / "q.ideal"
    path.write_text("ring 3\nx0^2 + x1*x2\n")
    assert main(["gin", str(path), "--config", str(cfg)]) == EXIT_USAGE
    assert capsys.readouterr().err == \
        f"error: {cfg}: not UTF-8 text (byte 10)\n"


def test_directory_as_ideal_file_is_a_usage_error(tmp_path, capsys):
    assert main(["gin", str(tmp_path)]) == EXIT_USAGE
    assert "Is a directory" in capsys.readouterr().err


def test_directory_as_config_file_is_a_usage_error(scroll_file, tmp_path,
                                                   capsys):
    assert main(["gin", scroll_file, "--config", str(tmp_path)]) == \
        EXIT_USAGE
    assert "Is a directory" in capsys.readouterr().err


def test_mismatch_exit_code(scroll_file, capsys):
    # deliberately wrong surface metadata: prediction disagrees with M
    code = main(["complexity", scroll_file, "--surface", "6,4,1",
                 "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert out["verdicts"]["prediction_match"] is False
    assert code == EXIT_MISMATCH


def test_unstable_exit_code_reports_trials(scroll_file, monkeypatch, capsys):
    import gincomplex.cli as cli_mod
    from gincomplex.errors import UnstableGinError
    from gincomplex.groebner import MonomialIdeal

    trials = [(12345, MonomialIdeal([(2, 0, 0, 0, 0)], 5)),
              (12346, MonomialIdeal([(1, 1, 0, 0, 0)], 5))]

    def explode(*args, **kwargs):
        raise UnstableGinError("no agreement", trials=trials)

    monkeypatch.setattr(cli_mod, "gin", explode)
    assert main(["gin", scroll_file]) == EXIT_UNSTABLE
    err = capsys.readouterr().err
    assert "no agreement" in err
    assert "seed 12345: x0^2" in err
    assert "seed 12346: x0*x1" in err


# -- non-Borel gins ----------------------------------------------------------------

@pytest.fixture
def never_borel(monkeypatch):
    """Every stabilized gin reads as not Borel-fixed."""
    from gincomplex.groebner import MonomialIdeal
    monkeypatch.setattr(MonomialIdeal, "is_borel_fixed", lambda self: False)


def test_complexity_of_a_non_borel_gin_is_a_gin_instability(
        scroll_file, never_borel, capsys):
    assert main(["complexity", scroll_file]) == EXIT_UNSTABLE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: graded-lex gin is not Borel-fixed; "
                            "retry with another prime or seed\n")


def test_verify_retries_a_non_borel_gin_then_fails(never_borel, capsys):
    assert main(["verify", "--entry", "ci22"]) == EXIT_MISMATCH
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("RETRY ci22: gin not Borel-fixed "
                        "(attempt 0, seed 101, prime 32003)")
    assert [line.split(":")[0] for line in lines] == \
        ["RETRY ci22"] * 3 + ["FAIL ci22", "FAILURES present"]
    assert lines[3] == ("FAIL ci22: gin not Borel-fixed "
                        "(attempt 3, seed 3101, prime 32003)")


def test_degree_complexity_of_a_non_borel_gin_raises(never_borel):
    from gincomplex.gin import degree_complexity
    with pytest.raises(NonBorelGinError):
        degree_complexity(scroll(), GLEX)


def test_recombination_names_a_non_borel_stratum(never_borel):
    from gincomplex.gin import gin
    from gincomplex.pei import recombine_m
    ideal = scroll()
    with pytest.raises(NonBorelGinError,
                       match="^stratum 0: graded-lex gin is not Borel-fixed; "
                             "retry with another prime or seed$"):
        recombine_m(ideal, gin_result=gin(ideal, GLEX))
