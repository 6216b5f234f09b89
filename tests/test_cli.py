import json

import pytest

from gincomplex.cli import (
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_UNSTABLE,
    EXIT_USAGE,
    RunConfig,
    format_monomial,
    format_polynomial,
    main,
    monomial_strings,
    parse_ideal_file,
)
from gincomplex.corpus import golden_monomial_ideal, scroll
from gincomplex.errors import ConfigurationError, ParseError
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


def test_cmd_verify_remark(capsys):
    assert main(["verify", "--entry", "remark"]) == EXIT_OK
    assert "PASS remark" in capsys.readouterr().out


def test_cmd_verify_unknown_entry(capsys):
    assert main(["verify", "--entry", "nonesuch"]) == EXIT_USAGE


def test_cmd_verify_default_corpus_completes(capsys):
    # the non-extended corpus must finish and pass as a whole
    assert main(["verify"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in ("scroll", "ci22", "castelnuovo", "ci23", "acm4", "remark"):
        assert f"PASS {name}" in out
    assert "ci24" not in out


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
    with pytest.raises(ParseError, match="line 2: polynomial degree 400"):
        parse_ideal_file("ring 5\nx0^200*x1^200\n")
    path = tmp_path / "big.ideal"
    path.write_text("ring 2\nx0^256\n")
    assert main(["gin", str(path)]) == EXIT_USAGE
    assert "column 4" in capsys.readouterr().err


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
