import pytest

from gincomplex.corpus import (
    ENTRIES,
    acm_surface,
    build,
    complete_intersection,
    default_names,
    entry,
    golden_monomial_ideal,
    ideal_file_text,
    parse_monomial_string,
    remark_counterexample,
    scroll,
)
from gincomplex.errors import ConfigurationError, GincomplexError
from gincomplex.groebner import hilbert_function_macaulay


def test_scroll_generators():
    ideal = scroll()
    assert len(ideal.generators) == 3
    assert all(g.degree == 2 for g in ideal.generators)
    assert ideal.generators[0].leading_monomial() == (1, 0, 0, 1, 0)


def test_randomized_entries_reproducible():
    a = complete_intersection(3, 103)
    b = complete_intersection(3, 103)
    assert [g.terms() for g in a.generators] == \
        [g.terms() for g in b.generators]
    c = complete_intersection(3, 104)
    assert [g.terms() for g in a.generators] != \
        [g.terms() for g in c.generators]


def test_ci_shape():
    ideal = complete_intersection(4, 1)
    assert sorted(g.degree for g in ideal.generators) == [2, 4]
    # fully dense
    assert ideal.generators[0].num_terms == 15
    assert ideal.generators[1].num_terms == 70


def test_acm_shape():
    ideal = acm_surface(4, 1)
    assert sorted(g.degree for g in ideal.generators) == [2, 4, 4]


def test_remark_entry_not_generic():
    assert not entry("remark").generic
    ideal = remark_counterexample()
    assert ideal.nvars == 4
    assert len(ideal.generators) == 4


def test_golden_list_sizes():
    sizes = {"scroll": 4, "ci22": 4, "castelnuovo": 6, "ci23": 9,
             "acm4": 28, "ci24": 63}
    for name, size in sizes.items():
        assert len(entry(name).expected_gin) == size


def test_golden_degrees_match_expected_M():
    for name in ("scroll", "ci22", "castelnuovo", "ci23", "acm4", "ci24"):
        e = entry(name)
        degrees = [sum(parse_monomial_string(s)) for s in e.expected_gin]
        assert max(degrees) == e.expected_M


def test_parse_monomial_string():
    assert parse_monomial_string("x0^2*x1") == (2, 1, 0, 0, 0)
    assert parse_monomial_string("1") == (0, 0, 0, 0, 0)
    assert parse_monomial_string("x4", nvars=5) == (0, 0, 0, 0, 1)
    with pytest.raises(GincomplexError):
        parse_monomial_string("y2")


def test_golden_monomial_ideal_minimal():
    for name in ("scroll", "ci23", "acm4", "ci24"):
        gi = golden_monomial_ideal(name)
        assert len(gi.gens) == len(entry(name).expected_gin)
        assert gi.is_borel_fixed()


def test_default_names_gate_extended():
    names = default_names()
    assert "ci24" not in names
    assert "ci24" in default_names(extended=True)
    assert set(names) <= set(ENTRIES)


def test_unknown_entry_rejected():
    with pytest.raises(GincomplexError):
        build("nonesuch")


def test_hilbert_growth_matches_degree():
    # for m past the regularity the function is a quadratic with second
    # difference equal to the surface degree
    for name, degree in (("castelnuovo", 5), ("acm4", 7), ("ci23", 6)):
        ideal = build(name)
        values = [hilbert_function_macaulay(ideal, m) for m in range(5, 9)]
        second = [values[i + 2] - 2 * values[i + 1] + values[i]
                  for i in range(2)]
        assert second == [degree, degree]


def test_export_round_trip():
    from gincomplex.cli import parse_ideal_file
    for name in ("scroll", "ci22", "remark"):
        text = ideal_file_text(name)
        parsed = parse_ideal_file(text)
        built = build(name)
        assert parsed.nvars == built.nvars
        assert [g.terms() for g in parsed.generators] == \
            [g.terms() for g in built.generators]


def test_prime_above_int64_bound_is_rejected():
    # p*p must fit in int64: 3037000493 is the largest prime that passes
    assert build("ci22", p=3037000493).p == 3037000493
    with pytest.raises(ConfigurationError, match="3037000493"):
        build("ci22", p=4294967311)
