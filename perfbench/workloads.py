"""The benchmark's three workloads: inputs from a workload seed, items, checks.

A workload is a fixed batch of items.  Member seeds and gin seed bases derive
from the workload seed; the library receives only the built ideals.  Every
item is checked against the golden corpus and the closed-form predictions of
``gincomplex.geometry``, and a failed check names the entry, member seed, gin
seed base and prime, so it can be replayed.

* ``glex-gin``: one long graded-lex Buchberger run per trial, dominated by
  dense reductions, most of which end in zero.  Glex-only work (pruning, a new
  elimination core) shows here; saturation and substitution changes must not.
* ``pipeline``: the paper's whole pipeline per corpus entry on one shared glex
  gin.  The only workload that runs the K_1 saturation check.
* ``regularity``: many small graded-revlex gins plus the Macaulay-rank oracle.
  Per-call overhead, coordinate change and ``rank_mod`` dominate; it bypasses
  glex-only work.
"""

import random
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

import gincomplex
from gincomplex import GLEX, GREVLEX, corpus, geometry

HILBERT_M_MAX = 6
ORACLE_MAX_DEGREE = 6
GLEX_GIN_BATCH = 4
PIPELINE_ENTRIES = ("scroll", "ci22", "castelnuovo", "ci23", "acm4")
REGULARITY_MEMBERS = (("ci", 2), ("ci", 3), ("ci", 4), ("ci", 5),
                      ("acm", 3), ("acm", 4), ("acm", 5), ("acm", 6))


def library():
    """The benchmark's lookup table for the library calls it times.

    The tracer wraps these names here, at the benchmark's own lookup site.
    """
    return SimpleNamespace(
        gin=gincomplex.gin,
        recombine_m=gincomplex.recombine_m,
        hilbert_identity_check=gincomplex.hilbert_identity_check,
        k1_saturation_check=gincomplex.k1_saturation_check,
        hilbert_function_macaulay=gincomplex.hilbert_function_macaulay,
    )


@dataclass(frozen=True)
class Item:
    label: str
    family: str
    alpha: int
    member_seed: Optional[int]
    gin_seed_base: int
    ideal: object

    def replay(self):
        return (f"{self.label} member_seed={self.member_seed} "
                f"gin_seed_base={self.gin_seed_base} prime={self.ideal.p}")

    def prediction(self):
        # the scroll is the alpha=2 member of the determinantal family
        inv = (geometry.ci_invariants(self.alpha) if self.family == "ci"
               else geometry.acm_invariants(self.alpha))
        return geometry.surface_complexity_on_quadric(inv)


def _seeds(workload, seed, count):
    """(member seed, gin seed base) pairs, fixed by the workload seed."""
    rng = random.Random(f"{workload}:{seed}")
    return [(rng.randrange(1, 2 ** 31), rng.randrange(1, 2 ** 20))
            for _ in range(count)]


def _member(family, alpha, member_seed, gin_seed_base):
    build = (corpus.complete_intersection if family == "ci"
             else corpus.acm_surface)
    return Item(f"{family}{alpha}", family, alpha, member_seed, gin_seed_base,
                build(alpha, member_seed))


def _check_gin(problems, what, result, golden=None, complexity=None):
    if golden is not None and result.gin != golden:
        problems.append(f"{what} gin differs from the golden gin")
    if not result.borel:
        problems.append(f"{what} gin is not Borel-fixed")
    elif complexity is not None and result.gin.regularity() != complexity:
        problems.append(f"{what} complexity {result.gin.regularity()} "
                        f"!= {complexity}")


class GlexGin:
    name = "glex-gin"

    def build(self, seed):
        return [_member("acm", 4, member, base)
                for member, base in _seeds(self.name, seed, GLEX_GIN_BATCH)]

    def solve(self, lib, item):
        return lib.gin(item.ideal, GLEX, seed_base=item.gin_seed_base)

    def check(self, item, result):
        entry = corpus.entry("acm4")
        problems = []
        if entry.expected_M != item.prediction().M:
            problems.append("golden M disagrees with the prediction")
        _check_gin(problems, "glex", result,
                   corpus.golden_monomial_ideal("acm4"), entry.expected_M)
        return problems


class Pipeline:
    name = "pipeline"

    def build(self, seed):
        items = []
        for name, (member, base) in zip(
                PIPELINE_ENTRIES,
                _seeds(self.name, seed, len(PIPELINE_ENTRIES))):
            entry = corpus.entry(name)
            member = member if entry.seed is not None else None
            items.append(Item(name, entry.family, entry.alpha, member, base,
                              entry.build(seed=member)))
        return items

    def solve(self, lib, item):
        base, ideal = item.gin_seed_base, item.ideal
        glex = lib.gin(ideal, GLEX, seed_base=base)
        return SimpleNamespace(
            glex=glex,
            grevlex=lib.gin(ideal, GREVLEX, seed_base=base),
            recombined=lib.recombine_m(ideal, seed_base=base,
                                       gin_result=glex),
            hilbert=lib.hilbert_identity_check(
                ideal, HILBERT_M_MAX, seed_base=base, gin_result=glex),
            k1_saturated=lib.k1_saturation_check(
                ideal, seed_base=base, gin_result=glex),
        )

    def check(self, item, out):
        entry = corpus.entry(item.label)
        pred = item.prediction()
        problems = []
        if entry.expected_M != pred.M:
            problems.append("golden M disagrees with the prediction")
        if entry.expected_m not in (None, pred.m):
            problems.append("golden m disagrees with the prediction")
        _check_gin(problems, "glex", out.glex,
                   corpus.golden_monomial_ideal(item.label), pred.M)
        _check_gin(problems, "grevlex", out.grevlex, complexity=pred.m)
        if out.recombined.value != pred.M:
            problems.append(f"recombined M {out.recombined.value} "
                            f"!= {pred.M}")
        if not out.hilbert.ok:
            problems.append(f"Hilbert identity fails at m="
                            f"{out.hilbert.failed_m}")
        if out.k1_saturated is not True:
            problems.append("K_1 is not saturated")
        return problems


class Regularity:
    name = "regularity"

    def build(self, seed):
        return [_member(family, alpha, member, base)
                for (family, alpha), (member, base) in zip(
                    REGULARITY_MEMBERS,
                    _seeds(self.name, seed, len(REGULARITY_MEMBERS)))]

    def solve(self, lib, item):
        return SimpleNamespace(
            grevlex=lib.gin(item.ideal, GREVLEX,
                            seed_base=item.gin_seed_base),
            macaulay=[lib.hilbert_function_macaulay(item.ideal, d)
                      for d in range(ORACLE_MAX_DEGREE + 1)],
        )

    def check(self, item, out):
        problems = []
        _check_gin(problems, "grevlex", out.grevlex,
                   complexity=item.prediction().m)
        monomial = [out.grevlex.gin.hilbert_function(d)
                    for d in range(ORACLE_MAX_DEGREE + 1)]
        if out.macaulay != monomial:
            problems.append(f"Macaulay oracle {out.macaulay} != gin Hilbert "
                            f"function {monomial}")
        return problems


WORKLOADS = {w.name: w for w in (GlexGin(), Pipeline(), Regularity())}
