"""Verifier suites: each one turns a family of estimates into report rows.

Every suite takes (basis, report, seed), appends its rows to the report and
derives any draws from the seed alone; ``SUITES`` maps suite names to them,
and :func:`run_suite` runs one suite or all of them in table order.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import hypercyclic as hyp
from . import negligibility as neg
from . import operators as ops
from . import reflexivity as refl
from . import unicell as uni
from .basis import assemble, vec_norm
from .errors import ProfileError
from .polynet import Poly
from .profiles import doubled_layoffs, statistical_schedule
from .report import VerificationReport, check
from .schedule import COMPLEX, REAL


def _stages(b):
    return range(1, b.schedule.n_stages + 1)


def boundedness(b, rep: VerificationReport, seed: int) -> None:
    entry, res = ops.full_norm_entry(b)
    rep.add(entry)
    for n in _stages(b):
        rep.extend(ops.block_estimates(b, n))
    b_ok, b_info = ops.stage_gates(b, 1)["b"]
    b2 = assemble(doubled_layoffs(b.schedule), b.families)
    _, res2 = ops.full_norm_entry(b2)
    details = {"norm": res.value, "norm_doubled": res2.value, **b_info}
    if "nonfinite" in (res.method, res2.method):
        details["flag"] = ops.NONFINITE_FLAG
    rep.add(check(
        "opnorm.gap_monotone",
        "operator norm ratio after doubling every lay-off gap (strict "
        "decrease expected above the b threshold)",
        res2.value / res.value, 1.0 - 1e-9, asserted=b_ok, details=details))


def fan(b, rep: VerificationReport, seed: int) -> None:
    draws = np.random.default_rng(seed)
    for n in _stages(b):
        rep.extend(hyp.fan_entries(b, n, draws))
        for k in range(1, b.schedule.stage(n).k + 1):
            rep.add(ops.tail_bound_entry(b, n, k))


def bfan(b, rep: VerificationReport, seed: int) -> None:
    for n in _stages(b):
        rep.extend(hyp.bfan_entries(b, n))


def hypercyclic(b, rep: VerificationReport, seed: int) -> hyp.Certificate:
    """Rows of the stage-1 certificate toward e_1 and of a modulus chain;
    returns the certificate."""
    cert = hyp.certify_hypercyclic_step(b, {0: 1}, 1)
    rep.add(check(
        "certificate.honesty",
        "independently recomputed final residual equals the recorded one",
        abs(cert.final_residual - cert.recomputed_final), cert.tolerance,
        asserted=True, details={"power": cert.power, "k": cert.k}))
    rep.add(check(
        "certificate.composed",
        "final residual stays below the certificate's composed bound",
        cert.final_residual, cert.composed_bound, asserted=True,
        details={s.name: s.measured for s in cert.steps}))
    chain = hyp.modulus_reduction_chain(b, {0: 1}, Poly((0, 4)), 1)
    rep.add(check(
        "certificate.chain",
        "modulus-reduction chain: measured end-to-end residual vs the "
        "telescoped bound",
        chain.final_measured, chain.composed_bound, asserted=True,
        details={"levels": chain.levels,
                 "links": [l.measured for l in chain.links]}))
    return cert


def unicell(b, rep: VerificationReport, seed: int) -> None:
    rep.extend(uni.unicell_entries(b, 1, np.random.default_rng(seed)))


def negligibility(b, rep: VerificationReport, seed: int) -> None:
    for field in (REAL, COMPLEX):
        sched6, fams6 = statistical_schedule(6, field)
        rep.extend(neg.statistics_entries(sched6, fams6, seed))
    for n in range(1, b.schedule.n_stages + 2):
        structural = neg.e0_functional_structural(b.schedule, b.families, n)
        assembled = b.e0_functional(n)
        keys = set(structural) | set(assembled)
        dev = max(abs(structural.get(j, 0.0) - assembled.get(j, 0.0))
                  for j in keys)
        rep.add(check(
            f"functional.crosscheck.stage{n}",
            "structural sparse head functional equals row 0 of the "
            "assembled map",
            dev, 1e-9 * max(1.0, vec_norm(assembled)),
            asserted=True, details={"support": sorted(keys)}))
    k = b.schedule.n_stages + 1
    rep.extend(neg.porosity_entries(b.schedule, b.families, k, seed=seed))


def reflexivity(b, rep: VerificationReport, seed: int) -> None:
    if not refl.zero_constant_profile(b):
        raise ProfileError(
            "reflexivity suite needs the zero-constant-term fan profile")
    rep.extend(refl.reflexivity_entries(b, 1))


SUITES = {
    "boundedness": boundedness,
    "fan": fan,
    "bfan": bfan,
    "hypercyclic": hypercyclic,
    "unicell": unicell,
    "negligibility": negligibility,
    "reflexivity": reflexivity,
}


def run_suite(b, suite: str, seed: int
              ) -> tuple[VerificationReport, Optional[hyp.Certificate]]:
    """Run one suite, or for "all" every suite in table order, each row as
    its suite alone gives it (reflexivity a skip row when the fan profile
    keeps constant terms); returns the report and any stage-1 certificate."""
    rep = VerificationReport()
    cert = None
    for name in (SUITES if suite == "all" else (suite,)):
        if suite == "all" and name == "reflexivity" \
                and not refl.zero_constant_profile(b):
            rep.add(check(
                "reflexivity.skipped",
                "companion checks skipped: fan profile keeps constant terms",
                None, None, asserted=False))
            continue
        out = SUITES[name](b, rep, seed)
        if name == "hypercyclic":
            cert = out
    return rep, cert
