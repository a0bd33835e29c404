import csv
import json
import os

import numpy as np
import pytest

import orbitlab as ol
from orbitlab.cli import main
from orbitlab.profiles import mini_schedule
from orbitlab.schedule import save_config


@pytest.fixture(scope="module")
def mini_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "mini.cfg"
    sched, fams = mini_schedule()
    save_config(path, sched, fams)
    return str(path)


@pytest.fixture(scope="module")
def mini_companion_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "mini_c.cfg"
    sched, fams = mini_schedule(companion=True)
    save_config(path, sched, fams)
    return str(path)


@pytest.fixture(scope="module")
def built(mini_cfg, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("build"))
    assert main(["build", "--config", mini_cfg, "--out", out]) == 0
    return out


@pytest.fixture(scope="module")
def built_companion(mini_companion_cfg, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("build_c"))
    assert main(["build", "--config", mini_companion_cfg, "--out", out]) == 0
    return out


def test_build_outputs(built):
    names = set(os.listdir(built))
    assert {"manifest.json", "schedule.cfg", "F_in_E.mtx", "E_in_F.mtx",
            "T_f.mtx"} <= names
    manifest = json.load(open(os.path.join(built, "manifest.json")))
    assert manifest["n_trunc"] == 31_600
    assert set(manifest["hashes"]) >= {"F_in_E.mtx", "E_in_F.mtx", "T_f.mtx"}


def test_build_echoes_calibrated_gammas(built):
    sched, _ = ol.load_config(os.path.join(built, "schedule.cfg"))
    assert all(st.gamma is not None for st in sched.stages)


def test_rebuild_identical_hashes(mini_cfg, built, tmp_path):
    out2 = str(tmp_path / "again")
    assert main(["build", "--config", mini_cfg, "--out", out2]) == 0
    m1 = json.load(open(os.path.join(built, "manifest.json")))
    m2 = json.load(open(os.path.join(out2, "manifest.json")))
    assert m1["hashes"] == m2["hashes"]


def test_companion_build_writes_A(built_companion):
    assert "A_f.mtx" in os.listdir(built_companion)


def test_build_invalid_config(tmp_path, capsys):
    from dataclasses import replace
    sched, fams = mini_schedule()
    bad = replace(sched, stages=(replace(sched.stages[0], c=(16, 16)),
                                 sched.stages[1]))
    path = tmp_path / "bad.cfg"
    save_config(path, bad, fams)
    rc = main(["build", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "c strictly increasing" in capsys.readouterr().err


def test_verify_bfan_suite(built):
    rc = main(["verify", "--build", built, "--suite", "bfan"])
    assert rc == 0
    rows = list(csv.DictReader(open(os.path.join(built, "report_bfan.csv"))))
    assert any(r["claim_id"].startswith("bfan.identity") for r in rows)
    assert all(r["status"] != "fail" for r in rows)


def test_verify_hypercyclic_writes_certificate(built):
    rc = main(["verify", "--build", built, "--suite", "hypercyclic"])
    assert rc == 0
    cert = json.load(open(os.path.join(built, "certificate_stage1.json")))
    rows = json.load(open(os.path.join(built, "report_hypercyclic.json")))
    composed = next(r for r in rows if r["claim_id"] == "certificate.composed")
    assert cert["final_residual"] == composed["measured"]
    assert cert["composed_bound"] == composed["bound"]


def test_verify_reports_deterministic(built):
    main(["verify", "--build", built, "--suite", "unicell", "--seed", "7"])
    a = open(os.path.join(built, "report_unicell.csv")).read()
    main(["verify", "--build", built, "--suite", "unicell", "--seed", "7"])
    b = open(os.path.join(built, "report_unicell.csv")).read()
    strip = lambda s: [",".join(line.split(",")[:-1])
                       for line in s.splitlines()]  # drop runtime column
    assert strip(a) == strip(b)


def test_verify_profile_mismatch(built, capsys):
    rc = main(["verify", "--build", built, "--suite", "reflexivity"])
    assert rc == 2
    assert "profile" in capsys.readouterr().err


def test_verify_reflexivity_on_companion(built_companion):
    rc = main(["verify", "--build", built_companion, "--suite", "reflexivity"])
    assert rc == 0


def test_verify_negligibility_on_companion(built_companion):
    # the companion profile's first fan polynomial is not 1: the pairing
    # identity is reported as skipped, the porosity witnesses still run
    rc = main(["verify", "--build", built_companion, "--suite",
               "negligibility"])
    assert rc == 0
    rows = json.load(open(os.path.join(built_companion,
                                       "report_negligibility.json")))
    by_id = {r["claim_id"]: r for r in rows}
    assert by_id["porosity.pairing.stage2"]["status"] == ol.INFO
    assert "skipped" in by_id["porosity.pairing.stage2"]["description"]
    assert by_id["porosity.witness.stage3"]["status"] == ol.PASS


def test_verify_unknown_suite(built):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--build", built, "--suite", "nonsense"])
    assert exc.value.code == 2


def test_verify_refuses_a_negative_seed(built, capsys):
    # numpy's generators take non-negative seeds only: refused when parsed
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--build", built, "--suite", "fan", "--seed", "-1"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "argument --seed: -1 is negative" in err and "Traceback" not in err


def test_build_out_on_an_existing_file(mini_cfg, tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    rc = main(["build", "--config", mini_cfg, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_orbit_out_in_a_missing_directory(built, tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    rc = main(["orbit", "--build", built, "--x", "f:0=1", "--targets", "e:1=1",
               "--steps", "1", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_orbit_zero_vector(built, tmp_path):
    out = tmp_path / "orbit.csv"
    rc = main(["orbit", "--build", built, "--x", "f:", "--targets", "e:1=1",
               "--steps", "3", "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(open(out)))
    assert len(rows) == 5  # header + 4 steps
    assert all(float(r[1]) == pytest.approx(1.0) for r in rows[1:])


def test_orbit_zero_steps(built, tmp_path):
    out = tmp_path / "orbit.csv"
    rc = main(["orbit", "--build", built, "--x", "f:0=1", "--targets",
               "f:0=1", "--steps", "0", "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(open(out)))
    assert len(rows) == 2 and float(rows[1][1]) == 0.0


def test_orbit_certified_minimum(built, tmp_path):
    sched, _ = mini_schedule()
    c2 = sched.stage(1).c[1]
    out = tmp_path / "orbit.csv"
    rc = main(["orbit", "--build", built, "--x", "f:0=1", "--targets", "e:1=1",
               "--steps", str(c2), "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(open(out)))[1:]
    dists = [float(r[1]) for r in rows]
    xi = sched.stage(1).xi
    assert dists[c2] == min(dists[xi + 1:])


@pytest.mark.parametrize("x,targets,steps", [
    ("g:0=1", "e:1=1", "1"),
    ("f:-2=1", "e:1=1", "1"),
    ("f:40000=1", "e:1=1", "1"),
    ("f:0=1", "e:-1=1", "1"),
    ("f:0=1", "e:31601=1", "1"),
    ("f:0=1", "e:1=1", "-3"),
], ids=["unknown-frame", "negative-f-index", "f-index-past-trunc",
        "negative-e-index", "e-index-past-trunc", "negative-steps"])
def test_orbit_bad_spec(built, capsys, x, targets, steps):
    rc = main(["orbit", "--build", built, "--x", x, "--targets", targets,
               "--steps", steps])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_shipped_profiles_load():
    root = os.path.join(os.path.dirname(__file__), "..", "configs")
    for name in ("thm1.cfg", "orbit_reflexive.cfg", "mini.cfg",
                 "mini_reflexive.cfg", "mini_rational.cfg"):
        sched, fams = ol.load_config(os.path.join(root, name))
        assert ol.validate(sched) == []


# sha256 of each shipped config's build; the calibrated gammas (and so every
# file) depend on the BLAS summation order, so the builds run single-threaded.
# Only the companion-profile (reflexive) configs write A_f.mtx.
BUILD_HASHES = {
    "mini": {
        "E_in_F.mtx": "70b198886db537d2d52b2a445d811e1ca0f088a9ddfb997def2654269053f527",
        "F_in_E.mtx": "c51bdd9231dcb415b1f9c9d51c47e8d867825acd22a4b56706f87b21d4f00995",
        "T_f.mtx": "0ddcd5db7b522df6ff193fdc203ef2d0afef3787f2f21c685014cc54a76f5cc7",
        "schedule.cfg": "6a76bd723b6ddd32550b8411a5465a419e73a1836ee6a7df40f6211f743239e0",
    },
    "thm1": {
        "E_in_F.mtx": "78d0ca0a46619d8992bb8cd00000822e1f0fb2f88ec0b2528b51bfb2a6ff56b8",
        "F_in_E.mtx": "3878f17d93449a151714eb3b4e56fb7b856f3042c6036b1af54ada23ce506081",
        "T_f.mtx": "0c82815b1dbde316834fcbd79a770fbc4916f9d8019131533cadfc161252573e",
        "schedule.cfg": "38dfb6ac23e4122b5cb463ebd4bf5a34af0f74d21aafe0eae20a2dc3e2b04790",
    },
    "mini_reflexive": {
        "A_f.mtx": "1145c92722c6f09d892cce26d28756d083bb0b68d1e0867f8db7ea7b965e9905",
        "E_in_F.mtx": "47d9be45255693262bd950e8b23c137464e7ebde2adc3bfc2ee1a129b8ec69f8",
        "F_in_E.mtx": "ab898d217c32f725de32dcf58a7a74bb08c0bd3fc13b003f919eb127c6696dd3",
        "T_f.mtx": "aad8faf4992d0d257607598e5af2a160a1bdcde58c3332e501ec769ca1bff005",
        "schedule.cfg": "f273a45d0e8771b9ea6a5281eb59c0e5ca3129288a669d86f8df8b6029b051bb",
    },
    "mini_rational": {
        "E_in_F.mtx": "0f731f4fd57b2c17d475f2397a53211692ea5f525603a04d2b6dd65576392be3",
        "F_in_E.mtx": "d6ce816440eb867ff1c5cb85c9f359b9047f51c84467d215e50eef209f300d9b",
        "T_f.mtx": "a2c3457bde1abc909a0ff39a3ee5c99be2ddd1756eff444466ba098dc2d6222e",
        "schedule.cfg": "54cfa5085a4978431dcd524a6b3f07f179cd7e518769a9be3a48a6a963577271",
    },
    "orbit_reflexive": {
        "A_f.mtx": "01a1c47c95b039cc51fbcd598bd7718121a0927b7350fdf8f6f5102d2a261e04",
        "E_in_F.mtx": "a6df22b02f5b7f28f0354583f096aae0bb880db696d3c927d8cbd3e0b26ac24d",
        "F_in_E.mtx": "eff474db4a87d340388b4080c23e832fccdc4c62e99b5f46b134faf447f43aad",
        "T_f.mtx": "241c86be02d28ef9aa533dd6620034f1de880905934cb57cc764e6377d64df47",
        "schedule.cfg": "39ece0a6a8dfe95961f55c3b88e1117b922fea2554ffa10e1973a7670677a8a3",
    },
}


# the count and sha256 of each shipped config's `verify --suite all` report
# rows, runtime_s left out.  thm1 is the shipped config on which boundedness
# rows assert (shift.low.nu, shift.band.nu, powm.spill), so a change to a
# calibration gate shows in its pin; only the reflexive configs run the
# companion (reflexivity) rows.
REPORT_ROWS = {
    "mini": (83, "70968907f4b8a68648564d190f1a2b8176fb8bef32061843570ce62193ec46ff"),
    "thm1": (67, "c5160768bf36da46f82bcd4ca1e0e38c4c0dea5aed8e410ebb4822b23b39b9f8"),
    "mini_reflexive":
        (88, "0bed0cbc11dc3c962fc30bceba11684c256bde4eddfa3d979aefbffe589ae0e8"),
    "orbit_reflexive":
        (72, "9b15eea25b83d9289c4255e71b7f4b3ed2c389bee51a25bdaf78bd01afca11f1"),
}


def _python_one_thread(*args) -> str:
    """Run python with args in a fresh single-threaded-BLAS process and return
    its stdout; a nonzero exit raises."""
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    threads = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                "MKL_NUM_THREADS")}
    return subprocess.run([sys.executable, *map(str, args)], check=True,
                          capture_output=True, text=True,
                          env={**os.environ, **threads,
                               "PYTHONPATH": str(src)}).stdout


def _cli_one_thread(*args):
    """Run the orbitlab CLI in a fresh single-threaded-BLAS process; a nonzero
    exit raises."""
    _python_one_thread("-m", "orbitlab.cli", *args)


@pytest.fixture(scope="module")
def cfg_build(tmp_path_factory):
    """cfg_build(name): the build directory of configs/<name>.cfg, built
    single-threaded once per module and shared by its pins."""
    builds = {}

    def build(name):
        if name not in builds:
            out = tmp_path_factory.mktemp(f"{name}_build")
            cfg = os.path.join(os.path.dirname(__file__), "..", "configs",
                               f"{name}.cfg")
            _cli_one_thread("build", "--config", cfg, "--out", out)
            builds[name] = out
        return builds[name]
    return build


def _assert_build_pinned(cfg_build, name):
    manifest = json.load(open(cfg_build(name) / "manifest.json"))
    assert manifest["hashes"] == BUILD_HASHES[name]


def _assert_verify_all_pinned(cfg_build, name):
    """Run `verify --suite all` on the config's build and check its rows,
    runtime_s left out, against the pinned count and sha256."""
    import hashlib

    build = cfg_build(name)
    _cli_one_thread("verify", "--build", build, "--suite", "all")
    rows = json.load(open(build / "report_all.json"))
    for r in rows:
        del r["runtime_s"]
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode())
    assert not [r["claim_id"] for r in rows if r["status"] == "fail"]
    assert (len(rows), digest.hexdigest()) == REPORT_ROWS[name]


def test_mini_cfg_build_hashes_are_pinned(cfg_build):
    _assert_build_pinned(cfg_build, "mini")


@pytest.mark.parametrize("name", ["thm1", "mini_reflexive", "orbit_reflexive",
                                  "mini_rational"])
def test_shipped_cfg_build_hashes_are_pinned(cfg_build, name):
    _assert_build_pinned(cfg_build, name)


def test_rational_mini_operator_is_the_rounded_exact_product(cfg_build):
    # T_f.mtx of the rational build: the float build's positions, no stored
    # zero, and each sampled entry the float of the exact value, T f_j taken
    # in Fractions through the e-frame
    from fractions import Fraction

    from scipy.io import mmread

    from orbitlab.basis import shift_e

    T, T_float = (mmread(str(cfg_build(name) / "T_f.mtx")).tocsc()
                  for name in ("mini_rational", "mini"))
    T.sort_indices()
    T_float.sort_indices()
    assert T.nnz == 35_702
    assert np.array_equal(T.indptr, T_float.indptr)
    assert np.array_equal(T.indices, T_float.indices)
    assert np.count_nonzero(T.data) == T.nnz
    b = ol.assemble(*ol.load_config(cfg_build("mini_rational") / "schedule.cfg"))
    n = b.n_trunc
    multi = np.flatnonzero(np.diff(b.F_csc.indptr) > 1)
    for j in sorted(set(range(0, n + 1, 397)) | set(multi[::7].tolist())):
        col = b.e_to_f(shift_e(b.f_col(j), 1, n))
        assert all(type(v) is Fraction for v in col.values())
        rows = sorted(col)
        lo, hi = T.indptr[j], T.indptr[j + 1]
        assert T.indices[lo:hi].tolist() == rows, j
        assert T.data[lo:hi].tolist() == [float(col[i]) for i in rows], j


MINI_ROW_COUNTS = {"bfan": 6, "boundedness": 22, "hypercyclic": 3,
                   "unicell": 6, "negligibility": 38}
# rows whose measurement is not a mode-independent quantity, with the reason
CROSS_MODE_EXEMPT = {
    # |recorded - recomputed| residual: rounding noise against the float
    # tolerance 1e-9, and exactly 0 against the exact tolerance 0
    "certificate.honesty",
}


# fan is left out: fan.sampled.stage2 asserts only in exact mode, and the
# exact fan suite takes about 13 s; reflexivity is left out: mini keeps the
# constant-term fan profile
@pytest.mark.parametrize("suite", ["bfan", "boundedness", "hypercyclic",
                                   "unicell", "negligibility"])
def test_float_and_rational_mini_reports_agree(cfg_build, suite):
    # every row of both reports: the same status, and outside
    # CROSS_MODE_EXEMPT the same measurement within 1e-9 relative (nan
    # equal to nan)
    import math

    reports = {}
    for name in ("mini", "mini_rational"):
        _cli_one_thread("verify", "--build", cfg_build(name), "--suite", suite)
        rows = json.load(open(cfg_build(name) / f"report_{suite}.json"))
        reports[name] = {r["claim_id"]: r for r in rows}
    exact, rounded = reports["mini_rational"], reports["mini"]
    assert set(exact) == set(rounded) and len(exact) == MINI_ROW_COUNTS[suite]
    for cid, row in rounded.items():
        assert row["status"] == exact[cid]["status"], cid
        a, b = row["measured"], exact[cid]["measured"]
        if a == b or cid in CROSS_MODE_EXEMPT:
            continue
        if isinstance(a, float) and math.isnan(a):
            assert math.isnan(b), cid
        else:
            assert abs(a - b) <= 1e-9 * max(abs(a), abs(b)), (cid, a, b)


@pytest.mark.parametrize("first, second, named", [
    ("gamma = auto", "gamma = 0.25", "stage 1 has 0.0758"),  # declared later gamma
    ("gamma = 0.01", "gamma = auto", "stage 2 has 0.0170")])  # declared earlier gamma
def test_build_refuses_a_calibrated_gamma_that_breaks_the_decrease(
        tmp_path, capsys, first, second, named):
    # validate skips auto gammas, so calibration checks its result against its
    # neighbours; before, build wrote a schedule.cfg its own verify refused
    deltas = (0.5, 0.25) if first == "gamma = auto" else (4, 2)
    stages = [(1, 2, 6, 15, first, deltas[0]), (2, 30, 61, 1861, second, deltas[1])]
    text = "[schedule]\nscalar_field = real\nweight_mode = float\nxi_end = 3722\n"
    for n, xi, b, c, gamma, delta in stages:
        text += (f"\n[stage {n}]\nxi = {xi}\nb = {b}\nc = {c}\nh = 1\nd = 0\n"
                 f"{gamma}\ndelta = {delta}\neps = {delta}\nfan = 0\n")
    path = tmp_path / "schedule.cfg"
    path.write_text(text)
    assert ol.validate(ol.load_config(path)[0]) == []
    rc = main(["build", "--config", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "gamma strictly decreasing" in err and named in err
    assert "stage 1 has" in err and "stage 2 has" in err
    assert not os.path.exists(tmp_path / "o")


def test_mini_cfg_verify_all_report_is_pinned(cfg_build):
    _assert_verify_all_pinned(cfg_build, "mini")


def test_thm1_cfg_verify_all_report_is_pinned(cfg_build):
    _assert_verify_all_pinned(cfg_build, "thm1")


@pytest.mark.parametrize("name", ["mini_reflexive", "orbit_reflexive"])
def test_reflexive_cfg_verify_all_report_is_pinned(cfg_build, name):
    _assert_verify_all_pinned(cfg_build, name)


# prints {suite: rows} for "all" and each suite that runs on the config, a
# row the JSON of its claim id, measured, bound, status and details
_SUITE_ROWS = """
import json, sys
import orbitlab as ol
from orbitlab import suites
from orbitlab.errors import ProfileError
from orbitlab.report import _jsonable
b = ol.assemble(*ol.load_config(sys.argv[1]))
out = {}
for suite in ("all", *suites.SUITES):
    try:
        rep, _ = suites.run_suite(b, suite, 20250810)
    except ProfileError:
        continue
    out[suite] = [json.dumps([e.claim_id, e.measured, e.bound, e.status,
                              _jsonable(e.details)]) for e in rep.entries]
print(json.dumps(out))
"""


@pytest.mark.parametrize("name", ["mini", "mini_reflexive"])
def test_verify_all_rows_are_the_single_suites_rows(name):
    # no state passes from one suite to the next: run_suite(b, "all", seed)
    # gives each suite's rows as run_suite(b, suite, seed) gives them, in
    # SUITES order, plus reflexivity.skipped where reflexivity cannot run
    from orbitlab.suites import SUITES

    cfg = os.path.join(os.path.dirname(__file__), "..", "configs", f"{name}.cfg")
    rows = json.loads(_python_one_thread("-c", _SUITE_ROWS, cfg))
    singles = [row for suite in SUITES if suite in rows for row in rows[suite]]
    if "reflexivity" in rows:
        assert rows["all"] == singles
    else:
        *got, skipped = rows["all"]
        assert got == singles
        assert json.loads(skipped)[0] == "reflexivity.skipped"
        assert list(SUITES)[-1] == "reflexivity"


def test_manifest_keys_frame_constants_by_stage(built, tmp_path):
    # stage 1 declares its gamma, so only stage 2 calibrates and measures a
    # frame constant; the manifest says which stage it belongs to
    manifest = json.load(open(os.path.join(built, "manifest.json")))
    assert list(manifest["frame_constants"]) == ["1", "2"]
    cfg = _shipped_cfg_variant(tmp_path, "mini", "gamma = auto", "gamma = 0.01")
    out = str(tmp_path / "build")
    assert main(["build", "--config", cfg, "--out", out]) == 0
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    b = ol.assemble(*ol.load_config(cfg))
    assert manifest["gammas"][0] == "0.01"
    assert manifest["frame_constants"] == {"2": b.frame_constants[2]}
    assert list(b.frame_constants) == [2]


def _shipped_cfg_variant(tmp_path, name, old, new):
    src = os.path.join(os.path.dirname(__file__), "..", "configs", f"{name}.cfg")
    text = open(src).read()
    assert old in text
    path = tmp_path / f"{name}_variant.cfg"
    path.write_text(text.replace(old, new, 1))
    return str(path)


def test_mini_rational_cfg_is_mini_cfg_in_exact_mode():
    root = os.path.join(os.path.dirname(__file__), "..", "configs")
    mini, rational = (open(os.path.join(root, f"{name}.cfg")).read().splitlines()
                      for name in ("mini", "mini_rational"))
    assert len(mini) == len(rational)
    assert [(a, b) for a, b in zip(mini, rational) if a != b] == [
        ("weight_mode = float", "weight_mode = rational")]


# configs/mini_rational.cfg: the count and sha256 of the hypercyclic and unicell
# report rows (runtime_s left out) and the sha256 of the stage-1 certificate;
# these suites run the exact route of the certificate pipelines
RATIONAL_MINI_ROWS = {
    "hypercyclic":
        (3, "9152703e8afbb5b4dc58128a56cf444f367a28bded3c223fee54b5fda2ebd2e9"),
    "unicell":
        (6, "1353a5366b6cb92f523d0ce2faf3ee6a3c345a2ece37d1a86d7996295c210c7e"),
}
RATIONAL_MINI_CERTIFICATE = \
    "a2f1fcaa84c4d8157d7ad99597225a1fd23a8e54d5b7c86d6809bc2d70ad90ed"


def test_rational_mini_cfg_certificate_reports_are_pinned(cfg_build):
    import hashlib

    build = cfg_build("mini_rational")
    for suite, pin in RATIONAL_MINI_ROWS.items():
        _cli_one_thread("verify", "--build", build, "--suite", suite)
        rows = json.load(open(build / f"report_{suite}.json"))
        for r in rows:
            del r["runtime_s"]
        digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode())
        assert (len(rows), digest.hexdigest()) == pin
    cert = (build / "certificate_stage1.json").read_bytes()
    assert hashlib.sha256(cert).hexdigest() == RATIONAL_MINI_CERTIFICATE


def test_complex_field_build_verifies(tmp_path):
    cfg = _shipped_cfg_variant(tmp_path, "mini", "scalar_field = real",
                               "scalar_field = complex")
    out = str(tmp_path / "build")
    assert main(["build", "--config", cfg, "--out", out]) == 0
    assert main(["verify", "--build", out, "--suite", "all"]) == 0
    rows = json.load(open(os.path.join(out, "report_all.json")))
    assert len(rows) == 83
    assert not [r["claim_id"] for r in rows if r["status"] == "fail"]


def test_build_refuses_weights_beyond_the_float_range(tmp_path, capsys):
    cfg = _shipped_cfg_variant(tmp_path, "thm1", "xi_end = 400000",
                               "xi_end = 6400000")
    rc = main(["build", "--config", cfg, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "lay-off interval" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name, line, typo, named", [
    ("mini.cfg", "weight_mode = float\n", "weight_mod = rational\n", "'weight_mod'"),
    ("thm1.cfg", "gamma = auto\n", "gama = 0.001\n", "'gama'")])
def test_build_refuses_misspelled_keys(name, line, typo, named, tmp_path, capsys):
    configs = os.path.join(os.path.dirname(__file__), "..", "configs")
    text = open(os.path.join(configs, name)).read()
    path = tmp_path / name
    path.write_text(text.replace(line, typo))
    rc = main(["build", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"unknown key {named}" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o")
