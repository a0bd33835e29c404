import csv
import json
import os

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


def test_build_negative_trunc(mini_cfg, tmp_path, capsys):
    rc = main(["build", "--config", mini_cfg, "--out", str(tmp_path / "b"),
               "--trunc", "-5"])
    assert rc == 2
    assert "n_trunc -5" in capsys.readouterr().err


def test_shipped_profiles_load():
    root = os.path.join(os.path.dirname(__file__), "..", "configs")
    for name in ("thm1.cfg", "orbit_reflexive.cfg", "mini.cfg",
                 "mini_reflexive.cfg"):
        sched, fams = ol.load_config(os.path.join(root, name))
        assert ol.validate(sched) == []


# sha256 of the mini.cfg build; the calibrated gammas (and so every file)
# depend on the BLAS summation order, so the build runs single-threaded
MINI_BUILD_HASHES = {
    "E_in_F.mtx": "70b198886db537d2d52b2a445d811e1ca0f088a9ddfb997def2654269053f527",
    "F_in_E.mtx": "c51bdd9231dcb415b1f9c9d51c47e8d867825acd22a4b56706f87b21d4f00995",
    "T_f.mtx": "0ddcd5db7b522df6ff193fdc203ef2d0afef3787f2f21c685014cc54a76f5cc7",
    "schedule.cfg": "6a76bd723b6ddd32550b8411a5465a419e73a1836ee6a7df40f6211f743239e0",
}


# sha256 of the `verify --suite all` report rows, runtime_s left out, of
# mini.cfg and of thm1.cfg; thm1 is the shipped config on which boundedness
# rows assert (shift.low.nu, shift.band.nu, powm.spill), so a change to a
# calibration gate shows in its pin
MINI_REPORT_ROWS_HASH = \
    "99a24781e094eb6333d527e5b4429359b4607e1aefd3bc16fc5f1aab776da538"
THM1_REPORT_ROWS_HASH = \
    "17bd9180b953762652ea6565afc85173d5171b4567df3a6b0301c2ebeeda718c"


def _cli_one_thread(*args):
    """Run the orbitlab CLI in a fresh single-threaded-BLAS process; a nonzero
    exit raises."""
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    threads = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                "MKL_NUM_THREADS")}
    subprocess.run([sys.executable, "-m", "orbitlab.cli", *map(str, args)],
                   check=True, capture_output=True,
                   env={**os.environ, **threads, "PYTHONPATH": str(src)})


@pytest.fixture(scope="module")
def mini_cfg_build(tmp_path_factory):
    out = tmp_path_factory.mktemp("mini_cfg_build")
    cfg = os.path.join(os.path.dirname(__file__), "..", "configs", "mini.cfg")
    _cli_one_thread("build", "--config", cfg, "--out", out)
    return out


def test_mini_cfg_build_hashes_are_pinned(mini_cfg_build):
    manifest = json.load(open(mini_cfg_build / "manifest.json"))
    assert manifest["hashes"] == MINI_BUILD_HASHES


def _verify_all_rows(build):
    """Rows of `verify --suite all` on a build, runtime_s left out, and
    their sha256."""
    import hashlib

    _cli_one_thread("verify", "--build", build, "--suite", "all")
    rows = json.load(open(build / "report_all.json"))
    for r in rows:
        del r["runtime_s"]
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode())
    return rows, digest.hexdigest()


def test_mini_cfg_verify_all_report_is_pinned(mini_cfg_build):
    rows, digest = _verify_all_rows(mini_cfg_build)
    assert len(rows) == 83
    assert not [r["claim_id"] for r in rows if r["status"] == "fail"]
    assert digest == MINI_REPORT_ROWS_HASH


def test_thm1_cfg_verify_all_report_is_pinned(tmp_path):
    cfg = os.path.join(os.path.dirname(__file__), "..", "configs", "thm1.cfg")
    _cli_one_thread("build", "--config", cfg, "--out", tmp_path)
    rows, digest = _verify_all_rows(tmp_path)
    assert len(rows) == 67
    assert not [r["claim_id"] for r in rows if r["status"] == "fail"]
    assert digest == THM1_REPORT_ROWS_HASH
