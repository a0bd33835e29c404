from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import orbitlab as ol
from orbitlab.errors import ConfigError
from orbitlab.profiles import (COMPANION_FAMILY, doubled_layoffs, mini_schedule,
                               reference_schedule, statistical_schedule)
from orbitlab.schedule import StageParams, StageSchedule

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def broken(sched, **changes):
    st0 = replace(sched.stages[0], **changes)
    return replace(sched, stages=(st0,) + sched.stages[1:])


def test_reference_schedule_is_valid():
    sched, _ = reference_schedule()
    assert ol.validate(sched) == []


def test_nu_formula_violation():
    sched, _ = reference_schedule()
    worse = broken(sched, b=11)  # 11 <= 2*4 + 4
    assert any("b lower bound at stage 1" in v for v in ol.validate(worse))


def test_c_strictly_increasing_violation():
    sched, _ = reference_schedule()
    bad = broken(sched, c=(4096, 4096))
    assert any("c strictly increasing" in v for v in ol.validate(bad))


def test_c_gap_violations():
    sched, _ = reference_schedule()
    assert any("c gap at stage 1 (1)" in v
               for v in ol.validate(broken(sched, c=(100, 65536))))
    assert any("c gap at stage 1 (2)" in v
               for v in ol.validate(broken(sched, c=(4096, 8000))))


def test_xi_above_fan_end_violation():
    sched, _ = reference_schedule()
    bad = replace(sched, xi_end=100_000)
    assert any("xi_next above fan end" in v for v in ol.validate(bad))


def test_degree_and_positivity():
    sched, _ = reference_schedule()
    assert any("degree bound" in v for v in ol.validate(broken(sched, d=300)))
    assert any("delta positive" in v for v in ol.validate(broken(sched, delta=0.0)))


def test_monotone_smalls_across_stages():
    sched, _ = mini_schedule()
    st2 = replace(sched.stages[1], delta=0.25)  # not < stage 1's 0.25
    bad = replace(sched, stages=(sched.stages[0], st2))
    assert any("delta strictly decreasing at stage 2" in v for v in ol.validate(bad))


def test_validate_idempotent_and_pure():
    sched, _ = reference_schedule()
    assert ol.validate(sched) == ol.validate(sched)
    bad = broken(sched, c=(4096, 4096))
    assert ol.validate(bad) == ol.validate(bad)


def test_config_roundtrip(tmp_path):
    for mode in (ol.FLOAT, ol.RATIONAL):
        sched, fams = mini_schedule(weight_mode=mode)
        if mode == ol.RATIONAL:
            sched = sched.with_gammas([Fraction(1, 8), Fraction(1, 1 << 20)])
        path = tmp_path / f"mini_{mode}.cfg"
        ol.save_config(path, sched, fams)
        sched2, fams2 = ol.load_config(path)
        assert sched2 == sched
        assert fams2 == fams
    # 1.0 == 1, so equality alone does not show that rational mode parsed
    # the fan and gamma scalars exactly
    scalars = [a for fam in fams2 for p in fam for a in p.coeffs]
    scalars += [st.gamma for st in sched2.stages]
    assert not any(isinstance(a, float) for a in scalars)


def test_doubled_layoffs_of_loaded_config_is_valid():
    twins = {"mini.cfg": ([(2, 12, (29, 90)), (149, 300, (44944,))], 89_889),
             "thm1.cfg": ([(4, 124, (8171, 131009))], 799_812)}
    for name, (stages, xi_end) in twins.items():
        sched, _ = ol.load_config(CONFIGS / name)
        twin = doubled_layoffs(sched)
        assert ol.validate(twin) == []
        assert [(st.xi, st.b, st.c) for st in twin.stages] == stages, name
        assert twin.xi_end == xi_end, name


@pytest.mark.parametrize("name, profile", [
    ("mini.cfg", lambda: mini_schedule()),
    ("mini_rational.cfg", lambda: mini_schedule(weight_mode=ol.RATIONAL)),
    ("mini_reflexive.cfg", lambda: mini_schedule(companion=True)),
    ("thm1.cfg", lambda: reference_schedule()),
    ("orbit_reflexive.cfg", lambda: (reference_schedule()[0], (COMPANION_FAMILY,))),
], ids=["mini", "mini_rational", "mini_reflexive", "thm1", "orbit_reflexive"])
def test_shipped_configs_equal_their_profiles(name, profile):
    # the benchmark measures the same schedules through the library
    # profiles and through the CLI configs only while these agree
    assert ol.load_config(CONFIGS / name) == profile()


def test_config_rejects_bad_nu(tmp_path):
    sched, fams = mini_schedule()
    path = tmp_path / "bad_nu.cfg"
    ol.save_config(path, sched, fams)
    text = path.read_text()
    assert "nu = 16\n" in text
    path.write_text(text.replace("nu = 16\n", "nu = 3\n", 1))
    with pytest.raises(ConfigError) as exc:
        ol.load_config(path)
    assert "nu-formula at stage 1" in str(exc.value)


def test_config_rejects_invalid(tmp_path):
    sched, fams = reference_schedule()
    bad = broken(sched, c=(4096, 4096))
    path = tmp_path / "bad.cfg"
    ol.save_config(path, bad, fams)
    with pytest.raises(ConfigError) as exc:
        ol.load_config(path)
    assert "c strictly increasing" in str(exc.value)


def test_config_missing_file():
    with pytest.raises(ConfigError):
        ol.load_config("/nonexistent/path.cfg")


def test_statistical_schedule_validates():
    for field in (ol.REAL, ol.COMPLEX):
        sched, fams = statistical_schedule(6, field)
        assert ol.validate(sched) == []
        assert sched.n_stages == 6


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=5))
def test_stage_xi_monotone(n_stages, probe):
    sched, _ = statistical_schedule(max(2, n_stages))
    xs = [sched.xi(i) for i in range(sched.n_stages + 2)]
    assert all(a < b for a, b in zip(xs, xs[1:]))


def test_regions_tile_truncation_smoke():
    # cross-module smoke: every index of the mini truncation is classified,
    # contiguously and exactly once
    sched, _ = mini_schedule()
    prev = None
    for j in range(sched.xi_end + 1):
        tag = ol.classify(j, sched)
        assert tag is not None
        prev = tag


@pytest.mark.parametrize("name", ["mini", "mini_reflexive", "thm1",
                                  "orbit_reflexive"])
def test_config_echo_of_a_build_roundtrips(name, tmp_path):
    # the basis's schedule carries its calibrated gammas, and the config
    # echo of it loads back equal, gammas included
    b = ol.assemble(*ol.load_config(CONFIGS / f"{name}.cfg"))
    assert None not in b.gammas
    path = tmp_path / "schedule.cfg"
    ol.save_config(path, b.schedule, b.families)
    assert ol.load_config(path) == (b.schedule, b.families)


def _mini_cfg_text(tmp_path):
    sched, fams = mini_schedule()
    path = tmp_path / "mini.cfg"
    ol.save_config(path, sched, fams)
    return path, path.read_text()


def test_k_is_the_fan_size():
    sched, _ = mini_schedule()
    assert [st.k for st in sched.stages] == [2, 1]
    assert any("fan size at stage 1" in v
               for v in ol.validate(broken(sched, c=())))


def test_config_k_line_is_a_checked_echo(tmp_path):
    path, text = _mini_cfg_text(tmp_path)
    assert "k = 2\n" in text
    path.write_text(text.replace("k = 2\n", "k = 3\n", 1))
    with pytest.raises(ConfigError, match="fan size at stage 1"):
        ol.load_config(path)
    path.write_text(text.replace("k = 2\n", "").replace("k = 1\n", ""))
    sched, _ = ol.load_config(path)
    assert sched == mini_schedule()[0]


def test_config_stage_count_comes_from_the_stage_sections(tmp_path):
    path, text = _mini_cfg_text(tmp_path)
    assert "n_stages = 2\n" in text
    path.write_text(text.replace("n_stages = 2\n", "n_stages = 1\n"))
    with pytest.raises(ConfigError, match="n_stages = 1 but 2"):
        ol.load_config(path)
    path.write_text(text.replace("n_stages = 2\n", ""))
    sched, _ = ol.load_config(path)
    assert sched == mini_schedule()[0]
    path.write_text(text.partition("[stage 1]")[0])
    with pytest.raises(ConfigError, match="no stages"):
        ol.load_config(path)


def test_schedule_hash_is_cached_per_instance():
    # the hash is the dataclass hash of the fields, computed once per
    # instance: equal schedules hash equal, a replace() copy is rehashed,
    # and a pickled copy does not carry the cached value along
    import pickle

    sched, _ = ol.load_config(CONFIGS / "mini.cfg")
    fields = (sched.stages, sched.xi_end, sched.scalar_field, sched.weight_mode)
    assert hash(sched) == hash(fields) == hash(sched)
    same, _ = ol.load_config(CONFIGS / "mini.cfg")
    assert same == sched and same is not sched and hash(same) == hash(sched)
    for copy in (replace(sched, xi_end=40000), sched.with_gammas([0.5, 0.25]),
                 replace(sched, weight_mode=ol.RATIONAL)):
        assert copy != sched
        assert hash(copy) == hash((copy.stages, copy.xi_end, copy.scalar_field,
                                   copy.weight_mode))
    assert hash(replace(sched)) == hash(sched)
    thawed = pickle.loads(pickle.dumps(sched))
    assert "_hash" not in vars(thawed) and thawed == sched


# the two misspellings a config once loaded without a word: mini.cfg as a
# float schedule, thm1.cfg with gamma auto-calibrated
MISSPELLED = [("mini.cfg", "weight_mode = float\n", "weight_mod = rational\n",
               "key 'weight_mod' in [schedule]"),
              ("thm1.cfg", "gamma = auto\n", "gama = 0.001\n",
               "key 'gama' in [stage 1]")]


@pytest.mark.parametrize("name, line, typo, named", MISSPELLED,
                         ids=["weight_mod", "gama"])
def test_config_refuses_unknown_keys(name, line, typo, named, tmp_path):
    text = (CONFIGS / name).read_text()
    assert text.count(line) == 1
    path = tmp_path / name
    path.write_text(text.replace(line, typo))
    with pytest.raises(ConfigError) as exc:
        ol.load_config(path)
    assert f"unknown {named}" in str(exc.value)


def test_config_refuses_unknown_sections(tmp_path):
    path, text = _mini_cfg_text(tmp_path)
    for extra, named in (("[shedule]\nxi_end = 5\n", "section [shedule]"),
                         ("[stage 4]\nxi = 2\n", "section [stage 4]")):
        path.write_text(text.replace("[stage 2]", extra + "\n[stage 2]"))
        with pytest.raises(ConfigError) as exc:
            ol.load_config(path)
        assert f"unknown {named}" in str(exc.value)


def test_config_names_every_unknown_key(tmp_path):
    path, text = _mini_cfg_text(tmp_path)
    path.write_text(text.replace("eps = 0.25\n", "eps = 0.25\nepsilon = 1\n")
                    .replace("xi_end = 31600\n", "xi_end = 31600\nseed = 3\n"))
    with pytest.raises(ConfigError) as exc:
        ol.load_config(path)
    assert "key 'seed' in [schedule]" in str(exc.value)
    assert "key 'epsilon' in [stage 1]" in str(exc.value)
