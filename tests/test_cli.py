"""Scenario parsing, command exit codes, artifacts, determinism."""

import os
from dataclasses import fields

import numpy as np
import pytest

from transtri.cli import Scenario, load_scenario, main, run, verify_only
from transtri.config import PipelineConfig
from transtri.errors import ConfigError

SCEN_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def scen(name):
    return os.path.join(SCEN_DIR, name)


class TestParsing:
    def test_scenario_a_fields(self):
        s = load_scenario(scen("scenario_a.cfg"))
        assert s.ambient_dim == 2
        assert s.mesh_spec == {"generator": "grid", "box_lo": [-2.0, -2.0],
                               "box_hi": [2.0, 2.0], "resolution": 4}
        assert s.map_family == "circle"
        assert s.map_params == {"center": [0.0, 0.0], "radius": 1.0}
        assert s.config.seed == 1
        assert s.outputs["svg"]

    def test_malformed_line_reports_number(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[scenario]\nambient_dim = 2\nnonsense without equals\n")
        with pytest.raises(ConfigError) as info:
            load_scenario(bad)
        assert "line 3" in str(info.value)

    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[scenario]\nambient_dim = 2\n"
                       "[mesh]\ngenerator = grid\nbox_lo = 0 0\nbox_hi = 1 1\n"
                       "[map]\nfamily = circle\ncenter = 0 0\nradius = 1\n"
                       "[pipeline]\nwarp_speed = 9\n")
        with pytest.raises(ConfigError, match="warp_speed"):
            load_scenario(bad)

    def test_missing_section(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[scenario]\nambient_dim = 2\n")
        with pytest.raises(ConfigError, match="mesh"):
            load_scenario(bad)

    def test_misspelled_section_exits_2_naming_its_line(self, tmp_path, capsys):
        # scenario C with [pipline]: its seed would otherwise drop to 0 unseen
        text = open(scen("scenario_c.cfg")).read()
        cfg = tmp_path / "s.cfg"
        cfg.write_text(text.replace("[pipeline]", "[pipline]"))
        line = text.splitlines().index("[pipeline]") + 1
        with pytest.raises(ConfigError, match=rf"line {line}: unknown section \[pipline\]"):
            load_scenario(cfg)
        assert main(["verify-only", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"scenario error: line {line}" in capsys.readouterr().err

    def test_mesh_from_file(self, tmp_path):
        mesh = tmp_path / "m.txt"
        mesh.write_text("3 1\n0.0 0.0\n1.0 0.0\n0.0 1.0\n3 0 1 2\n")
        cfg = tmp_path / "s.cfg"
        cfg.write_text("[scenario]\nambient_dim = 2\n"
                       "[mesh]\ngenerator = file\npath = m.txt\n"
                       "[map]\nfamily = point\nvalue = 5 5\n")
        s = load_scenario(cfg)
        code = verify_only(s, out_dir=str(tmp_path / "out"))
        assert code == 0


POINT_MAP = "family = point\nvalue = 0.3 0.2\n"
# the map kinds that read each seed density
DENSITY_MAPS = {
    "curve_density": "family = line\norigin = 0 0\ndirection = 1 1\n",
    "surface_density": "family = surface_patch\ncoeff_0_0 = 0 0\ncoeff_1_1 = 1 1\n",
}


def write_scenario(tmp_path, pipeline="", mesh="", map_keys=POINT_MAP):
    """A unit-square scenario with a map inside the mesh, a point by default."""
    cfg = tmp_path / "s.cfg"
    cfg.write_text("[scenario]\nambient_dim = 2\n"
                   f"[mesh]\ngenerator = grid\nbox_lo = 0 0\nbox_hi = 1 1\n{mesh}"
                   f"[map]\n{map_keys}"
                   f"[pipeline]\n{pipeline}")
    return cfg


class TestKnobs:
    def test_every_pipeline_field_parses_to_its_type(self, tmp_path):
        want = {f.name: f.default + 1 if type(f.default) is int else f.default * 2
                for f in fields(PipelineConfig)}
        # each seed density goes to a map that reads it, the rest to a point map
        files = [(POINT_MAP, [k for k in want if k not in DENSITY_MAPS])]
        files += [(map_keys, [k]) for k, map_keys in DENSITY_MAPS.items()]
        for map_keys, keys in files:
            s = load_scenario(write_scenario(
                tmp_path, "".join(f"{k} = {want[k]!r}\n" for k in keys), map_keys=map_keys))
            for f in fields(PipelineConfig):
                got = getattr(s.config, f.name)
                assert type(got) is type(f.default), f.name
                assert got == (want[f.name] if f.name in keys else f.default), f.name

    @pytest.mark.parametrize("key,map_keys,kind", [
        ("curve_density", POINT_MAP, "point"),
        ("surface_density", POINT_MAP, "point"),
        ("curve_density", DENSITY_MAPS["surface_density"], "box"),
        ("surface_density", DENSITY_MAPS["curve_density"], "interval"),
    ], ids=["curve-point", "surface-point", "curve-box", "surface-interval"])
    def test_density_key_the_map_ignores_exits_2(self, tmp_path, capsys, key, map_keys, kind):
        cfg = write_scenario(tmp_path, f"seed = 1\n{key} = 3\n", map_keys=map_keys)
        line = cfg.read_text().splitlines().index(f"{key} = 3") + 1
        code = main(["run", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"scenario error: line {line}: {key} ")
        assert f"has a {kind} domain" in err
        assert not (tmp_path / "o").exists()

    def test_removed_newton_knob_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="newton_tol"):
            load_scenario(write_scenario(tmp_path, "newton_tol = 1e-9\n"))

    @pytest.mark.parametrize("mesh,pipeline,line", [
        ("resolution = 1.7\n", "", 7),
        ("", "seed = 2.9\n", 11),
    ], ids=["resolution", "seed"])
    def test_integer_keys_reject_fractions(self, tmp_path, mesh, pipeline, line):
        with pytest.raises(ConfigError, match="expected an integer") as info:
            load_scenario(write_scenario(tmp_path, pipeline, mesh))
        assert f"line {line}:" in str(info.value)

    @pytest.mark.parametrize("pipeline,flags", [
        ("max_retries = 0\n", []),
        ("", ["--density", "0"]),
        ("", ["--seed", "-1"]),
    ], ids=["max_retries", "density", "seed"])
    def test_out_of_range_knob_exits_2(self, tmp_path, capsys, pipeline, flags):
        code = main(["run", str(write_scenario(tmp_path, pipeline)),
                     "--out", str(tmp_path / "o")] + flags)
        assert code == 2
        assert "scenario error:" in capsys.readouterr().err


class TestCommands:
    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[scenario]\nambient_dim= 2\n???\n")
        code = main(["verify-only", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    def test_run_scenario_c_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "out_c"
        code = main(["run", scen("scenario_c.cfg"), "--out", str(out)])
        assert code == 0
        for name in ("report.csv", "summary.txt", "chain_metadata.txt", "mesh.svg"):
            assert (out / name).exists(), name
        assert not [p for p in os.listdir(out) if p.startswith(".tmp-")]
        assert "result: PASS" in (out / "summary.txt").read_text()

    def test_artifacts_get_the_mode_of_a_plain_open(self, tmp_path):
        # under umask 0o022 a plain open(path, "w") makes a file 0o644, and so
        # must the temp-file-and-rename writer, for every artifact of a run
        old = os.umask(0o022)
        try:
            code = main(["run", scen("scenario_c.cfg"), "--out", str(tmp_path / "o")])
        finally:
            os.umask(old)
        assert code == 0
        modes = {p.name: p.stat().st_mode & 0o777 for p in (tmp_path / "o").iterdir()}
        assert set(modes) == {"report.csv", "summary.txt", "chain_metadata.txt", "mesh.svg"}
        assert set(modes.values()) == {0o644}

    def test_verify_only_disjoint_passes(self, tmp_path):
        code = main(["verify-only", scen("scenario_disjoint.cfg"),
                     "--out", str(tmp_path / "o")])
        assert code == 0

    def test_verify_only_tangent_fails_with_tangent_record(self, tmp_path):
        out = tmp_path / "out_t"
        code = main(["verify-only", scen("scenario_tangent.cfg"), "--out", str(out)])
        assert code == 1
        csv = (out / "report.csv").read_text()
        assert ";tangent;" in csv

    def test_same_seed_byte_identical_metadata(self, tmp_path):
        s = load_scenario(scen("scenario_c.cfg"))
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run(s, out_dir=str(out1)) == 0
        assert run(s, out_dir=str(out2)) == 0
        b1 = (out1 / "chain_metadata.txt").read_bytes()
        b2 = (out2 / "chain_metadata.txt").read_bytes()
        assert b1 == b2

    def test_seed_override_changes_metadata(self, tmp_path):
        s = load_scenario(scen("scenario_c.cfg"))
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        run(s, out_dir=str(out1))
        run(s, seed=99, out_dir=str(out2))
        assert (out1 / "chain_metadata.txt").read_bytes() != \
            (out2 / "chain_metadata.txt").read_bytes()

    def test_cli_overrides_apply(self, tmp_path):
        code = main(["verify-only", scen("scenario_disjoint.cfg"),
                     "--out", str(tmp_path / "o"),
                     "--density", "16", "--tol-rank", "1e-5"])
        assert code == 0

    @pytest.mark.parametrize("family,keys,kind", [
        ("point", "value = 0.3 0.2\n", "point"),
        ("surface_patch", "coeff_0_0 = 0 0\ncoeff_1_1 = 1 1\n", "box"),
    ], ids=["point", "surface_patch"])
    def test_density_for_a_map_without_curve_exits_2(self, tmp_path, capsys, family, keys,
                                                     kind):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("[scenario]\nambient_dim = 2\n"
                       "[mesh]\ngenerator = grid\nbox_lo = 0 0\nbox_hi = 1 1\n"
                       f"[map]\nfamily = {family}\n{keys}")
        code = main(["run", str(cfg), "--out", str(tmp_path / "o"), "--density", "16"])
        assert code == 2
        err = capsys.readouterr().err
        assert "scenario error:" in err and f"a {family} map has a {kind} domain" in err
        assert not (tmp_path / "o").exists()

    def test_help_keeps_the_command_lines(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        assert ("\n    transtri run <scenario> --seed N --out DIR\n"
                "    transtri verify-only <scenario> --out DIR\n") in capsys.readouterr().out

    def test_max_retries_for_verify_only_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify-only", scen("scenario_disjoint.cfg"), "--out", str(tmp_path / "o"),
                  "--max-retries", "4"])
        assert info.value.code == 2
        assert "unrecognized arguments: --max-retries 4" in capsys.readouterr().err

    def test_exit_matches_report_flag(self, tmp_path):
        # degenerate 3d scenario: verify-only fails on the unperturbed mesh
        out = tmp_path / "deg"
        code = main(["verify-only", scen("scenario_b_degenerate.cfg"),
                     "--out", str(out), "--density", "8"])
        assert code == 1
        assert "result: FAIL" in (out / "summary.txt").read_text()
        obj = (out / "mesh.obj").read_text().splitlines()
        assert any(line.startswith("v ") for line in obj)
        assert any(line.startswith("f ") for line in obj)
        assert (out / "curve_samples.csv").exists()

    def test_unknown_mesh_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[scenario]\nambient_dim = 2\n"
                       "[mesh]\ngenerator = grid\nbox_lo = 0 0\nbox_hi = 1 1\n"
                       "resolutoin = 4\n"
                       "[map]\nfamily = point\nvalue = 0 0\n")
        with pytest.raises(ConfigError, match="resolutoin"):
            load_scenario(bad)


class TestCoefficientFamilies:
    def test_poly_curve_rows(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("[scenario]\nambient_dim = 2\n"
                       "[mesh]\ngenerator = grid\nbox_lo = 0 0\nbox_hi = 1 1\n"
                       "[map]\nfamily = poly_curve\n"
                       "coeff0 = 0 0\ncoeff1 = 1 0.5\ncoeff2 = -0.3 0.2\n"
                       "lo = 0\nhi = 1\n")
        s = load_scenario(cfg)
        assert s.map_params["coeffs"].shape == (3, 2)
        assert s.map_params["lo"] == 0.0 and s.map_params["hi"] == 1.0
        from transtri.smoothmap import map_from_params
        h = map_from_params(s.map_family, s.map_params)
        assert np.allclose(h.eval([1.0]), [0.7, 0.7])

    def test_poly_curve_missing_row(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("[scenario]\nambient_dim = 2\n"
                       "[mesh]\ngenerator = grid\nbox_lo = 0 0\nbox_hi = 1 1\n"
                       "[map]\nfamily = poly_curve\ncoeff0 = 0 0\ncoeff2 = 1 1\n")
        with pytest.raises(ConfigError, match="coeff1"):
            load_scenario(cfg)

    def test_surface_patch_grid_of_rows(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("[scenario]\nambient_dim = 3\n"
                       "[mesh]\ngenerator = grid\nbox_lo = 0 0 0\nbox_hi = 1 1 1\n"
                       "[map]\nfamily = surface_patch\n"
                       "coeff_0_0 = 0 0 0.25\ncoeff_1_0 = 1 0 0.1\n"
                       "coeff_0_1 = 0 1 0.05\ncoeff_1_1 = 0 0 0.2\n"
                       "lo = 0 0\nhi = 1 1\n")
        s = load_scenario(cfg)
        assert s.map_params["coeffs"].shape == (2, 2, 3)
        from transtri.smoothmap import map_from_params
        h = map_from_params(s.map_family, s.map_params)
        assert np.allclose(h.eval([0.5, 0.5]), [0.5, 0.5, 0.375])

    def test_torus_knot_integer_windings(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("[scenario]\nambient_dim = 3\n"
                       "[mesh]\ngenerator = grid\nbox_lo = 0 0 0\nbox_hi = 1 1 1\n"
                       "[map]\nfamily = torus_knot\np = 2\nq = 3\n"
                       "big_radius = 1\nsmall_radius = 0.35\n")
        s = load_scenario(cfg)
        assert s.map_params["p"] == 2 and isinstance(s.map_params["p"], int)


class TestMapKeys:
    """Each family accepts only its own constructor's keys."""

    @pytest.mark.parametrize("family,keys,stray", [
        ("point", "value = 0.5 0.5\n", "radius = 1"),
        ("line", "origin = 0 0\ndirection = 1 0\n", "p = 2"),
        ("circle", "center = 0 0\nradius = 1\n", "p = 2"),
        ("poly_curve", "coeff0 = 0 0\ncoeff1 = 1 1\n", "center = 0 0"),
        ("torus_knot", "p = 2\nq = 3\n", "radius = 1"),
        ("surface_patch", "coeff_0_0 = 0 0\ncoeff_1_1 = 1 1\n", "direction = 1 0"),
    ])
    def test_stray_key_names_key_family_and_line(self, tmp_path, family, keys, stray):
        text = ("[scenario]\nambient_dim = 2\n"
                "[mesh]\ngenerator = grid\nbox_lo = 0 0\nbox_hi = 1 1\n"
                f"[map]\nfamily = {family}\n{keys}{stray}\n")
        cfg = tmp_path / "s.cfg"
        cfg.write_text(text)
        line = text.count("\n")
        key = stray.split(" =")[0]
        with pytest.raises(ConfigError, match=rf"line {line}: .*'{key}'.*{family}"):
            load_scenario(cfg)

    def test_stray_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("[scenario]\nambient_dim = 2\n"
                       "[mesh]\ngenerator = grid\nbox_lo = 0 0\nbox_hi = 1 1\n"
                       "[map]\nfamily = circle\ncenter = 0 0\nradius = 1\np = 2\n")
        code = main(["verify-only", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "scenario error:" in capsys.readouterr().err


class TestValueCounts:
    """A map key with the wrong number of values is a scenario error."""

    @pytest.mark.parametrize("family,keys,bad", [
        # a line's interval bounds are single numbers
        ("line", "origin = 0 0\ndirection = 1 0\n", "lo = -0.25 3"),
        # a circle's axes are points of the ambient space
        ("circle", "center = 0 0\nradius = 1\n", "u1 = 1 0 0"),
        # every polynomial coefficient row is a point of the ambient space
        ("poly_curve", "coeff0 = 0 0\n", "coeff1 = 1 1 1"),
        # a surface patch's bounds are corners of its parameter square
        ("surface_patch", "coeff_0_0 = 0 0\n", "lo = 0"),
    ])
    def test_wrong_count_exits_2_naming_key_family_and_line(self, tmp_path, capsys,
                                                            family, keys, bad):
        text = ("[scenario]\nambient_dim = 2\n"
                "[mesh]\ngenerator = grid\nbox_lo = 0 0\nbox_hi = 1 1\n"
                f"[map]\nfamily = {family}\n{keys}{bad}\n")
        cfg = tmp_path / "s.cfg"
        cfg.write_text(text)
        line = text.count("\n")
        key = bad.split(" =")[0]
        with pytest.raises(ConfigError, match=rf"line {line}: .*'{key}'.*{family}"):
            load_scenario(cfg)
        code = main(["verify-only", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("scenario error: ") and f"line {line}" in err and key in err


class TestRepeatedKeys:
    def test_repeated_key_names_key_and_both_lines(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("[scenario]\nambient_dim = 2\n"
                       "[mesh]\ngenerator = grid\nbox_lo = 0 0\nbox_hi = 1 1\n"
                       "[map]\nfamily = point\nvalue = 0 0\nvalue = 0.3 0.3\n")
        with pytest.raises(ConfigError, match=r"line 10: key 'value' repeated in \[map\], "
                                              r"first on line 9"):
            load_scenario(cfg)
        assert main(["verify-only", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "scenario error: line 10" in capsys.readouterr().err


class TestTruncatedMesh:
    @pytest.mark.parametrize("mesh,where", [
        ("3 1\n0.0 0.0\n1.0 0.0\n0.0 1.0\n3 0 1\n", "line 5: simplex row 0"),
        ("4 2\n0.0 0.0\n1.0 0.0\n0.0 1.0\n1.0 1.0\n3 0 1 2\n", "line 1: the header"),
    ])
    def test_truncated_mesh_file_exits_2(self, tmp_path, capsys, mesh, where):
        (tmp_path / "m.txt").write_text(mesh)
        cfg = tmp_path / "s.cfg"
        cfg.write_text("[scenario]\nambient_dim = 2\n"
                       "[mesh]\ngenerator = file\npath = m.txt\n"
                       "[map]\nfamily = point\nvalue = 5 5\n")
        assert main(["verify-only", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("scenario error: malformed mesh file") and where in err


@pytest.mark.xfail(strict=True, reason="run aborts at level 1 on edge (21, 42), which the line "
                                       "crosses at its midpoint: 64 candidates rejected")
def test_scenario_b_at_resolution_3_runs(tmp_path):
    with open(scen("scenario_b.cfg")) as fh:
        text = fh.read()
    assert text.count("resolution = 2\n") == 1
    cfg = tmp_path / "scenario_b.cfg"
    cfg.write_text(text.replace("resolution = 2\n", "resolution = 3\n"))
    assert run(load_scenario(cfg), out_dir=str(tmp_path / "out")) == 0
