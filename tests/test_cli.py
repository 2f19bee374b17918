"""End-to-end tests of the command-line interface, invoked in-process."""

import json
from pathlib import Path

import pytest

from fibercover import catalog
from fibercover.cli import main
from fibercover.cover import Cover
from fibercover.permcore import parse_cycles


@pytest.fixture
def deg7_cover_file(tmp_path):
    path = tmp_path / "cover.json"
    path.write_text(catalog.get("deg7-cover-1").to_json())
    return str(path)


@pytest.fixture
def deg7_pair_file(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(catalog.get("deg7-pair-1").to_json())
    return str(path)


def _nielsen_spec_dict(**overrides):
    data = {
        "degree": 7,
        "generators": [
            "(1 3)(4 5)",
            "(1 4 6 7)(2 3)",
            "(1 7 6 5 4 3 2)",
        ],
        "class_reps": [
            "(1 3)(4 5)",
            "(1 4 6 7)(2 3)",
            "(1 7 6 5 4 3 2)",
        ],
        "mode": "absolute",
    }
    data.update(overrides)
    return data


@pytest.fixture
def nielsen_spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_nielsen_spec_dict()))
    return str(path)


class TestCoverCommands:
    def test_validate_ok(self, deg7_cover_file, capsys):
        assert main(["validate", deg7_cover_file]) == 0
        out = capsys.readouterr().out
        assert "valid: True" in out
        assert "degree: 7" in out

    def test_validate_invalid_exit_2(self, tmp_path, capsys):
        bad = Cover.from_cycle_strings(3, ["z1", "z2"], ["(1 2)", "(1 2 3)"])
        path = tmp_path / "bad.json"
        path.write_text(bad.to_json())
        assert main(["validate", str(path)]) == 2
        assert "valid: False" in capsys.readouterr().out

    def test_genus(self, deg7_cover_file, capsys):
        assert main(["genus", deg7_cover_file]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_galois_genus(self, deg7_cover_file, capsys):
        assert main(["galois-genus", deg7_cover_file]) == 0
        assert capsys.readouterr().out.strip() == "10"

    def test_ochar_prints_fraction(self, deg7_cover_file, capsys):
        assert main(["ochar", deg7_cover_file]) == 0
        assert capsys.readouterr().out.strip() == "-3/28"

    def test_genus_of_invalid_cover_exit_2(self, tmp_path, capsys):
        bad = Cover.from_cycle_strings(3, ["z1", "z2"], ["(1 2)", "(1 2 3)"])
        path = tmp_path / "bad.json"
        path.write_text(bad.to_json())
        assert main(["genus", str(path)]) == 2

    def test_missing_file_exit_4(self, capsys):
        assert main(["genus", "/nonexistent.json"]) == 4
        assert "error:" in capsys.readouterr().err

    def test_malformed_json_exit_4(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["genus", str(path)]) == 4

    @pytest.mark.parametrize("command", ["validate", "genus"])
    def test_degree_0_cover_exit_4(self, command, tmp_path, capsys):
        path = tmp_path / "cover.json"
        path.write_text(
            json.dumps({"degree": 0, "branch_points": [], "cycles": []})
        )
        assert main([command, str(path)]) == 4
        assert "degree must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, expected",
        [("validate", "valid: True"), ("genus", "0"), ("ochar", "-17/55")],
    )
    def test_cover_above_order_cap(self, command, expected, tmp_path, capsys):
        # S_11 has order 11! > DEFAULT_ORDER_CAP; these commands need only
        # the branch cycles, so they build no group and hit no cap.
        a = parse_cycles("(1 2)", 11)
        b = parse_cycles("(1 2 3 4 5 6 7 8 9 10 11)", 11)
        cover = Cover(11, ("z1", "z2", "z3"), (a, b, (a * b).inverse()))
        path = tmp_path / "s11.json"
        path.write_text(cover.to_json())
        assert main([command, str(path)]) == 0
        assert expected in capsys.readouterr().out.splitlines()

    def test_degree_0_pair_exit_4(self, tmp_path, capsys):
        side = {"degree": 0, "cycles": []}
        path = tmp_path / "pair.json"
        path.write_text(
            json.dumps({"branch_points": [], "sigma": side, "tau": side})
        )
        assert main(["fiber", str(path)]) == 4


class TestFiberCommand:
    def test_summary_lines(self, deg7_pair_file, capsys):
        assert main(["fiber", deg7_pair_file]) == 0
        out = capsys.readouterr().out
        assert "components: 2" in out
        assert "deg_z=21" in out and "deg_z=28" in out

    def test_report_file(self, deg7_pair_file, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert main(["fiber", deg7_pair_file, "--report", str(report_path)]) == 0
        data = json.loads(report_path.read_text())
        assert data["reducible"] is True
        genuses = sorted(
            (c["deg_z"], c["genus_m1"], c["genus_m2"])
            for c in data["components"]
        )
        assert genuses == [(21, 0, 0), (28, 1, 1)]
        for c in data["components"]:
            assert c["pry_cover"]["degree"] == c["l"]


class TestNielsenCommands:
    def test_enum_count(self, nielsen_spec_file, capsys):
        assert main(["nielsen", "enum", nielsen_spec_file]) == 0
        out = capsys.readouterr().out
        assert "count: 6" in out
        assert "mode: absolute" in out

    def test_mode_override(self, nielsen_spec_file, capsys):
        assert (
            main(["nielsen", "enum", nielsen_spec_file, "--mode", "inner"]) == 0
        )
        assert "mode: inner" in capsys.readouterr().out

    def test_braid_orbits(self, nielsen_spec_file, capsys):
        assert main(["nielsen", "braid-orbits", nielsen_spec_file]) == 0
        out = capsys.readouterr().out
        assert "orbits: 1" in out
        assert "orbit 1 (size 6):" in out

    def test_search_cap_env_exit_3(self, nielsen_spec_file, monkeypatch, capsys):
        monkeypatch.setenv("FIBERCOVER_SEARCH_CAP", "5")
        assert main(["nielsen", "enum", nielsen_spec_file]) == 3

    def test_bad_search_cap_env_exit_4(
        self, nielsen_spec_file, monkeypatch, capsys
    ):
        for raw in ("lots", "0", "-5"):
            monkeypatch.setenv("FIBERCOVER_SEARCH_CAP", raw)
            assert main(["nielsen", "enum", nielsen_spec_file]) == 4

    @pytest.mark.parametrize("command", ["enum", "braid-orbits"])
    def test_class_rep_outside_group_exit_4(self, command, tmp_path, capsys):
        spec = _nielsen_spec_dict(
            generators=["(1 2 3 4 5 6 7)"], class_reps=["(1 2)"]
        )
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["nielsen", command, str(path)]) == 4
        assert "not in group" in capsys.readouterr().err

    def test_coalesce_position_out_of_range_exit_4(self, tmp_path, capsys):
        payload = {"degree": 7, "entries": ["(1 2 3 4 5 6 7)", "(1 7 6 5 4 3 2)"]}
        path = tmp_path / "element.json"
        path.write_text(json.dumps(payload))
        assert main(["nielsen", "coalesce", str(path), "--at", "5"]) == 4
        assert "out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_non_boolean_include_reorderings_exit_4(self, value, tmp_path, capsys):
        spec = _nielsen_spec_dict(mode="inner", include_reorderings=value)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["nielsen", "enum", str(path)]) == 4
        assert "include_reorderings" in capsys.readouterr().err

    def test_include_reorderings_false_pins_order(self, tmp_path, capsys):
        spec = _nielsen_spec_dict(mode="inner", include_reorderings=False)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["nielsen", "enum", str(path)]) == 0
        assert "count: 1" in capsys.readouterr().out

    def test_coalesce_matches_reference_merge(self, tmp_path, capsys):
        tuples = catalog.get("deg7-coalesce-tuples")
        payload = {
            "degree": 7,
            "entries": [str(p) for p in tuples["tuple-1"]],
            "group_generators": [
                "(1 3)(4 5)",
                "(1 4 6 7)(2 3)",
                "(1 7 6 5 4 3 2)",
            ],
        }
        path = tmp_path / "element.json"
        path.write_text(json.dumps(payload))
        assert main(["nielsen", "coalesce", str(path), "--at", "2"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "(1 3)(4 5) (1 4 6 7)(2 3) (1 7 6 5 4 3 2)"
        assert "restricted: True" in out


class TestScreenCommand:
    def test_flagged_chebyshev(self, tmp_path, capsys):
        pair = catalog.get("deg7-pair-2")
        small = min(pair.components, key=lambda c: len(c.orbit))
        pry = small.pry_branch_cycles()
        by_order = sorted(
            zip(pry.branch_points, pry.cycles),
            key=lambda bc: (bc[1].order(), bc[0]),
        )
        labels = tuple(b for b, _ in by_order)
        g1 = catalog.build_chebyshev_cover(5, labels)
        prw_path = tmp_path / "prw.json"
        g1_path = tmp_path / "g1.json"
        prw_path.write_text(pry.to_json())
        g1_path.write_text(g1.to_json())
        assert main(["screen", str(prw_path), str(g1_path)]) == 0
        out = capsys.readouterr().out
        assert "fail2a: True" in out
        assert "any_flag: True" in out

    def test_unflagged_generic_cyclic(self, tmp_path, capsys):
        pair = catalog.get("deg7-pair-1")
        big = max(pair.components, key=lambda c: len(c.orbit))
        pry = big.pry_branch_cycles()
        g1 = catalog.build_cyclic_cover(3, ("t1", "t2"))
        prw_path = tmp_path / "prw.json"
        g1_path = tmp_path / "g1.json"
        prw_path.write_text(pry.to_json())
        g1_path.write_text(g1.to_json())
        assert main(["screen", str(prw_path), str(g1_path)]) == 0
        out = capsys.readouterr().out
        assert "any_flag: False" in out


class TestCatalogCommand:
    def test_list(self, capsys):
        assert main(["catalog", "list"]) == 0
        out = capsys.readouterr().out
        assert "deg7-pair-1:" in out
        assert "sm-pair-5:" in out

    def test_get_cover(self, capsys):
        assert main(["catalog", "get", "deg7-cover-1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["degree"] == 7

    def test_get_pair(self, capsys):
        assert main(["catalog", "get", "deg7-pair-1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["sigma"]["degree"] == 7
        assert data["tau"]["degree"] == 7

    def test_get_metadata(self, capsys):
        assert main(["catalog", "get", "degrees-davenport"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["degrees"][0] == 7

    def test_get_nielsen_spec(self, capsys):
        assert main(["catalog", "get", "deg7-class-2^3.7"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["include_reorderings"] is False

    def test_unknown_key_exit_4(self, capsys):
        assert main(["catalog", "get", "nope"]) == 4

    def test_get_without_key_exit_4(self, capsys):
        assert main(["catalog", "get"]) == 4


class TestGrowthCommand:
    def test_chebyshev_family_stays_genus_0(self, capsys):
        assert (
            main(
                [
                    "growth",
                    "--pair",
                    "deg7-pair-2",
                    "--g1-family",
                    "chebyshev",
                    "--max-degree",
                    "4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "component 1:" in out
        lines = [
            l for l in out.splitlines() if l.strip().startswith("g1 degree")
        ]
        assert lines  # alignment must succeed for the small component
        for line in lines:
            assert "min component genus 0" in line
            assert "any_flag=True" in line

    def test_cyclic_family_grows(self, capsys):
        assert (
            main(
                [
                    "growth",
                    "--pair",
                    "deg7-pair-1",
                    "--g1-family",
                    "cyclic",
                    "--max-degree",
                    "4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        # The large component's table must show strictly increasing genus
        # and no screen flag.
        lines = [l for l in out.splitlines() if l.strip().startswith("g1 degree")]
        assert any("any_flag=False" in l for l in lines)

    def test_unknown_pair_exit_4(self, capsys):
        assert (
            main(
                [
                    "growth",
                    "--pair",
                    "nope",
                    "--g1-family",
                    "cyclic",
                    "--max-degree",
                    "3",
                ]
            )
            == 4
        )


GOLDEN = Path(__file__).parent / "golden"


def _golden_argv(case: str, tmp_path) -> list[str]:
    def pair_file(key: str) -> str:
        path = tmp_path / "pair.json"
        path.write_text(catalog.get(key).to_json())
        return str(path)

    if case.startswith("fiber_"):
        return ["fiber", pair_file(case[len("fiber_") :])]
    if case == "nielsen_braid-orbits_inner":
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(_nielsen_spec_dict(mode="inner", include_reorderings=False))
        )
        return ["nielsen", "braid-orbits", str(path)]
    if case == "growth_deg7-pair-2_chebyshev_6":
        return [
            "growth",
            "--pair",
            "deg7-pair-2",
            "--g1-family",
            "chebyshev",
            "--max-degree",
            "6",
        ]
    return ["catalog", "get", case[len("catalog_get_") :]]


class TestGoldenStdout:
    """Byte-for-byte stdout of commands whose output depends on
    transversal and BFS order (the projection branch cycles), on the
    direct-sum/split of joint tuples, and on braid-orbit walks."""

    @pytest.mark.parametrize(
        "case",
        [
            "fiber_deg7-pair-1",
            "fiber_deg7-pair-2",
            "nielsen_braid-orbits_inner",
            "growth_deg7-pair-2_chebyshev_6",
            "catalog_get_deg7-pair-2^3.7",
            "catalog_get_hilbert-siegel-m5",
        ],
    )
    def test_stdout_matches_golden(self, case, tmp_path, capsys):
        assert main(_golden_argv(case, tmp_path)) == 0
        expected = (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")
        assert capsys.readouterr().out == expected
