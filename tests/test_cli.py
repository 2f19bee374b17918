"""End-to-end tests of the command-line interface, invoked in-process."""

import argparse
import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fibercover
from fibercover import catalog, cli, fiberprod, permgroup
from fibercover.cli import _catalog_json, main
from fibercover.cover import Cover
from fibercover.permcore import parse_cycles
from fibercover.permgroup import CapExceededError


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
        [
            ("validate", "valid: True"),
            ("genus", "0"),
            ("ochar", "-17/55"),
            ("galois-genus", "6168961"),
        ],
    )
    def test_cover_above_order_cap(self, command, expected, tmp_path, capsys):
        # S_11 has order 11! > 10^7.  None of these commands lists the
        # group's elements, so none hits a cap.
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


class TestLoaderErrors:
    """Each JSON loader names the file and what it expected in one
    ``error:`` line, and prints nothing on stdout."""

    @pytest.mark.parametrize(
        "argv, doc, prefix",
        [
            (["genus"], {"degree": 3, "cycles": []}, "bad cover data: 'branch_points'"),
            (
                ["fiber"],
                {"branch_points": [], "sigma": {"degree": 2, "cycles": []}},
                "bad paired-cover data: 'tau'",
            ),
            (["nielsen", "enum"], {"degree": 7}, "bad Nielsen spec: 'generators'"),
            (["nielsen", "coalesce"], {"degree": 7}, "bad element data: 'entries'"),
        ],
    )
    def test_bad_data_prefix(self, argv, doc, prefix, tmp_path, capsys):
        path = tmp_path / "data.json"
        path.write_text(json.dumps(doc))
        assert main(argv + [str(path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: {prefix}\n"

    def test_unreadable_spec_reported_before_bad_search_cap(
        self, monkeypatch, capsys
    ):
        monkeypatch.setenv("FIBERCOVER_SEARCH_CAP", "lots")
        assert main(["nielsen", "enum", "/nonexistent/spec.json"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read JSON from /nonexistent/spec.json:")
        assert len(err.splitlines()) == 1


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

    def test_positive_genus_y_cover_exit_2(self, tmp_path, capsys):
        # A genus-1 degree-6 cover against a relabelled copy of itself.
        pair = {
            "branch_points": ["z1", "z2", "z3"],
            "sigma": {"degree": 6, "cycles": ["(1 5 4 2 6)", "(1 5 3 2 6)", "(1 2 3)(4 5 6)"]},
            "tau": {"degree": 6, "cycles": ["(1 3 4 6 5)", "(1 2 4 6 5)", "(1 6 3)(2 5 4)"]},
        }
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(pair))
        assert main(["fiber", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "g_y = 1" in captured.err

    @pytest.mark.parametrize(
        "labels, sigma, tau, line",
        [
            (
                ["z1", "z2", "infinity"],
                ["(1 2)", "(1 2)", "(1 2 3)"],
                ["(1 2)", "(1 2)", "(1 2 3)"],
                "error: sigma tuple fails product-one\n",
            ),
            (
                ["z1", "z2"],
                ["(1 2 3)", "(1 3 2)"],
                ["(1 2)", "(1 2)"],
                "error: tau tuple is not transitive\n",
            ),
        ],
        ids=["sigma-product-one", "tau-transitive"],
    )
    def test_invalid_side_exit_2(self, labels, sigma, tau, line, tmp_path, capsys):
        pair = {
            "branch_points": labels,
            "sigma": {"degree": 3, "cycles": sigma},
            "tau": {"degree": 3, "cycles": tau},
        }
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(pair))
        assert main(["fiber", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == line

    def test_sm_pair_11_stops_at_search_cap(self, tmp_path, capsys):
        path = tmp_path / "pair.json"
        path.write_text(catalog.build_sm_pair(11).to_json())
        assert main(["fiber", str(path)]) == 3
        err = capsys.readouterr().err
        assert "(image group order 362880 x 37 entries)" in err
        assert "search_cap parameter" in err

    @pytest.mark.parametrize(
        "error, code, line",
        [
            (RuntimeError("no generating product-one realization found"), 5,
             "error: internal: no generating product-one realization found\n"),
            (CapExceededError("listing 3 cosets exceeds the listing cap 2"), 3,
             "error: listing 3 cosets exceeds the listing cap 2\n"),
        ],
        ids=["internal", "cap"],
    )
    def test_failed_check_exit_code(
        self, error, code, line, deg7_pair_file, monkeypatch, capsys
    ):
        """A failed consistency check is one ``error: internal:`` line and
        exit 5; a cap error, also a ``RuntimeError``, still exits 3."""

        def fail(*args):
            raise error

        monkeypatch.setattr(fiberprod, "_product_one_adjust", fail)
        assert main(["fiber", deg7_pair_file]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == line


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

    def test_class_above_listing_cap_exit_3(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(permgroup, "LISTING_CAP", 1000)
        spec = _nielsen_spec_dict(
            degree=12,
            generators=["(1 2)", "(1 2 3 4 5 6 7 8 9 10 11 12)"],
            class_reps=["(1 2)", "(1 2 3 4 5 6 7 8 9 10 11 12)"],
        )
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["nielsen", "enum", str(path)]) == 3
        assert "class members exceeds the listing cap 1000" in capsys.readouterr().err

    def test_search_deeper_than_the_depth_limit_exit_3(self, tmp_path, capsys):
        """1,200 positions in one ordering: refused with one line, not a
        ``RecursionError`` reported as an internal error."""
        spec = _nielsen_spec_dict(
            degree=2,
            generators=["(1 2)"],
            class_reps=["(1 2)"] * 1200,
            include_reorderings=False,
        )
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["nielsen", "enum", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "1200 positions exceeds the depth limit" in err

    def test_one_ordering_of_ten_equal_classes_exit_3(self, tmp_path, capsys):
        """A5 with ten 3-cycles in all orderings: one distinct ordering,
        listed without a walk over the 10! position permutations, and
        the search is refused by its cap."""
        spec = _nielsen_spec_dict(
            degree=5,
            generators=["(1 2 3)", "(1 2 3 4 5)"],
            class_reps=["(1 2 3)"] * 10,
            include_reorderings=True,
        )
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["nielsen", "enum", str(path)]) == 3
        assert "search space exceeds cap" in capsys.readouterr().err

    def test_outer_element_outside_the_normalizer_exit_4(self, tmp_path, capsys):
        """(3 4) does not normalize <(1 2 3)>: conjugating by it would
        print tuples outside the group."""
        spec = _nielsen_spec_dict(
            degree=4,
            generators=["(1 2 3)"],
            class_reps=["(1 2 3)"] * 3,
            outer_elements=["(3 4)"],
            include_reorderings=False,
        )
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["nielsen", "enum", str(path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "bad Nielsen spec: outer element (3 4)" in captured.err

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

    @pytest.mark.parametrize("degree", [0, -1])
    @pytest.mark.parametrize(
        "argv",
        [
            ["enum"],
            ["braid-orbits"],
            ["braid-orbits", "--mode", "inner"],
            ["braid-orbits", "--mode", "raw"],
            ["coalesce", "--at", "1"],
        ],
    )
    def test_degree_0_spec_exit_4(self, argv, degree, tmp_path, capsys):
        """A group of degree below 1 is refused where it is built, so each
        loader exits 4 with one ``error:`` line and no traceback."""
        payload = {"degree": degree, "generators": [], "class_reps": []}
        if argv[0] == "coalesce":
            payload = {"degree": degree, "entries": []}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        assert main(["nielsen", argv[0], str(path), *argv[1:]]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: ")
        assert "degree must be >= 1" in captured.err

    def test_coalesce_entry_outside_group_exit_4(self, tmp_path, capsys):
        payload = {
            "degree": 4,
            "group_generators": ["(1 2 3)"],
            "entries": ["(2 3 4)", "(2 3 4)", "(2 3 4)"],
        }
        path = tmp_path / "element.json"
        path.write_text(json.dumps(payload))
        assert main(["nielsen", "coalesce", str(path), "--at", "1"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}: bad element data: entry (2 3 4) is not in the group\n"
        )

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

    def test_weak_joint_pair(self, tmp_path, capsys):
        """The fail2d check takes the weak pair that ``growth`` builds,
        whose entries are the identity on one side at every label."""
        pair = catalog.get("deg7-pair-2")
        for component in pair.components:
            pry = component.pry_branch_cycles()
            g1 = catalog.build_cyclic_cover(2, ("t1", "t2"))
            joint = fiberprod.pair_covers_over_common_points(pry, g1)
            expected = fiberprod.screen_g1(pry, g1, joint=joint).fail2d
            paths = [tmp_path / name for name in ("prw.json", "g1.json", "joint.json")]
            for path, value in zip(paths, (pry, g1, joint)):
                path.write_text(value.to_json())
            argv = ["screen", *map(str, paths[:2]), "--joint", str(paths[2])]
            assert main(argv) == 0
            assert f"fail2d: {expected}" in capsys.readouterr().out.splitlines()

    def test_joint_pair_of_other_covers_exit_2(self, tmp_path, capsys):
        """A joint pair whose sides are not pr_w and g1 is refused with one
        ``error:`` line and no report: ``deg7-pair-1`` against a cyclic
        degree-3 cover and a cyclic degree-2 cover."""
        paths = [tmp_path / name for name in ("prw.json", "g1.json", "joint.json")]
        paths[0].write_text(catalog.build_cyclic_cover(3, ("z1", "infinity")).to_json())
        paths[1].write_text(catalog.build_cyclic_cover(2, ("z1", "infinity")).to_json())
        assert main(["catalog", "get", "deg7-pair-1"]) == 0
        paths[2].write_text(capsys.readouterr().out)
        argv = ["screen", *map(str, paths[:2]), "--joint", str(paths[2])]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: the joint pair's x-side is not pr_w")


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
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown catalog key 'nope'\n"

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

    @pytest.mark.parametrize(
        "pair, max_degree, message",
        [
            ("deg7-cover-1", "3", "catalog key 'deg7-cover-1' is not a paired cover"),
            ("deg7-pair-1", "1", "--max-degree must be at least 2"),
            ("nope", "3", "unknown catalog key 'nope'"),
        ],
    )
    def test_refusals_exit_4(self, pair, max_degree, message, capsys):
        argv = ["growth", "--pair", pair, "--g1-family", "cyclic"]
        assert main(argv + ["--max-degree", max_degree]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


GOLDEN = Path(__file__).parent / "golden"


def _golden_argv(case: str, tmp_path) -> list[str]:
    def pair_file(key: str) -> str:
        path = tmp_path / "pair.json"
        path.write_text(catalog.get(key).to_json())
        return str(path)

    if case.startswith("fiber_"):
        return ["fiber", pair_file(case[len("fiber_") :])]
    if case in ("nielsen_braid-orbits_psl33-2^3.13", "nielsen_braid-orbits_a5-3^5"):
        # Specs committed beside their goldens, which CI diffs too.
        # PSL(3,3) on the 13 points of PG(2,3), absolute: N = G, so the
        # golden is the output of the same class in inner mode.  A5 =
        # <(1 2 3), (1 2 3 4 5)>, five 3-cycles, absolute: two orbits,
        # reduced by the normalizer's class stabilizer.
        spec_file = case[len("nielsen_braid-orbits_") :] + ".json"
        return ["nielsen", "braid-orbits", str(GOLDEN / spec_file)]
    if case.startswith("nielsen_braid-orbits_"):
        spec = {
            "nielsen_braid-orbits_inner": _nielsen_spec_dict(
                mode="inner", include_reorderings=False
            ),
            "nielsen_braid-orbits_deg7-class-2.4.7": json.loads(
                _catalog_json(catalog.get("deg7-class-2.4.7"))
            ),
        }[case]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return ["nielsen", "braid-orbits", str(path)]
    if case == "nielsen_coalesce_tuple-2":
        # tuple-2 with no group_generators: the group is A7, its entries'.
        element = str(GOLDEN / "coalesce_tuple-2.json")
        return ["nielsen", "coalesce", element, "--at", "1"]
    if case.startswith("growth_"):
        key, family, max_degree = case[len("growth_") :].rsplit("_", 2)
        return [
            "growth",
            "--pair",
            key,
            "--g1-family",
            family,
            "--max-degree",
            max_degree,
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
            "fiber_sm-pair-7",
            "fiber_sm-pair-9",
            "nielsen_braid-orbits_inner",
            "nielsen_braid-orbits_a5-3^5",
            "nielsen_braid-orbits_deg7-class-2.4.7",
            "nielsen_braid-orbits_psl33-2^3.13",
            "growth_deg7-pair-2_chebyshev_6",
            "growth_deg7-pair-1_cyclic_6",
            "catalog_get_deg7-pair-2^3.7",
            "catalog_get_hilbert-siegel-m5",
            "catalog_get_deg7-coalesce-tuples",
            "nielsen_coalesce_tuple-2",
        ],
    )
    def test_stdout_matches_golden(self, case, tmp_path, capsys):
        assert main(_golden_argv(case, tmp_path)) == 0
        expected = (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")
        assert capsys.readouterr().out == expected


def test_screen_along_the_growth_table_matches_golden(tmp_path, capsys):
    """Every step of ``scripts/growth_table.py`` on both degree-7 pairs, in
    both families, d = 2..6: the full report of ``fibercover screen`` on
    the projection, g1 and their weak pair, field by field."""
    out = []
    for key in ("deg7-pair-1", "deg7-pair-2"):
        components = sorted(catalog.get(key).components, key=lambda c: len(c.orbit))
        for ci, component in enumerate(components, start=1):
            pry = component.pry_branch_cycles()
            for family in ("chebyshev", "cyclic"):
                for d in range(2, 7):
                    g1 = catalog.growth_family_cover(family, d, pry)
                    if g1 is None:
                        break
                    joint = fiberprod.pair_covers_over_common_points(pry, g1)
                    files = []
                    for name, value in (("prw", pry), ("g1", g1), ("joint", joint)):
                        path = tmp_path / f"{name}.json"
                        path.write_text(value.to_json())
                        files.append(str(path))
                    argv = ["screen", files[0], files[1], "--joint", files[2]]
                    assert main(argv) == 0
                    out.append(f"== {key} component {ci} {family} degree {d}\n")
                    out.append(capsys.readouterr().out)
    expected = (GOLDEN / "screen_growth_steps.txt").read_text(encoding="utf-8")
    assert "".join(out) == expected


@pytest.mark.parametrize("key", ["deg7-pair-1", "sm-pair-7", "sm-pair-9"])
def test_fiber_builds_no_point_stabilizer(key, tmp_path, capsys, monkeypatch):
    """The report's ``subgroup_index`` is read off an orbit of Stab(1),
    so ``fiber`` builds no witness stabilizer and prints the golden."""
    called = []
    original = permgroup.GeneratedGroup.point_stabilizer

    def recording(group, letter):
        called.append(letter)
        return original(group, letter)

    monkeypatch.setattr(permgroup.GeneratedGroup, "point_stabilizer", recording)
    assert main(_golden_argv(f"fiber_{key}", tmp_path)) == 0
    expected = (GOLDEN / f"fiber_{key}.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
    assert called == []


# -- the parser: one command's alone, or every command --------------------------

_PARSER_ARGV = [
    ["validate", "{cover}"],
    ["genus", "{cover}"],
    ["galois-genus", "{cover}"],
    ["ochar", "{cover}"],
    ["fiber", "{pair}"],
    ["fiber", "{pair}", "--report", "{report}"],
    ["nielsen", "enum", "{spec}"],
    ["nielsen", "braid-orbits", "{spec}", "--mode", "inner"],
    ["nielsen", "coalesce", "{element}", "--at", "1"],
    ["screen", "{cover}", "{cover}"],
    ["catalog", "list"],
    ["catalog", "get", "deg7-cover-1"],
    ["growth", "--pair", "deg7-pair-2", "--g1-family", "cyclic", "--max-degree", "3"],
    # Help, at every level.
    ["-h"],
    ["--help"],
    ["fiber", "-h"],
    ["nielsen", "-h"],
    ["nielsen", "enum", "-h"],
    # A missing argument, command or subcommand.
    [],
    ["validate"],
    ["fiber"],
    ["nielsen"],
    ["nielsen", "coalesce"],
    ["growth", "--pair", "deg7-pair-2"],
    # An extra argument or an unknown option.
    ["genus", "{cover}", "extra"],
    ["fiber", "{pair}", "extra"],
    ["fiber", "{pair}", "--bogus"],
    ["catalog", "get", "deg7-cover-1", "extra"],
    # A bad choice.
    ["nielsen", "enum", "{spec}", "--mode", "bogus"],
    ["growth", "--pair", "deg7-pair-2", "--g1-family", "bogus", "--max-degree", "3"],
    ["catalog", "bogus"],
    ["nielsen", "bogus"],
    ["bogus"],
    ["--report", "x", "fiber"],
]


def _outcome(argv, capsys):
    """The exit code, stdout and stderr of ``main(argv)``."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _subcommands(parser) -> list[str]:
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(sub.choices)


class TestOneCommandParser:
    """``main`` builds the parser of the command it is given alone, and
    the full tree for anything else; both give the same exit code,
    stdout and stderr as the full parser."""

    @pytest.mark.parametrize(
        "argv", _PARSER_ARGV, ids=[" ".join(a) or "no-argument" for a in _PARSER_ARGV]
    )
    def test_same_outcome_as_the_full_parser(
        self, argv, deg7_cover_file, deg7_pair_file, nielsen_spec_file, tmp_path,
        capsys, monkeypatch,
    ):
        files = {
            "cover": deg7_cover_file,
            "pair": deg7_pair_file,
            "spec": nielsen_spec_file,
            "element": str(GOLDEN / "coalesce_tuple-2.json"),
            "report": str(tmp_path / "report.json"),
        }
        argv = [a.format(**files) for a in argv]
        built = []
        one_command = cli.build_parser

        def recording(command=None):
            built.append(command)
            return one_command(command)

        monkeypatch.setattr(cli, "build_parser", recording)
        got = _outcome(argv, capsys)
        named = argv[0] if argv and argv[0] in cli._COMMANDS else None
        assert built == [named]
        full = one_command()
        monkeypatch.setattr(cli, "build_parser", lambda command=None: full)
        assert _outcome(argv, capsys) == got

    def test_full_parser_lists_the_table(self):
        assert _subcommands(cli.build_parser()) == list(cli._COMMANDS)

    @pytest.mark.parametrize("command", cli._COMMANDS)
    def test_one_command_parser_keeps_the_usage_line(self, command):
        parser = cli.build_parser(command)
        assert _subcommands(parser) == [command]
        assert parser.format_usage() == cli.build_parser().format_usage()


# -- fuzzing: every subcommand keeps the exit-code contract --------------------

_FUZZ_COVER = {
    "degree": 4,
    "branch_points": ["z1", "z2", "z3"],
    "cycles": ["(1 2)", "(1 2 3 4)", "(1 4 3)"],
}
_FUZZ_PAIR = {
    "branch_points": ["z1", "z2", "z3"],
    "sigma": {"degree": 3, "cycles": ["(1 2)", "(1 2 3)", "(1 3)"]},
    "tau": {"degree": 3, "cycles": ["(2 3)", "(1 2 3)", "(1 2)"]},
}
_FUZZ_SPEC = {
    "degree": 4,
    "generators": ["(1 2)", "(1 2 3 4)"],
    "class_reps": ["(1 2)", "(1 2 3 4)", "(1 2 3)"],
    "mode": "absolute",
    "include_reorderings": True,
}
_FUZZ_ELEMENT = {
    "degree": 4,
    "entries": ["(1 2)", "(1 2 3 4)", "(1 4 3)"],
    "group_generators": ["(1 2)", "(1 2 3 4)"],
}
_FUZZ_KEYS = sorted(
    {k for doc in (_FUZZ_COVER, _FUZZ_PAIR, _FUZZ_SPEC, _FUZZ_ELEMENT) for k in doc}
    | {"outer_elements"}
)
# Integers stay small: a mutated degree must not make one call expensive.
_FUZZ_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-2, 5)
    | st.sampled_from(["absolute", "inner", "raw", "()", "(1 2)", "(2 3)"])
    | st.sampled_from(["(1 2 3)", "(1 3 2)", "(1 2)(3 4)", "(1 2 3 4)", "(1 4 3)"])
    | st.sampled_from([2.5, float("inf"), float("nan")])
    | st.text("() 0123456-x", max_size=10)
)
_FUZZ_JSON = st.recursive(
    _FUZZ_LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_FUZZ_KEYS), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _mutated(draw, base):
    """``base`` with up to two values, at any depth, deleted or replaced
    by a random value (often a plausible one); sometimes random JSON
    instead."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_FUZZ_JSON)
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(0, 2))):
        node = doc
        while isinstance(node, (dict, list)) and node:
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            key = draw(st.sampled_from(keys))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(st.booleans()):
                node = child
                continue
            if draw(st.integers(0, 3)) == 0:
                del node[key]
            else:
                node[key] = draw(_FUZZ_LEAVES | _FUZZ_JSON)
            break
    return doc


def _fuzz_argv(draw, command, write):
    if command in ("validate", "genus", "galois-genus", "ochar"):
        return [command, write(draw(_mutated(_FUZZ_COVER)))]
    if command == "fiber":
        return ["fiber", write(draw(_mutated(_FUZZ_PAIR)))]
    if command in ("enum", "braid-orbits"):
        argv = ["nielsen", command, write(draw(_mutated(_FUZZ_SPEC)))]
        mode = draw(st.sampled_from([None, "raw", "inner", "absolute"]))
        return argv + (["--mode", mode] if mode else [])
    if command == "coalesce":
        at = draw(st.integers(-1, 4))
        element = write(draw(_mutated(_FUZZ_ELEMENT)))
        return ["nielsen", "coalesce", element, "--at", str(at)]
    if command == "screen":
        docs = [_FUZZ_COVER, _FUZZ_COVER, _FUZZ_PAIR]
        i = draw(st.integers(0, 2))
        docs[i] = draw(_mutated(docs[i]))
        prw, g1, joint = map(write, docs)
        return ["screen", prw, g1, "--joint", joint]
    key = draw(st.text("abc-12", max_size=8))
    if command == "catalog":
        return ["catalog", "get", key]
    degree = str(draw(st.integers(-1, 3)))
    return ["growth", "--pair", key, "--g1-family", "cyclic", "--max-degree", degree]


_HUGE_DEGREE = "2620522553"


class TestFuzz:
    """Random and mutated JSON on every subcommand: the exit code is one of
    the documented ones and no traceback escapes."""

    @pytest.mark.parametrize(
        "command",
        [
            "validate",
            "genus",
            "galois-genus",
            "ochar",
            "fiber",
            "enum",
            "braid-orbits",
            "coalesce",
            "screen",
            "catalog",
            "growth",
        ],
    )
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_exit_code_contract(self, command, data):
        with tempfile.TemporaryDirectory() as tmp:
            paths = iter(range(10))

            def write(doc) -> str:
                path = Path(tmp) / f"{next(paths)}.json"
                path.write_text(json.dumps(doc))
                return str(path)

            argv = _fuzz_argv(data.draw, command, write)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse's usage error
                    code = exc.code
        assert code in (0, 2, 3, 4, 5), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()

    def test_infinite_degree_exit_4(self, tmp_path, capsys):
        # JSON allows Infinity, and int(Infinity) raises OverflowError.
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(dict(_FUZZ_COVER, degree=float("inf"))))
        assert main(["genus", str(path)]) == 4

    @pytest.mark.parametrize(
        "argv, doc",
        [
            ([command], dict(_FUZZ_COVER, degree=_HUGE_DEGREE))
            for command in ("validate", "genus", "galois-genus", "ochar")
        ]
        + [
            (
                ["fiber"],
                dict(_FUZZ_PAIR, sigma=dict(_FUZZ_PAIR["sigma"], degree=_HUGE_DEGREE)),
            ),
            (
                ["nielsen", "enum"],
                dict(_FUZZ_SPEC, degree=_HUGE_DEGREE, generators=[], class_reps=[]),
            ),
        ],
        ids=["validate", "genus", "galois-genus", "ochar", "fiber", "enum"],
    )
    def test_degree_above_listing_cap_exit_3(self, argv, doc, tmp_path, capsys):
        """A digit string passes ``int()``; the degree is refused before
        any list of that length is made."""
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(argv + [str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: degree {_HUGE_DEGREE} exceeds the listing cap "
            f"{permgroup.LISTING_CAP}\n"
        )

    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["fiber"], dict(_FUZZ_PAIR, sigma={"degree": 3, "cycles": [12, "(1 3)"]})),
            (["nielsen", "enum"], dict(_FUZZ_SPEC, class_reps=[None, "(1 2)"])),
            (["nielsen", "coalesce"], dict(_FUZZ_ELEMENT, entries=[["(1 2)"], "(1 2)"])),
        ],
        ids=["fiber", "enum", "coalesce"],
    )
    def test_non_string_cycle_exit_4(self, argv, doc, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(argv + [str(path)]) == 4
        assert "must be a string" in capsys.readouterr().err


class TestClosedStdout:
    def test_exit_141_without_traceback(self, tmp_path):
        """``fibercover ... | head -1``: the reader takes one line and closes
        the pipe while 229 kB are still to come; the CLI exits 141 and
        prints nothing on stderr."""
        spec = _nielsen_spec_dict(
            degree=4,
            generators=["(1 2 3)", "(2 3 4)"],
            class_reps=["(1 2 3)"] * 5 + ["(1 3 2)"] * 2,
            mode="raw",
            include_reorderings=False,
        )
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        src = str(Path(fibercover.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "fibercover.cli", "nielsen", "enum", str(path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert proc.stdout.readline() == b"mode: raw\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
        assert err == b""
