"""Unit tests for fiber products: components, genuses by both methods,
projections, ramification, screening."""

import gc
import json
import runpy
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from fibercover import catalog, fiberprod, permgroup
from fibercover.cover import Cover, InvalidCoverError, genus_from_tuple
from fibercover.fiberprod import (
    CoverPair,
    PairedCover,
    pair_covers_over_common_points,
    screen_g1,
)
from fibercover.permcore import Permutation, identity, parse_cycles
from fibercover.permgroup import CapExceededError

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def pair1():
    return catalog.get("deg7-pair-1")


@pytest.fixture(scope="module")
def pair2():
    return catalog.get("deg7-pair-2")


def by_size(pair):
    return sorted(pair.components, key=lambda c: len(c.orbit))


def swapped(pair):
    """The pair with its sides exchanged: its components are the
    transposes {(y, x)} of the pair's, and W -> x-line of a component is
    the y-projection of its transpose."""
    return PairedCover(
        pair.branch_points, pair.tau, pair.sigma, pair.degree_y, pair.degree_x
    )


# A genus-1 degree-6 cover paired with a relabelled copy of itself: the
# y-cover has genus 1.
GENUS_1_PAIR = {
    "branch_points": ["z1", "z2", "z3"],
    "sigma": {"degree": 6, "cycles": ["(1 5 4 2 6)", "(1 5 3 2 6)", "(1 2 3)(4 5 6)"]},
    "tau": {"degree": 6, "cycles": ["(1 3 4 6 5)", "(1 2 4 6 5)", "(1 6 3)(2 5 4)"]},
}


class TestComponents:
    def test_two_components_sizes_21_28(self, pair1, pair2):
        for pair in (pair1, pair2):
            sizes = sorted(len(c.orbit) for c in pair.components)
            assert sizes == [21, 28]

    def test_component_degrees(self, pair1):
        small, large = by_size(pair1)
        assert (small.deg_over_z, small.deg_over_x, small.deg_over_y) == (21, 3, 3)
        assert (large.deg_over_z, large.deg_over_x, large.deg_over_y) == (28, 4, 4)

    def test_x_orbits_over_y1(self, pair1, pair2):
        for pair in (pair1, pair2):
            small, large = by_size(pair)
            assert small.x_orbit_over_y1 == (1, 2, 4)
            assert large.x_orbit_over_y1 == (3, 5, 6, 7)

    def test_y_orbits_over_x1(self, pair1):
        """The y-letters over x-letter 1 are the tensor letters (1, y) = y
        <= n of the orbit, and the x-letters over y-letter 1 of the
        transposed component."""
        for component, transposed in zip(by_size(pair1), by_size(swapped(pair1))):
            over_x1 = tuple(y for y in component.orbit if y <= pair1.degree_y)
            assert transposed.x_orbit_over_y1 == over_x1
            assert len(over_x1) == component.deg_over_x
        small, large = by_size(pair1)
        assert (small.deg_over_x, large.deg_over_x) == (3, 4)

    def test_subgroup_witness_orders_and_indices(self, pair1):
        small, large = by_size(pair1)
        w_small, idx_small = small.subgroup_witness
        w_large, idx_large = large.subgroup_witness
        assert (w_small.order(), idx_small) == (8, 21)
        assert (w_large.order(), idx_large) == (6, 28)

    def test_orbits_partition_tensor_letters(self, pair1):
        letters = sorted(x for c in pair1.components for x in c.orbit)
        assert letters == list(range(1, 50))


class TestGenusMethods:
    def test_method1_indices_on_21_orbit(self, pair1):
        small, _ = by_size(pair1)
        indices = [p.index() for p in small.restricted_cycles]
        assert indices == [8, 14, 18]
        assert small.genus_method1 == 0

    def test_component_genuses_pair1(self, pair1):
        small, large = by_size(pair1)
        assert (small.genus_method1, large.genus_method1) == (0, 1)
        assert (small.genus_method2, large.genus_method2) == (0, 1)

    def test_component_genuses_pair2(self, pair2):
        small, large = by_size(pair2)
        assert (small.genus_method1, large.genus_method1) == (0, 0)
        assert (small.genus_method2, large.genus_method2) == (0, 0)

    def test_methods_agree_on_catalog_pairs(self):
        for key in (
            "deg7-pair-1",
            "deg7-pair-2",
            "deg7-pair-2^3.7",
            "deg7-pair-2^6",
            "d4-paired",
            "sm-pair-5",
        ):
            pair = catalog.get(key)
            for c in pair.components:
                assert c.genus_method1 == c.genus_method2


class TestProjections:
    def test_pair2_small_projection(self, pair2):
        small, _ = by_size(pair2)
        pry = small.pry_branch_cycles()
        assert pry.degree == 3
        assert [str(c) for c in pry.cycles] == ["(1 3 2)", "(1 3)", "(2 3)"]
        assert pry.group().order() == 6
        assert pry.galois_closure_genus() == 0
        assert pry.orbifold_char() == Fraction(1, 3)

    def test_pair2_large_projection(self, pair2):
        _, large = by_size(pair2)
        pry = large.pry_branch_cycles()
        assert pry.degree == 4
        assert pry.group().order() == 24
        assert pry.galois_closure_genus() == 3
        assert pry.orbifold_char() == Fraction(-1, 6)

    def test_pair1_small_projection(self, pair1):
        small, _ = by_size(pair1)
        pry = small.pry_branch_cycles()
        assert pry.degree == 3
        assert sorted(c.cycle_type() for c in pry.cycles) == [(2, 1)] * 4
        assert pry.group().order() == 6
        assert pry.galois_closure_genus() == 1

    def test_pair1_large_projection(self, pair1):
        # The projection of the genus-1 component: degree 4 with group
        # S4 (see the decisions ledger for why this is the frozen value).
        _, large = by_size(pair1)
        pry = large.pry_branch_cycles()
        assert pry.degree == 4
        assert pry.group().order() == 24
        assert pry.genus() == 1

    def test_projection_genus_matches_component(self, pair1, pair2):
        for pair in (pair1, pair2):
            for c in pair.components:
                pry = c.pry_branch_cycles()
                assert pry.validate().valid
                assert pry.genus() == c.genus_method1

    def test_degree_one_projection_builds_nothing(self):
        """The diagonal of a self-pair projects to the y-line with degree
        1: the empty cover, returned before the image group or the local
        entries are built."""
        c = catalog.get("deg7-cover-1")
        pair = CoverPair(c.branch_points, c.cycles, c.cycles, c.degree, c.degree)
        diagonal = min(pair.components, key=lambda comp: comp.deg_over_z)
        assert diagonal.deg_over_y == 1
        assert diagonal.pry_branch_cycles() == Cover(1, (), ())
        assert "_pry_image_group" not in diagonal.__dict__
        assert "_pry_entry_data" not in diagonal.__dict__

    def test_deg7_report_script_stdout_matches_golden(self, monkeypatch, capsys):
        """``scripts/deg7_report.py`` prints the components, witnesses and
        projection branch cycles of both degree-7 pairs; its stdout is
        compared byte for byte with a capture made before the product-one
        adjustment ordered classes lazily."""
        root = Path(__file__).parent.parent
        monkeypatch.setattr(sys, "argv", ["deg7_report.py"])
        runpy.run_path(str(root / "scripts" / "deg7_report.py"), run_name="__main__")
        expected = (GOLDEN / "deg7_report.txt").read_text(encoding="utf-8")
        assert capsys.readouterr().out == expected

    def test_sm_series_script_stdout_matches_golden(self, monkeypatch, capsys):
        """``scripts/sm_series.py`` prints both components of the S_m pair
        for m = 5..9 with their genuses by methods I and II."""
        root = Path(__file__).parent.parent
        monkeypatch.setattr(sys, "argv", ["sm_series.py"])
        runpy.run_path(str(root / "scripts" / "sm_series.py"), run_name="__main__")
        expected = (GOLDEN / "sm_series.txt").read_text(encoding="utf-8")
        assert capsys.readouterr().out == expected

    def test_genus0_witness_degrees(self, pair2):
        """W -> y-line and W -> x-line of the genus-0 component, the
        second from the transposed component: 3 * 7 = 21 both ways."""
        small, _ = by_size(pair2)
        transposed, _ = by_size(swapped(pair2))
        assert small.genus_method1 == transposed.genus_method1 == 0
        assert small.pry_branch_cycles().degree * 7 == 21
        assert transposed.pry_branch_cycles().degree * 7 == 21


class TestRamification:
    def test_profile_sums_to_m_over_each_y_cycle(self, pair1):
        profile = pair1.ramification_profile()
        m = pair1.degree_x
        for bi, tau_i in enumerate(pair1.tau):
            for t_cycle in tau_i.cycles(include_fixed=True):
                # Each point of the y-curve over this branch point lies
                # under points of the fiber product whose multiplicities
                # (count) times ramification indices sum to m.
                sheets = sum(
                    r.count * r.ram_index_over_y
                    for r in profile
                    if r.branch_index == bi and r.y_cycle == t_cycle
                )
                assert sheets == m

    def test_ram_indices_from_lcm(self, pair1):
        for r in pair1.ramification_profile():
            from math import gcd, lcm

            s, t = len(r.x_cycle), len(r.y_cycle)
            assert r.count == gcd(s, t)
            assert r.ram_index_over_y == lcm(s, t) // t


_S2 = parse_cycles("(1 2)", 2)
_E2 = identity(2)
_C3 = parse_cycles("(1 2 3)", 3)
_X = (_S2, _S2)  # a double cover
_Y = (_C3, _C3.inverse())  # a cyclic triple cover
_V4 = (parse_cycles("(1 2)(3 4)", 4), parse_cycles("(1 3)(2 4)", 4))
_AB = ("a", "b")

# Every refusal of the pair constructors.  PairedCover runs the weak
# checks first, so the transitivity cases pass through it.
_REFUSALS = [
    ("length", CoverPair, (("a",), _X, _Y, 2, 3),
     ValueError, "branch point / tuple length mismatch"),
    ("labels", CoverPair, (("a", "a"), _X, _Y, 2, 3),
     ValueError, "branch point labels must be distinct"),
    ("sigma-degree", CoverPair, (_AB, _Y, _Y, 2, 3),
     ValueError, "sigma degree mismatch"),
    ("tau-degree", CoverPair, (_AB, _X, _Y, 2, 4),
     ValueError, "tau degree mismatch"),
    ("sigma-product-one", CoverPair, (_AB, (_S2, _E2), _Y, 2, 3),
     InvalidCoverError, "sigma tuple fails product-one"),
    ("tau-product-one", CoverPair, (_AB, _X, (_C3, _C3), 2, 3),
     InvalidCoverError, "tau tuple fails product-one"),
    ("sigma-transitive", PairedCover, (_AB, (_E2, _E2), _X, 2, 2),
     InvalidCoverError, "sigma tuple is not transitive"),
    ("tau-transitive", PairedCover, (_AB, _X, (_E2, _E2), 2, 2),
     InvalidCoverError, "tau tuple is not transitive"),
    ("identity-entry", PairedCover,
     (("a", "b", "c"), (_S2, _E2, _S2), (_E2, *_X), 2, 2),
     InvalidCoverError, "paired covers allow no identity entries"),
    ("entry-orders", PairedCover, (_AB, _X, _Y, 2, 3),
     InvalidCoverError, "entry orders differ: 2 vs 3"),
    ("common-group", PairedCover, (("a", "b", "c", "d"), _X * 2, _V4 * 2, 2, 4),
     InvalidCoverError,
     "joint group does not project isomorphically to both sides "
     "(orders 2, 4, joint 4)"),
]


@pytest.mark.parametrize(
    "cls, fields, error, message",
    [pytest.param(*case[1:], id=case[0]) for case in _REFUSALS],
)
def test_pair_constructor_refusals(cls, fields, error, message):
    with pytest.raises(error) as info:
        cls(*fields)
    assert type(info.value) is error
    assert str(info.value) == message


class TestPairValidation:
    def test_order_mismatch_rejected(self):
        with pytest.raises(InvalidCoverError):
            PairedCover(
                ("a", "b"),
                (parse_cycles("(1 2)", 2), parse_cycles("(1 2)", 2)),
                (parse_cycles("(1 2 3)", 3), parse_cycles("(1 3 2)", 3)),
                2,
                3,
            )

    def test_group_order_mismatch_names_the_orders(self):
        """Entry orders match (all 2), but the x-side is C_2 while the
        y-side and the joint group are the Klein four-group.  The y-side
        build stops at the joint order 4; the x-side never reaches it and
        is verified in full, so the message names the true orders."""
        x = parse_cycles("(1 2)", 2)
        a = parse_cycles("(1 2)(3 4)", 4)
        b = parse_cycles("(1 3)(2 4)", 4)
        with pytest.raises(
            InvalidCoverError, match=r"\(orders 2, 4, joint 4\)"
        ):
            PairedCover(("a", "b", "c", "d"), (x, x, x, x), (a, b, a, b), 2, 4)

    def test_identity_entries_rejected_in_strong_pairing(self):
        with pytest.raises(InvalidCoverError):
            PairedCover(
                ("a", "b", "c"),
                (
                    parse_cycles("(1 2)", 2),
                    identity(2),
                    parse_cycles("(1 2)", 2),
                ),
                (
                    parse_cycles("(1 2)", 2),
                    identity(2),
                    parse_cycles("(1 2)", 2),
                ),
                2,
                2,
            )

    def test_json_roundtrip(self, pair1):
        again = PairedCover.from_json_dict(json.loads(pair1.to_json()))
        assert again.sigma == pair1.sigma
        assert again.tau == pair1.tau
        assert again.branch_points == pair1.branch_points

    def test_swapped_exchanges_roles(self, pair1):
        s = swapped(pair1)
        assert s.sigma == pair1.tau
        assert s.tau == pair1.sigma
        sizes = sorted(len(c.orbit) for c in s.components)
        assert sizes == [21, 28]

    def test_weak_pairing_allows_identity_padding(self):
        f = Cover.from_cycle_strings(2, ["a", "b"], ["(1 2)", "(1 2)"])
        g = Cover.from_cycle_strings(3, ["c", "d"], ["(1 2 3)", "(1 3 2)"])
        pair = pair_covers_over_common_points(f, g)
        assert pair.branch_points == ("a", "b", "c", "d")
        assert len(pair.components) == 1  # coprime degrees, generic position

    def test_diagonal_in_self_pair(self):
        f = Cover.from_cycle_strings(
            7,
            ["z1", "z2", "infinity"],
            ["(1 3)(4 5)", "(1 4 6 7)(2 3)", "(1 7 6 5 4 3 2)"],
        )
        pair = CoverPair(f.branch_points, f.cycles, f.cycles, 7, 7)
        sizes = sorted(len(c.orbit) for c in pair.components)
        assert sizes[0] == 7  # the diagonal
        assert sum(sizes) == 49


def _off_diagonal(pair: CoverPair) -> list:
    """The components of a self pair other than the diagonal, which
    holds the tensor letter (1, 1) = 1."""
    return [c for c in pair.components if c.orbit[0] != 1]


class TestDoublyTransitiveComplement:
    """The self pair (c, c) of a doubly transitive cover has the diagonal
    and one more component, whose genus the ramification profile also
    gives: a branch cycle's index on the tensor square is the sum over
    its cycle pairs (s, t) of s*t - gcd(s, t), and the diagonal's part is
    the cover's own index."""

    def check_complement_genus(self, c: Cover, genus: int) -> None:
        m = c.degree
        pair = CoverPair(c.branch_points, c.cycles, c.cycles, m, m)
        tensor_index = sum(rp.s * rp.t - rp.count for rp in pair.ramification_profile())
        index_sum = tensor_index - sum(p.index() for p in c.cycles)
        (complement,) = _off_diagonal(pair)
        assert complement.deg_over_z == m * (m - 1)
        assert genus_from_tuple(m * (m - 1), index_sum) == genus
        assert complement.genus_method1 == complement.genus_method2 == genus

    def test_deg7_self_product_complement(self):
        f = Cover.from_cycle_strings(
            7,
            ["z1", "z2", "infinity"],
            ["(1 3)(4 5)", "(1 4 6 7)(2 3)", "(1 7 6 5 4 3 2)"],
        )
        self.check_complement_genus(f, 1)

    def test_degree2_complement_empty(self):
        f = Cover.from_cycle_strings(2, ["a", "b"], ["(1 2)", "(1 2)"])
        self.check_complement_genus(f, 0)

    def test_rejects_non_doubly_transitive(self):
        """An imprimitive cover's self pair has more than one component
        off the diagonal, so there is no one complement."""
        a = parse_cycles("(1 2 3 4)", 4)
        b = parse_cycles("(1 3)", 4)
        cycles = (a, b, (a * b).inverse())
        assert len(_off_diagonal(CoverPair(("a", "b", "c"), cycles, cycles, 4, 4))) > 1


class TestScreening:
    def test_dihedral_projection_flagged(self, pair2):
        small, _ = by_size(pair2)
        pry = small.pry_branch_cycles()
        g1 = catalog.build_chebyshev_cover(5, tuple(pry.branch_points))
        report = screen_g1(pry, g1)
        assert report.fail2a  # o-char 1/3 >= 0
        assert report.ochar == Fraction(1, 3)
        assert report.any_flag

    def test_s4_projection_not_flagged(self, pair2):
        _, large = by_size(pair2)
        pry = large.pry_branch_cycles()
        g1 = catalog.build_cyclic_cover(3, ("t1", "t2"))
        joint = pair_covers_over_common_points(pry, g1)
        report = screen_g1(pry, g1, joint=joint)
        assert not report.fail2a
        assert report.ochar < 0
        assert not report.any_flag

    def test_fail2c_requires_genus_one_projection(self, pair1):
        _, large = by_size(pair1)
        pry = large.pry_branch_cycles()  # genus 1
        g1 = catalog.build_cyclic_cover(2, (pry.branch_points[0], "t2"))
        report = screen_g1(pry, g1)
        assert report.fail2c is not None  # defined for genus-1 projections

    def test_fail2c_containment_and_domination(self):
        """A genus-1 projection: g1 flags fail2c when its labels lie among
        pr_w's and each of its entries is dominated by pr_w's entry over
        the same label; a degree-2 g1 is not dominated by 3-cycles."""
        c = parse_cycles("(1 2 3)", 3)
        pr_w = Cover(3, ("z1", "z2", "z3"), (c, c, c))
        assert pr_w.genus() == 1
        g1 = Cover(3, ("z1", "z2"), (c, c.inverse()))
        report = screen_g1(pr_w, g1)
        assert report.fail2c is True
        assert report.fail2c_notes == (
            "branch containment=True, domination=True, s=2, orders=[3, 3], "
            "order-bound-ok=True"
        )
        t = parse_cycles("(1 2)", 2)
        report = screen_g1(pr_w, Cover(2, ("z1", "z2"), (t, t)))
        assert report.fail2c is False
        assert "domination=False" in report.fail2c_notes

    def test_joint_pair_must_pair_pr_w_with_g1(self, pair1, pair2):
        """fail2d is read off ``joint`` only when its sides, identity
        entries dropped, are pr_w and g1 label by label; the order of the
        labels does not matter."""
        pry = by_size(pair2)[0].pry_branch_cycles()
        g1 = catalog.build_cyclic_cover(2, ("t1", "t2"))
        joint = pair_covers_over_common_points(pry, g1)
        assert screen_g1(pry, g1, joint=joint).fail2d is not None
        reordered = Cover(g1.degree, g1.branch_points[::-1], g1.cycles[::-1])
        assert screen_g1(pry, reordered, joint=joint).fail2d is not None
        other_g1 = catalog.build_cyclic_cover(2, ("t1", "t3"))
        cases = [
            (pry, g1, pair1, "x-side is not pr_w"),
            (pry, other_g1, joint, "y-side is not g1"),
            (by_size(pair2)[1].pry_branch_cycles(), g1, joint, "x-side"),
        ]
        for pr_w, cover, pair, message in cases:
            with pytest.raises(InvalidCoverError, match=message):
                screen_g1(pr_w, cover, joint=pair)

    def test_fail2b_detects_genus0_quotient(self):
        rot = parse_cycles("(1 2 3 4)", 4)
        refl = parse_cycles("(1 3)", 4)
        f = Cover(4, ("a", "b", "c"), (rot, refl, (rot * refl).inverse()))
        g1 = catalog.build_cyclic_cover(2, ("t1", "t2"))
        report = screen_g1(f, g1)
        assert report.fail2b_quotients

    def test_block_systems_computed_once(self, pair1, monkeypatch):
        """The quotients and the dec-var flag read one list of the
        projection's block systems; calls on the quotient groups, made
        while the systems are found, are not counted."""
        rot = parse_cycles("(1 2 3 4)", 4)
        refl = parse_cycles("(1 3)", 4)
        dihedral = Cover(4, ("a", "b", "c"), (rot, refl, (rot * refl).inverse()))
        _, large = by_size(pair1)
        original = permgroup.GeneratedGroup.block_systems
        for pr_w, imprimitive in ((dihedral, True), (large.pry_branch_cycles(), False)):
            calls = []

            def recording(group):
                calls.append(group is pr_w.group())
                return original(group)

            monkeypatch.setattr(permgroup.GeneratedGroup, "block_systems", recording)
            g1 = catalog.build_cyclic_cover(2, (pr_w.branch_points[0], "t2"))
            report = screen_g1(pr_w, g1)
            assert calls.count(True) == 1
            assert report.dec_var_not_excluded == imprimitive
            assert bool(report.fail2b_quotients) == imprimitive


class TestNoTensorChain:
    """Components, both genus methods and the subgroup witness come from
    generator orbits and groups on m + n letters: no stabilizer chain on
    the m*n tensor letters is built, and validating a cover builds none.
    Every chain, of a public group, a point stabilizer or a centralizer,
    is built by ``GeneratedGroup._build``, which the fixture records."""

    @pytest.fixture
    def chain_degrees(self, monkeypatch):
        degrees = []
        original = permgroup.GeneratedGroup._build

        def recording(group, degree, generators, bound):
            degrees.append(degree)
            return original(group, degree, generators, bound)

        monkeypatch.setattr(permgroup.GeneratedGroup, "_build", recording)
        return degrees

    @pytest.mark.parametrize("key", ["sm-pair-7", "deg7-pair-1"])
    def test_pair_builds_no_tensor_chain(self, key, chain_degrees):
        source = catalog.get(key)
        m, n = source.degree_x, source.degree_y
        # A fresh pair, so nothing is read from a cache filled elsewhere.
        pair = PairedCover(source.branch_points, source.sigma, source.tau, m, n)
        for component in pair.components:
            component.genus_method1
            component.genus_method2
            _, index = component.subgroup_witness
            assert index == component.deg_over_z
        assert m + n in chain_degrees
        assert m * n not in chain_degrees

    @pytest.mark.parametrize("m", [7, 8])
    def test_paired_cover_builds_two_chains(self, m, chain_degrees):
        """The joint group, and the same group with the y-letters first:
        the x-side order is read off the joint chain's first m levels,
        the y-side order off the swapped chain's first n."""
        source = catalog.build_sm_pair(m)
        n = source.degree_y
        chain_degrees.clear()  # the catalog's own pair
        PairedCover(source.branch_points, source.sigma, source.tau, m, n)
        assert chain_degrees == [m + n, m + n]

    def test_validate_builds_no_chain(self, chain_degrees):
        source = catalog.get("deg7-cover-1")
        cover = Cover(source.degree, source.branch_points, source.cycles)
        assert cover.validate().valid
        assert chain_degrees == []


def test_y1_stabilizer_built_once_per_pair(monkeypatch):
    """Every component's projection to the y-line reads the carrier of
    the y-letter 1 from the pair's one walk of that orbit, so the orbit
    is walked once, not per component; Stab(m+1) is the tail of the
    pair's swapped chain, so no stabilizer is streamed from the walk.
    Each module's reference to the walk is recorded, so a walk through
    a name imported from ``permgroup`` is counted too."""
    starts, stabilized = [], []
    walk, stabilizer = permgroup._orbit, permgroup._stabilizer

    def recording(group, start, actions, what):
        starts.append((group.degree, start))
        return walk(group, start, actions, what)

    def recording_stabilizer(group, transversal, actions):
        stabilized.append(group.degree)
        return stabilizer(group, transversal, actions)

    for module in (permgroup, fiberprod):
        monkeypatch.setattr(module, "_orbit", recording)
        monkeypatch.setattr(module, "_stabilizer", recording_stabilizer, raising=False)
    source = catalog.get("sm-pair-7")
    m, n = source.degree_x, source.degree_y
    pair = PairedCover(source.branch_points, source.sigma, source.tau, m, n)
    assert len(pair.components) == 2
    for component in pair.components:
        assert component.pry_branch_cycles().validate().valid
    assert starts.count((m + n, m + 1)) == 1
    assert m + n not in stabilized


def test_projection_walks_each_class_once(monkeypatch):
    """On ``sm-pair-8`` the nine distinct local entries of the degree-6
    projection fall into two S6-classes; the product-one adjustment walks
    each class once, later entries of a class reuse the walk, and the
    image group keeps it, so listing the classes afterwards walks none."""
    walks = []
    original = permgroup._orbit

    def recording(group, start, actions, what):
        if what == "class members":
            walks.append(start)
        return original(group, start, actions, what)

    monkeypatch.setattr(permgroup, "_orbit", recording)
    pair = catalog.build_sm_pair(8)
    counts = []
    for component in pair.components:
        walks.clear()
        assert component.pry_branch_cycles().validate().valid
        walked = len(walks)
        entries = {p for _, p in component._pry_entry_data if not p.is_identity}
        group = component._pry_image_group
        classes = {min(group.conjugacy_class(p)) for p in entries}
        assert len(walks) == walked == len(classes)
        counts.append((len(entries), len(classes)))
    assert sorted(counts) == [(1, 1), (9, 2)]


def test_projection_with_a_label_unbranched_on_both_sides():
    """A weak pair may carry a label where both entries are the identity;
    the local cycles there are fixed points, and both genus methods
    agree with the pair without that label."""
    a = parse_cycles("(1 2)", 3)
    b = parse_cycles("(1 2 3)", 3)
    c = (a * b).inverse()
    one = identity(3)
    padded = CoverPair(("z0", "z1", "z2", "z3"), (one, a, b, c), (one, a, b, c), 3, 3)
    plain = CoverPair(("z1", "z2", "z3"), (a, b, c), (a, b, c), 3, 3)
    for with_pad, without in zip(padded.components, plain.components):
        assert with_pad.genus_method2 == with_pad.genus_method1
        assert with_pad.genus_method2 == without.genus_method2
        assert (
            with_pad.pry_branch_cycles().to_json_dict()
            == without.pry_branch_cycles().to_json_dict()
        )


class TestAboveOrderCap:
    """A cover with a monodromy group of order above 10^7 validates, pairs
    weakly and builds its group; only listing the group's elements, above
    ``LISTING_CAP``, raises."""

    @pytest.fixture(scope="class")
    def s11(self):
        a = parse_cycles("(1 2)", 11)
        b = parse_cycles("(1 2 3 4 5 6 7 8 9 10 11)", 11)
        return Cover(11, ("z1", "z2", "z3"), (a, b, (a * b).inverse()))

    def test_validate_without_group(self, s11):
        assert s11.validate().valid
        assert s11.group().order() == 39916800
        with pytest.raises(CapExceededError):
            s11.group().elements()

    def test_weak_pair_components(self, s11):
        pair = pair_covers_over_common_points(s11, s11)
        # S_11 is doubly transitive: the diagonal and its complement.
        assert [c.deg_over_z for c in pair.components] == [11, 110]

    def test_paired_cover_cap_before_entry_checks(self, s11):
        one = identity(11)
        sigma = s11.cycles + (one,)
        with pytest.raises(InvalidCoverError, match="no identity entries"):
            PairedCover(s11.branch_points + ("z4",), sigma, sigma, 11, 11)


class TestProjectionAdjustment:
    """The product-one adjustment behind ``pry_branch_cycles``."""

    def test_search_cap_trips_before_listing_elements(self, monkeypatch):
        def refuse(group):
            raise AssertionError("elements listed before the cap check")

        monkeypatch.setattr(permgroup.GeneratedGroup, "elements", refuse)
        pair = catalog.build_sm_pair(8)
        component = max(pair.components, key=lambda c: c.deg_over_y)
        entries = [p for _, p in component._pry_entry_data if not p.is_identity]
        order = component._pry_image_group.order()
        estimate = order * len(entries)
        with pytest.raises(CapExceededError) as info:
            component.pry_branch_cycles(search_cap=100)
        message = str(info.value)
        assert f"search space {estimate} " in message
        assert "exceeds cap 100" in message
        assert "search_cap parameter of Component.pry_branch_cycles" in message

    def test_positive_genus_y_cover_refused_before_search(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the product-one search ran")

        monkeypatch.setattr(fiberprod, "_product_one_adjust", refuse)
        pair = PairedCover.from_json_dict(GENUS_1_PAIR)
        y_cover = Cover.from_aligned(pair.degree_y, pair.branch_points, pair.tau)
        assert pair.y_genus == y_cover.genus() == 1
        for component in pair.components:
            assert component.genus_method2 == component.genus_method1
            with pytest.raises(InvalidCoverError, match="g_y = 1"):
                component.pry_branch_cycles()

    def test_sm_pair_9_projections_match_golden(self):
        """Every projection of ``sm-pair-9``, byte for byte as captured
        with the backward-table search this adjustment replaced."""
        pair = catalog.get("sm-pair-9")
        covers = [c.pry_branch_cycles().to_json_dict() for c in pair.components]
        expected = (GOLDEN / "pry_sm-pair-9.json").read_text(encoding="utf-8")
        assert json.dumps(covers, indent=2) + "\n" == expected

    def test_sm_pair_10_projections_match_golden(self):
        """Every projection of ``sm-pair-10`` (S8 over 29 entries, above
        the default cap), byte for byte as captured when each class was
        listed by conjugating with every element of the image group."""
        pair = catalog.build_sm_pair(10)
        covers = [
            c.pry_branch_cycles(search_cap=10**8).to_json_dict()
            for c in pair.components
        ]
        expected = (GOLDEN / "pry_sm-pair-10.json").read_text(encoding="utf-8")
        assert json.dumps(covers, indent=2) + "\n" == expected

    def test_classes_ordered_only_when_the_search_comes_back(self, monkeypatch):
        """Each position offers its entry first, which needs no ordering;
        a class is ordered only when the search asks that position for a
        second member, and the forced last position is never ordered.
        The distinct entries ordered over every projection of a pair
        stay below the distinct entries before the last position."""
        ordered = []
        original = fiberprod._class_by_least_conjugator

        def counting(group, p):
            ordered.append(p)
            return original(group, p)

        monkeypatch.setattr(fiberprod, "_class_by_least_conjugator", counting)
        for pair, expected in (
            (catalog.get("deg7-pair-1"), 0),
            (catalog.build_sm_pair(8), 1),
        ):
            ordered.clear()
            inner = 0
            for component in pair.components:
                assert component.pry_branch_cycles().validate().valid
                perms = [p for _, p in component._pry_entry_data if not p.is_identity]
                inner += len(set(perms[:-1]))
            assert len(ordered) == expected < inner

    @pytest.mark.parametrize("m", [8, 9, 10])
    def test_projections_list_no_group_elements(self, m, monkeypatch):
        """The adjustment orders each class by the centralizer's coset
        minima, so no projection lists the elements of any group."""

        def refuse(group):
            raise AssertionError("group elements listed")

        monkeypatch.setattr(permgroup.GeneratedGroup, "elements", refuse)
        pair = catalog.build_sm_pair(m)
        for component in pair.components:
            cover = component.pry_branch_cycles(search_cap=10**8)
            assert cover.degree == component.deg_over_y


def test_pair_freed_without_cycle_collector():
    """Components refer to their pair, and the pair caches only the orbits,
    so a pair and everything it built are freed by reference counting."""
    gc.disable()
    try:
        pair = catalog.build_sm_pair(8)
        for component in pair.components:
            component.genus_method1
            component.genus_method2
            component.subgroup_witness
            component.pry_branch_cycles()
        ref = weakref.ref(pair)
        del pair, component
        assert ref() is None
    finally:
        gc.enable()
