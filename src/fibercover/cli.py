"""Command-line front door.

Subcommands wrap the library: cover validation and genus computations,
fiber-product analysis, Nielsen enumeration / braid orbits / coalescing,
genus-growth screening, catalog access, and an empirical growth table.

Exit codes: 0 success, 2 validation failure, 3 cap exceeded, 4 bad
input format, 5 internal error (a failed consistency check), 141 stdout
closed early (say by ``| head``; nothing is printed on stderr).  All
numeric output is exact (rationals print as "p/q").
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from . import catalog, nielsen
from .cover import Cover, InvalidCoverError
from .fiberprod import (
    Component,
    CoverPair,
    PairedCover,
    pair_covers_over_common_points,
    screen_g1,
)
from .nielsen import EquivalenceMode, NielsenClassSpec
from .permcore import Permutation, parse_cycles
from .permgroup import CapExceededError, GeneratedGroup

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_CAP = 3
EXIT_BAD_INPUT = 4
EXIT_INTERNAL = 5
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a piped C tool

SEARCH_CAP_ENV = "FIBERCOVER_SEARCH_CAP"


class _BadInput(Exception):
    pass


# What malformed JSON data raises in the loaders; OverflowError comes
# from int() of the JSON literal Infinity.
_BAD_DATA = (KeyError, TypeError, ValueError, OverflowError)


def _load(path: str, what: str, build):
    """``build`` applied to the JSON object in ``path``; malformed data is
    reported as ``<path>: bad <what>: ...``, an invalid cover as itself."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _BadInput(f"cannot read JSON from {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise _BadInput(f"{path}: expected a JSON object")
    try:
        return build(data)
    except InvalidCoverError:
        raise
    except _BAD_DATA as exc:
        raise _BadInput(f"{path}: bad {what}: {exc}") from exc


def _search_cap_override() -> int | None:
    raw = os.environ.get(SEARCH_CAP_ENV)
    if raw is None:
        return None
    try:
        cap = int(raw)
    except ValueError as exc:
        raise _BadInput(f"{SEARCH_CAP_ENV} must be an integer") from exc
    if cap < 1:
        raise _BadInput(f"{SEARCH_CAP_ENV} must be positive, got {cap}")
    return cap


def _load_nielsen_spec(path: str, mode_override: str | None) -> NielsenClassSpec:
    def build(data: dict) -> NielsenClassSpec:
        cap = _search_cap_override()
        kwargs = {} if cap is None else {"search_cap": cap}
        degree = int(data["degree"])
        generators = [parse_cycles(s, degree) for s in data["generators"]]
        reps = tuple(parse_cycles(s, degree) for s in data["class_reps"])
        mode = EquivalenceMode(mode_override or data.get("mode", "absolute"))
        outer = tuple(
            parse_cycles(s, degree) for s in data.get("outer_elements", [])
        )
        include_reorderings = data.get("include_reorderings", True)
        if not isinstance(include_reorderings, bool):
            raise ValueError(
                "include_reorderings must be true or false, "
                f"got {include_reorderings!r}"
            )
        group = GeneratedGroup(degree, generators)
        return NielsenClassSpec(
            group, reps, mode, outer, include_reorderings, **kwargs
        )

    return _load(path, "Nielsen spec", build)


# -- subcommand handlers ------------------------------------------------------


def _cmd_validate(args) -> int:
    cover = _load(args.cover, "cover data", Cover.from_json_dict)
    report = cover.validate()
    print(f"degree: {cover.degree}")
    print(f"product_one: {report.product_one}")
    print(f"transitive: {report.transitive}")
    print(f"no_identity_entries: {report.no_identity_entries}")
    print(
        "cycle_types: "
        + "; ".join(
            ",".join(map(str, ct)) for ct in report.cycle_types
        )
    )
    print(f"valid: {report.valid}")
    return EXIT_OK if report.valid else EXIT_INVALID


def _cmd_genus(args) -> int:
    print(_load(args.cover, "cover data", Cover.from_json_dict).genus())
    return EXIT_OK


def _cmd_galois_genus(args) -> int:
    cover = _load(args.cover, "cover data", Cover.from_json_dict)
    print(cover.galois_closure_genus())
    return EXIT_OK


def _cmd_ochar(args) -> int:
    print(_load(args.cover, "cover data", Cover.from_json_dict).orbifold_char())
    return EXIT_OK


def _component_report(component: Component) -> dict:
    witness, index = component.subgroup_witness
    pry = component.pry_branch_cycles()
    return {
        "orbit": list(component.orbit),
        "deg_z": component.deg_over_z,
        "k": component.deg_over_x,
        "l": component.deg_over_y,
        "genus_m1": component.genus_method1,
        "genus_m2": component.genus_method2,
        "subgroup_index": index,
        "pry_cover": pry.to_json_dict(),
    }


def _cmd_fiber(args) -> int:
    pair = _load(args.pair, "paired-cover data", PairedCover.from_json_dict)
    components = sorted(pair.components, key=lambda c: c.orbit)
    report = {
        "command": "fiber",
        "degree_x": pair.degree_x,
        "degree_y": pair.degree_y,
        "branch_points": list(pair.branch_points),
        "reducible": len(components) > 1,
        "components": [_component_report(c) for c in components],
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(f"components: {len(components)}")
    for c in components:
        print(
            f"  deg_z={c.deg_over_z} k={c.deg_over_x} l={c.deg_over_y} "
            f"genus_m1={c.genus_method1} genus_m2={c.genus_method2}"
        )
    if not args.report:
        print(text)
    return EXIT_OK


def _cmd_nielsen_enum(args) -> int:
    spec = _load_nielsen_spec(args.spec, args.mode)
    elements = nielsen.enumerate_class(spec)
    print(f"mode: {spec.mode.value}")
    print(f"count: {len(elements)}")
    for e in elements:
        print(" ".join(str(p) for p in e))
    return EXIT_OK


def _cmd_nielsen_braid_orbits(args) -> int:
    spec = _load_nielsen_spec(args.spec, args.mode)
    orbits = nielsen.braid_orbits(spec)
    print(f"orbits: {len(orbits)}")
    for i, orbit in enumerate(orbits, start=1):
        print(f"orbit {i} (size {len(orbit)}):")
        for e in orbit:
            print("  " + " ".join(str(p) for p in e))
    return EXIT_OK


def _cmd_nielsen_coalesce(args) -> int:
    def build(data: dict):
        degree = int(data["degree"])
        gen_strings = data.get("group_generators", data["entries"])
        return (
            tuple(parse_cycles(s, degree) for s in data["entries"]),
            GeneratedGroup(degree, [parse_cycles(s, degree) for s in gen_strings]),
        )

    entries, group = _load(args.element, "element data", build)
    try:
        new, report = nielsen.coalesce(entries, group, at=args.at)
    except ValueError as exc:
        raise _BadInput(f"--at: {exc}") from exc
    print(" ".join(str(p) for p in new))
    print(f"restricted: {report['restricted']}")
    print(f"identity_dropped: {report['identity_dropped']}")
    return EXIT_OK


def _cmd_screen(args) -> int:
    pr_w = _load(args.prw, "cover data", Cover.from_json_dict)
    g1 = _load(args.g1, "cover data", Cover.from_json_dict)
    joint = None
    if args.joint:
        joint = _load(args.joint, "paired-cover data", CoverPair.from_json_dict)
    report = screen_g1(pr_w, g1, joint=joint)
    print(f"fail2a: {report.fail2a}")
    print(f"ochar: {report.ochar}")
    print(f"galois_closure_genus: {report.galois_closure_genus}")
    print(f"fail2b_quotients: {list(report.fail2b_quotients)}")
    print(f"fail2c: {report.fail2c}")
    print(f"fail2c_notes: {report.fail2c_notes}")
    print(f"fail2d: {report.fail2d}")
    print(f"dec_var_not_excluded: {report.dec_var_not_excluded}")
    for note in report.notes:
        print(f"note: {note}")
    print(f"any_flag: {report.any_flag}")
    return EXIT_OK


def _catalog_json(value) -> str:
    if isinstance(value, (Cover, CoverPair)):
        return value.to_json()
    if isinstance(value, NielsenClassSpec):
        payload = {
            "degree": value.group.degree,
            "generators": [str(g) for g in value.group.generators],
            "class_reps": [str(r) for r in value.class_reps],
            "mode": value.mode.value,
            "include_reorderings": value.include_reorderings,
        }
        return json.dumps(payload, indent=2, sort_keys=True)
    if isinstance(value, catalog.PairedClassSpec):
        payload = {
            "degree_x": value.degree_x,
            "branch_points": list(value.branch_points),
            "joint_degree": value.joint_spec.group.degree,
            "joint_generators": [
                str(g) for g in value.joint_spec.group.generators
            ],
            "joint_class_reps": [str(r) for r in value.joint_spec.class_reps],
            "mode": value.joint_spec.mode.value,
        }
        return json.dumps(payload, indent=2, sort_keys=True)
    if isinstance(value, dict):
        def default(o):
            if isinstance(o, Permutation):
                return str(o)
            if isinstance(o, tuple):
                return list(o)
            raise TypeError(type(o).__name__)

        return json.dumps(value, indent=2, sort_keys=True, default=default)
    raise _BadInput(f"cannot serialize catalog value of type {type(value)}")


def _cmd_catalog(args) -> int:
    if args.action == "list":
        for key in catalog.list_keys():
            print(f"{key}: {catalog.describe(key)}")
        return EXIT_OK
    if not args.key:
        raise _BadInput("catalog get requires a key")
    try:
        value = catalog.get(args.key)
    except KeyError as exc:
        raise _BadInput(str(exc)) from exc
    print(_catalog_json(value))
    return EXIT_OK


def _cmd_growth(args) -> int:
    try:
        pair = catalog.get(args.pair)
    except KeyError as exc:
        raise _BadInput(str(exc)) from exc
    if not isinstance(pair, CoverPair):
        raise _BadInput(f"catalog key {args.pair!r} is not a paired cover")
    if args.max_degree < 2:
        raise _BadInput("--max-degree must be at least 2")
    components = sorted(pair.components, key=lambda c: len(c.orbit))
    for ci, component in enumerate(components, start=1):
        pry = component.pry_branch_cycles()
        print(
            f"component {ci}: deg_z={component.deg_over_z} "
            f"projection degree {pry.degree} over the y-line"
        )
        for d in range(2, args.max_degree + 1):
            g1 = catalog.growth_family_cover(args.g1_family, d, pry)
            if g1 is None:
                print("  (chebyshev alignment unavailable; skipped)")
                break
            joint = pair_covers_over_common_points(pry, g1)
            genuses = sorted(c.genus_method1 for c in joint.components)
            flags = screen_g1(pry, g1, joint=joint)
            print(
                f"  g1 degree {d}: min component genus {genuses[0]} "
                f"(all: {genuses}); screen any_flag={flags.any_flag}"
            )
    return EXIT_OK


# -- parser -------------------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after."""
    parser = argparse.ArgumentParser(
        prog="fibercover",
        description=(
            "Branched covers of the line: validation, genus, fiber "
            "products, Nielsen classes, screening, catalog."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a cover JSON file")
    p.add_argument("cover")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("genus", help="genus of a cover")
    p.add_argument("cover")
    p.set_defaults(func=_cmd_genus)

    p = sub.add_parser("galois-genus", help="Galois-closure genus")
    p.add_argument("cover")
    p.set_defaults(func=_cmd_galois_genus)

    p = sub.add_parser("ochar", help="orbifold characteristic")
    p.add_argument("cover")
    p.set_defaults(func=_cmd_ochar)

    p = sub.add_parser("fiber", help="fiber-product component report")
    p.add_argument("pair")
    p.add_argument("--report", help="write the full JSON report here")
    p.set_defaults(func=_cmd_fiber)

    pn = sub.add_parser("nielsen", help="Nielsen class operations")
    nsub = pn.add_subparsers(dest="nielsen_command", required=True)

    p = nsub.add_parser("enum", help="enumerate canonical representatives")
    p.add_argument("spec")
    p.add_argument("--mode", choices=[m.value for m in EquivalenceMode])
    p.set_defaults(func=_cmd_nielsen_enum)

    p = nsub.add_parser("braid-orbits", help="partition into braid orbits")
    p.add_argument("spec")
    p.add_argument("--mode", choices=[m.value for m in EquivalenceMode])
    p.set_defaults(func=_cmd_nielsen_braid_orbits)

    p = nsub.add_parser("coalesce", help="multiply adjacent entries")
    p.add_argument("element")
    p.add_argument("--at", type=int, default=None)
    p.set_defaults(func=_cmd_nielsen_coalesce)

    p = sub.add_parser("screen", help="genus-growth screening flags")
    p.add_argument("prw")
    p.add_argument("g1")
    p.add_argument("--joint", help="weak-pair JSON for the fail2d check")
    p.set_defaults(func=_cmd_screen)

    p = sub.add_parser("catalog", help="built-in constructions")
    p.add_argument("action", choices=["list", "get"])
    p.add_argument("key", nargs="?")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("growth", help="empirical genus-growth table")
    p.add_argument("--pair", required=True, help="catalog paired-cover key")
    p.add_argument(
        "--g1-family", required=True, choices=["chebyshev", "cyclic"]
    )
    p.add_argument("--max-degree", type=int, required=True)
    p.set_defaults(func=_cmd_growth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's last flush of the
        # unwritten output cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except _BadInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except InvalidCoverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except RuntimeError as exc:  # a consistency check; caps are caught above
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
