#!/usr/bin/env python3
"""Empirical genus-growth experiment.

Compose each component of a catalog pair (as a cover of the y-line)
with a family of degree-d covers and record the minimum component genus
of the resulting fiber product at each degree, alongside the screening
flags.  Screened (flagged) families are the candidates for keeping a
genus-0 component at every degree; unflagged families should show
growing genus.
"""

import argparse

from fibercover import catalog
from fibercover.fiberprod import pair_covers_over_common_points, screen_g1


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pair", default="deg7-pair-2")
    parser.add_argument(
        "--families", nargs="*", default=["chebyshev", "cyclic"]
    )
    parser.add_argument("--max-degree", type=int, default=6)
    args = parser.parse_args()
    pair = catalog.get(args.pair)
    for ci, component in enumerate(
        sorted(pair.components, key=lambda c: len(c.orbit)), 1
    ):
        pry = component.pry_branch_cycles()
        print(f"component {ci}: degree {pry.degree} over the y-line, "
              f"branch points {pry.branch_points}")
        for family in args.families:
            print(f"  family {family}:")
            for d in range(2, args.max_degree + 1):
                g1 = catalog.growth_family_cover(family, d, pry)
                if g1 is None:
                    print("    (needs a three-branch-point target; skipped)")
                    break
                joint = pair_covers_over_common_points(pry, g1)
                genuses = sorted(c.genus_method1 for c in joint.components)
                flags = screen_g1(pry, g1, joint=joint)
                print(f"    degree {d}: min genus {genuses[0]} "
                      f"(all {genuses}), screen any_flag={flags.any_flag}")


if __name__ == "__main__":
    main()
