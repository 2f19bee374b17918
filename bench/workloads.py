"""Seeded inputs, timed jobs and exact checks for the benchmark workloads.

Every workload has three parts:

* ``setup(rng, tmpdir)`` builds the inputs from the seed's random stream;
* ``run(inputs)`` is the pass: it calls the library once per job and
  returns the raw results, fully materialised, and the seconds each job
  took;
* ``check(inputs, results)`` compares every result against exact
  expected values and returns one ``(job, ok, detail)`` row per job.

Library calls go through module attributes (``nielsen.enumerate_class``,
not a name bound at import time), so that the tracing wrappers, when
installed, see every call the workload makes.

The seed only relabels letters and picks class representatives, so every
expected value below holds for every seed.  Every job takes at most a
few seconds, so that ``run.py`` can time each one several times in a run
and keep its fastest pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import time

import fibercover as fc
from fibercover import catalog, cli, fiberprod, nielsen, parse_cycles

# -- seeded relabelling -------------------------------------------------------


def random_relabelling(rng: random.Random, n: int) -> tuple[int, ...]:
    """Images of a uniformly random permutation of 1..n."""
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return tuple(images)


def _renamed(images: tuple[int, ...], pi: tuple[int, ...]) -> tuple[int, ...]:
    """Images of ``pi^-1 * p * pi`` for ``p`` with ``images``: the letter i
    is renamed pi(i)."""
    out = [0] * len(pi)
    for i, img in enumerate(images):
        out[pi[i] - 1] = pi[img - 1]
    return tuple(out)


def relabel(p: fc.Permutation, pi: tuple[int, ...]) -> fc.Permutation:
    return fc.Permutation(_renamed(p.images, pi))


def _then(images: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """Images of the product that applies ``images`` first, then ``g``."""
    return tuple(g[i - 1] for i in images)


def direct_sum(pi_x: tuple[int, ...], pi_y: tuple[int, ...]) -> tuple[int, ...]:
    """Relabel the x-letters by ``pi_x`` and the y-letters (after them)
    by ``pi_y``, keeping the split."""
    m = len(pi_x)
    return pi_x + tuple(m + j for j in pi_y)


def random_element(rng: random.Random, gens, length: int) -> tuple[int, ...]:
    """Images of a random word of ``length`` generators."""
    images = tuple(range(1, gens[0].degree + 1))
    for _ in range(length):
        images = _then(images, rng.choice(gens).images)
    return images


def relabel_cover(cover, pi: tuple[int, ...]):
    return fc.Cover(
        cover.degree, cover.branch_points, tuple(relabel(p, pi) for p in cover.cycles)
    )


def seeded_class_spec(spec, rng: random.Random, pi: tuple[int, ...]):
    """The class spec with every representative replaced by a random
    conjugate in its class, then every letter renamed by ``pi``."""
    gens = spec.group.generators
    degree = spec.group.degree
    reps = tuple(
        relabel(relabel(rep, random_element(rng, gens, 4 * degree)), pi)
        for rep in spec.class_reps
    )
    group = fc.GeneratedGroup(degree, [relabel(g, pi) for g in gens])
    return fc.NielsenClassSpec(
        group,
        reps,
        spec.mode,
        tuple(relabel(o, pi) for o in spec.outer_elements),
        spec.include_reorderings,
        spec.search_cap,
    )


def seeded_pair_parts(pair, rng: random.Random):
    """Relabelled (branch points, sigma, tau, m, n) of a paired cover; the
    x-letters and the y-letters are relabelled separately."""
    m, n = pair.degree_x, pair.degree_y
    pi_x = random_relabelling(rng, m)
    pi_y = random_relabelling(rng, n)
    sigma = tuple(relabel(p, pi_x) for p in pair.sigma)
    tau = tuple(relabel(p, pi_y) for p in pair.tau)
    return pair.branch_points, sigma, tau, m, n


def conjugated_pair_parts(pair, rng: random.Random):
    """(branch points, sigma, tau, m, n) of a paired cover conjugated by a
    random element of its joint group: the x-letters and the y-letters
    are renamed by the two parts of one random word in the joint branch
    cycles.  The group stays the same set of permutations, so the cost
    of its stabilizer chain moves much less with the seed than under a
    free relabelling."""
    m, n = pair.degree_x, pair.degree_y
    joint = [
        fc.Permutation(a.images + tuple(m + i for i in b.images))
        for a, b in zip(pair.sigma, pair.tau)
    ]
    word = random_element(rng, joint, 4 * (m + n))
    g, h = word[:m], tuple(i - m for i in word[m:])
    sigma = tuple(relabel(p, g) for p in pair.sigma)
    tau = tuple(relabel(p, h) for p in pair.tau)
    return pair.branch_points, sigma, tau, m, n


# -- independent checks on image tuples --------------------------------------


def _class_of(images: tuple[int, ...], gens) -> frozenset:
    """Conjugacy class of ``images`` under the group generated by ``gens``,
    as a set of image tuples (a plain orbit walk, not the library's)."""
    seen = {images}
    todo = [images]
    while todo:
        x = todo.pop()
        for g in gens:
            y = _renamed(x, g.images)
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return frozenset(seen)


def nielsen_tuple_problems(spec, tuples, group_order: int) -> list[str]:
    """What is wrong with ``tuples`` as members of the Nielsen class of
    ``spec``, checked with plain code: product one, entries in the class
    multiset (slot by slot when the order is fixed), and a fresh group of
    ``group_order``."""
    gens = spec.group.generators
    degree = spec.group.degree
    classes: list[frozenset] = []

    def slot(images) -> int | None:
        return next((i for i, c in enumerate(classes) if images in c), None)

    want = []
    for rep in spec.class_reps:
        if slot(rep.images) is None:
            classes.append(_class_of(rep.images, gens))
        want.append(slot(rep.images))
    problems = []
    for element in tuples:
        product = tuple(range(1, degree + 1))
        for p in element:
            product = _then(product, p.images)
        slots = [slot(p.images) for p in element]
        if spec.include_reorderings and None not in slots:
            slots.sort()
        if product != tuple(range(1, degree + 1)):
            problems.append("product is not one")
        elif slots != (sorted(want) if spec.include_reorderings else want):
            problems.append(f"class slots {slots} do not match {want}")
        elif fc.GeneratedGroup(degree, list(element)).order() != group_order:
            problems.append("tuple does not generate the group")
    return problems


# -- nielsen ------------------------------------------------------------------

NIELSEN_CLASSES = {
    # key: (equivalence, representatives, braid orbit sizes, group order).
    # The classes keep the catalog's order of classes: one ordering costs
    # 1-2 s, all six of them about 10 s, too long for one timed job.
    "deg7-class-2.4.7": (nielsen.EquivalenceMode.ABSOLUTE, 1, [1], 168),
    "deg7-class-3.2.7": (nielsen.EquivalenceMode.INNER, 1, [1], 168),
}
# key: (joint branch cycle classes, as cycles of S5), paired covers, order
NIELSEN_PAIRED = {
    "s5-pairs-2.4.5": (("(1 2)", "(1 2 3 4)", "(1 2 3 4 5)"), 1, 120),
}
PAIRED_LABELS = ("z1", "z2", "infinity")


def s5_pairs_spec(classes) -> fc.NielsenClassSpec:
    """Inner Nielsen class of S5 acting at once on 5 letters and on the 10
    unordered pairs of them (joint degree 15), fixed order of classes;
    the smaller sibling of the catalog's ``hilbert-siegel-m5``."""
    m = 5

    def joint(p):
        q = catalog.pairs_permutation(p, m)
        return fc.Permutation(p.images + tuple(m + i for i in q.images))

    gens = [joint(parse_cycles(c, m)) for c in ("(1 2)", "(1 2 3 4 5)")]
    reps = tuple(joint(parse_cycles(c, m)) for c in classes)
    return fc.NielsenClassSpec(
        fc.GeneratedGroup(m + 10, gens),
        reps,
        nielsen.EquivalenceMode.INNER,
        include_reorderings=False,
    )


def nielsen_setup(rng: random.Random, tmpdir: str):
    inputs = {}
    for key, (mode, *_rest) in NIELSEN_CLASSES.items():
        spec = catalog.get(key)
        spec = fc.NielsenClassSpec(
            spec.group, spec.class_reps, mode, spec.outer_elements, False
        )
        pi = random_relabelling(rng, spec.group.degree)
        inputs[key] = seeded_class_spec(spec, rng, pi)
    for key, (classes, *_rest) in NIELSEN_PAIRED.items():
        spec = s5_pairs_spec(classes)
        m = 5
        pi = direct_sum(random_relabelling(rng, m), random_relabelling(rng, 10))
        inputs[key] = (seeded_class_spec(spec, rng, pi), m, PAIRED_LABELS)
    return inputs


def nielsen_run(inputs):
    out, times = {}, {}
    for key in NIELSEN_CLASSES:
        spec = inputs[key]
        out[key] = _job(
            times, key, lambda: (nielsen.enumerate_class(spec), nielsen.braid_orbits(spec))
        )
    for key in NIELSEN_PAIRED:
        spec, m, labels = inputs[key]
        out[key] = _job(times, key, lambda: nielsen.paired_enumerate(spec, m, labels))
    return out, times


def nielsen_check(inputs, results):
    rows = []
    for key, (_mode, count, orbit_sizes, order) in NIELSEN_CLASSES.items():
        value, error = results[key]
        if error:
            rows.append((key, False, error))
            continue
        reps, orbits = value
        problems = nielsen_tuple_problems(inputs[key], reps, order)
        if len(reps) != count:
            problems.append(f"{len(reps)} representatives, expected {count}")
        sizes = sorted(len(o) for o in orbits)
        if sizes != orbit_sizes:
            problems.append(f"braid orbits {sizes}, expected {orbit_sizes}")
        if sorted(e for o in orbits for e in o) != sorted(reps):
            problems.append("braid orbits do not partition the class")
        rows.append((key, not problems, "; ".join(problems)))
    for key, (_classes, count, order) in NIELSEN_PAIRED.items():
        spec, m, labels = inputs[key]
        value, error = results[key]
        if error:
            rows.append((key, False, error))
            continue
        problems = []
        if any(pair.branch_points != labels or pair.degree_x != m for pair in value):
            problems.append("branch points or split changed")
        joint = [
            tuple(
                fc.Permutation(a.images + tuple(m + i for i in b.images))
                for a, b in zip(pair.sigma, pair.tau)
            )
            for pair in value
        ]
        problems += nielsen_tuple_problems(spec, joint, order)
        if len(value) != count:
            problems.append(f"{len(value)} paired covers, expected {count}")
        rows.append((key, not problems, "; ".join(problems)))
    return rows


def nielsen_digest(results):
    out = {}
    for key, (value, error) in results.items():
        if error:
            out[key] = error
        elif key in NIELSEN_CLASSES:
            reps, orbits = value
            out[key] = [
                [[str(p) for p in e] for e in reps],
                [len(o) for o in orbits],
            ]
        else:
            out[key] = [pair.to_json_dict() for pair in value]
    return out


# -- fiber ----------------------------------------------------------------

FIBER_PAIRS = {
    # key: (degree_y, sorted (deg_z, genus) of the components)
    "deg7-pair-1": (7, [(21, 0), (28, 1)]),
    "deg7-pair-2": (7, [(21, 0), (28, 0)]),
    "sm-pair-7": (21, [(42, 0), (105, 2)]),
    "sm-pair-8": (28, [(56, 0), (168, 4)]),
}
# Seeded conjugates of each pair run per pass: the cost of one moves with
# the seed by up to 15% on the sm pairs, the mean of three much less.
FIBER_LABELLINGS = {"deg7-pair-1": 2, "deg7-pair-2": 2, "sm-pair-7": 3, "sm-pair-8": 3}


def fiber_pair(key: str):
    """``sm-pair-8`` (the product-one adjustment lists S6) stands in for the
    catalog's ``sm-pair-9``, whose one call takes about 10 s."""
    return catalog.build_sm_pair(8) if key == "sm-pair-8" else catalog.get(key)


def fiber_setup(rng: random.Random, tmpdir: str):
    paths = {}
    for key, count in FIBER_LABELLINGS.items():
        pair = fiber_pair(key)
        for i in range(count):
            labels, sigma, tau, m, n = conjugated_pair_parts(pair, rng)
            data = {
                "branch_points": list(labels),
                "sigma": {"degree": m, "cycles": [str(p) for p in sigma]},
                "tau": {"degree": n, "cycles": [str(p) for p in tau]},
            }
            path = os.path.join(tmpdir, f"{key}#{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
            paths[f"{key}#{i}"] = path
    return paths


def fiber_run(paths):
    out, times = {}, {}
    for job, path in paths.items():

        def call():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["fiber", path])
            return code, buf.getvalue()

        out[job] = _job(times, job, call)
    return out, times


def fiber_check(paths, results):
    rows = []
    for job in paths:
        degree_y, components = FIBER_PAIRS[job.split("#")[0]]
        value, error = results[job]
        if error:
            rows.append((job, False, error))
            continue
        code, text = value
        if code != 0:
            rows.append((job, False, f"exit code {code}"))
            continue
        report = json.loads(text[text.index("{"):])
        comps = report["components"]
        problems = []
        got = sorted((c["deg_z"], c["genus_m1"]) for c in comps)
        if got != components:
            problems.append(f"components {got}, expected {components}")
        for c in comps:
            if c["genus_m1"] != c["genus_m2"]:
                problems.append(f"genus methods disagree on deg_z {c['deg_z']}")
            if c["subgroup_index"] != c["deg_z"]:
                problems.append(f"subgroup index {c['subgroup_index']} != deg_z")
            pry = fc.Cover.from_json_dict(c["pry_cover"])
            if pry.degree * degree_y != c["deg_z"]:
                problems.append(f"projection degree {pry.degree} is wrong")
            elif not pry.validate().valid:
                problems.append(f"projection of deg_z {c['deg_z']} is invalid")
        rows.append((job, not problems, "; ".join(problems)))
    return rows


def fiber_digest(results):
    return {k: (e if e else v) for k, (v, e) in results.items()}


# -- growth -------------------------------------------------------------------

GROWTH_PAIRS = ("deg7-pair-1", "deg7-pair-2")
GROWTH_DEGREES = range(2, 25)
GROWTH_PROJECTIONS = {
    # (pair, projection degree l): (genus g_W of the component,
    # number of branch points of the projection, cyclic any_flag)
    ("deg7-pair-1", 3): (0, 4, True),
    ("deg7-pair-1", 4): (1, 5, False),
    ("deg7-pair-2", 3): (0, 3, True),
    ("deg7-pair-2", 4): (0, 4, False),
}


def _growth_jobs():
    jobs = []
    for (key, ell), (_, points, _) in GROWTH_PROJECTIONS.items():
        families = ("cyclic", "chebyshev") if points == 3 else ("cyclic",)
        for family in families:
            for d in GROWTH_DEGREES:
                jobs.append((key, ell, family, d))
    return jobs


def chebyshev_aligned(pry, d: int):
    """The degree-d Chebyshev cover with its full cycle over the
    projection's highest-order branch point, as ``fibercover growth``
    aligns it."""
    by_order = sorted(
        zip(pry.branch_points, pry.cycles), key=lambda bc: (bc[1].order(), bc[0])
    )
    return catalog.build_chebyshev_cover(d, tuple(b for b, _ in by_order))


def growth_setup(rng: random.Random, tmpdir: str):
    pairs = {
        key: fc.PairedCover(*seeded_pair_parts(catalog.get(key), rng))
        for key in GROWTH_PAIRS
    }
    # Each composition renames the letters of both of its covers afresh,
    # so that one pass averages the cost of many labellings.
    relabellings = {
        job: (random_relabelling(rng, job[1]), random_relabelling(rng, job[3]))
        for job in _growth_jobs()
    }
    return pairs, relabellings


def growth_run(inputs):
    pairs, relabellings = inputs
    out, times = {}, {}
    for key, pair in pairs.items():
        comps, error = _job(times, key, lambda: pair.components)
        if error:  # a failed pair fails all its jobs
            out[key] = (None, error)
            continue
        for comp in sorted(comps, key=lambda c: len(c.orbit)):
            pry = _job(times, (key, comp.deg_over_y), comp.pry_branch_cycles)
            ell = comp.deg_over_y
            out[(key, ell)] = pry
            if pry[1]:
                continue
            pry = pry[0]
            families = ["cyclic"]
            if len(pry.branch_points) == 3:
                families.append("chebyshev")
            for family in families:
                for d in GROWTH_DEGREES:
                    job = (key, ell, family, d)
                    out[job] = _job(
                        times, job, lambda: _compose(pry, family, d, relabellings[job])
                    )
    return out, times


def _compose(pry, family: str, d: int, relabelling):
    pi_w, pi_1 = relabelling
    if family == "cyclic":
        g1 = catalog.build_cyclic_cover(d, ("t1", "t2"))
    else:
        g1 = chebyshev_aligned(pry, d)
    pry = relabel_cover(pry, pi_w)
    g1 = relabel_cover(g1, pi_1)
    joint = fiberprod.pair_covers_over_common_points(pry, g1)
    genuses = sorted(c.genus_method1 for c in joint.components)
    flags = fiberprod.screen_g1(pry, g1, joint=joint)
    return genuses, flags.any_flag


def growth_check(inputs, results):
    rows = []
    for job in _growth_jobs():
        key, ell, family, d = job
        genus_w, points, cyclic_flag = GROWTH_PROJECTIONS[(key, ell)]
        upstream = results.get(key) or results.get((key, ell))
        if upstream is not None and upstream[1]:
            rows.append((job, False, upstream[1]))
            continue
        pry = upstream[0] if upstream else None
        value, error = results.get(job, (None, "not attempted"))
        if error:
            rows.append((job, False, error))
            continue
        genuses, any_flag = value
        problems = []
        if pry is None or len(pry.branch_points) != points:
            problems.append("projection has the wrong branch points")
        elif pry.genus() != genus_w:
            problems.append(f"projection genus {pry.genus()}, expected {genus_w}")
        if family == "cyclic":
            # Riemann-Hurwitz for a cyclic cover branched away from W.
            want = (d * genus_w + (ell - 1) * (d - 1), cyclic_flag)
        else:
            want = (0, True)
        if (genuses[0], any_flag) != want:
            problems.append(f"(min genus, any_flag) {(genuses[0], any_flag)}, expected {want}")
        rows.append((job, not problems, "; ".join(problems)))
    return rows


def growth_digest(results):
    out = {}
    for job, (value, error) in sorted(results.items(), key=lambda kv: str(kv[0])):
        if error:
            out[str(job)] = error
        elif len(job) == 2:
            out[str(job)] = value.to_json_dict()
        else:
            out[str(job)] = [value[0], value[1]]
    return out


# -- shared -------------------------------------------------------------------


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


# Set by ``worker.py`` in timed passes: a ``reference.Reference`` that
# runs after every job, untimed, to read the host's speed.
REFERENCE = None


def _job(times: dict, key, fn):
    """Run one job: ``(result, None)``, or ``(None, error)`` if it raised;
    its wall time goes to ``times[str(key)]``."""
    start = time.perf_counter()
    try:
        return fn(), None
    except Exception as exc:  # any failure of the program counts against it
        return None, _describe(exc)
    finally:
        elapsed = time.perf_counter() - start
        times[str(key)] = elapsed
        if REFERENCE is not None:
            REFERENCE.after_job(elapsed)


WORKLOADS = {
    "nielsen": (nielsen_setup, nielsen_run, nielsen_check, nielsen_digest),
    "fiber": (fiber_setup, fiber_run, fiber_check, fiber_digest),
    "growth": (growth_setup, growth_run, growth_check, growth_digest),
}
