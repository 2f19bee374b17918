"""Spans and counters for the traced benchmark run.

``install`` puts wrappers around public functions and methods of
``fibercover``; nothing under ``src/`` changes, and an untraced run
installs nothing.

* A span records one call at a layer entry point: its name, its
  duration, and the span open when it started (its parent).  Spans are
  aggregated in memory per (phase, name, parent) as call count, total
  time and self time (total minus the time covered by child spans).
* Kernel operations on ``Permutation`` are only counted, not timed: the
  Nielsen workload makes millions of them.

An entry point the package no longer has is skipped, and a method that
became a ``cached_property`` (or the reverse) is still wrapped, so that
later refactors of ``src/`` keep this file working unchanged.
"""

from __future__ import annotations

import functools
import inspect
import random
import statistics
import sys
import time
from collections import Counter, defaultdict

_clock = time.perf_counter
_MISSING = object()


class Tracer:
    def __init__(self) -> None:
        self.phase = "setup"
        self.stack: list[list] = []  # open spans: [name, child seconds]
        # (phase, name, parent) -> [calls, total seconds, self seconds]
        self.spans: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0.0])
        # phase -> counts; multiplications are keyed ("mul", degree)
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, on_result=None):
        """``fn`` wrapped so each call records a span; ``on_result(counts,
        args, result)`` may add counts."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1][0] if stack else "-"
            frame = [name, 0.0]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                stack.pop()
                rec = tracer.spans[(tracer.phase, name, parent)]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if on_result is not None:
                on_result(tracer.counts[tracer.phase], args, result)
            return result

        return wrapper

    def counter(self, key):
        """A wrapper factory that counts calls under ``key(args)``, untimed."""
        tracer = self

        def wrap(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.counts[tracer.phase][key(args)] += 1
                return fn(*args, **kwargs)

            return counted

        return wrap

    # -- installing ----------------------------------------------------------

    def wrap(self, owner, attr: str, wrapper) -> None:
        """Replace ``owner.attr`` (a function, method, ``cached_property``
        or ``property``) by ``wrapper`` applied to its function.  A module
        owner stands for every ``fibercover`` module that binds the same
        function by name (``screen_g1`` is imported into ``cli``, for
        example)."""
        try:
            value = inspect.getattr_static(owner, attr)
        except AttributeError:
            return
        if isinstance(value, functools.cached_property):
            new = functools.cached_property(wrapper(value.func))
            new.__set_name__(owner, attr)
        elif isinstance(value, property):
            new = property(wrapper(value.fget))
        elif isinstance(value, (staticmethod, classmethod)):
            new = type(value)(wrapper(value.__func__))
        elif callable(value):
            new = wrapper(value)
        else:
            return
        if not inspect.ismodule(owner):
            self._set(owner, attr, new)
            return
        for modname, module in list(sys.modules.items()):
            if modname == "fibercover" or modname.startswith("fibercover."):
                for name, bound in list(vars(module).items()):
                    if bound is value:
                        self._set(module, name, new)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if value is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)

    def summary(self) -> dict:
        def key(k):
            return k if isinstance(k, str) else f"{k[0]}@{k[1]}"

        return {
            "spans": [
                [phase, name, parent, *rec]
                for (phase, name, parent), rec in sorted(self.spans.items())
            ],
            "counts": {
                phase: {key(k): v for k, v in c.items()}
                for phase, c in self.counts.items()
            },
        }


def install(tracer: Tracer) -> None:
    from fibercover import catalog, cli, cover, fiberprod, nielsen, permcore, permgroup

    perm = permcore.Permutation
    for attr, key in (
        ("__mul__", lambda args: ("mul", len(args[0].images))),
        ("inverse", lambda args: "permcore.inverse_calls"),
        ("conjugate", lambda args: "permcore.conjugate_calls"),
        ("__post_init__", lambda args: "permcore.validations"),
    ):
        tracer.wrap(perm, attr, tracer.counter(key))

    group = permgroup.GeneratedGroup
    component = fiberprod.Component
    spans = [
        (group, "__init__", "permgroup.build", None),
        (group, "contains", "permgroup.contains", None),
        (group, "elements", "permgroup.elements", None),
        (group, "point_stabilizer", "permgroup.stabilizer", None),
        (group, "orbit", "permgroup.orbit", None),
        (group, "orbits", "permgroup.orbits", None),
        (group, "is_transitive", "permgroup.is_transitive", None),
        (group, "conjugacy_class", "permgroup.conjugacy_class", None),
        (group, "block_systems", "permgroup.block_systems", None),
        (group, "normalizer_in_symmetric", "permgroup.normalizer_in_symmetric", None),
        (group, "class_stabilizer", "permgroup.class_stabilizer", None),
        (cover.Cover, "validate", "cover.validate", None),
        (cover.Cover, "group", "cover.group", None),
        (fiberprod.CoverPair, "__init__", "fiberprod.pair_init", None),
        (fiberprod.PairedCover, "__init__", "fiberprod.pair_init", None),
        (fiberprod.CoverPair, "components", "fiberprod.components", _tensor_letters),
        (component, "genus_method1", "fiberprod.genus_method1", None),
        (component, "genus_method2", "fiberprod.genus_method2", None),
        (component, "subgroup_witness", "fiberprod.subgroup_witness", None),
        (component, "pry_branch_cycles", "fiberprod.pry_branch_cycles", None),
        (fiberprod, "screen_g1", "fiberprod.screen_g1", None),
        (
            nielsen.NielsenClassSpec,
            "equivalence_conjugators",
            "nielsen.conjugators",
            _conjugator_count,
        ),
        (nielsen, "enumerate_class", "nielsen.enumerate_class", _representatives()),
        (nielsen, "canonical_form", "nielsen.canonical_form", None),
        (nielsen, "braid_orbits", "nielsen.braid_orbits", None),
        (nielsen, "braid_apply", "nielsen.braid_apply", None),
        (nielsen, "paired_enumerate", "nielsen.paired_enumerate", None),
    ]
    for attr in catalog.__all__:
        value = getattr(catalog, attr, None)
        if callable(value) and not isinstance(value, type):
            spans.append((catalog, attr, f"catalog.{attr}", None))
    for owner, attr, name, on_result in spans:
        tracer.wrap(owner, attr, lambda fn, n=name, h=on_result: tracer.span(n, fn, h))
    # The span around cli.main also counts the bytes it prints.
    tracer.wrap(
        cli, "main", lambda fn: tracer.span("cli.main", _counting_stdout(tracer, fn))
    )


def _tensor_letters(counts, args, result) -> None:
    pair = args[0]
    counts["fiberprod.tensor_letters"] += pair.degree_x * pair.degree_y


def _conjugator_count(counts, args, result) -> None:
    counts["nielsen.conjugators"] += len(result)


def _representatives():
    """Count the representatives of each spec once; later calls on the
    same spec return the cached enumeration."""
    seen: dict[int, object] = {}

    def hook(counts, args, result) -> None:
        spec = args[0]
        if id(spec) not in seen:
            seen[id(spec)] = spec  # keeps the id from being reused
            counts["nielsen.representatives"] += len(result)

    return hook


class _CountingWriter:
    def __init__(self, inner, counts: Counter) -> None:
        self._inner = inner
        self._counts = counts

    def write(self, text: str) -> int:
        self._counts["cli.stdout_bytes"] += len(text.encode("utf-8"))
        return self._inner.write(text)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


def _counting_stdout(tracer: Tracer, main):
    @functools.wraps(main)
    def wrapper(*args, **kwargs):
        inner = sys.stdout
        sys.stdout = _CountingWriter(inner, tracer.counts[tracer.phase])
        try:
            return main(*args, **kwargs)
        finally:
            sys.stdout = inner

    return wrapper


# -- kernel cost per operation -------------------------------------------------


def kernel_ns(degree: int, seed: int) -> dict[str, float]:
    """Median ns per ``Permutation`` multiply and conjugate at ``degree``,
    on random permutations; call with no wrappers installed."""
    from fibercover import Permutation

    rng = random.Random(seed)
    perms = []
    for _ in range(64):
        images = list(range(1, degree + 1))
        rng.shuffle(images)
        perms.append(Permutation(tuple(images)))
    pairs = [(perms[i], perms[(7 * i + 3) % 64]) for i in range(64)]
    ops = max(512, 200_000 // degree)
    out = {}
    for key, op in (("mul", lambda a, b: a * b), ("conjugate", lambda a, b: a.conjugate(b))):
        samples = []
        for _ in range(7):
            start = _clock()
            done = 0
            while done < ops:
                for a, b in pairs:
                    op(a, b)
                done += len(pairs)
            samples.append((_clock() - start) / done * 1e9)
        out[key] = statistics.median(samples)
    return out


# -- per-layer metrics ---------------------------------------------------------


def _muls(summary: dict, phase: str) -> dict[int, int]:
    counts = summary["counts"].get(phase, {})
    return {int(k[4:]): v for k, v in counts.items() if k.startswith("mul@")}


def busiest_degree(summary: dict, phase: str = "pass") -> int:
    """The degree at which the pass made the most multiplications."""
    muls = _muls(summary, phase) or {1: 0}
    return max(muls, key=lambda d: (muls[d], -d))


def layer_metrics(summary: dict, phase: str = "pass") -> dict[str, float]:
    """The named per-layer metrics of one traced pass.  Times are self
    times in seconds over the pass; ``catalog.build_s`` is taken from the
    set-up phase, where the inputs are built."""
    calls: Counter = Counter()
    self_s: Counter = Counter()
    child_of: Counter = Counter()
    for ph, name, parent, n, _total, own in summary["spans"]:
        if ph == "setup" and name.startswith("catalog."):
            self_s["catalog.build"] += own
        if ph != phase:
            continue
        calls[name] += n
        self_s[name] += own
        child_of[(name, parent)] += n
    counts = Counter(summary["counts"].get(phase, {}))

    def total(*names):
        return sum(self_s[n] for n in names)

    hits = child_of[("permgroup.build", "nielsen.enumerate_class")]
    generating = child_of[("nielsen.canonical_form", "nielsen.enumerate_class")]
    representatives = counts["nielsen.representatives"]
    pairs_built = calls["fiberprod.pair_init"] - child_of[
        ("fiberprod.pair_init", "fiberprod.pair_init")
    ]
    return {
        "permcore.mul_calls": sum(_muls(summary, phase).values()),
        "permcore.inverse_calls": counts["permcore.inverse_calls"],
        "permcore.conjugate_calls": counts["permcore.conjugate_calls"],
        "permcore.validations": counts["permcore.validations"],
        "permgroup.build_calls": calls["permgroup.build"],
        "permgroup.build_s": total("permgroup.build"),
        "permgroup.contains_calls": calls["permgroup.contains"],
        "permgroup.contains_s": total("permgroup.contains"),
        "permgroup.elements_calls": calls["permgroup.elements"],
        "permgroup.elements_s": total("permgroup.elements"),
        "permgroup.stabilizer_s": total("permgroup.stabilizer"),
        "permgroup.orbits_s": total(
            "permgroup.orbit", "permgroup.orbits", "permgroup.is_transitive"
        ),
        "permgroup.conjugacy_class_s": total("permgroup.conjugacy_class"),
        "permgroup.blocks_s": total("permgroup.block_systems"),
        "permgroup.normalizer_s": total(
            "permgroup.normalizer_in_symmetric", "permgroup.class_stabilizer"
        ),
        "cover.validate_calls": calls["cover.validate"],
        "cover.validate_s": total("cover.validate"),
        "cover.group_calls": calls["cover.group"],
        "fiberprod.pairs_built": pairs_built,
        "fiberprod.pair_init_s": total("fiberprod.pair_init"),
        "fiberprod.tensor_letters": counts["fiberprod.tensor_letters"],
        "fiberprod.components_s": total("fiberprod.components"),
        "fiberprod.genus_m1_s": total("fiberprod.genus_method1"),
        "fiberprod.genus_m2_s": total("fiberprod.genus_method2"),
        "fiberprod.witness_s": total("fiberprod.subgroup_witness"),
        "fiberprod.pry_s": total("fiberprod.pry_branch_cycles"),
        "fiberprod.screen_s": total("fiberprod.screen_g1"),
        "nielsen.conjugators": counts["nielsen.conjugators"],
        "nielsen.conjugators_s": total("nielsen.conjugators"),
        "nielsen.enumerate_s": total("nielsen.enumerate_class"),
        "nielsen.product_one_hits": hits,
        "nielsen.generating_tuples": generating,
        "nielsen.generating_ratio": generating / hits if hits else 0.0,
        "nielsen.hits_per_representative": (
            generating / representatives if representatives else 0.0
        ),
        "nielsen.canonical_calls": calls["nielsen.canonical_form"],
        "nielsen.canonical_s": total("nielsen.canonical_form"),
        "nielsen.braid_steps": calls["nielsen.braid_apply"],
        "nielsen.braid_s": total("nielsen.braid_orbits", "nielsen.braid_apply"),
        "catalog.build_s": self_s["catalog.build"],
        "cli.self_s": total("cli.main"),
        "cli.stdout_bytes": counts["cli.stdout_bytes"],
    }
