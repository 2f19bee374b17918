"""The package's value types: ``Permutation`` and the immutable records
compare by their fields, hash consistently, refuse assignment, survive
``copy`` and ``pickle``, and keep their constructor signatures."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from fibercover import catalog
from fibercover.catalog import PairedClassSpec
from fibercover.cover import Cover, ValidityReport
from fibercover.fiberprod import RamPoint, ScreenReport
from fibercover.nielsen import EquivalenceMode, NielsenClassSpec
from fibercover.permcore import Permutation, parse_cycles
from fibercover.permgroup import BlockSystem, GeneratedGroup

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _p(text, degree=4):
    return parse_cycles(text, degree)


_V4 = GeneratedGroup(4, [_p("(1 2)(3 4)"), _p("(1 3)(2 4)")])


def _spec():
    return NielsenClassSpec(_V4, (_p("(1 2)(3 4)"),) * 2, EquivalenceMode.INNER)


# Each factory builds a new instance from equal fields on every call.
FACTORIES = {
    "Permutation": lambda: Permutation((2, 3, 1, 4)),
    "Cover": lambda: Cover(4, ("a", "b"), (_p("(1 2 3 4)"), _p("(1 4 3 2)"))),
    "ValidityReport": lambda: ValidityReport(True, True, False, ((2, 2), (4,))),
    "NielsenClassSpec": _spec,
    "BlockSystem": lambda: BlockSystem(((1, 2), (3, 4))),
    "RamPoint": lambda: RamPoint(0, (1, 2), (3,)),
    "ScreenReport": lambda: ScreenReport(
        False, Fraction(1, 2), 0, ("q",), None, "", True, False, ("n",)
    ),
    "PairedClassSpec": lambda: PairedClassSpec(_spec(), 2, ("z1", "z2")),
}


def _comparable(value):
    """``value`` with every group replaced by its element list: a
    ``GeneratedGroup`` compares by identity, and a deep copy or an
    unpickled record holds a new group object."""
    if isinstance(value, GeneratedGroup):
        return ("group", value.degree, tuple(value.elements()))
    if isinstance(value, (NielsenClassSpec, PairedClassSpec)):
        return tuple(_comparable(getattr(value, f)) for f in value._fields)
    return value


@pytest.mark.parametrize("name", FACTORIES)
class TestValueSemantics:
    def test_equal_fields_give_equal_objects_and_hashes(self, name):
        a, b = FACTORIES[name](), FACTORIES[name]()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)

    def test_assignment_refused(self, name):
        a = FACTORIES[name]()
        field = "padded" if name == "Permutation" else a._fields[0]
        before = getattr(a, field)
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            a.extra = 1
        with pytest.raises(AttributeError):
            delattr(a, field)
        if name == "Permutation":
            with pytest.raises(AttributeError):
                a.images = None
        assert getattr(a, field) is before

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_round_trip(self, name, clone):
        a = FACTORIES[name]()
        b = clone(a)
        assert type(b) is type(a)
        assert _comparable(b) == _comparable(a)
        # A spec's deep copy holds a new group, which compares by identity.
        if clone is copy.copy or name not in ("NielsenClassSpec", "PairedClassSpec"):
            assert b == a and hash(b) == hash(a)


def test_cached_values_do_not_change_equality():
    a, b = FACTORIES["Cover"](), FACTORIES["Cover"]()
    assert a.validate().valid
    assert a == b and hash(a) == hash(b)


class TestConstructorSignatures:
    def test_positional_keyword_and_default_fields(self):
        spec = catalog.get("deg7-class-3.2.7")
        by_keyword = NielsenClassSpec(
            class_reps=spec.class_reps, group=spec.group, include_reorderings=False
        )
        assert by_keyword.mode is EquivalenceMode.ABSOLUTE
        assert by_keyword.outer_elements == ()
        assert by_keyword.include_reorderings is False
        assert by_keyword == NielsenClassSpec(
            spec.group, spec.class_reps, EquivalenceMode.ABSOLUTE, (), False
        )

    @pytest.mark.parametrize(
        "args, kwargs",
        [
            ((4, ("a",)), {}),
            ((4, ("a",), (_p("(1 2)"),), None), {}),
            ((4, ("a",), (_p("(1 2)"),)), {"degree": 4}),
            ((4, ("a",), (_p("(1 2)"),)), {"genus": 0}),
        ],
        ids=["missing", "extra", "repeated", "unknown"],
    )
    def test_bad_arguments_refused(self, args, kwargs):
        with pytest.raises(TypeError):
            Cover(*args, **kwargs)

    def test_checks_still_run(self):
        with pytest.raises(ValueError, match="identity entries"):
            Cover(4, ("a",), (_p("()"),))
        with pytest.raises(ValueError, match="not in group"):
            NielsenClassSpec(_V4, (_p("(1 2)"),))


def test_import_loads_no_dataclasses_or_inspect():
    """``dataclasses`` imports ``inspect``, and with it ``ast``, ``dis``
    and ``tokenize``; starting the command line loads none of them."""
    code = (
        "import sys, fibercover.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"
