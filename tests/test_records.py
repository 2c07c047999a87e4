"""Record-type tests: construction, value equality, hashing, immutability,
slots, copying and ``repr`` of every frozen record class in the package."""

from __future__ import annotations

import copy
import os
import pickle
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from revdec import classical, gates, netlist, reversible, verification
from revdec._record import record
from revdec.classical import (
    Architecture,
    BcdOperands,
    BcdResult,
    ClaSignals,
    ConventionalTrace,
    SkipSignals,
    conventional_add,
    oracle,
    oracle_sweep,
    valid_operands,
)
from revdec.gates import BitVector, GatePermutation
from revdec.netlist import (
    CostMetrics,
    GateInstance,
    InputDecl,
    MalformedNetlist,
    Netlist,
    OutputDecl,
    TraceStep,
    _Analysis,
)
from revdec.reversible import ReversibleAdderBuild
from revdec.verification import (
    ErrataEntry,
    Mismatch,
    SubstitutionSite,
    Table1Report,
    Table1Row,
    VerificationReport,
)

NOT = GatePermutation("NOT", 1, (1, 0))
NET = Netlist(
    "inverter",
    (InputDecl("a", "primary_input"),),
    (OutputDecl("b", "primary_output"),),
    (GateInstance(NOT, ("a",), ("b",)),),
)
COSTS = CostMetrics(9, 13, 5, 4)

# Each record class with the positional arguments of two instances that
# differ in at least one field.
SAMPLES = {
    BcdOperands: ((2, 3, 1), (2, 3, 0)),
    BcdResult: ((5, 1), (5, 0)),
    ClaSignals: (
        ((1, 0, 0, 0), (1, 1, 0, 0), (0, 1, 0, 0), 0, 1, 1),
        ((1, 0, 0, 0), (1, 1, 0, 0), (0, 1, 0, 0), 1, 1, 1),
    ),
    ConventionalTrace: ((6, 0, 1), (6, 0, 0)),
    SkipSignals: (((1, 1, 0, 0), 0, 0, 1), ((1, 1, 0, 0), 0, 1, 1)),
    Architecture: (("x", conventional_add), ("y", conventional_add)),
    BitVector: ((4, 5), (4, 6)),
    GatePermutation: (("X", 1, (1, 0)), ("Y", 1, (1, 0))),
    InputDecl: (("a", "primary_input"), ("z", "ancilla", 1)),
    OutputDecl: (("s", "primary_output"), ("s", "garbage")),
    GateInstance: ((NOT, ("a",), ("b",)), (NOT, ("a",), ("c",))),
    CostMetrics: ((9, 13, 5, 4), (9, 13, 5, 5)),
    TraceStep: (
        (0, "NOT", (("a", 1),), (("b", 0),)),
        (1, "NOT", (("a", 1),), (("b", 0),)),
    ),
    Netlist: (
        ("inverter", NET.inputs, NET.outputs, NET.gates),
        ("renamed", NET.inputs, NET.outputs, NET.gates),
    ),
    _Analysis: (
        (("a", "b"), (-1, 0), ((0, (0,), (1,)),), (0,), (1,), (1,), None),
        (("a", "b"), (-1, 0), ((0, (0,), (1,)),), (0,), (), (1,),
         "netlist declares no primary outputs"),
    ),
    ReversibleAdderBuild: ((NET, (11, 22)), (NET, (11, 23))),
    Mismatch: (
        (BcdOperands(1, 2, 0), BcdResult(3, 0), BcdResult(4, 0)),
        (BcdOperands(1, 2, 0), BcdResult(3, 0), BcdResult(5, 0)),
    ),
    VerificationReport: (("conventional", 200, ()), ("conventional", 200, (), COSTS)),
    ErrataEntry: (
        ("S1_VERBATIM", BcdOperands(0, 1, 0), 1, 0),
        ("S2_VERBATIM", BcdOperands(0, 1, 0), 1, 0),
    ),
    SubstitutionSite: (
        ("cout", ("m", "n"), False, BcdOperands(5, 5, 0), 3, True, (("k", 1), ("z", 10))),
        ("cout", ("m", "n"), True, None, 0, False, None),
    ),
    Table1Row: (
        ("baseline", 11, 22),
        ("rev_conventional", 9, 13, (11, 22), "RECONSTRUCTED"),
    ),
    Table1Report: (((Table1Row("baseline", 11, 22),),), ((),)),
}

# Classes with defaulted fields: the required arguments, then every default.
DEFAULTS = {
    Architecture: (("x",), (None, None, None, True)),
    InputDecl: (("a", "primary_input"), (None,)),
    VerificationReport: (("conventional", 200, ()), (None, None)),
    Table1Row: (("baseline", 11, 22), (None, None)),
}

CLASSES = pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)


def field_values(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record).__match_args__)


def test_every_record_class_is_sampled():
    found = {
        obj
        for module in (classical, gates, netlist, reversible, verification)
        for obj in vars(module).values()
        if isinstance(obj, type)
        and obj.__module__ == module.__name__
        and "__match_args__" in vars(obj)
    }
    assert found == set(SAMPLES)
    assert len(found) == 22


class TestRecords:
    @CLASSES
    def test_positional_and_keyword_construction_agree(self, cls):
        for args in SAMPLES[cls]:
            record = cls(*args)
            assert field_values(record)[: len(args)] == args
            assert cls(**dict(zip(cls.__match_args__, args))) == record

    @pytest.mark.parametrize("cls", list(DEFAULTS), ids=lambda c: c.__name__)
    def test_omitted_fields_take_their_defaults(self, cls):
        required, defaults = DEFAULTS[cls]
        record = cls(*required)
        assert record == cls(*required, *defaults)
        assert field_values(record) == required + defaults

    @CLASSES
    def test_equality_and_hash_follow_the_field_values(self, cls):
        args, other_args = SAMPLES[cls]
        record, same, other = cls(*args), cls(*args), cls(*other_args)
        assert record == same and not record != same
        assert record != other and not record == other
        assert hash(record) == hash(same) == hash(field_values(record))
        assert hash(other) != hash(record)

    @CLASSES
    def test_another_type_with_the_same_values_is_not_equal(self, cls):
        args = SAMPLES[cls][0]
        lookalike = type("Lookalike", (cls,), {})(*args)
        record = cls(*args)
        assert record != lookalike and lookalike != record
        assert record != field_values(record)

    @CLASSES
    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        record = cls(*SAMPLES[cls][0])
        name = cls.__match_args__[0]
        value = getattr(record, name)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, value)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
        assert getattr(record, name) is value

    @CLASSES
    def test_copy_and_pickle_round_trip(self, cls):
        record = cls(*SAMPLES[cls][0])
        assert copy.copy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record

    @CLASSES
    def test_trusted_construction_equals_the_checked_one(self, cls, monkeypatch):
        record = cls(*SAMPLES[cls][0])
        trusted = cls._trusted(*field_values(record))
        assert type(trusted) is cls and vars(trusted) == {}
        assert trusted == record and hash(trusted) == hash(record)
        assert repr(trusted) == repr(record)
        # Only the trusted constructor skips the checks: copies run them again,
        # in __post_init__ or, for a class that defines __new__, in __new__.
        calls, checks = [], []
        hook = "__new__" if "__new__" in vars(cls) else "__init__"
        real_hook = getattr(cls, hook)
        monkeypatch.setattr(cls, hook,
                            lambda first, *args: calls.append(args) or real_hook(first, *args))
        if hasattr(cls, "__post_init__"):
            real_check = cls.__post_init__
            monkeypatch.setattr(cls, "__post_init__",
                                lambda self: checks.append(self) or real_check(self))
        elif hook == "__new__":
            checks = calls
        assert cls._trusted(*field_values(record)) == record and not calls and not checks
        copies = (copy.copy(trusted), pickle.loads(pickle.dumps(trusted)))
        assert copies == (record, record)
        assert calls == [field_values(record)] * 2
        checked = hasattr(cls, "__post_init__") or hook == "__new__"
        assert len(checks) == (2 if checked else 0)

    @CLASSES
    def test_fields_are_slots_beside_a_dict_and_weakrefs(self, cls):
        # cached_property writes to the instance __dict__; every field lives
        # in its own slot, so no default is left behind as a class attribute.
        assert cls.__slots__ == (*cls.__match_args__, "__dict__", "__weakref__")
        record = cls(*SAMPLES[cls][0])
        assert vars(record) == {}
        assert weakref.ref(record)() is record


def test_trusted_constructors_compile_nothing():
    # _trusted is a closure over the slot setters: importing the package
    # compiles only the generated __init__s, and a first call compiles nothing.
    code = ("import builtins\n"
            "sources = []\n"
            "real_exec = builtins.exec\n"
            "builtins.exec = lambda source, *rest: sources.append(source) or real_exec(source, *rest)\n"
            "import revdec.cli, revdec.netlist, revdec.reversible, revdec.verification\n"
            "sources = [s for s in sources if type(s) is str]  # not the modules' code\n"
            "from revdec import classical, gates, netlist, reversible, verification\n"
            "assert any(s.startswith('def __init__(') for s in sources)\n"
            "assert not any('_trusted' in s for s in sources)\n"
            "classes = {c for m in (classical, gates, netlist, reversible, verification)\n"
            "           for c in vars(m).values() if isinstance(c, type) and '_trusted' in vars(c)}\n"
            "assert len(classes) == 22\n"
            "assert all(type(vars(c)['_trusted']) is classmethod for c in classes)\n"
            "def refuse(*args, **kwargs):\n"
            "    raise AssertionError('compiled')\n"
            "builtins.exec = builtins.eval = builtins.compile = refuse\n"
            "for c in classes:\n"
            "    assert type(c._trusted(*[None] * len(c.__match_args__))) is c\n")
    env = dict(os.environ, PYTHONPATH=str(Path(netlist.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


SHARED = {
    BcdOperands: [(a, b, cin) for a in range(10) for b in range(10) for cin in (0, 1)],
    BcdResult: [(total, cout) for cout in (0, 1) for total in range(16)],
}
SHARED_CLASSES = pytest.mark.parametrize("cls", list(SHARED), ids=lambda c: c.__name__)


class TestSharedValues:
    """The valid digit operands and results are closed sets of shared instances."""

    @SHARED_CLASSES
    def test_every_construction_returns_the_shared_instance(self, cls):
        shared = list(valid_operands()) if cls is BcdOperands else [
            BcdResult.from_code(code) for code in range(32)]
        assert len(shared) == len(SHARED[cls]) == len(set(map(id, shared)))
        for args, instance in zip(SHARED[cls], shared):
            assert field_values(instance) == args
            assert cls(*args) is instance
            assert cls(**dict(zip(cls.__match_args__, args))) is instance

    def test_oracle_sweep_and_oracle_hand_out_the_shared_instances(self):
        for op, (swept, result) in zip(valid_operands(), oracle_sweep()[0], strict=True):
            assert swept is op
            assert result is oracle(op) is BcdResult.from_code(result.code())

    @SHARED_CLASSES
    def test_copies_are_the_shared_instance(self, cls):
        for args in SHARED[cls]:
            instance = cls(*args)
            assert copy.copy(instance) is instance
            assert copy.deepcopy(instance) is instance
            assert pickle.loads(pickle.dumps(instance)) is instance

    @SHARED_CLASSES
    def test_a_subclass_makes_its_own_unequal_instances(self, cls):
        sub = type("Sub", (cls,), {})
        args = SHARED[cls][7]
        mine = sub(*args)
        assert type(mine) is sub and mine is not sub(*args) and mine == sub(*args)
        assert mine != cls(*args) and cls(*args) != mine
        assert copy.copy(mine) == mine and type(copy.deepcopy(mine)) is sub
        with pytest.raises(ValueError):
            sub(*(99 for _ in args))

    @pytest.mark.parametrize("cls, name, value, error", [
        (BcdOperands, "b", 12, "operand b=12 is not a BCD digit"),
        (BcdOperands, "cin", 2, "cin must be 0 or 1, got 2"),
        (BcdResult, "sum", True, "sum True does not fit in four bits"),
        (BcdResult, "cout", -1, "cout must be 0 or 1, got -1"),
    ])
    def test_copying_an_altered_value_runs_the_checks(self, cls, name, value, error):
        # An unshared instance: altering a shared one would alter every user's.
        altered = cls._trusted(*SHARED[cls][3])
        object.__setattr__(altered, name, value)
        for again in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
            with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
                again(altered)

    def test_a_record_with_its_own_new_gets_no_generated_init(self):
        @record
        class Doubled:
            x: int

            def __new__(cls, x):
                return cls._trusted(2 * x)

        @record
        class Plain:
            x: int

        assert "__init__" not in vars(Doubled) and "__init__" in vars(Plain)
        assert Doubled(3).x == 6 and Doubled(x=4) == Doubled(4)
        assert copy.copy(Doubled(3)).x == 12  # a copy calls the class again


class TestReduce:
    """``copy`` and ``pickle`` rebuild a record by calling its class again."""

    def test_unpickling_runs_post_init_again(self):
        inst = GateInstance(NOT, ["a"], ["b"])
        assert (inst.input_wires, inst.output_wires) == (("a",), ("b",))
        # Stored raw, past __post_init__'s coercion: unpickling coerces again.
        object.__setattr__(inst, "input_wires", ["a"])
        object.__setattr__(inst, "output_wires", ["b"])
        again = pickle.loads(pickle.dumps(inst))
        assert again == GateInstance(NOT, ("a",), ("b",))
        assert type(again.input_wires) is tuple and type(again.output_wires) is tuple

    def test_unpickling_checks_the_fields_again(self):
        inst = GateInstance(NOT, ("a",), ("b",))
        object.__setattr__(inst, "output_wires", ("a",))
        data = pickle.dumps(inst)
        with pytest.raises(MalformedNetlist, match="drive its own input"):
            pickle.loads(data)
        with pytest.raises(MalformedNetlist, match="drive its own input"):
            copy.copy(inst)

    def test_copies_leave_cached_properties_behind(self):
        net = Netlist(NET.name, NET.inputs, NET.outputs, NET.gates)
        net.validate()
        assert "_analysis" in vars(net)
        for again in (copy.copy(net), copy.deepcopy(net), pickle.loads(pickle.dumps(net))):
            assert again == net and vars(again) == {}


class TestRepr:
    def test_operands(self):
        assert repr(BcdOperands(2, 3, 1)) == "BcdOperands(a=2, b=3, cin=1)"

    def test_bit_vector(self):
        assert repr(BitVector(4, 5)) == "BitVector(width=4, value=5)"

    def test_cost_metrics(self):
        assert repr(COSTS) == (
            "CostMetrics(gate_count=9, garbage_count=13, ancilla_count=5, depth=4)"
        )

    def test_table1_row_with_defaults(self):
        assert repr(Table1Row("baseline", 11, 22)) == (
            "Table1Row(label='baseline', gates=11, garbage=22, target=None, fidelity=None)"
        )

    def test_match_binds_fields_in_order(self):
        match BcdOperands(2, 3, 1):
            case BcdOperands(a, b, cin):
                assert (a, b, cin) == (2, 3, 1)
            case _:
                pytest.fail("BcdOperands did not match its own class pattern")
