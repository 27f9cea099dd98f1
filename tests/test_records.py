"""The value classes against frozen-dataclass reference copies.

boolfrac writes its record classes by hand so that importing it does not
import `dataclasses`. Each one must still behave as the dataclass it
replaced: the same repr, == (NotImplemented against any other class),
hash, immutability and construction. The references below are those
dataclasses, kept here under the same names, and one for `lang.Token`,
which is a record too.

The last tests start fresh interpreters: importing the package loads
neither `dataclasses` nor `prob` (with `fractions`, `decimal` and
`numbers`), and `prob` is loaded on its first use and only then.
"""

import copy
import os
import pathlib
import pickle
import subprocess
import sys
from dataclasses import dataclass, fields
from fractions import Fraction

import pytest

import boolfrac
from boolfrac import lang, lawcheck, prob, relations
from boolfrac._record import Record
from boolfrac.space import SampleSpace

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


@dataclass(frozen=True)
class EventRef:
    name: str


@dataclass(frozen=True)
class SetLiteral:
    names: tuple


@dataclass(frozen=True)
class Undefined:
    """The literal U."""


@dataclass(frozen=True)
class Not:
    arg: object


@dataclass(frozen=True)
class Binary:
    op: str
    left: object
    right: object


@dataclass
class SpaceDoc:
    name: str
    space: SampleSpace
    events: dict
    measures: dict


@dataclass(frozen=True)
class LawReport:
    law: str
    atom_count: int
    instances_checked: int
    passed: bool
    counterexample: str = None
    note: str = None


@dataclass(frozen=True)
class AdditiveReport:
    lhs: Fraction
    rhs: Fraction
    holds: bool
    cases: tuple


@dataclass(frozen=True)
class VerifiabilityProfile:
    truth_applicable: bool
    falsity_applicable: bool
    verifiable: bool
    falsifiable: bool
    complement_verifiable: bool
    applicable: bool
    same_condition: bool


@dataclass(frozen=True)
class Subalgebra:
    members: frozenset
    is_boolean: bool


SPACE = SampleSpace(["a", "b"])

# (class, reference, field values, other field values)
CASES = [
    (lang.Token, Token, ("ident", "a", 1, 3), ("ident", "a", 2, 3)),
    (lang.EventRef, EventRef, ("a",), ("b",)),
    (lang.SetLiteral, SetLiteral, (("a", "b"),), ((),)),
    (lang.Undefined, Undefined, (), None),
    (lang.Not, Not, (lang.EventRef("a"),), (lang.Undefined(),)),
    (lang.Binary, Binary, ("or", lang.EventRef("a"), lang.Undefined()),
     ("and", lang.EventRef("a"), lang.Undefined())),
    (lang.SpaceDoc, SpaceDoc, ("d", SPACE, {"e": SPACE.atom("a")}, {}),
     ("d", SPACE, {}, {})),
    (lawcheck.LawReport, LawReport, ("t2.4", 2, 81, False, "x=({1}|{1})", None),
     ("t2.4", 2, 81, True, None, None)),
    (prob.AdditiveReport, AdditiveReport, (Fraction(1, 2), Fraction(1), False, ()),
     (Fraction(1, 2), Fraction(1, 2), True, (3,))),
    (relations.VerifiabilityProfile, VerifiabilityProfile, (True, False) * 3 + (True,),
     (False,) * 7),
    (relations.Subalgebra, Subalgebra, (frozenset({(0, 1), (1, 1)}), True),
     (frozenset({(0, 1), (1, 1)}), False)),
]
FROZEN = [case for case in CASES if case[0] is not lang.SpaceDoc]


def ids(cases):
    return [cls.__name__ for cls, *_ in cases]


def field_names(reference):
    return [field.name for field in fields(reference)]


@pytest.mark.parametrize("cls, reference, values, other", CASES, ids=ids(CASES))
def test_repr_and_construction_match_the_dataclass(cls, reference, values, other):
    new = cls(*values)
    assert repr(new) == repr(reference(*values))
    assert cls(**dict(zip(field_names(reference), values))) == new
    with pytest.raises(TypeError):
        cls(*values, None)


@pytest.mark.parametrize("cls, reference, values, other", CASES, ids=ids(CASES))
def test_bad_keyword_construction_raises_type_error_as_the_dataclass(cls, reference, values,
                                                                      other):
    """An unknown field, the first field given by position and by name,
    or the first field missing is a TypeError; the fields after the first
    may follow it by name."""
    named = dict(zip(field_names(reference), values))
    bad = [((), dict(named, unknown=None))]
    if named:
        first = field_names(reference)[0]
        rest = {name: value for name, value in named.items() if name != first}
        bad += [(values[:1], named), ((), rest)]
        assert cls(values[0], **rest) == cls(*values)
    for args, kwargs in bad:
        for make in (cls, reference):
            with pytest.raises(TypeError):
                make(*args, **kwargs)


def test_only_records_that_do_more_than_store_their_fields_write_a_constructor():
    """Every other record class is built by `Record.__init__`."""
    classes, own = [Record], set()
    for cls in classes:
        classes += cls.__subclasses__()
        if "__init__" in vars(cls):
            own.add(cls.__qualname__)
    assert own == {"Record", "LawReport", "AdditiveReport", "_Law"}


@pytest.mark.parametrize("cls, reference, values, other", CASES, ids=ids(CASES))
def test_equality_matches_the_dataclass(cls, reference, values, other):
    new, ref = cls(*values), reference(*values)
    assert new == cls(*values) and not new != cls(*values)
    if other is not None:
        assert not new == cls(*other) and not ref == reference(*other)
        assert new != cls(*other) and ref != reference(*other)
    # Another record class (with the same field value, for a one-field
    # class), the reference copy and non-instances: __eq__ declines, so ==
    # falls back to identity.
    another = lang.EventRef if cls is lang.Not else lang.Not
    for stranger in (another(*values) if len(values) == 1 else another(lang.Undefined()),
                     ref, tuple(values), 1):
        assert new.__eq__(stranger) is NotImplemented
        assert new != stranger and not new == stranger
    assert ref.__eq__(tuple(values)) is NotImplemented


@pytest.mark.parametrize("cls, reference, values, other", FROZEN, ids=ids(FROZEN))
def test_frozen_classes_hash_and_refuse_changes_as_the_dataclass(cls, reference, values,
                                                                  other):
    new = cls(*values)
    assert hash(new) == hash(reference(*values)) == hash(tuple(values))
    assert hash(new) == hash(cls(*values))
    for name in field_names(reference) or ["anything"]:
        with pytest.raises(AttributeError):
            setattr(new, name, None)
        with pytest.raises(AttributeError):
            delattr(new, name)
    with pytest.raises(AttributeError):
        new.extra = 1
    assert new == cls(*values)
    assert pickle.loads(pickle.dumps(new)) == new
    assert copy.copy(new) == new and copy.deepcopy(new) == new


def test_space_doc_is_mutable_and_unhashable_as_the_dataclass():
    doc = lang.SpaceDoc("d", SPACE, {}, {})
    ref = SpaceDoc("d", SPACE, {}, {})
    for value in (doc, ref):
        with pytest.raises(TypeError):
            hash(value)
        value.name = "renamed"
        value.events["e"] = SPACE.atom("b")
    assert repr(doc) == repr(ref)
    del doc.measures
    with pytest.raises(AttributeError):
        doc.measures
    doc = lang.SpaceDoc("d", SPACE, {}, {})
    doc.extra = 1
    for twin in (copy.copy(doc), copy.deepcopy(doc), pickle.loads(pickle.dumps(doc))):
        assert twin == doc and twin.extra == 1


def test_law_report_defaults_match_the_dataclass():
    new = lawcheck.LawReport("c3.3", 3, 729, True)
    assert new.counterexample is None and new.note is None
    assert repr(new) == repr(LawReport("c3.3", 3, 729, True))
    assert new == lawcheck.LawReport("c3.3", 3, 729, True, None, None)
    assert lawcheck.LawReport("t3.11", 2, 9, True, note="n") == lawcheck.LawReport(
        "t3.11", 2, 9, True, None, "n")


def test_verifiability_flags_are_the_field_tuple():
    values = (True, False, True, True, False, False, True)
    assert relations.VerifiabilityProfile(*values).flags() == values


def test_additive_report_integer_sides_equal_the_fraction_sides():
    """additive_law_check gives each side as a (numerator, denominator)
    pair; the report reads, compares, hashes and prints as one built from
    Fractions, and builds each Fraction once."""
    by_pairs = prob.AdditiveReport((2, 4), (3, 3), False, (1, 3))
    by_fractions = prob.AdditiveReport(lhs=Fraction(1, 2), rhs=Fraction(1), holds=False,
                                       cases=(1, 3))
    assert by_pairs == by_fractions and by_fractions == by_pairs
    assert hash(by_pairs) == hash(by_fractions)
    assert repr(by_pairs) == repr(by_fractions) == repr(
        AdditiveReport(Fraction(1, 2), Fraction(1), False, (1, 3)))
    fresh = prob.AdditiveReport((2, 4), (3, 3), False, (1, 3))
    assert type(fresh.lhs) is Fraction and fresh.lhs is fresh.lhs
    assert type(fresh.rhs) is Fraction and fresh.rhs is fresh.rhs
    for name in ("lhs", "rhs"):
        with pytest.raises(AttributeError):
            setattr(fresh, name, Fraction(0))


def test_additive_law_check_reports_equal_their_fraction_form(die, uniform):
    ev = die.events
    rep = prob.additive_law_check(uniform, ev["two"], ev["even"], ev["lt4"], ev["lt5"])
    same = prob.AdditiveReport(lhs=rep.lhs, rhs=rep.rhs, holds=rep.holds, cases=rep.cases)
    assert rep == same and hash(rep) == hash(same) and repr(rep) == repr(same)
    assert repr(rep) == "AdditiveReport(lhs=Fraction(3, 5), rhs=Fraction(13, 12), " \
                        "holds=False, cases=())"


def _fresh(code):
    """What `code` prints in a fresh isolated interpreter that imports
    boolfrac from this checkout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(boolfrac.__file__)))
    code = "import sys\nsys.path.insert(0, %r)\n%s" % (src, code)
    return subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True,
                           check=True).stdout


PROB_MODULES = ("print(sorted({'fractions', 'decimal', 'numbers', 'boolfrac.prob'}"
                " & set(sys.modules)))")
PROB_NAMES = ("AdditiveReport", "Measure", "additive_law_check", "p_cond", "p_event",
              "p_or_formula", "p_superposition", "partition_expansion")


def test_importing_the_package_leaves_out_dataclasses_and_inspect():
    """A fresh isolated interpreter imports the CLI and the package
    without `dataclasses` or `inspect`, which would add about 15 ms to
    every shell command, without `prob` and the `fractions`, `decimal`
    and `numbers` it needs, which would add about 4 ms, and without
    `argparse`, which only a request that is not plain needs (about
    3 ms)."""
    out = _fresh("import boolfrac.cli, boolfrac\n"
                 "print(sorted({'dataclasses', 'inspect', 'fractions', 'decimal', 'numbers',"
                 " 'boolfrac.prob', 'argparse'} & set(sys.modules)))\n"
                 "print(sorted({'boolfrac.lawcheck', 'boolfrac.relations',"
                 " 'boolfrac.trivalent'} - set(sys.modules)))")
    assert out == "[]\n[]\n"


@pytest.mark.parametrize("first_use", [
    "got = {name: getattr(boolfrac, name) for name in NAMES}",
    "got = {name: getattr(boolfrac.prob, name) for name in NAMES}",
    "from boolfrac import Measure\ngot = {'Measure': Measure}",
    "from boolfrac import *\ngot = {name: globals()[name] for name in NAMES + ('prob',)}",
], ids=["attribute", "prob-attribute", "from-import", "star-import"])
def test_the_first_use_of_a_prob_name_gives_prob_own_object(first_use):
    """`dir(boolfrac)` lists `prob` and its names before they are
    imported. `prob` is imported on the first read of one of them, by
    attribute, by `from boolfrac import` or by `import *`, and every
    route gives the object `boolfrac.prob` holds."""
    out = _fresh("NAMES = %r\nimport boolfrac\n%s\n"
                 "print(sorted(set(NAMES + ('prob',)) - set(dir(boolfrac))))\n"
                 "%s\nimport boolfrac.prob as prob\n"
                 "print(all(got[name] is getattr(boolfrac, name) is"
                 " getattr(prob, name) for name in got if name != 'prob'),"
                 " got.get('prob', prob) is prob is boolfrac.prob)"
                 % (PROB_NAMES, PROB_MODULES, first_use))
    assert out == "[]\n[]\nTrue True\n"


def test_a_sweep_law_and_the_commands_without_a_measure_leave_prob_unloaded():
    """A kernel law and every command that reads no measure print what
    they always printed and import neither `prob` nor `fractions`."""
    code = ("from boolfrac import cli, lawcheck\n"
            "print(repr(lawcheck.check('t3.7', 2)))\n"
            "for argv in (['eval', '--space', DIE, '--expr', 'two|even'],\n"
            "             ['eval', '--space', DIE, '--expr', 'two|even', '--state', '4'],\n"
            "             ['relate', '--space', DIE, '--rel', 'orth', '--lhs', 'two|even',"
            " '--rhs', 'lt4|lt5'],\n"
            "             ['profile', '--space', DIE, '--lhs', 'two|even', '--rhs', 'lt4|lt5'],\n"
            "             ['check', '--law', 't3.7', '--atoms', '2'],\n"
            "             ['parse', '--expr', 'two|even']):\n"
            "    print(cli.main(argv))\n")
    out = _fresh("DIE = %r\n%s%s" % (str(FIXTURES / "die.cs"), code, PROB_MODULES))
    assert out == (
        "LawReport(law='t3.7', atom_count=2, instances_checked=81, passed=True, "
        "counterexample=None, note=None)\n"
        "({2}|{2,4,6})\n0\n"
        "F\n0\n"
        "false\n0\n"
        "1=true\n2=false\n3=false\n4=false\n5=false\n6=false\n7=false\n0\n"
        "t3.7 n=2 instances=81 PASS\n0\n"
        "(given (ref two) (ref even))\n0\n"
        "[]\n"
    )


@pytest.mark.parametrize("use, printed", [
    ("print(repr(lawcheck.check('t2.13', 2, 1)))",
     "LawReport(law='t2.13', atom_count=2, instances_checked=272, passed=True, "
     "counterexample=None, note=None)\n"),
    ("print(cli.main(['check', '--law', 'superposition', '--atoms', '2', '--grid', '1']))",
     "superposition n=2 instances=305 PASS\n0\n"),
    ("print(cli.main(['prob', '--space', COIN, '--measure', 'm', '--expr', 'h|side']))",
     "3/5 (0.600000)\n0\n"),
], ids=["t2.13", "superposition", "prob"])
def test_a_grid_law_and_prob_load_prob_and_print_as_before(tmp_path, use, printed):
    """A measure-grid law and `prob` on a `p/q` space file import `prob`,
    with `fractions`, `decimal` and `numbers`, and print what they
    always printed."""
    coin = tmp_path / "coin.cs"
    coin.write_text("space coin\natoms h t e\nevent side = {h, t}\nmeasure m = 1/2 2/6 1/6\n",
                    encoding="utf-8")
    out = _fresh("COIN = %r\nfrom boolfrac import cli, lawcheck\n%s\n%s\n%s"
                 % (str(coin), PROB_MODULES, use, PROB_MODULES))
    assert out == "[]\n%s['boolfrac.prob', 'decimal', 'fractions', 'numbers']\n" % printed
