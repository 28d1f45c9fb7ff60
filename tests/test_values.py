"""Value semantics of the result and type classes: construction, equality, repr, immutability, copying."""

import copy
import pickle

import pytest

from sp2forms.crosscheck import STAGES, CrosscheckReport
from sp2forms.distinguished import SweepReport
from sp2forms.hesselink import EpsilonTaggedType, SymplecticConstraintError, SymplecticType, vtype, wtype
from sp2forms.jordan import (
    ConsecutiveOnesExpansion,
    JordanType,
    consecutive_ones,
    gcd_valuation,
    induce_power,
    nu2,
    restrict_power,
    tensor_square_closed,
    wedge_block,
)
from sp2forms.oracle import (
    BilinearSpace,
    Gf2Matrix,
    PointedSpace,
    build_v,
    build_w,
    dual_tensor_space,
    epsilon_of_space,
    induced_space,
    restricted_space,
    space_from_type,
    wedge_space,
)
from sp2forms.reps import DualTensorClasses, WedgeSquareClasses

TAGGED = EpsilonTaggedType(((1, 1, 0), (2, 1, 1)))
SYMPLECTIC = SymplecticType(((2, 1, 1),))


def _frozen_samples():
    """(value, an equal value built separately, its exact repr, one field name)."""
    v2 = build_v(2)
    return [
        (JordanType(((1, 2),)), JordanType(blocks=((1, 2),)), "JordanType(blocks=((1, 2),))", "blocks"),
        (JordanType(), JordanType(blocks=()), "JordanType(blocks=())", "blocks"),
        (consecutive_ones(3), ConsecutiveOnesExpansion(terms=((1, 2), (-1, 0))),
         "ConsecutiveOnesExpansion(terms=((1, 2), (-1, 0)))", "terms"),
        (EpsilonTaggedType(), EpsilonTaggedType(entries=()), "EpsilonTaggedType(entries=())", "entries"),
        (TAGGED, EpsilonTaggedType(entries=((1, 1, 0), (2, 1, 1))),
         "EpsilonTaggedType(entries=((1, 1, 0), (2, 1, 1)))", "entries"),
        (SYMPLECTIC, SymplecticType(entries=((2, 1, 1),)), "SymplecticType(entries=((2, 1, 1),))", "entries"),
        (DualTensorClasses(TAGGED, SYMPLECTIC, 1),
         DualTensorClasses(tensor_space=TAGGED, irreducible=SYMPLECTIC, alpha=1),
         "DualTensorClasses(tensor_space=EpsilonTaggedType(entries=((1, 1, 0), (2, 1, 1))), "
         "irreducible=SymplecticType(entries=((2, 1, 1),)), alpha=1)", "alpha"),
        (WedgeSquareClasses(TAGGED, SYMPLECTIC, 0),
         WedgeSquareClasses(wedge_space=TAGGED, irreducible=SYMPLECTIC, alpha=0),
         "WedgeSquareClasses(wedge_space=EpsilonTaggedType(entries=((1, 1, 0), (2, 1, 1))), "
         "irreducible=SymplecticType(entries=((2, 1, 1),)), alpha=0)", "wedge_space"),
        (v2, BilinearSpace(u=Gf2Matrix(2, 2, v2.u.rows), gram=Gf2Matrix(2, 2, v2.gram.rows)),
         "BilinearSpace(u=Gf2Matrix(2x2), gram=Gf2Matrix(2x2))", "gram"),
    ]


FROZEN = _frozen_samples()
FROZEN_IDS = [type(value).__name__ for value, *_ in FROZEN]


@pytest.mark.parametrize(("value", "twin", "text", "name"), FROZEN, ids=FROZEN_IDS)
class TestFrozen:
    def test_equal_by_value(self, value, twin, text, name):
        assert value is not twin
        assert value == twin and not value != twin
        assert hash(value) == hash(twin)
        assert len({value, twin}) == 1

    def test_repr(self, value, twin, text, name):
        assert repr(value) == text

    def test_no_assignment_or_deletion(self, value, twin, text, name):
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before

    @pytest.mark.parametrize("roundtrip", [copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))], ids=["deepcopy", "pickle"])
    def test_copies(self, value, twin, text, name, roundtrip):
        got = roundtrip(value)
        assert type(got) is type(value)
        assert got == value and hash(got) == hash(value) and repr(got) == text
        with pytest.raises(AttributeError):
            setattr(got, name, getattr(got, name))


def test_unequal_values_and_other_classes():
    assert JordanType(((1, 2),)) != JordanType(((1, 1),))
    assert JordanType(((1, 2),)) != ((1, 2),)
    assert JordanType() != EpsilonTaggedType()
    assert DualTensorClasses(TAGGED, SYMPLECTIC, 1) != DualTensorClasses(TAGGED, SYMPLECTIC, 2)
    assert DualTensorClasses(TAGGED, SYMPLECTIC, 1) != WedgeSquareClasses(TAGGED, SYMPLECTIC, 1)
    assert build_v(2) != build_w(1)


def test_tagged_equals_its_symplectic_counterpart():
    plain = EpsilonTaggedType(((2, 1, 1),))
    assert plain == SYMPLECTIC and SYMPLECTIC == plain
    assert hash(plain) == hash(SYMPLECTIC)
    assert len({plain, SYMPLECTIC}) == 1
    assert EpsilonTaggedType(((2, 1, 0),)) != SymplecticType(((2, 2, 0),))
    assert EpsilonTaggedType() != JordanType()


def test_positional_construction_matches_keywords():
    assert JordanType(((1, 1), (3, 2))).blocks == ((1, 1), (3, 2))
    assert SymplecticType(((1, 2, 0),)).entries == ((1, 2, 0),)
    classes = DualTensorClasses(TAGGED, SYMPLECTIC, 3)
    assert (classes.tensor_space, classes.irreducible, classes.alpha) == (TAGGED, SYMPLECTIC, 3)
    classes = WedgeSquareClasses(TAGGED, SYMPLECTIC, 2)
    assert (classes.wedge_space, classes.irreducible, classes.alpha) == (TAGGED, SYMPLECTIC, 2)
    space = BilinearSpace(build_w(1).u, build_w(1).gram)
    assert space.u == build_w(1).u and space.gram == build_w(1).gram


@pytest.mark.parametrize(("build", "error", "message"), [
    (lambda: JordanType(((2, 1), (1, 1))), ValueError, "block sizes must be positive and strictly increasing, got 1 after 2"),
    (lambda: JordanType(((0, 1),)), ValueError, "block sizes must be positive and strictly increasing, got 0 after 0"),
    (lambda: JordanType(((1, 0),)), ValueError, "multiplicity of block size 1 must be positive, got 0"),
    (lambda: EpsilonTaggedType(((2, 1, 1), (2, 1, 1))), ValueError,
     "sizes must be positive and strictly increasing, got 2 after 2"),
    (lambda: EpsilonTaggedType(((2, 0, 1),)), ValueError, "multiplicity of size 2 must be positive, got 0"),
    (lambda: EpsilonTaggedType(((2, 1, 2),)), ValueError, "eps tag of size 2 must be 0 or 1, got 2"),
    (lambda: EpsilonTaggedType(((3, 1, 1),)), ValueError, "eps = 1 is impossible on odd size 3"),
    (lambda: SymplecticType(((3, 1, 1),)), ValueError, "eps = 1 is impossible on odd size 3"),
    (lambda: SymplecticType(((2, 1, 0),)), SymplecticConstraintError,
     "size 2 has odd multiplicity 1 with eps = 0; odd multiplicity forces eps = 1"),
    (lambda: JordanType(((3.0, 1),)), TypeError, "block size must be an int, got float 3.0"),
    (lambda: JordanType(((3, 1.0),)), TypeError, "multiplicity of block size 3 must be an int, got float 1.0"),
    (lambda: JordanType(((2, 1), (1.0, 1))), TypeError, "block size must be an int, got float 1.0"),
    (lambda: JordanType(((2, 0), (3.0, 1))), ValueError, "multiplicity of block size 2 must be positive, got 0"),
    (lambda: JordanType((("3", 1),)), TypeError, "block size must be an int, got str '3'"),
    (lambda: EpsilonTaggedType(((2, 1, 1.0),)), TypeError, "eps tag of size 2 must be an int, got float 1.0"),
    (lambda: EpsilonTaggedType(((2, 1, 1), (4, 2.0, 0))), TypeError, "multiplicity of size 4 must be an int, got float 2.0"),
    (lambda: SymplecticType(((2.0, 2, 0),)), TypeError, "size must be an int, got float 2.0"),
    (lambda: BilinearSpace(Gf2Matrix.identity(2), Gf2Matrix.identity(3)), ValueError,
     "operator and Gram matrix must be square of equal size"),
    (lambda: BilinearSpace(Gf2Matrix.identity(2), Gf2Matrix(2, 2, [0b10, 0])), ValueError,
     "Gram matrix must be symmetric"),
    (lambda: BilinearSpace(Gf2Matrix.identity(2), Gf2Matrix.identity(2)), ValueError,
     "Gram matrix must have zero diagonal (alternating form)"),
    (lambda: BilinearSpace(Gf2Matrix(4, 4, [0b11, 0b10, 0b100, 0b1000]),
                           build_w(2).gram), ValueError,
     "form is not invariant under the operator"),
])
def test_validation_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize(("call", "message"), [
    pytest.param(lambda: nu2(0), "nu2 requires a positive integer, got 0", id="nu2"),
    pytest.param(lambda: tensor_square_closed(0), "tensor_square_closed requires a positive integer, got 0",
                 id="tensor_square_closed"),
    pytest.param(lambda: wedge_block(0), "wedge_block requires a positive block size, got 0", id="wedge_block"),
    pytest.param(lambda: restrict_power(JordanType(((3, 1),)), -1), "alpha must be non-negative, got -1",
                 id="restrict_power"),
    pytest.param(lambda: induce_power(JordanType(((3, 1),)), -1), "alpha must be non-negative, got -1",
                 id="induce_power"),
    pytest.param(lambda: gcd_valuation(()), "gcd_valuation requires a non-empty collection of sizes",
                 id="gcd_valuation"),
    pytest.param(lambda: vtype(3), "V(d) requires an even positive size, got 3", id="vtype-size"),
    pytest.param(lambda: vtype(2, 0), "count must be positive, got 0", id="vtype-count"),
    pytest.param(lambda: wtype(0), "W(d) requires a positive size, got 0", id="wtype-size"),
    pytest.param(lambda: wtype(1, 0), "count must be positive, got 0", id="wtype-count"),
    pytest.param(lambda: Gf2Matrix(2, 2, [1]), "expected 2 rows, got 1", id="matrix-rows"),
    pytest.param(lambda: Gf2Matrix.identity(2).add(Gf2Matrix.identity(3)), "shape mismatch", id="add"),
    pytest.param(lambda: Gf2Matrix(2, 3, [0, 0]).mul(Gf2Matrix(2, 3, [0, 0])), "shape mismatch", id="mul"),
    pytest.param(lambda: Gf2Matrix(2, 3, [0, 0]).inverse(), "inverse requires a square matrix", id="inverse"),
    pytest.param(lambda: build_w(0), "W(d) requires a positive size, got 0", id="build_w"),
    pytest.param(lambda: space_from_type(SymplecticType(())), "cannot build the zero space", id="space_from_type"),
    pytest.param(lambda: dual_tensor_space(Gf2Matrix.identity(1)), "need dimension at least 2, got 1",
                 id="dual_tensor_space"),
    pytest.param(lambda: wedge_space(build_w(1)), "need dimension at least 4, got 2", id="wedge_space"),
    pytest.param(lambda: epsilon_of_space(build_w(1), 0), "size must be positive, got 0", id="epsilon_of_space"),
    pytest.param(lambda: restricted_space(build_w(1), -1), "alpha must be non-negative, got -1",
                 id="restricted_space"),
    pytest.param(lambda: induced_space(build_w(1), 0), "alpha must be positive, got 0", id="induced_space"),
])
def test_input_guards(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_pointed_space_is_a_named_pair():
    space = build_v(2)
    pointed = PointedSpace(space, 1)
    assert PointedSpace._fields == ("space", "fixed")
    assert pointed == (space, 1) and pointed.space is space and pointed.fixed == 1
    assert PointedSpace(space=space, fixed=1) == pointed
    assert PointedSpace.__doc__ == "A bilinear space together with a distinguished fixed vector."


def test_sweep_report():
    report = SweepReport(name="dual-tensor")
    assert repr(report) == (
        "SweepReport(name='dual-tensor', checked=0, evaluated=0, hits=[], counterexamples=[], elapsed=0.0)"
    )
    full = [SweepReport("x", 3), SweepReport(name="x", checked=3)]
    for r in full:
        r.evaluated, r.hits, r.counterexamples, r.elapsed = 2, ["a"], ["b"], 1.5
    assert full[0] == full[1] and full[0] != SweepReport("x", 3)
    full[1].elapsed = 2.5
    assert full[0] != full[1]
    assert SweepReport("x") != SweepReport("y") and SweepReport("x") != CrosscheckReport()
    with pytest.raises(TypeError):
        hash(report)
    other = SweepReport(name="dual-tensor")
    assert report.hits is not other.hits and report.counterexamples is not other.counterexamples
    report.hits.append("2")
    report.checked = 5
    assert other.hits == [] and report != other
    for roundtrip in (copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
        got = roundtrip(other)
        assert type(got) is SweepReport and got == other and got.hits is not other.hits


def test_crosscheck_report():
    report = CrosscheckReport()
    assert report.stage_seconds == dict.fromkeys(STAGES, 0.0)
    assert repr(report) == (
        "CrosscheckReport(symplectic_checked=0, linear_checked=0, mismatches=[], parity_violations=[], "
        "elapsed=0.0, stage_seconds={'build': 0.0, 'construction': 0.0, 'chain': 0.0, 'subquotient': 0.0, "
        "'rank': 0.0})"
    )
    counted = [CrosscheckReport(), CrosscheckReport()]
    for r in counted:
        r.symplectic_checked, r.linear_checked = 1, 2
    assert counted[0] == counted[1] and counted[0] != CrosscheckReport()
    counted[1].symplectic_checked = 2
    assert counted[0] != counted[1]
    with pytest.raises(TypeError):
        hash(report)
    other = CrosscheckReport()
    assert report.stage_seconds is not other.stage_seconds
    assert report.mismatches is not other.mismatches and report.parity_violations is not other.parity_violations
    report.stage_seconds["build"] += 1.0
    report.mismatches.append("m")
    assert other == CrosscheckReport() and report != other
    for roundtrip in (copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
        got = roundtrip(report)
        assert type(got) is CrosscheckReport and got == report and got.stage_seconds is not report.stage_seconds
