"""The library's records: ``Partition`` and the named-tuple results.

``Partition`` is an immutable slotted class; ``BoundCertificate``,
``CellTyping``, ``ReductionTrace``, ``GrowthRow`` and ``GrowthReport`` are
named tuples.  These tests pin the semantics their callers read.
"""
import copy
import pickle
from fractions import Fraction

import pytest

from hookbound.bounds import ReductionTrace, reduce_diagram, strip_bound
from hookbound.celltyping import CellTyping, cell_typing
from hookbound.certificates import BoundCertificate
from hookbound.errors import HookBoundError
from hookbound.partitions import Partition
from hookbound.sweep import GrowthReport, GrowthRow, build_growth_report

ALPHA = Fraction(11, 10)
STAIR = Partition(tuple(range(20, 10, -1)))  # (20,...,11) |- 155, delta = 10


class TestPartition:
    def test_keyword_constructor_equality_and_hash(self):
        lam = Partition(parts=(3, 1))
        assert lam == Partition((3, 1)) == Partition([3, 1])
        assert lam != Partition((3,))
        assert lam != (3, 1)  # a partition is not its parts tuple
        assert hash(lam) == hash(((3, 1),)) == hash(Partition((3, 1)))
        assert len({lam, Partition((3, 1)), Partition((2, 2))}) == 2

    def test_repr(self):
        assert repr(Partition(parts=(3, 1))) == "Partition(parts=(3, 1))"
        assert repr(Partition()) == "Partition(parts=())"

    def test_n_is_stored_at_construction(self):
        assert Partition((3, 1)).n == 4
        assert Partition().n == 0
        assert Partition(["2", 2.0]).parts == (2, 2)

    @pytest.mark.parametrize("name", ["parts", "n", "other"])
    def test_refuses_assignment(self, name):
        lam = Partition((3, 1))
        with pytest.raises(AttributeError):
            setattr(lam, name, (4,))
        assert lam.parts == (3, 1) and lam.n == 4

    @pytest.mark.parametrize("name", ["parts", "n"])
    def test_refuses_deletion(self, name):
        lam = Partition((3, 1))
        with pytest.raises(AttributeError):
            delattr(lam, name)
        assert lam.parts == (3, 1) and lam.n == 4

    def test_has_no_instance_dict(self):
        assert not hasattr(Partition((3, 1)), "__dict__")

    @pytest.mark.parametrize(
        "parts, message",
        [
            ((2, 0), "parts must be positive, got 0 in (2, 0)"),
            ((1, 2), "parts must be weakly decreasing, got (1, 2)"),
            ((3, -1, 2), "parts must be positive, got -1 in (3, -1, 2)"),
        ],
    )
    def test_validation_messages(self, parts, message):
        with pytest.raises(HookBoundError) as err:
            Partition(parts)
        assert str(err.value) == message

    def test_copies_and_pickles(self):
        lam = Partition((3, 1))
        for other in (copy.copy(lam), copy.deepcopy(lam), pickle.loads(pickle.dumps(lam))):
            assert other == lam and other.n == 4


def _certificate():
    return strip_bound(Partition((9, 6, 4, 2, 2, 1)), 4, 3, Fraction(2))


def _typing():
    return cell_typing(STAIR, ALPHA)


def _trace():
    return reduce_diagram(Partition(tuple(range(40, 20, -1)) + (20,) * 5), ALPHA)


def _report():
    return build_growth_report("balanced", Fraction(2), Fraction(3, 2), 40, 41)


def _row():
    return _report().rows[0]


RECORDS = {
    BoundCertificate: (
        _certificate,
        ("bound_name", "parameters", "exponent", "lhs_log", "rhs_log", "mode",
         "verdict", "aux", "cells"),
    ),
    CellTyping: (
        _typing,
        ("partition", "alpha", "delta", "rho", "tau", "r", "q", "s_rounds",
         "t_rounds", "counts", "table", "mu"),
    ),
    ReductionTrace: (
        _trace,
        ("input", "lam_tilde", "s", "t", "conjugated", "mu", "n1", "n2", "delta",
         "delta_mu", "rho_mu"),
    ),
    GrowthRow: (
        _row,
        ("n", "partition", "cls", "verdict", "mode", "log_degree_per_n",
         "beta_log", "sub_bound", "sub_rhs_log_per_n", "margin"),
    ),
    GrowthReport: (
        _report,
        ("family", "alpha", "beta", "n_from", "n_to", "samples", "seed", "rows",
         "skipped"),
    ),
}


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
class TestNamedTupleRecords:
    def test_fields_in_order(self, cls):
        assert cls._fields == RECORDS[cls][1]

    def test_refuses_assignment(self, cls):
        record = RECORDS[cls][0]()
        name = cls._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = None

    def test_replace_returns_a_new_record(self, cls):
        record = RECORDS[cls][0]()
        first = cls._fields[0]
        other = record._replace(**{first: "changed"})
        assert type(other) is cls and other is not record
        assert getattr(other, first) == "changed"
        assert getattr(record, first) != "changed"
        assert other[1:] == record[1:]

    def test_behaves_as_the_tuple_of_its_fields(self, cls):
        record = RECORDS[cls][0]()
        values = tuple(getattr(record, name) for name in cls._fields)
        assert len(record) == len(cls._fields)
        assert tuple(record) == values and record == values
        assert record[0] == values[0]
        assert list(record._asdict()) == list(cls._fields)


def test_certificates_built_without_aux_get_their_own_dict():
    args = ("strip", {}, None, 1.0, 0.5, "exact", "PASS")
    a, b = BoundCertificate(*args), BoundCertificate(*args)
    assert a.aux == b.aux == {} and a.cells is None
    assert a.aux is not b.aux
    a.aux["note"] = 1
    assert b.aux == {}
    shared = {"k": 1}
    assert BoundCertificate(*args, aux=shared).aux is shared


def test_certificate_properties_survive_replace():
    cert = _certificate()
    failed = cert._replace(verdict="FAIL", lhs_log=cert.rhs_log - 1.0)
    assert cert.passed and not failed.passed
    assert failed.margin == -1.0
    assert cert.margin == cert.lhs_log - cert.rhs_log
