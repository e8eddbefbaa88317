"""The five records: exact repr, immutability, equality and replacement."""

import re
from fractions import Fraction

import pytest

from rothe_lab import (
    BranchA,
    BranchB,
    Grading,
    ParameterError,
    VerificationReport,
    decompose,
    enumerate_gamma,
    identities,
)
from rothe_lab.identities import Identity

# each record with its repr; the fields are the names the repr lists
RECORDS = {
    "Grading": (Grading(2), "Grading(m=2)"),
    "BranchA": (BranchA("ab"), "BranchA(w='ab')"),
    "BranchB": (BranchB(1, 2, "ab", ""), "BranchB(j=1, k=2, u_prime='ab', v='')"),
    "VerificationReport": (
        VerificationReport("rothe1", {"n": 1}, Fraction(1, 2), Fraction(1, 2), "pass"),
        "VerificationReport(identity='rothe1', params={'n': 1}, lhs=Fraction(1, 2), "
        "rhs=Fraction(1, 2), status='pass', counterexample=None)",
    ),
    "Identity": (
        Identity(check=len, order=("n",), price=abs),
        "Identity(check=<built-in function len>, order=('n',), price=<built-in function abs>, "
        "sides=None, default=None)",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_repr(name):
    record, text = RECORDS[name]
    assert repr(record) == text


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_immutable(name):
    record, text = RECORDS[name]
    fields = re.findall(r"(\w+)=", text)
    assert fields
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == text


def test_records_take_their_fields_by_keyword_and_default():
    assert Grading(m=3) == Grading(3)
    assert BranchB(j=1, k=2, u_prime="ab", v="") == RECORDS["BranchB"][0]
    report = VerificationReport("x", {}, 1, 2, "fail")
    assert report.counterexample is None and not report.passed
    record = Identity(check=len, order=("n",), price=abs)
    assert (record.sides, record.default) == (None, None)
    assert record.grid_variables is None


def test_grading_refuses_a_negative_m_with_its_message():
    for m in (-1, -7):
        with pytest.raises(ParameterError) as info:
            Grading(m)
        assert str(info.value) == f"grading parameter m must be >= 0, got {m}"
    with pytest.raises(ParameterError, match="^grading parameter m must be >= 0, got -1$"):
        Grading(m=-1)


def test_branch_a_and_branch_b_never_compare_equal():
    g = Grading(2)
    found = [decompose(w, 4, 3, g) for w in enumerate_gamma(4 + 3 + 2 * 2, 2, g)]
    a_values = [d for d in found if isinstance(d, BranchA)] + [BranchA(""), BranchA(1)]
    b_values = [d for d in found if isinstance(d, BranchB)] + [BranchB(1, 1, "", "")]
    assert len(a_values) > 2 and len(b_values) > 1
    for a in a_values:
        for b in b_values:
            assert a != b and b != a
    assert len(set(found)) == len(found)


def test_identity_replacement_keeps_the_other_fields():
    record = identities.IDENTITIES["gould"]
    swapped = record._replace(check=None)
    assert type(swapped) is Identity
    assert swapped.check is None and record.check is identities.check_gould
    assert swapped._replace(check=record.check) == record
    assert swapped.grid_variables == record.grid_variables == ("x", "y", "z", "eps")
