"""The value semantics of the package's immutable records: construction,
repr, equality, hashing, immutability and each constructor check, pinned
class by class so that the way a record class is built can change without
any caller seeing it."""

import datetime
import json

import pytest

from qmetallic.asymptotics import SingularityReport
from qmetallic.cache import ARTIFACT_VERSION, RunManifest
from qmetallic.identities import IdentityReport, LaurentFamily
from qmetallic.logbehaviour import LogReport
from qmetallic.metallic import CheckResult, RecurrenceSpec, recurrence_spec
from qmetallic.qnum import (PeriodicCF, QRational, QuadraticForm, parse_cf,
                            q_rational, quantize_quadratic)
from qmetallic.series import LaurentSeries, monomial


def _samples():
    """Per class: two equal instances built in different ways, one that
    differs, the repr of the first, and one field name."""
    return {
        "IdentityReport": (
            IdentityReport(2, "rel1", 40, True),
            IdentityReport(n=2, identity_id="rel1", checked_order=40,
                           holds=True, first_failure=None),
            IdentityReport(2, "rel1", 40, False, 7),
            "IdentityReport(n=2, identity_id='rel1', checked_order=40, "
            "holds=True, first_failure=None)",
            "holds"),
        "CheckResult": (
            CheckResult(True, None, 10, "x"),
            CheckResult(ok=True, checked_order=10, label="x"),
            CheckResult(True, None, 11, "x"),
            "CheckResult(ok=True, first_failure=None, checked_order=10, "
            "label='x')",
            "ok"),
        "PeriodicCF": (
            parse_cf("1;2,(3,4)*"),
            PeriodicCF([1, 2], [3, 4]),
            parse_cf("1;2,(4,3)*"),
            "PeriodicCF(preperiod=(1, 2), period=(3, 4))",
            "period"),
        "QRational": (
            q_rational(5, 3),
            QRational(denominator=monomial(1, 0) + monomial(1, 1)
                      + monomial(1, 2),
                      numerator=LaurentSeries(0, [1, 1, 2, 1])),
            q_rational(5, 2),
            "QRational(numerator=LaurentSeries('1 + q + 2q^2 + q^3'), "
            "denominator=LaurentSeries('1 + q + q^2'))",
            "numerator"),
        "QuadraticForm": (
            quantize_quadratic(parse_cf("1;(1)*")),
            QuadraticForm(LaurentSeries(0, [-1, 1, 1]),
                          LaurentSeries(0, [1, 2, -1, 2, 1]),
                          monomial(2, 1), 1),
            QuadraticForm(LaurentSeries(0, [-1, 1, 1]),
                          LaurentSeries(0, [1, 2, -1, 2, 1]),
                          monomial(2, 1), -1),
            "QuadraticForm(R=LaurentSeries('-1 + q + q^2'), "
            "P=LaurentSeries('1 + 2q - q^2 + 2q^3 + q^4'), "
            "S=LaurentSeries('2q'), sign=1)",
            "sign"),
        "RecurrenceSpec": (
            recurrence_spec(1),
            RecurrenceSpec(n=1, order=4, valid_from=4,
                           coeff_polys=((1, 1), (2, -1), (-1, 2), (2, -7),
                                        (1, -5))),
            recurrence_spec(2),
            "RecurrenceSpec(n=1, order=4, valid_from=4, coeff_polys=((1, 1), "
            "(2, -1), (-1, 2), (2, -7), (1, -5)))",
            "order"),
        "LogReport": (
            LogReport(3, (1, 5), 2, "log-convex", ()),
            LogReport(n=3, l_range=(1, 5), onset=2,
                      classification="log-convex", violation_indices=(),
                      first_positive=None, first_negative=None),
            LogReport(3, (1, 5), 2, "log-concave", ()),
            "LogReport(n=3, l_range=(1, 5), onset=2, "
            "classification='log-convex', violation_indices=(), "
            "first_positive=None, first_negative=None)",
            "onset"),
        "LaurentFamily": (
            LaurentFamily(monomial(1, 0), monomial(1, 1), monomial(1, 2),
                          monomial(1, 3)),
            LaurentFamily(neg=monomial(1, 3), negrecip=monomial(1, 2),
                          recip=monomial(1, 1), phi=monomial(1, 0)),
            LaurentFamily(monomial(1, 0), monomial(1, 1), monomial(1, 2),
                          monomial(2, 3)),
            "LaurentFamily(phi=LaurentSeries('1'), recip=LaurentSeries('q'), "
            "negrecip=LaurentSeries('q^2'), neg=LaurentSeries('q^3'))",
            "phi"),
        "SingularityReport": (
            SingularityReport(1, 64, (1, 2), (1,), 1, (2,), False, 0, None),
            SingularityReport(n=1, precision_bits=64, all_roots=(1, 2),
                              dominant=(1,), radius=1, gammas=(2,),
                              branch_flipped=False, inclusion_radius=0,
                              float_sweeps=None),
            SingularityReport(1, 64, (1, 2), (1,), 1, (2,), True, 0, None),
            "SingularityReport(n=1, precision_bits=64, all_roots=(1, 2), "
            "dominant=(1,), radius=1, gammas=(2,), branch_flipped=False, "
            "inclusion_radius=0, float_sweeps=None)",
            "gammas"),
    }


FROZEN = sorted(_samples())


@pytest.mark.parametrize("name", FROZEN)
def test_repr_in_field_order(name):
    a, _, _, text, _ = _samples()[name]
    assert repr(a) == text


@pytest.mark.parametrize("name", FROZEN)
def test_equality_and_hash_are_field_wise(name):
    a, b, c, _, _ = _samples()[name]
    assert a is not b
    assert a == b and not (a != b)
    assert hash(a) == hash(b)
    assert a != c and not (a == c)
    assert len({a, b, c}) == 2


@pytest.mark.parametrize("name", FROZEN)
def test_equality_with_another_class_is_not_implemented(name):
    a, _, _, _, field = _samples()[name]
    assert type(a).__eq__(a, object()) is NotImplemented
    assert a != getattr(a, field)
    assert a != tuple(vars(a).values())


@pytest.mark.parametrize("name", FROZEN)
def test_fields_cannot_be_assigned_or_deleted(name):
    a, b, _, _, field = _samples()[name]
    before = getattr(a, field)
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert getattr(a, field) is before and a == b


def test_defaults_and_argument_errors():
    assert CheckResult(False) == CheckResult(False, None, 0, "")
    assert IdentityReport(1, "rel2", 9, False, 3).first_failure == 3
    assert LogReport(1, (1, 2), None, "mixed", (4,)).first_negative is None
    with pytest.raises(TypeError):
        CheckResult()
    with pytest.raises(TypeError):
        CheckResult(True, None, 0, "", "extra")
    with pytest.raises(TypeError):
        CheckResult(True, ok=True)
    with pytest.raises(TypeError):
        CheckResult(True, color="red")
    with pytest.raises(TypeError):
        RecurrenceSpec(1, 4, 4)


def test_truthiness_reads_the_outcome():
    assert CheckResult(True) and not CheckResult(False, 2)
    assert IdentityReport(1, "rel1", 9, True)
    assert not IdentityReport(1, "rel1", 9, False, 0)


def test_periodic_cf_stores_tuples_of_ints():
    cf = PeriodicCF([1, 2.0, True], [3, 4])
    assert cf.preperiod == (1, 2, 1) and cf.period == (3, 4)
    assert all(type(a) is int for a in cf.preperiod + cf.period)
    assert cf == PeriodicCF((1, 2, 1), (3, 4))
    assert PeriodicCF(period=[], preperiod=["5"]).preperiod == (5,)


@pytest.mark.parametrize("pre, per", [
    ([], [1]),
    ([1, 0], []),
    ([1], [2, 0]),
    ([2, 1], []),
])
def test_periodic_cf_rejects_bad_entries(pre, per):
    with pytest.raises(ValueError):
        PeriodicCF(pre, per)


def test_post_init_checks_still_fire():
    one = monomial(1, 0)
    with pytest.raises(ValueError, match="unknown identity tag"):
        IdentityReport(1, "nope", 9, True)
    with pytest.raises(ValueError, match="holds must mirror"):
        IdentityReport(1, "rel1", 9, True, 3)
    with pytest.raises(ValueError, match="holds must mirror"):
        IdentityReport(1, "rel1", 9, False)
    with pytest.raises(ValueError, match="one gamma per dominant root"):
        SingularityReport(1, 64, (1, 2), (1, 2), 1, (2,), False, 0, None)
    with pytest.raises(ValueError, match="unknown classification"):
        LogReport(1, (1, 2), 1, "bent", ())
    with pytest.raises(ValueError, match="onset"):
        LogReport(1, (1, 2), None, "log-convex", ())
    with pytest.raises(ValueError, match="onset"):
        LogReport(1, (1, 2), 3, "mixed", ())
    with pytest.raises(ValueError, match="not a polynomial"):
        QRational(monomial(1, -1), one)
    with pytest.raises(ValueError, match="denominator polynomial"):
        QRational(one, LaurentSeries(0, []))
    with pytest.raises(ValueError, match="not a polynomial"):
        QuadraticForm(one, LaurentSeries(0, [1, 2], 2), one, 1)
    with pytest.raises(ValueError, match="denominator polynomial"):
        QuadraticForm(one, one, LaurentSeries(0, []), 1)
    with pytest.raises(ValueError, match="sign must be"):
        QuadraticForm(one, one, one, 0)


# -- RunManifest: the one mutable record ----------------------------------------------


def test_run_manifest_fields_and_defaults():
    m = RunManifest("tables", {"n": 1})
    assert (m.command, m.parameters, m.artifact_version, m.outputs) == (
        "tables", {"n": 1}, ARTIFACT_VERSION, [])
    k = RunManifest(command="tables", parameters={}, artifact_version="x",
                    timestamp="t", outputs=[{"path": "a"}])
    assert (k.artifact_version, k.timestamp, k.outputs) == (
        "x", "t", [{"path": "a"}])
    k.command = "coeffs"
    assert k.command == "coeffs"
    with pytest.raises(TypeError):
        RunManifest("tables")


def test_run_manifests_do_not_share_outputs(tmp_path):
    out = str(tmp_path / "a.csv")
    open(out, "w").write("x\n")
    a, b = RunManifest("tables", {}), RunManifest("tables", {})
    a.add_output(out)
    assert len(a.outputs) == 1 and b.outputs == []
    assert RunManifest("tables", {}).outputs == []


def test_run_manifest_timestamp_is_utc_iso_seconds(tmp_path):
    before = datetime.datetime.now(datetime.timezone.utc).replace(microsecond=0)
    m = RunManifest("tables", {})
    after = datetime.datetime.now(datetime.timezone.utc)
    stamp = datetime.datetime.fromisoformat(m.timestamp)
    assert stamp.utcoffset() == datetime.timedelta(0)
    assert m.timestamp.endswith("+00:00") and len(m.timestamp) == 25
    assert stamp.isoformat(timespec="seconds") == m.timestamp
    assert before <= stamp <= after
    doc = json.load(open(m.write(str(tmp_path / "r.csv"))))
    assert doc["timestamp"] == m.timestamp
