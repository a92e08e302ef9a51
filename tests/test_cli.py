"""Driver behavior: config validation, exit codes, JSON transport.

Command-level tests go through click's CliRunner; the serialization
helpers are also exercised directly on random exact values.
"""

import json
import math
import random
from fractions import Fraction

import pytest
from click.testing import CliRunner

from qpair.algebra import Algebra
from qpair.cli import (Session, check_header, cyclo_from_json, cyclo_to_json,
                       dump_payload, element_from_json, element_to_json, main,
                       run, validate_config)
from qpair.report import RunConfig

A23 = Algebra.for_pair(2, 3)
runner = CliRunner()
rng = random.Random(777)


def _cfg(**kw):
    base = dict(p1=2, p2=3, suites=("relations",))
    base.update(kw)
    return RunConfig(**base)


def test_validate_config_rejections():
    assert "coprime" in validate_config(_cfg(p1=2, p2=2))
    assert "at least 2" in validate_config(_cfg(p1=1, p2=3))
    assert "sample size" in validate_config(_cfg(sample_size=-1))
    assert "unknown suites" in validate_config(_cfg(suites=("spectra",)))
    assert "no suites" in validate_config(_cfg(suites=()))
    assert "output format" in validate_config(_cfg(output_format="yaml"))
    assert validate_config(_cfg()) is None
    assert validate_config(_cfg(suites=("all",))) is None


def test_run_invalid_config_returns_2():
    code, report = run(_cfg(p1=2, p2=4))
    assert code == 2
    assert not report.passed
    assert report.checks[0].check_id == "config.validate"
    assert report.checks[0].anchor == "plumbing"


def test_run_relations_suite():
    code, report = run(_cfg())
    assert code == 0
    assert report.passed
    assert "relations" in report.suite_timings
    assert all(c.check_id for c in report.checks)


def test_run_late_suite_builds_prerequisites():
    # integrals needs the algebra + functionals layers but nothing is
    # pre-built; the session constructs them on demand
    code, report = run(_cfg(suites=("integrals",), sample_size=40))
    assert code == 0
    assert all(c.check_id.startswith("integrals.") for c in report.checks)
    statuses = {c.check_id: c.status for c in report.checks}
    assert statuses["integrals.left-k-exponent"] == "erratum-corrected"


def test_erratum_corrected_counts_as_passing():
    code, report = run(_cfg(suites=("integrals",), sample_size=40))
    assert code == 0
    assert any(c.corrected for c in report.checks)


def test_verify_command_text_and_exit_codes():
    result = runner.invoke(main, ["verify", "--p1", "2", "--p2", "3",
                                  "--suite", "relations"])
    assert result.exit_code == 0
    assert "[PASS]" in result.output
    result = runner.invoke(main, ["verify", "--p1", "2", "--p2", "2",
                                  "--suite", "relations"])
    assert result.exit_code == 2


def test_verify_command_json_is_deterministic():
    args = ["verify", "--p1", "2", "--p2", "3", "--suite", "relations",
            "--format", "json"]
    first = json.loads(runner.invoke(main, args).output)
    second = json.loads(runner.invoke(main, args).output)
    assert first["checks"] == second["checks"]
    assert first["passed"] is True
    assert first["config"]["suites"] == ["relations"]
    assert all(c["status"] == "pass" for c in first["checks"])
    assert all("anchor" in c for c in first["checks"])


def test_verify_command_writes_out_file(tmp_path):
    out = tmp_path / "report.json"
    result = runner.invoke(main, ["verify", "--p1", "2", "--p2", "3",
                                  "--suite", "relations",
                                  "--format", "json", "--out", str(out)])
    assert result.exit_code == 0
    payload = json.loads(out.read_text())
    assert payload["counts"]["failed"] == 0


def test_dump_block_through_cli(tmp_path):
    out = tmp_path / "block.json"
    result = runner.invoke(main, ["dump", "--p1", "2", "--p2", "3",
                                  "--target", "block:2,3",
                                  "--out", str(out)])
    assert result.exit_code == 0
    payload = json.loads(out.read_text())
    assert payload["header"] == {"p1": 2, "p2": 3, "N": 24,
                                 "phi_digest": payload["header"]["phi_digest"],
                                 "version": payload["header"]["version"]}
    assert payload["label"] == [2, 3]
    (summand,) = payload["summands"]
    assert summand["dimension"] == 6
    entry = next(iter(next(iter(summand["generators"]["K"].values())).values()))
    val = cyclo_from_json(A23.params.field, entry)
    assert not val.is_zero()


def test_dump_unknown_target_exits_2():
    result = runner.invoke(main, ["dump", "--p1", "2", "--p2", "3",
                                  "--target", "everything"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["dump", "--p1", "2", "--p2", "4",
                                  "--target", "slf"])
    assert result.exit_code == 2


def test_dump_idempotents_round_trip():
    session = Session(RunConfig(p1=2, p2=3, suites=("all",)))
    payload = json.loads(json.dumps(dump_payload(session, "idempotents")))
    assert len(payload["idempotents"]) == 36
    item = payload["idempotents"][7]
    rebuilt = element_from_json(session.algebra, item["element"])
    direct = session.system.primitive_idempotent(
        item["kind"], item["alpha"], item["r1"], item["r2"],
        item["s1"], item["s2"])
    assert rebuilt == direct


def test_dump_integrals_support():
    session = Session(RunConfig(p1=2, p2=3, suites=("all",)))
    payload = dump_payload(session, "integrals")
    assert payload["dual"]["left"]["support"] == [[1, 2, 1, 2, 1]]
    assert payload["dual"]["right"]["support"] == [[1, 2, 1, 2, 11]]
    back = element_from_json(session.algebra, payload["two_sided_element"])
    assert back == session.functionals.integral_element()


def test_cyclo_json_round_trip():
    field = A23.params.field
    for _ in range(25):
        coeffs = [Fraction(rng.randrange(-40, 40), rng.randrange(1, 17))
                  for _ in range(field.degree)]
        den = math.lcm(*(c.denominator for c in coeffs))
        x = field.make([int(c * den) for c in coeffs], den)
        assert cyclo_from_json(field, cyclo_to_json(x)) == x
    strings = cyclo_to_json(field.make([1, -3], 7))
    assert strings[0] == "1/7" and strings[1] == "-3/7"


def test_cyclo_from_json_rejects_wrong_length():
    # a short or long array would build a non-canonical number that
    # compares unequal to its true value (zeta^8, or 1)
    field = A23.params.field
    for coeffs in (["0"] * 8 + ["1"], ["1"], []):
        with pytest.raises(ValueError, match="expected 8 coefficients"):
            cyclo_from_json(field, coeffs)
    assert cyclo_from_json(field, ["1"] + ["0"] * 7) == 1


def test_cyclo_from_json_accepts_only_the_written_grammar():
    field = A23.params.field
    zeros = ["0"] * 7
    for bad in ("1.5", "1e3", " 1", "1 ", "+1", "1/0", "-1/-2", "1/+2", "/2",
                "1/", "--1", "", "0x10", "1_000", "\u0661", "1/2/3", 1):
        with pytest.raises(ValueError):
            cyclo_from_json(field, [bad] + zeros)
    # non-reduced input is accepted and normalised
    assert cyclo_from_json(field, ["2/4"] + zeros) == field.from_rational(
        Fraction(1, 2))
    assert cyclo_from_json(field, ["-0", "007/1"] + ["0"] * 6) == (
        field.zeta(1) * 7)
    x = field.make([6, -4, 0, 9, 0, 0, 0, 1], 12)
    assert cyclo_to_json(x) == ["1/2", "-1/3", "0", "3/4", "0", "0", "0",
                                "1/12"]
    assert cyclo_from_json(field, cyclo_to_json(x)) == x


def test_check_header_refuses_other_pairs_and_fields():
    session = Session(RunConfig(p1=2, p2=3, suites=("all",)))
    header = json.loads(json.dumps(dump_payload(session, "block 2 3")))["header"]
    check_header(A23, header)
    check_header(A23, dict(header, version="0.0.0"))   # version not compared
    with pytest.raises(ValueError, match="p2 3 .*N 24 .*phi_digest"):
        check_header(Algebra.for_pair(2, 5), header)
    with pytest.raises(ValueError, match="phi_digest") as err:
        check_header(A23, dict(header, phi_digest="0" * 16))
    assert "p1" not in str(err.value)
    with pytest.raises(ValueError, match="N"):
        check_header(A23, {k: v for k, v in header.items() if k != "N"})
    with pytest.raises(ValueError):
        check_header(A23, [header])


def test_element_json_round_trip():
    monos = list(A23.basis_monomials())
    terms = {m: A23.params.zeta(rng.randrange(24)) * rng.randrange(1, 9)
             for m in rng.sample(monos, 12)}
    x = A23.element(terms)
    assert element_from_json(A23, element_to_json(x)) == x
