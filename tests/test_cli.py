"""Driver behavior: config validation, exit codes, JSON transport.

Command-level tests go through click's CliRunner; the serialization
helpers are also exercised directly on random exact values.
"""

import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
from click.testing import CliRunner

from qpair.algebra import Algebra
from qpair.cli import (SUITE_ORDER, Session, artifact_header, check_header,
                       cyclo_from_json, cyclo_to_json, dump_payload,
                       element_from_json, element_to_json, load_artifact,
                       main, run, validate_config)
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
    code, report = run(_cfg(suites=("integrals",)))
    assert code == 0
    assert all(c.check_id.startswith("integrals.") for c in report.checks)
    statuses = {c.check_id: c.status for c in report.checks}
    assert statuses["integrals.left-k-exponent"] == "erratum-corrected"


def test_run_whole_stack_at_3_2():
    # p1 > p2: the balancing exponent p1 - p2 changes sign
    code, report = run(RunConfig(p1=3, p2=2, suites=("all",)))
    assert code == 0
    assert report.passed
    # 12 simple modules with 17 defining relations each
    assert len(report.checks) == 527
    assert tuple(report.suite_timings) == SUITE_ORDER


def test_suite_order_solves_block_centers_under_center():
    # radford reads the block centers; center runs first and solves them,
    # so their cost is timed under center
    assert SUITE_ORDER == ("relations", "hopf", "modules", "ideals",
                           "idempotents", "blocks", "shapes", "slf",
                           "integrals", "center", "radford", "qchar")
    _, report = run(_cfg(suites=("radford", "center")))
    assert list(report.suite_timings) == ["center", "radford"]


def test_idempotents_and_blocks_suites_keep_their_checks():
    # ids, statuses and details of the two suites, in report order, as
    # they were when both were sliced out of one block-decomposition pass,
    # except that blocks.pairwise-orthogonal is now derived from its two
    # premises and its detail says so
    session = Session(_cfg(suites=("idempotents", "blocks")))
    checks = session.suite_idempotents() + session.suite_blocks()
    assert [c.check_id for c in checks] == [
        "blocks.idempotent-squares", "blocks.pairwise-orthogonal",
        "blocks.resolution-of-identity", "blocks.dimension-identity",
        "blocks.count", "blocks.block-idempotent-central",
        "blocks.ideal-dimensions", "blocks.total-rank",
        "blocks.casimir-1-central", "blocks.casimir-2-central",
        "blocks.central-annihilators", "blocks.scalar-signatures-separate",
        "blocks.casimir-scalar-reflections",
        "blocks.socle-matches-simple-matrices"]
    rows = json.dumps([[c.check_id, c.status, c.detail] for c in checks])
    assert hashlib.sha256(rows.encode()).hexdigest() == (
        "78cf26367a720aae24302546a6c35fe13a16aef9cb23b547cf38a67146b69086")


@pytest.mark.parametrize("pair", [(2, 3), (3, 2)])
def test_blocks_suite_alone_matches_its_rows_in_the_whole_stack(pair):
    # run alone, the blocks suite builds the action tables it reads on
    # demand and gives the rows it gives after the ideals suite.  At (2,3)
    # its products are the commutators of the 6 block idempotents and the
    # 2 Casimirs with 5 generators (60 and 20) and e_i f_i in each Casimir
    # (2); the annihilators make none (951 products before they were read
    # through the generator matrices: 864 annihilators times ideal vectors
    # and 5 squares of annihilators besides)
    idempotent_ids = {"blocks.idempotent-squares",
                      "blocks.pairwise-orthogonal",
                      "blocks.resolution-of-identity"}
    p1, p2 = pair
    _, whole = run(RunConfig(p1=p1, p2=p2, suites=("all",)))
    _, alone = run(RunConfig(p1=p1, p2=p2, suites=("blocks",)))

    def rows(report):
        return [[c.check_id, c.status, c.detail, c.scope]
                for c in report.checks if c.check_id.startswith("blocks.")
                and c.check_id not in idempotent_ids]

    assert rows(alone) == rows(whole)
    assert len(rows(whole)) == 11
    # the sweep's own products, made on demand
    assert (alone.suite_counts["blocks"]["element_products"]
            > whole.suite_counts["blocks"]["element_products"])
    if pair == (2, 3):
        assert whole.suite_counts["blocks"]["element_products"] == 82


def test_blocks_suite_keeps_its_checks_at_3_2():
    # ids and statuses in report order, as they were when the socle check
    # expanded its products and solved them over a tracked span
    checks = Session(RunConfig(p1=3, p2=2, suites=("blocks",))).suite_blocks()
    rows = json.dumps([[c.check_id, c.status] for c in checks])
    assert hashlib.sha256(rows.encode()).hexdigest() == (
        "6cb70dd3c7cc108f2866fb939cb4f2fa2d14bf0198ee8bb08519616934673af3")


@pytest.mark.parametrize("pair, digest", [
    ((2, 3), "50698f770a69157b444e31036db54e06e7017678b9b199a45d0ca4a1b65e24dd"),
    ((3, 2), "6d4e1cfd4b3cb28276bc19fbcb370fe6858f7e9bb03f05fde591f65812eaf548"),
    ((2, 5), "9b63cc80375cd7756c1bb83aadfd4d3e4cb17032cdf124da24bec6a64e322735"),
    ((3, 4), "8b120ae385cbe3df5b34be1d44fd97178422a35bb216d4a1bec562259a8ae8a2"),
])
def test_center_and_radford_suites_keep_their_checks(pair, digest):
    # ids and statuses of the two suites, in report order, as they were
    # when each central element was solved from its matrix prescription;
    # the (2,5) and (3,4) rows as they were when the Radford transform
    # still convolved PBW K-exponents
    session = Session(RunConfig(p1=pair[0], p2=pair[1],
                                suites=("center", "radford")))
    checks = session.suite_center() + session.suite_radford()
    rows = json.dumps([[c.check_id, c.status] for c in checks])
    assert hashlib.sha256(rows.encode()).hexdigest() == digest


@pytest.mark.parametrize("pair, digest", [
    ((2, 3), "9bbfc9f029db088b5ad3c770ab9c9f6af4f8d89b9174e46030eff2ac2bfa7560"),
    ((3, 2), "8120b2d46146af0c8afa38deb47652af3314b2512796ac71b49f963dc23174e7"),
])
def test_ideals_and_shapes_suites_keep_their_checks(pair, digest):
    # ids and statuses of the two suites, in report order, as they were
    # when the generator matrices were solved from fresh products and the
    # corner products were expanded in the algebra
    session = Session(RunConfig(p1=pair[0], p2=pair[1],
                                suites=("ideals", "shapes")))
    checks = session.suite_ideals() + session.suite_shapes()
    rows = json.dumps([[c.check_id, c.status] for c in checks])
    assert hashlib.sha256(rows.encode()).hexdigest() == digest


@pytest.mark.parametrize("pair, digest", [
    ((2, 3), "dcbb554fc1023f42891464ddb523de801dde9132abab243d43f3fec772c703ef"),
    ((3, 2), "ad3a9b7cdce734a05768814bc7a4a05b310b6471a1b145eadcc2940dd89a3465"),
])
def test_shapes_suite_keeps_its_rows(pair, digest):
    # ids, statuses, details and scopes in report order, as they were
    # when each block's matrices were kept and read in four loops
    session = Session(RunConfig(p1=pair[0], p2=pair[1], suites=("shapes",)))
    rows = json.dumps([[c.check_id, c.status, c.detail, c.scope]
                       for c in session.suite_shapes()])
    assert hashlib.sha256(rows.encode()).hexdigest() == digest


@pytest.mark.parametrize("pair", [(2, 3), (3, 2)])
def test_every_check_states_its_scope(pair):
    code, report = run(RunConfig(p1=pair[0], p2=pair[1], suites=("all",)))
    assert code == 0
    assert [c.check_id for c in report.checks if not c.scope] == []


def test_shapes_and_center_checks_state_their_scope():
    session = Session(_cfg(suites=("shapes", "center")))
    checks = session.suite_shapes() + session.suite_center()
    assert [c.check_id for c in checks if not c.scope] == []
    scopes = {c.check_id: c.scope for c in checks}
    # derived from its premises, with no product expanded
    assert scopes["realization[2,3].matrix-unit-products"] == (
        "derived: 1296 ordered products, none expanded in the algebra; "
        "premises action-table, faithful and the ladder closure of 6 left "
        "ideals")
    assert scopes["realization[1,1].faithful"] == (
        "exhaustive: exact rank of 144 elements' matrices on 4 summands")
    assert scopes["realization[1,1].dimension"] == (
        "exhaustive: 144 block elements counted, with the exact rank of "
        "faithful")
    assert scopes["realization[1,3].reentry-cell-family"] == (
        "exhaustive: 18 left-family elements, full matrices on summand "
        "(-1, 1, 3)")


def test_ideals_suite_states_every_scope():
    checks = Session(_cfg(suites=("ideals",))).suite_ideals()
    assert [c.check_id for c in checks if not c.scope] == []
    scopes = {c.check_id: c.scope for c in checks}
    assert scopes["adjudication[1,1].top-exit-family"] == (
        "derived from ladder[1,1].dir1.lower.top-with-shadow: its instance "
        "e1 × B/up(0, 0) at (+1,1,1;1,1) has the corrected B/left(0, 0) as "
        "image; the printed B/up(0, 0) is compared with it as a named "
        "element")
    assert scopes["adjudication[2,1].ladder-scalar-reflection"] == (
        "exhaustive raw formula, no products: phi_2^alpha(r2 + k) at (2, 1) "
        "against phi_2^-alpha(k) at (2, 2), alpha = ±1 and 0 <= k < 2")
    # where the variants coincide, the scope says that nothing was compared
    assert scopes["adjudication[1,1].left-normalizer-sign"] == (
        "nothing compared: the tail has p1 - r1 = 1 < 2 rungs, so the "
        "flipped-sign and same-sign normalizers coincide")
    assert scopes["adjudication[1,1].top-extra-summand-index"] == (
        "nothing compared: no T element has i2 >= 1 at (+1,1,1;1,1)")
    assert scopes["adjudication[1,1].left-lowering-coefficient"] == (
        "nothing compared: p1 - r1 = 1 leaves no beyond-ladder rung k1 >= 1")


def test_run_times_its_suites_with_a_monotonic_clock(monkeypatch):
    # a wall clock that steps back by an hour on every read
    reads = iter(range(10**6))
    monkeypatch.setattr("time.time", lambda: 1e9 - 3600.0 * next(reads))
    code, report = run(_cfg(suites=("relations", "modules")))
    assert code == 0
    assert report.elapsed_seconds >= 0
    assert set(report.suite_timings) == {"relations", "modules"}
    assert all(t >= 0 for t in report.suite_timings.values())
    assert sum(report.suite_timings.values()) <= report.elapsed_seconds + 0.01


def test_json_report_counts_products_and_rows_per_suite():
    # the per-suite counters are the algebra's own: a session that runs
    # the same suites in the same order reads the same numbers, the JSON
    # report carries them, and the text report does not
    suites = ("relations", "modules", "ideals")
    code, report = run(_cfg(suites=suites))
    assert code == 0
    assert list(report.suite_counts) == list(report.suite_timings)
    session = Session(_cfg(suites=suites))
    A = session.algebra
    for name in suites:
        products, rows = A.element_products, A.word_product_rows
        getattr(session, f"suite_{name}")()
        assert report.suite_counts[name] == {
            "element_products": A.element_products - products,
            "word_product_rows": A.word_product_rows - rows}
    assert report.suite_counts["modules"] == {
        "element_products": 0, "word_product_rows": 0}
    counts = report.suite_counts["ideals"]
    assert counts["element_products"] > counts["word_product_rows"] > 0
    assert json.loads(report.to_json())["suite_counts"] == report.suite_counts
    assert "suite_counts" not in report.to_text()
    assert "element_products" not in report.to_text()


def test_erratum_corrected_counts_as_passing():
    code, report = run(_cfg(suites=("integrals",)))
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
    assert all(c["scope"] == ("in A: both sides normal-ordered over the "
                              "432 basis monomials")
               for c in first["checks"])


def test_verify_json_reports_the_hopf_scopes():
    result = runner.invoke(main, ["verify", "--p1", "2", "--p2", "3",
                                  "--suite", "hopf", "--format", "json"])
    assert result.exit_code == 0
    scopes = {c["check_id"]: c["scope"]
              for c in json.loads(result.output)["checks"]}
    assert scopes["coassociativity"] == (
        "unit + 5 generators, extended to all 432 monomials by the defining "
        "relations")
    assert scopes["coproduct is an algebra map"] == (
        "presentation: 17 defining relations on the generator images in A ⊗ A")


def test_verify_json_reports_the_solve_scopes():
    result = runner.invoke(main, ["verify", "--p1", "2", "--p2", "3",
                                  "--suite", "integrals,center",
                                  "--format", "json"])
    assert result.exit_code == 0
    scopes = {c["check_id"]: c["scope"]
              for c in json.loads(result.output)["checks"]}
    for side in ("left", "right"):
        assert scopes[f"integrals.{side}-solved"] == (
            "exhaustive: 4248 coproduct equations over 432 unknowns, 4248 "
            "of them on a single unknown")
    assert scopes["realization[1,1].center-dimension"] == (
        "exhaustive: 300 commutator equations over the 24 degree-zero of "
        "144 block elements, 44 distinct rows reduced; the central "
        "family's rank over its degree-zero coordinates; premise faithful "
        "not checked in this run")
    assert scopes["realization[2,3].center-dimension"] == (
        "exhaustive: 14 commutator equations over the 6 degree-zero of 36 "
        "block elements, 14 distinct rows reduced; the central family's "
        "rank over its degree-zero coordinates; premise faithful not "
        "checked in this run")
    assert scopes["realization[1,1].central-preimages"] == (
        "exhaustive: 9 central elements × 4 summands, full matrices, each "
        "the sum of its degree-zero elements' matrices; derived: × 5 "
        "generators, commutation read off the 44 distinct commutator rows "
        "of the degree-zero elements and K's verified diagonal, no "
        "products; premise faithful not checked in this run; premise z "
        "sums the block's degree-zero elements")
    assert scopes["realization[1,1].unit-preimage"] == (
        "derived: both are the sum of _slot_element with nothing dropped "
        "over the same 6 slots, compared as slot lists, no algebra")
    assert scopes["realization[1,1].drop-squares"] == (
        "derived: 8 drop elements, the square of each one's matrix on 4 "
        "summands, no products; premise faithful not checked in this run; "
        "premise z sums the block's degree-zero elements")
    assert scopes["realization[1,3].central-preimages"] == (
        "exhaustive: 3 central elements × 2 summands, full matrices, each "
        "the sum of its degree-zero elements' matrices; derived: × 5 "
        "generators, commutation read off the 14 distinct commutator rows "
        "of the degree-zero elements and K's verified diagonal, no "
        "products; premise faithful not checked in this run; premise z "
        "sums the block's degree-zero elements")
    assert scopes["realization[1,3].unit-preimage"] == (
        "derived: both are the sum of _slot_element with nothing dropped "
        "over the same 6 slots, compared as slot lists, no algebra")
    assert scopes["center.total-dimension"] == (
        "exhaustive: commutator nullspaces of all 6 blocks, summed")
    assert scopes["realization[2,3].drop-squares"] == (
        "derived: 0 drop elements, the square of each one's matrix on 1 "
        "summands, no products; premise faithful not checked in this run; "
        "premise z sums the block's degree-zero elements")


def test_verify_json_reports_the_shape_and_radford_scopes():
    result = runner.invoke(main, ["verify", "--p1", "2", "--p2", "3",
                                  "--suite", "shapes,radford",
                                  "--format", "json"])
    assert result.exit_code == 0
    scopes = {c["check_id"]: c["scope"]
              for c in json.loads(result.output)["checks"]}
    interior = "exhaustive: 144 elements × 4 summands"
    assert scopes["realization[1,1].action-table"] == (
        f"{interior}, full matrices")
    assert scopes["realization[1,1].forced-zeros"] == (
        f"{interior}, full matrices against 324 template cells")
    assert scopes["realization[1,1].repeated-diagonals"] == (
        f"{interior}, 256 sub-block pairs per element")
    assert scopes["realization[1,1].unit-matrix"] == (
        "exhaustive: 4 own + 8 other summands, full matrices")
    assert scopes["realization[2,1].repeated-diagonals"] == (
        "exhaustive: 72 elements × 2 summands, 4 sub-block pairs per element")
    assert scopes["realization[0,3].unit-matrix"] == (
        "exhaustive: 1 own + 11 other summands, full matrices")
    assert scopes["radford[1,1].side-13"] == (
        "exhaustive: 432 basis monomials, 1 of 1 combinations compared")
    # the edge-2 unit identity matches its second, corrected variant
    assert scopes["radford[2,1].unit"] == (
        "exhaustive: 432 basis monomials, 2 of 2 combinations compared")
    assert scopes["radford[2,2].unit"] == (
        "exhaustive: 432 basis monomials, 1 of 2 combinations compared")


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


# SHA-256 of every `qpair dump` output (block, idempotents and slf
# targets) at (2,3) and (3,2), recorded before the per-copy ladder
# rewrite of the layout, and at (2,5), where korder is 20, recorded
# before the slf members were read through `twisted_trace`; the dumps
# must stay byte-identical.
DUMP_DIGESTS = {
    (2, 3): {
        "block 1 1":
            "ef0f3af1502cfa67460fce4e07267b169c16f465dfae6a25a26a6f37f62a9828",
        "block 1 3":
            "cf004b5347c45e6d4d9b09b2cc0cce386d0875490c4a5b659d15d6349fa2d654",
        "block 2 1":
            "c9752c9f878fb072a946060e4e6d6dcec5fa1629a0c13225efbb8540ec1eda2c",
        "block 2 2":
            "39c79f8f2e7b64193e75f4731b048a16352318a6426aeb5399dbeec419c2c463",
        "block 2 3":
            "60f03f2583a636191c850cb5d5dcbf694113262cea79fbaced19a0a86f147a48",
        "block 0 3":
            "c7b208f8e54b81450fd9cab11ee06338aa7c81845d56b73b764dba6776670926",
        "idempotents":
            "812e3caf4f0e902f31358304e0d8966ab1554f17f78f9ab09e64079079de68b3",
        "slf":
            "37776d673d0bcc53e5fefed64766907a889fc4697147624c9bcb711e2bf54e90",
    },
    (3, 2): {
        "block 1 1":
            "8f9c1be636feac9effce6d1eb984e597b83c3ac22fc3ba39c6749ddb3059b2b9",
        "block 1 2":
            "83d2995e0394d6f12f8d45501bd36aca252fda0e85fc7a7917feb161ac484479",
        "block 2 2":
            "b1db4d261194cbc57ccaf4464ee4a19300b6c048926c95760815eda8fe67db69",
        "block 3 1":
            "3a76d94fef3cd380319b0c4fa768d7cf84152534d51e06da7f4ed49927dc9e3f",
        "block 3 2":
            "5136d0148a321ee70b3023903d90f15c9599eb9f86bfbe470da0854ebf5c3a73",
        "block 0 2":
            "e3214968f7c063398312f96411d1a948511516eb034ff9beab1741b5a50f351d",
        "idempotents":
            "eb24f6dfd4ffc238680d08e683dbcf5f2dfafc1a42fe9f0506809ab7f59f3205",
        "slf":
            "3b7de7efe8a6d841cd5f3e174f31a2374539e0199255750ffb35ffff766fe34c",
    },
    (2, 5): {
        "block 1 1":
            "e0999350c5a2709abb4efcc9a05ecea410d695a3421eb96b4d755ada21394ee4",
        "block 1 2":
            "62fee27de94e71d72ff1c4c54490e5aedb8ddb41325d8ee735650d430747d27e",
        "block 1 5":
            "15a14f490786febd89d6389226a60c86b854ba42d9d67bb79784638459f5ddd7",
        "block 2 1":
            "56eae4cb29503e8a7862d76fc529e4f1747936900964e24525750741368e068c",
        "block 2 2":
            "68bf347cde325a4c72f5e6346738a54a8ca41664f4724b6a46a42870e25f5715",
        "block 2 3":
            "bc60599067ac6891b3c7068d66e2ee26f03c63243dbcce839c116088b3cf0b8c",
        "block 2 4":
            "91cd4bd133c509c19d201cccd6190b2bd3ddd104393b29d8dc75536c2b6719b1",
        "block 2 5":
            "d7c8f2211fe986445c1b24b5029cc69f047ac44dbb18300c6c6bbf4ae4992c35",
        "block 0 5":
            "2de93c252ca34b2d34478de5e49b5ff67f28f64d081f89a99ad3bb31e7b4e373",
        "idempotents":
            "d4137a12526fd485fe12e8161593d420a5dd98ae8bff15919dc2fbb8455a3a49",
        "slf":
            "ef3ba2e4338b2245b7e3b7dd52054a8c5e49a4fef02d53afc3baab6b1b05059c",
    },
}


def _rendered_dump(session, target):
    """The bytes `qpair dump --out` writes for one target."""
    return json.dumps(dump_payload(session, target), indent=2) + "\n"


@pytest.mark.parametrize("pair", sorted(DUMP_DIGESTS))
def test_dump_bytes_are_pinned(pair):
    session = Session(RunConfig(p1=pair[0], p2=pair[1], suites=("all",)))
    targets = [f"block {l.r1} {l.r2}" for l in session.system.block_labels()]
    assert sorted(DUMP_DIGESTS[pair]) == sorted(targets + ["idempotents",
                                                           "slf"])
    for target, digest in DUMP_DIGESTS[pair].items():
        rendered = _rendered_dump(session, target).encode()
        assert hashlib.sha256(rendered).hexdigest() == digest, target


def test_dump_out_file_is_the_rendered_payload(tmp_path):
    out = tmp_path / "block.json"
    result = runner.invoke(main, ["dump", "--p1", "3", "--p2", "2",
                                  "--target", "block 3 1", "--out", str(out)])
    assert result.exit_code == 0
    session = Session(RunConfig(p1=3, p2=2, suites=("all",)))
    assert out.read_text() == _rendered_dump(session, "block 3 1")


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
                "1/", "--1", "", "0x10", "1_000", "\u0661", "1/2/3", 1,
                [1], {}, None, True, "\u00b2", "\uff11", "-\uff11", "1/\u00b2"):
        # ValueError, not TypeError: no value is hashed before its type
        # is checked
        with pytest.raises(ValueError):
            cyclo_from_json(field, [bad] + zeros)
        with pytest.raises(ValueError):
            cyclo_from_json(field, zeros + [bad])
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


def test_check_header_refuses_sizes_that_are_not_ints():
    header = artifact_header(A23)
    for key, value in (("p1", 2.0), ("p2", 3.0), ("N", 24.0)):
        with pytest.raises(ValueError, match=f"{key} {value!r} "):
            check_header(A23, dict(header, **{key: value}))
    with pytest.raises(ValueError, match=r"p1 2\.0 .*p2 3\.0 .*N 24\.0 "):
        check_header(A23, dict(header, p1=2.0, p2=3.0, N=24.0))


def test_element_json_round_trip():
    monos = list(A23.basis_monomials())
    terms = {m: A23.params.zeta(rng.randrange(24)) * rng.randrange(1, 9)
             for m in rng.sample(monos, 12)}
    x = A23.element(terms)
    assert element_from_json(A23, element_to_json(x)) == x


def test_element_from_json_refuses_what_it_cannot_round_trip():
    e1 = A23.e(1) * 3
    data = element_to_json(e1)
    assert element_from_json(A23, data) == e1
    zero = cyclo_to_json(A23.params.zero)
    # a second entry for the same monomial would overwrite the first
    with pytest.raises(ValueError, match="twice"):
        element_from_json(A23, data + [{"monomial": [1, 0, 0, 0, 0],
                                         "coefficient": zero}])
    one = cyclo_to_json(A23.params.one)
    # a coefficient array is parsed once per element, and a malformed one
    # is refused wherever it recurs: first, after an equal-length valid
    # array, and again after it was refused; an unhashable entry is
    # refused by the parser with ValueError, not by the memo's lookup
    for bad in ("1.5", "\uff11", "1/0", ["1"], {"1": 1}):
        for coeff in ([bad] + one[1:], one[:-1] + [bad]):
            for first in (one, coeff):
                items = [{"monomial": [1, 0, 0, 0, 0], "coefficient": first},
                         {"monomial": [0, 0, 1, 0, 0], "coefficient": coeff}]
                for _ in range(2):
                    with pytest.raises(ValueError, match="coefficient"):
                        element_from_json(A23, items)
                with pytest.raises(ValueError, match="coefficient"):
                    cyclo_from_json(A23.params.field, coeff)
    for mono in ([1.0, 0, 0, 0, 12.0],      # floats
                 [True, 0, 0, 0, 0],         # bools
                 [1, 0, 0, 0, 12],           # ell = korder would wrap to 0
                 [1, 0, 0, 0, -1],
                 [2, 0, 0, 0, 0],            # e1^2 at p1 = 2
                 [1, 0, 0, 0],               # too short
                 "e1"):
        with pytest.raises(ValueError, match="malformed monomial"):
            element_from_json(A23, [{"monomial": mono, "coefficient": one}])


def test_element_to_json_gives_each_term_its_own_coefficient_list():
    # e1 + e2 + f1 has one distinct coefficient, rendered once; a reader
    # that edits one term's list must not edit another's
    x = A23.e(1) + A23.e(2) + A23.f(1)
    data = element_to_json(x)
    coeffs = [term["coefficient"] for term in data]
    assert len(coeffs) > 1 and len({id(c) for c in coeffs}) == len(coeffs)
    assert all(c == cyclo_to_json(A23.params.one) for c in coeffs)
    coeffs[0][0] = "2"
    assert all(c[0] == "1" for c in coeffs[1:])
    assert [term["monomial"] for term in data] == sorted(
        term["monomial"] for term in data)
    assert element_from_json(A23, element_to_json(x)) == x


def test_element_from_json_refuses_shapes_it_does_not_write():
    # ValueError, as documented, not TypeError or KeyError
    one = cyclo_to_json(A23.params.one)
    for data in ({"monomial": [0, 0, 0, 0, 0], "coefficient": one},
                 "e1", None):
        with pytest.raises(ValueError, match="list of terms"):
            element_from_json(A23, data)
    for item in ([[0, 0, 0, 0, 0], one], "e1", None,
                 {"monomial": [0, 0, 0, 0, 0]}, {"coefficient": one},
                 {"monomial": [0, 0, 0, 0, 0], "coefficient": one,
                  "extra": 1}):
        with pytest.raises(ValueError, match="malformed term"):
            element_from_json(A23, [item])
    # a string of the field's degree is not a coefficient array: read one
    # character at a time, "10000000" would parse as 1
    for coeffs in ("10000000", tuple(one), {str(i): c for i, c in
                                             enumerate(one)}):
        with pytest.raises(ValueError, match="as a list"):
            element_from_json(A23, [{"monomial": [0, 0, 0, 0, 0],
                                     "coefficient": coeffs}])
        with pytest.raises(ValueError, match="as a list"):
            cyclo_from_json(A23.params.field, coeffs)


def test_load_artifact_checks_the_header_before_parsing(tmp_path):
    # Q(zeta_40) and Q(zeta_48) both have degree 16, so without the header
    # check a (2,5) dump would parse at (3,4)
    session = Session(RunConfig(p1=2, p2=5, suites=("all",)))
    path = tmp_path / "idempotents-2-5.json"
    path.write_text(json.dumps(dump_payload(session, "idempotents")))
    A34 = Algebra.for_pair(3, 4)
    assert A34.params.field.degree == session.algebra.params.field.degree
    with pytest.raises(ValueError, match="does not match"):
        load_artifact(str(path), A34)
    listed = tmp_path / "list.json"
    listed.write_text("[]")
    with pytest.raises(ValueError, match="JSON object"):
        load_artifact(str(listed), A34)
    payload = load_artifact(str(path), session.algebra)
    item = payload["idempotents"][-1]
    entry = (item["kind"], item["alpha"], item["r1"], item["r2"],
             item["s1"], item["s2"])
    assert item["element"] == session.system.primitive_idempotent(*entry)


@pytest.mark.parametrize("target, body, key", [
    ("idempotents", {"idempotents": [{}]}, "element"),
    ("idempotents", {"idempotents": 5}, "idempotents"),
    ("idempotents", {}, "idempotents"),
    ("integrals", {"dual": {}}, "two_sided_element"),
])
def test_load_artifact_refuses_a_malformed_body(tmp_path, target, body, key):
    # the header matches, so each body is parsed and refused by name
    path = tmp_path / "dump.json"
    path.write_text(json.dumps(dict(body, header=artifact_header(A23),
                                    target=target)))
    with pytest.raises(ValueError, match=f"'{key}'"):
        load_artifact(str(path), A23)


def test_verify_json_reports_the_scan_ladder_and_orthogonality_scopes():
    result = runner.invoke(main, ["verify", "--p1", "2", "--p2", "3",
                                  "--suite", "ideals,idempotents,slf,"
                                  "integrals,qchar", "--format", "json"])
    assert result.exit_code == 0
    checks = json.loads(result.output)["checks"]
    scopes = {c["check_id"]: c["scope"] for c in checks}
    scan = "degree-matched: 240 of 5 × 432 generator pairs"
    assert scopes["symmetry.trace[0,3]"] == scan
    assert scopes["twisted-symmetry.qchar.X-(2,3)"] == scan
    assert scopes["integrals.translation-identities"] == scan
    # the scan stops reading once the invalid record's witness is found
    assert scopes["characters.invalid-record[2,1]"] == (
        "degree-matched: 14 of 5 × 432 generator pairs")
    assert scopes["blocks.pairwise-orthogonal"] == (
        "derived: 1260 ordered pairs, no products")
    assert scopes["ladder[1,1].weight"] == (
        "exhaustive: 144 instances over the 6 primitive left ideals, 144 "
        "derived from the projector keys: K x = mu x where zeta^(2a) = mu "
        "at the meeting index a of every key of x, no product")
    assert all(scopes[c["check_id"]] for c in checks
               if c["check_id"].startswith(("ladder[", "symmetry.",
                                            "twisted-symmetry.",
                                            "characters.invalid-record")))
