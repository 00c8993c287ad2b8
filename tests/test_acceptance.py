"""End-to-end acceptance gate.

One test per numbered criterion, in order; each prints a single
``[acceptance N] label: PASS/FAIL`` line to the live terminal and then
asserts, so a red run still shows every verdict.
"""

import json
import time
from fractions import Fraction
from math import prod

import pytest

from allostery import (
    Castle,
    FiniteLevel,
    Tower,
    Window,
    assign_primes,
    audit_castle,
    build_criterion,
    check_comparison_certificate,
    check_criterion_certificate,
    check_non_af_report,
    comparison_certificate,
    forge,
    non_af_report,
    verify_criterion,
    window_from_records,
)
from allostery.certificates import record_ok

from conftest import HALF, fresh_rng, make_transversal_castle
from oracle import check_inverse_system, is_transitive
from sampling import (
    check_member_closure,
    random_castle,
    random_comparison_pair,
    random_nontrivial,
)


@pytest.fixture()
def announce(capsys):
    def _announce(number: int, label: str, ok: bool) -> None:
        with capsys.disabled():
            print(f"[acceptance {number}] {label}: {'PASS' if ok else 'FAIL'}")
        assert ok, f"acceptance criterion {number} failed: {label}"

    return _announce


def test_acceptance_1_index_formula(announce, group11):
    start = time.perf_counter()
    datum = forge(group11.parse_element("{(0):(1)};(0)"), 2, HALF, 1, 1)
    orbit = FiniteLevel(datum).orbit(0)
    elapsed = time.perf_counter() - start
    ok = datum.index() == 32 and orbit.size == 32 and elapsed < 1.0
    announce(1, "forged index 32 equals the identity-state orbit size", ok)


def test_acceptance_2_fixed_count_formula(announce, group11):
    start = time.perf_counter()
    pool = group11.ball(2)[1:]
    data = assign_primes(pool, epsilons=HALF).forge_all(1, 1)
    small = [dat for dat in data if dat.index() <= 10**5]
    ok = len(small) >= 10
    for dat in small:
        level = FiniteLevel(dat)
        brute = len(level.brute_fixed_indices(level.group.lamp_generator(0)))
        ok = ok and brute == dat.fixed_fraction() * dat.index()
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    announce(2, f"closed-form fixed counts match brute force on {len(small)} levels", ok)


def test_acceptance_3_criterion_certificate(announce, group11):
    start = time.perf_counter()
    gammas = group11.ball(1)[1:]
    cert = verify_criterion(gammas, 1, 1, epsilon=HALF)
    window = window_from_records(cert["window"])
    per_level = Fraction(1)
    for dat in window.data:
        per_level *= dat.fixed_fraction()
    elapsed = time.perf_counter() - start
    window_fraction = prod(Fraction(rec["fixed_fraction"]) for rec in cert["records"])
    counted = Fraction(window.fixed_count(window.group.lamp_generators()), window.size)
    ok = (
        cert["verdict"] == "valid"
        and all(record_ok(rec) for rec in cert["records"])
        and window_fraction == per_level == counted == Fraction(2, 5)
        and window_fraction >= HALF ** len(gammas)
        and cert["stabilizer"]["fixers"] == ["{};(0)"]
        and elapsed < 30.0
    )
    announce(3, "ball-1 window certificate is valid with the exact fraction", ok)


def test_acceptance_4_membership_invariance(announce, group11):
    rng = fresh_rng(4)
    pool = group11.ball(2)[1:]
    data = assign_primes(pool, epsilons=HALF).forge_all(1, 1)
    failures = sum(
        0 if check_member_closure(rng, data[i % len(data)]) else 1 for i in range(1000)
    )
    announce(4, "1000 membership-preservation checks, zero failures", failures == 0)


def test_acceptance_5_comparison(announce, w32, w9):
    start = time.perf_counter()
    rng = fresh_rng(5)
    ok = True
    for i in range(50):
        window = w32 if i % 2 == 0 else w9
        a_set, b_set = random_comparison_pair(rng, window)
        cert = comparison_certificate(a_set, b_set, window)
        serialized = json.dumps(cert)
        ok = ok and check_comparison_certificate(json.loads(serialized)) is True
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    announce(5, "50 seeded comparison certificates verify independently", ok)


def test_acceptance_6_castle_audits(announce, w9, w32, w288, group11):
    start = time.perf_counter()
    rng = fresh_rng(6)
    windows = [w9, w32, w288]
    ok = True
    for i in range(100):
        window = windows[i % 3]
        castle = random_castle(rng, window)
        gamma = random_nontrivial(rng, window.group)
        audit = audit_castle(castle, gamma, window)
        ok = ok and audit["inequality_ok"]
    s1 = group11.parse_element("{(0):(1)};(0)")
    transversal = audit_castle(make_transversal_castle(w9), s1, w9)
    ok = ok and Fraction(transversal["towers"][0]["defect"]) == Fraction(14, 9) >= Fraction(2, 3)
    ok = ok and transversal["inequality_ok"]
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    announce(6, "100 random castle audits satisfy the fixed-set bound", ok)


def test_acceptance_7_inverse_system(announce, w32, w288, d25):
    chain = [w32, w288, Window(list(w288.data) + [d25])]
    report = check_inverse_system(chain)
    ok = (
        report.ok
        and report.identity_ok
        and report.composition_ok is True
        and len(report.pairs) == 2
        and all(p.equivariant and p.surjective and p.fibers_uniform for p in report.pairs)
    )
    announce(7, "nested three-window chain obeys the inverse-system laws", ok)


def test_acceptance_8_negative_controls(announce, d32, w9, group11):
    twin = forge(group11.parse_element("{(0):(3)};(0)"), 2, HALF, 1, 1)
    doubled = Window([d32, twin])
    control_a = (
        not is_transitive(doubled) and build_criterion([d32, twin])["verdict"] == "invalid"
    )
    lowered = d32._replace(epsilon=Fraction(1, 8))
    invalid_cert = build_criterion([lowered])
    control_b = (
        invalid_cert["verdict"] == "invalid"
        and check_criterion_certificate(invalid_cert) is False
    )
    identity = w9.group.identity()
    overlapping = Castle(
        towers=(
            Tower(base=frozenset({(0,)}), shapes=(identity,)),
            Tower(base=frozenset({(0,)}), shapes=(identity,)),
        )
    )
    malformed = audit_castle(overlapping, group11.parse_element("{};(1)"), w9)
    control_c = malformed.get("witness", {}).get("state") == "(0)|((0))"
    ok = control_a and control_b and control_c
    announce(8, "all three negative controls are rejected with evidence", ok)


def test_acceptance_9_non_af_report(announce, d32, d9, d25):
    cert = build_criterion([d32, d9, d25])
    report = non_af_report(cert)
    serialized = json.dumps(report)
    window_fraction = prod(Fraction(rec["fixed_fraction"]) for rec in cert["records"])
    ok = (
        window_fraction == Fraction(2, 5)
        and Fraction(report["bound"]) == Fraction(1, 8)
        and window_fraction >= Fraction(report["bound"])
        and len(report["chain"]) == 4
        and check_non_af_report(json.loads(serialized)) is True
    )
    announce(9, "three-level report re-verifies from its serialized form", ok)
