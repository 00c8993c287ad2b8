"""Tampered certificates: one edit to an honest record never passes its checker.

The records are the criterion and report of W32×W9, the report of a window
forged on the tolerance schedule (the one kind with a limit lower bound) and
the audit of the W9 transversal castle.  An edit outside the subtrees a checker rebuilds from
(the window; for an audit also the castle and gamma) must make the checker
return False or raise CertificateError.  An edit inside them may describe
another honest certificate, so there the checker may accept, but it must
not fail with anything other than an AllosteryError.
"""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from allostery import (
    audit_castle,
    build_criterion,
    check_castle_audit,
    check_criterion_certificate,
    check_non_af_report,
    non_af_report,
    verify_criterion,
)
from allostery.errors import AllosteryError, CertificateError

from conftest import make_transversal_castle

CHECKERS = {
    "criterion": check_criterion_certificate,
    "report": check_non_af_report,
    "scheduled-report": check_non_af_report,
    "audit": check_castle_audit,
}

# The stabilizer witness's old restatement of the honest W32×W9 criterion.
OLD_WINDOW_GAMMAS = [
    {"gamma": "{(0):(1)};(0)", "moves_identity_thread": True},
    {"gamma": "{};(1)", "moves_identity_thread": True},
]

INPUTS = {
    "criterion": [("window",)],
    "report": [("criterion", "window")],
    "scheduled-report": [("criterion", "window")],
    "audit": [("window",), ("castle",), ("gamma",)],
}


@pytest.fixture(scope="module")
def honest(d32, d9, w9):
    cert = build_criterion([d32, d9])
    s1 = w9.group.parse_element("{(0):(1)};(0)")
    t1 = w9.group.parse_element("{};(1)")
    return {
        "criterion": cert,
        "report": non_af_report(cert),
        "scheduled-report": non_af_report(verify_criterion([s1, t1], 1, 1)),
        "audit": audit_castle(make_transversal_castle(w9), s1, w9),
    }


def mutations(node, path=()):
    """Every single edit of a JSON tree as (path, op, value): flip a bool,
    move an int by one or turn it into a float or a string, append "0" to a
    string, replace None with 0, delete a key, append to a list."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield path + (key,), "delete", None
            yield from mutations(value, path + (key,))
    elif isinstance(node, list):
        yield path, "append", None
        for i, value in enumerate(node):
            yield from mutations(value, path + (i,))
    elif isinstance(node, bool):
        yield path, "set", not node
    elif isinstance(node, int):
        for value in (node + 1, node - 1, float(node), str(node)):
            yield path, "set", value
    elif isinstance(node, str):
        yield path, "set", node + "0"
    elif node is None:
        yield path, "set", 0


def mutate(rec, path, op, value):
    rec = copy.deepcopy(rec)
    parent = rec
    for key in path[:-1]:
        parent = parent[key]
    if op == "delete":
        del parent[path[-1]]
    elif op == "append":
        target = parent[path[-1]]
        target.append(copy.deepcopy(target[-1]) if target else 0)
    else:
        parent[path[-1]] = value
    return rec


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_one_edit_never_passes(honest, data):
    kind = data.draw(st.sampled_from(sorted(CHECKERS)), label="kind")
    path, op, value = data.draw(st.sampled_from(list(mutations(honest[kind]))), label="edit")
    inside = any(path[: len(p)] == p for p in INPUTS[kind])
    try:
        accepted = CHECKERS[kind](mutate(honest[kind], path, op, value))
    except CertificateError:
        return
    except AllosteryError:
        assert inside, f"{kind}: {op} {path} escaped as a non-certificate error"
        return
    assert inside or accepted is False, f"{kind}: {op} {path} -> {value!r} accepted"


@pytest.mark.parametrize(
    "kind, path, value",
    [
        ("criterion", ("stabilizer", "fixers"), []),
        ("criterion", ("stabilizer", "ok"), False),
        ("criterion", ("stabilizer", "mover_count"), 0),
        ("criterion", ("transitivity", "method"), "bfs"),
        ("criterion", ("transitivity", "orbit_size"), 287),
        ("criterion", ("records", 0, "count_ok"), None),
        ("criterion", ("records", 1, "count_ok"), False),
        ("criterion", ("primes_distinct",), 1),
        ("report", ("conclusion",), "the limit action is almost finite"),
        ("audit", ("towers", 0, "defect"), "1/9"),
        ("audit", ("defects_within_epsilon",), True),
        ("report", ("limit_lower_bound",), "1/2"),
        ("report", ("chain", 2, "lhs"), "3/4"),
        ("scheduled-report", ("limit_lower_bound",), None),
        ("scheduled-report", ("limit_lower_bound",), "21/32"),
        ("scheduled-report", ("chain", 3, "threshold"), "3/4"),
        # The whole-window values that the records already state, held as
        # their honest old values, are extra fields.
        ("criterion", ("window_s_fixed_fraction",), "1/2"),
        ("criterion", ("transitivity", "orbit_size"), 288),
        ("criterion", ("product_lower_bound",), "1/4"),
        ("criterion", ("window_fraction_ok",), True),
        ("report", ("product_lower_bound",), "1/4"),
        # So are the records' not_in_subgroup, restated by the witness.
        ("criterion", ("stabilizer", "ok"), True),
        ("criterion", ("stabilizer", "window_gammas"), OLD_WINDOW_GAMMAS),
        ("report", ("criterion", "stabilizer", "ok"), True),
        ("report", ("criterion", "stabilizer", "window_gammas"), OLD_WINDOW_GAMMAS),
    ],
)
def test_named_edits_raise(honest, kind, path, value):
    rec = mutate(honest[kind], path, "set", value)
    with pytest.raises(CertificateError):
        CHECKERS[kind](rec)


@pytest.mark.parametrize("kind", ["report", "scheduled-report"])
def test_a_report_with_a_second_window_raises(honest, kind):
    """The report's window is its criterion's; a copy beside it, as reports
    once held, is an extra field."""
    rec = copy.deepcopy(honest[kind])
    rec["window"] = copy.deepcopy(rec["criterion"]["window"])
    with pytest.raises(CertificateError, match="recorded 'window' disagrees"):
        check_non_af_report(rec)


def test_report_with_a_cut_chain_raises(honest):
    rec = copy.deepcopy(honest["report"])
    rec["chain"] = rec["chain"][-2:]
    with pytest.raises(CertificateError):
        check_non_af_report(rec)
