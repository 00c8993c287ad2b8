import copy
import json
import random
from fractions import Fraction
from functools import lru_cache
from math import prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from allostery import (
    Castle,
    FiniteLevel,
    Lamp,
    Tower,
    Window,
    WreathElement,
    WreathGroup,
    audit_castle,
    boolean_atoms,
    build_criterion,
    certify_transitive,
    check_castle_audit,
    check_comparison_certificate,
    check_criterion_certificate,
    check_non_af_report,
    comparison_certificate,
    forge,
    non_af_report,
    parse_castle_file,
    translate_closure,
    verify_criterion,
    window_from_records,
)
from allostery import castle
from allostery.certificates import frac_str, parse_frac, record_ok
from allostery.errors import (
    BudgetExceededError,
    CertificateError,
    MeasureConditionError,
    RankMismatchError,
    TextParseError,
    WindowError,
)

from allostery.dynamics import DEFAULT_STATE_BUDGET, FiniteLevel

from conftest import HALF, fresh_rng, make_transversal_castle
from sampling import random_castle, random_chunked_castle, random_chunked_castle_file
from oracle import (
    defect_counts,
    fixed_states,
    is_transitive,
    tiling_witness,
    window_act,
    word_pattern,
)

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def cert288(d32, d9):
    return build_criterion([d32, d9])


@pytest.fixture(scope="module")
def w9_transversal(w9):
    return make_transversal_castle(w9)


def test_frac_round_trip():
    assert frac_str(Fraction(3, 4)) == "3/4"
    assert parse_frac("3/4") == Fraction(3, 4)
    with pytest.raises(CertificateError):
        parse_frac("1/0")
    with pytest.raises(CertificateError):
        parse_frac("spam")


def test_transitive_by_bfs(w288):
    """A window the level structure passes is one orbit by a window BFS."""
    result = certify_transitive(w288)
    assert result["status"] == "pass"
    assert result["method"] == "level-structure"
    assert w288.orbit(w288.identity_thread()).size == w288.size == 288


def test_transitive_by_level_escalation(w288):
    """A window past the state budget is certified the same way: no budget applies."""
    with pytest.raises(BudgetExceededError):
        w288.orbit(w288.identity_thread(), budget=100)
    result = certify_transitive(w288)
    assert result["status"] == "pass"
    assert result["method"] == "level-structure"
    assert "orbit_size" not in result


@pytest.mark.parametrize(
    "names",
    [
        ("d9",),
        ("d32",),
        ("d32", "d9"),
        ("d32", "d9", "d25"),
        ("d32", "d32"),
        ("d9", "d81"),
        ("d81", "d32", "d9"),
    ],
)
def test_level_structure_passes_exactly_on_transitive_windows(request, names):
    """Windows with pairwise distinct primes pass; a repeated prime fails."""
    window = Window([request.getfixturevalue(name) for name in names])
    result = certify_transitive(window)
    assert (result["status"] == "pass") == is_transitive(window)
    assert result["status"] == ("pass" if window.primes_distinct() else "fail")
    assert result["method"] == "level-structure"
    if result["status"] == "pass":
        assert window.orbit(window.identity_thread()).size == window.size


def _apply_twice(images):
    def wrong(self, i, xs):
        xs = list(xs)
        return [images(self, t, [x])[0] for t, x in zip(images(self, i, xs), xs)]

    return wrong


def _drop_last_lamp_group(images):
    def wrong(self, i, xs):
        out = []
        for t in images(self, i, xs):
            base, lamp = self.digits(t)
            lamp[-self.d :] = self.digits(i)[1][-self.d :]
            out.append(self._index_of(base, lamp))
        return out

    return wrong


@pytest.mark.parametrize("wrong", [_apply_twice, _drop_last_lamp_group])
def test_level_structure_fails_on_a_wrong_action(w288, monkeypatch, wrong):
    level_type = type(w288.levels[0])
    monkeypatch.setattr(level_type, "images", wrong(level_type.images))
    result = certify_transitive(w288)
    assert (result["status"], result["method"]) == ("fail", "level-structure")
    assert result["detail"].startswith("level 0: ")


def test_transitivity_negative_cases(d32):
    doubled = Window([d32, d32])
    assert not is_transitive(doubled)
    result = certify_transitive(doubled)
    assert (result["status"], result["method"]) == ("fail", "level-structure")
    assert result["detail"].startswith("levels 0 and 1 share the prime 2: ")
    cert = build_criterion([d32, d32])
    assert cert["transitivity"] == result
    assert cert["verdict"] == "invalid"


def test_criterion_certificate_valid(cert288):
    assert cert288["verdict"] == "valid"
    assert cert288["primes_distinct"]
    fractions = [Fraction(rec["fixed_fraction"]) for rec in cert288["records"]]
    epsilons = [Fraction(rec["epsilon"]) for rec in cert288["records"]]
    assert prod(fractions) == Fraction(1, 2) >= prod(1 - eps for eps in epsilons) == Fraction(1, 4)
    assert cert288["transitivity"]["status"] == "pass"
    assert cert288["stabilizer"]["fixers"] == ["{};(0)"]
    for rec in cert288["records"]:
        assert record_ok(rec) and rec["not_in_subgroup"] and rec["fraction_ok"] and rec["count_ok"]
    assert [rec["prime"] for rec in cert288["records"]] == [2, 3]
    assert [rec["index"] for rec in cert288["records"]] == [32, 9]


def test_verify_criterion_from_elements(group11):
    s = group11.parse_element("{(0):(1)};(0)")
    t = group11.parse_element("{};(1)")
    cert = verify_criterion([s, t], 1, 1, epsilon=HALF)
    assert cert["verdict"] == "valid"
    assert [rec["prime"] for rec in cert["records"]] == [2, 3]
    scheduled = verify_criterion([s, t], 1, 1)
    assert scheduled["verdict"] == "valid"
    assert [Fraction(rec["epsilon"]) for rec in scheduled["records"]] == [
        Fraction(1, 4),
        Fraction(1, 8),
    ]
    assert [rec["index"] for rec in scheduled["records"]] == [64, 27]


def test_criterion_invalid_epsilon(d32):
    starved = d32._replace(epsilon=Fraction(1, 8))
    cert = build_criterion([starved])
    assert cert["verdict"] == "invalid"
    assert not cert["records"][0]["fraction_ok"]
    assert Fraction(cert["records"][0]["fixed_fraction"]) < 1 - starved.epsilon


def test_criterion_invalid_duplicate_primes(d32, group11):
    twin = forge(group11.parse_element("{(0):(3)};(0)"), 2, HALF, 1, 1)
    cert = build_criterion([d32, twin])
    assert not cert["primes_distinct"]
    assert cert["verdict"] == "invalid"


def test_criterion_over_budget_skips_brute_check(group11):
    """Levels past the state budget get the same exact count as small ones."""
    gammas = group11.ball(2)[1:]
    cert = verify_criterion(gammas, 1, 1)
    assert cert["verdict"] == "valid"
    assert cert["transitivity"]["method"] == "level-structure"
    assert max(rec["index"] for rec in cert["records"]) > DEFAULT_STATE_BUDGET
    assert all(rec["count_ok"] for rec in cert["records"])


def test_criterion_round_trip(cert288, d32, d9):
    rec = json.loads(json.dumps(cert288))
    assert rec["kind"] == "criterion" and rec["v"] == 1
    assert check_criterion_certificate(rec) is True
    again = json.dumps(build_criterion([d32, d9]), sort_keys=True)
    assert again == json.dumps(cert288, sort_keys=True)


def test_criterion_check_rejects_tampering(cert288):
    rec = cert288
    for path, value in [
        (("records", 0, "index"), 64),
        (("records", 1, "fixed_fraction"), "1/3"),
        (("window_s_fixed_fraction",), "3/4"),
        (("verdict",), "invalid"),
    ]:
        broken = copy.deepcopy(rec)
        target = broken
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(CertificateError):
            check_criterion_certificate(broken)
    with pytest.raises(CertificateError):
        check_criterion_certificate({"kind": "criterion", "v": 99})
    with pytest.raises(CertificateError):
        check_criterion_certificate({"kind": "criterion", "v": 1, "window": "x"})


def test_criterion_check_of_invalid_and_over_budget(d32, d9):
    lowered = d32._replace(epsilon=Fraction(1, 8))
    invalid_rec = build_criterion([lowered])
    assert check_criterion_certificate(invalid_rec) is False
    rec = build_criterion([d32, d9])
    assert [r["count_ok"] for r in rec["records"]] == [True, True]
    assert check_criterion_certificate(rec) is True
    broken = copy.deepcopy(rec)
    broken["records"][0]["count_ok"] = False
    with pytest.raises(CertificateError):
        check_criterion_certificate(broken)


def _flat_tables(window):
    return [window.flat_table(g) for g in range(len(window.group.generators()))]


def _flat(window, states):
    return frozenset(map(window.flat_index, states))


def test_atoms_of_extremes(w32):
    singleton = boolean_atoms([{0}], _flat_tables(w32))
    assert singleton == [frozenset({i}) for i in range(32)]
    whole = boolean_atoms([set(range(32))], _flat_tables(w32))
    assert whole == [frozenset(range(32))]


def test_atoms_partition_and_refine(w32, group11):
    s1 = group11.parse_element("{(0):(1)};(0)")
    fixed = fixed_states(w32, [s1])
    atoms = boolean_atoms([_flat(w32, fixed)], _flat_tables(w32))
    sizes = {len(a) for a in atoms}
    assert len(sizes) == 1
    assert sum(len(a) for a in atoms) == 32
    assert frozenset().union(*atoms) == frozenset(range(32))
    assert [min(a) for a in atoms] == sorted(min(a) for a in atoms)
    for translate in map(lambda t: _flat(w32, t), translate_closure(w32, [fixed])):
        covering = [a for a in atoms if a <= translate]
        assert frozenset().union(*covering) == translate if covering else not translate


def test_translate_budget(w32):
    lopsided = frozenset({(0,), (1,), (5,)})
    with pytest.raises(BudgetExceededError) as info:
        translate_closure(w32, [lopsided], budget=3)
    assert info.value.what == "translates"


def _pieces(window, rec):
    return [frozenset(map(window.parse_state, piece)) for piece in rec["pieces"]]


def test_comparison_single_piece(w9):
    rec = comparison_certificate([(0,)], [(3,), (6,)], w9)
    assert _pieces(w9, rec) == [frozenset({(0,)})]
    assert rec["words"] == [[2]]
    assert rec["kind"] == "comparison"
    assert check_comparison_certificate(json.loads(json.dumps(rec))) is True


def test_comparison_multi_piece(w9):
    cert = comparison_certificate([(0,), (1,)], [(3,), (4,), (6,)], w9)
    pieces = _pieces(w9, cert)
    assert pieces == [frozenset({(0,)}), frozenset({(1,)})]
    assert sum(len(p) for p in pieces) == 2
    for piece, word in zip(pieces, cert["words"]):
        mover = w9.group.word_element(word)
        image = {w9.prepare(mover).apply(s) for s in piece}
        assert image <= {(3,), (4,), (6,)}
    assert check_comparison_certificate(cert) is True


def test_comparison_requires_smaller_a(w9):
    with pytest.raises(MeasureConditionError):
        comparison_certificate([(0,), (1,)], [(3,), (4,)], w9)
    with pytest.raises(MeasureConditionError):
        comparison_certificate([(0,)], [(3,)], w9)


def test_comparison_requires_transitive_window(d32):
    doubled = Window([d32, d32])
    with pytest.raises(CertificateError):
        comparison_certificate([(0, 0)], [(1, 1), (2, 2)], doubled)


def test_comparison_errors_come_in_order(d32, monkeypatch):
    """The measure condition, then the state budget before any table is
    built, then transitivity."""
    doubled = Window([d32, d32])
    built = []
    index_map = FiniteLevel.index_map
    monkeypatch.setattr(
        FiniteLevel, "index_map", lambda level, x: built.append(x) or index_map(level, x)
    )
    with pytest.raises(MeasureConditionError):
        comparison_certificate([(0, 0), (1, 1)], [(2, 2)], doubled, budget=1)
    with pytest.raises(BudgetExceededError):
        comparison_certificate([(0, 0)], [(1, 1), (2, 2)], doubled, budget=doubled.size - 1)
    assert built == []
    with pytest.raises(CertificateError, match="transitive"):
        comparison_certificate([(0, 0)], [(1, 1), (2, 2)], doubled, budget=doubled.size)


def test_comparison_check_rejects_bad_records(w9):
    rec = comparison_certificate([(0,), (1,)], [(3,), (4,), (6,)], w9)
    shrunk = copy.deepcopy(rec)
    shrunk["B"] = shrunk["B"][1:]
    assert check_comparison_certificate(shrunk) is False
    collided = copy.deepcopy(rec)
    collided["words"][1] = [2, 1]
    assert check_comparison_certificate(collided) is False
    repeated = copy.deepcopy(rec)
    repeated["pieces"][1] = repeated["pieces"][0]
    assert check_comparison_certificate(repeated) is False
    mismatched = copy.deepcopy(rec)
    mismatched["words"] = mismatched["words"][:1]
    with pytest.raises(CertificateError):
        check_comparison_certificate(mismatched)
    with pytest.raises(CertificateError):
        check_comparison_certificate({"kind": "comparison", "v": 1})
    with pytest.raises(CertificateError):
        check_comparison_certificate({"kind": "nope", "v": 1})


def test_comparison_needs_no_translate_budget(w32):
    a, b = {(0,)}, {(1,), (2,), (5,)}
    with pytest.raises(BudgetExceededError):
        translate_closure(w32, [a, b], budget=w32.size)
    cert = comparison_certificate(a, b, w32, budget=w32.size)
    assert check_comparison_certificate(cert) is True


def _tamper_d(rec):
    rec["d"] = 2


def _tamper_m(rec):
    rec["m"] = 2


def _tamper_a_duplicate(rec):
    rec["A"].insert(0, rec["A"][0])


def _tamper_b_order(rec):
    rec["B"].reverse()


def _tamper_piece_duplicate(rec):
    rec["pieces"][0] *= 2


def _tamper_letter_too_large(rec):
    rec["words"][0] = [99]


def _tamper_letter_negative(rec):
    rec["words"][0] = [-1]


def _tamper_letter_fraction(rec):
    rec["words"][0] = [rec["words"][0][0] + 0.5]


def _tamper_d_float(rec):
    rec["d"] = 1.0


def _tamper_d_bool(rec):
    rec["d"] = True


def _tamper_extra_key(rec):
    rec["note"] = "trust me"


def _tamper_epsilon_unreduced(rec):
    rec["window"][0]["epsilon"] = "2/4"


def _tamper_empty_piece(rec):
    rec["pieces"].append([])
    rec["words"].append([])


@pytest.mark.parametrize(
    "tamper",
    [
        _tamper_d,
        _tamper_m,
        _tamper_a_duplicate,
        _tamper_b_order,
        _tamper_piece_duplicate,
        _tamper_letter_too_large,
        _tamper_letter_negative,
        _tamper_letter_fraction,
        _tamper_d_float,
        _tamper_d_bool,
        _tamper_extra_key,
        _tamper_epsilon_unreduced,
        _tamper_empty_piece,
    ],
)
def test_comparison_check_rejects_tampered_fields(w9, tamper):
    rec = comparison_certificate([(0,), (1,)], [(3,), (4,), (6,)], w9)
    assert check_comparison_certificate(copy.deepcopy(rec)) is True
    broken = copy.deepcopy(rec)
    tamper(broken)
    with pytest.raises(CertificateError):
        check_comparison_certificate(broken)


def test_transversal_audit(w9, w9_transversal, group11):
    s1 = group11.parse_element("{(0):(1)};(0)")
    audit = audit_castle(w9_transversal, s1, w9)
    assert Fraction(audit["fix_measure"]) == Fraction(2, 3)
    assert Fraction(audit["bound"]) == Fraction(14, 9)
    assert audit["inequality_ok"] and audit["ok"]
    (tower,) = audit["towers"]
    assert tower["base_size"] == 1 and tower["shape_size"] == 9
    assert Fraction(tower["defect"]) == Fraction(14, 9)
    assert audit["epsilon"] is None and audit["defects_within_epsilon"] is None


def test_audit_tolerance_flag(w9, w9_transversal, group11):
    s1 = group11.parse_element("{(0):(1)};(0)")
    roomy = Castle(towers=w9_transversal.towers, epsilon=Fraction(2))
    assert audit_castle(roomy, s1, w9)["defects_within_epsilon"] is True
    tight = Castle(towers=w9_transversal.towers, epsilon=HALF)
    audit = audit_castle(tight, s1, w9)
    assert audit["defects_within_epsilon"] is False
    assert audit["inequality_ok"] and not audit["ok"]


def test_overlap_witness(w9, group11):
    orb = w9.orbit(w9.identity_thread())
    words = [orb.words[s] for s in orb.order]
    shapes = [w9.group.word_element(w) for w in words]
    castle = Castle(
        towers=(
            Tower(base=frozenset({orb.start}), shapes=tuple(shapes[0:5])),
            Tower(base=frozenset({orb.start}), shapes=tuple(shapes[4:9])),
        )
    )
    rec = audit_castle(castle, group11.parse_element("{};(1)"), w9)
    assert (rec["well_formed"], rec["error"]) == (False, "castle translates overlap")
    witness = rec["witness"]
    assert witness["state"] == w9.state_text(orb.order[4])
    assert witness["first"]["tower"] == 0 and witness["second"]["tower"] == 1


def test_covering_witness(w9, w9_transversal, group11):
    (tower,) = w9_transversal.towers
    holed = Castle(towers=(Tower(base=tower.base, shapes=tower.shapes[:-1]),))
    rec = audit_castle(holed, group11.parse_element("{};(1)"), w9)
    assert rec["error"] == "castle translates do not cover the state space"
    assert "missing_state" in rec["witness"]


def test_duplicate_shape_witness(w9, group11):
    """A repeated shape gives two equal translates: the overlap witness names
    the shape's text twice."""
    e = w9.group.identity()
    castle = Castle(towers=(Tower(base=frozenset({(0,)}), shapes=(e, e)),))
    rec = audit_castle(castle, group11.parse_element("{};(1)"), w9)
    assert rec["error"] == "castle translates overlap"
    assert rec["witness"] == {
        "state": w9.state_text((0,)),
        "first": {"tower": 0, "shape": "{};(0)"},
        "second": {"tower": 0, "shape": "{};(0)"},
    }


def test_duplicate_shape_witness_is_first_repeat_by_position(w9, w9_transversal, group11):
    """The transversal of W9 with a shape repeated after it (in a second
    chunk of images), and two shapes repeated in reverse order: the witness
    is the first collision in shape-major order, which names the shape that
    repeats first by position, at its translate."""
    (tower,) = w9_transversal.towers
    shapes, (v,) = tower.shapes, tower.base
    gamma = group11.parse_element("{};(1)")
    for repeated, dup in (
        (shapes + shapes[4:5], shapes[4]),
        (shapes[:2] + (shapes[1], shapes[0]), shapes[1]),
    ):
        castle = Castle(towers=(Tower(base=tower.base, shapes=repeated),))
        rec = audit_castle(castle, gamma, w9)
        assert rec["error"] == "castle translates overlap"
        assert rec["witness"] == {
            "state": w9.state_text(window_act(w9, dup, v)),
            "first": {"tower": 0, "shape": dup.text()},
            "second": {"tower": 0, "shape": dup.text()},
        }


def test_audit_rejects_a_tower_with_no_base_states(w9, w9_transversal, group11):
    """A tower without base states covers nothing, so it is malformed even
    when the other towers tile."""
    (tower,) = w9_transversal.towers
    castle = Castle(towers=(tower, Tower(base=frozenset(), shapes=tower.shapes[:1])))
    rec = audit_castle(castle, group11.parse_element("{(0):(1)};(0)"), w9)
    assert rec["error"] == "tower has no base states"
    assert rec["witness"] == {"tower": 1}


MALFORMED = {
    "overlap": "castle translates overlap",
    "missing state": "castle translates do not cover the state space",
    "no shapes": "tower has no shapes",
    "no base states": "tower has no base states",
    "oversize": "castle translates overlap",
}


@pytest.mark.parametrize("kind", sorted(MALFORMED))
def test_a_malformed_castle_audits_as_a_record_that_checks_as_failed(w9, w9_transversal, kind):
    """The audit of a castle that is not well formed returns its record, not
    an exception: the inputs, ``well_formed: false``, the error and a
    witness.  The check reruns it to the same record and returns False."""
    (tower,) = w9_transversal.towers
    (v,) = tower.base
    towers = {
        "overlap": (tower, tower),
        "missing state": (Tower(tower.base, tower.shapes[:-1]),),
        "no shapes": (tower, Tower(tower.base, ())),
        "no base states": (tower, Tower(frozenset(), tower.shapes[:1])),
        "oversize": (Tower(tower.base | {window_act(w9, tower.shapes[1], v)}, tower.shapes),),
    }[kind]
    rec = audit_castle(Castle(towers=towers), w9.group.parse_element("{};(1)"), w9)
    assert list(rec)[5:] == ["well_formed", "error", "witness"]
    assert (rec["well_formed"], rec["error"]) == (False, MALFORMED[kind]) and rec["witness"]
    assert check_castle_audit(json.loads(json.dumps(rec))) is False


def test_no_malformed_castle_error_is_exported():
    """A malformed castle is an audit record, so the package exports no
    exception for it."""
    import allostery
    from allostery import errors

    assert not [name for name in allostery.__all__ if "Malformed" in name]
    assert not hasattr(allostery, "MalformedCastleError")
    assert not hasattr(errors, "MalformedCastleError")


@pytest.mark.parametrize("repeat_first", [True, False])
def test_audit_names_the_first_bad_shape(w288, group11, repeat_first):
    """A tower with both a repeated shape and a shape of the wrong rank fails
    on the rank, wherever the repeat stands: ranks are checked before any
    translate is built, and a repeat shows only as overlapping translates."""
    e, t1 = group11.identity(), group11.shift_generator(0)
    wrong = WreathElement(Lamp(), (1, 0))
    shapes = (e, t1, t1, wrong) if repeat_first else (e, t1, wrong, t1)
    castle = Castle(towers=(Tower(base=frozenset({(0, 0)}), shapes=shapes),))
    with pytest.raises(RankMismatchError) as info:
        audit_castle(castle, group11.parse_element("{};(1)"), w288)
    assert str(info.value) == "shift rank 2 != m=1"


@pytest.mark.parametrize(
    "shape",
    [
        WreathElement(Lamp(), (1, 0)),
        WreathElement(Lamp.of({(0, 0): (1,)}), (0,)),
        WreathElement(Lamp.of({(0,): (1, 1)}), (0,)),
    ],
    ids=["shift", "position", "value"],
)
def test_audit_rejects_a_wrong_rank_shape(w288, group11, shape):
    castle = Castle(towers=(Tower(base=frozenset({(0, 0)}), shapes=(group11.identity(), shape)),))
    with pytest.raises(RankMismatchError):
        audit_castle(castle, group11.parse_element("{};(1)"), w288)


@pytest.mark.parametrize("state", [(0,), (0, 0, 0), (32, 0), (0, -1)])
def test_audit_rejects_a_base_state_outside_the_window(w288, group11, state):
    castle = Castle(towers=(Tower(base=frozenset({state}), shapes=(group11.identity(),)),))
    with pytest.raises(WindowError):
        audit_castle(castle, group11.parse_element("{};(1)"), w288)


def test_overlap_witness_follows_shape_major_order(w288, group11):
    # Base states v < t1.v and shapes (e, t1): shape-major order visits e.v,
    # e.t1.v, then t1.v, which collides with e's translate of t1.v.  State
    # order would have met t1.v under t1 first and named the shapes the other
    # way round.
    e, t1 = group11.identity(), group11.shift_generator(0)
    v = (0, 0)
    tv = w288.prepare(t1).apply(v)
    assert v < tv
    castle = Castle(towers=(Tower(base=frozenset({v, tv}), shapes=(e, t1)),))
    witness = audit_castle(castle, group11.parse_element("{};(1)"), w288)["witness"]
    assert witness == {
        "state": w288.state_text(tv),
        "first": {"tower": 0, "shape": e.text()},
        "second": {"tower": 0, "shape": t1.text()},
    }
    assert witness == tiling_witness(castle, w288)


def test_missing_state_is_the_least_uncovered_index(w288, group11):
    castle = make_transversal_castle(w288)
    (tower,) = castle.towers
    orb = w288.orbit(w288.identity_thread())
    dropped = [250, 40, 7]
    assert sorted(w288.flat_index(orb.order[k]) for k in dropped)[0] != w288.flat_index(
        orb.order[dropped[0]]
    )
    kept = tuple(x for k, x in enumerate(tower.shapes) if k not in dropped)
    holed = Castle(towers=(Tower(base=tower.base, shapes=kept),))
    witness = audit_castle(holed, group11.parse_element("{};(1)"), w288)["witness"]
    least = min(w288.flat_index(orb.order[k]) for k in dropped)
    assert witness == {"missing_state": w288.state_text(w288.state_at(least))}
    assert witness == tiling_witness(holed, w288)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tiling_witness_matches_tuple_oracle(w288, group11, data):
    """The audit's malformed-castle witness is the tuple oracle's, on towers
    that may repeat a shape."""
    words = st.lists(st.integers(0, 3), max_size=6).map(group11.word_element)
    towers = data.draw(
        st.lists(
            st.builds(
                Tower,
                base=st.frozensets(st.integers(0, w288.size - 1).map(w288.state_at), min_size=1, max_size=4),
                shapes=st.lists(words, min_size=1, max_size=5).map(tuple),
            ),
            min_size=1,
            max_size=3,
        ),
        label="towers",
    )
    castle = Castle(towers=tuple(towers))
    expected = tiling_witness(castle, w288)
    gamma = group11.parse_element("{(0):(1)};(0)")
    assert audit_castle(castle, gamma, w288).get("witness") == expected


def pair_castle(window, gamma):
    """Two towers over the identity thread v.  The first holds pairs w,
    gamma^-1 w, where w is the tree word of a state q that gamma^-1 moves and
    neither q nor gamma^-1 q is in an earlier pair; the second holds the
    tree word of every other state.  So at least half the first tower's
    shapes s have gamma^-1 s in the tower."""
    inv = gamma.inverse()
    v = window.identity_thread()
    orb = window.orbit(v)
    rest = {q: window.group.word_element(orb.words[q]) for q in orb.order}
    pairs = []
    for q in orb.order:
        p = window_act(window, inv, q)
        if q in rest and p in rest and p != q:
            pairs += [rest[q], inv * rest[q]]
            del rest[q], rest[p]
    shapes = [tuple(pairs), tuple(rest.values())]
    return Castle(towers=tuple(Tower(base=frozenset({v}), shapes=s) for s in shapes if s))


def defect_record_counts(castle, gamma, window):
    return [t["defect_count"] for t in audit_castle(castle, gamma, window)["towers"]]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["W32", "W81", "W288"]), st.randoms(use_true_random=False))
def test_defects_read_off_the_tiling_match_the_products(w32, d81, w288, name, rng):
    """For every nonidentity element of ball(2), the audit's defect counts
    equal |KS △ S| from the products gamma^-1 s, on a random castle whose
    towers have one to three base states and on one of ``random_castle``."""
    window = {"W32": w32, "W81": Window([d81]), "W288": w288}[name]
    for castle in (random_chunked_castle(rng, window), random_castle(rng, window)):
        for gamma in window.group.ball(2)[1:]:
            assert defect_record_counts(castle, gamma, window) == defect_counts(castle, gamma)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["W32", "W81", "W288"]), st.randoms(use_true_random=False), st.data())
def test_half_the_defect_counts_bound_the_fixed_measure(w32, d81, w288, name, rng, data):
    """The one-sided castle lemma (ROADMAP item 4): if gamma != e fixes s v
    with v in V_i and s in S_i, then gamma s is not in S_i, as the distinct
    translates (gamma s) V_i and s V_i would both hold s v.  So the fixed
    measure is at most the sum of |S_i minus gamma^-1 S_i| mu(V_i), which is
    half of each recorded defect count."""
    window = {"W32": w32, "W81": Window([d81]), "W288": w288}[name]
    ball = window.group.ball(2)[1:]
    for castle in (random_chunked_castle(rng, window), random_castle(rng, window)):
        gamma = data.draw(st.sampled_from(ball), label="gamma")
        rec = audit_castle(castle, gamma, window)
        counts = [t["defect_count"] for t in rec["towers"]]
        assert all(count % 2 == 0 for count in counts)
        one_sided = sum(
            count // 2 * Fraction(t["base_measure"]) for count, t in zip(counts, rec["towers"])
        )
        assert one_sided >= Fraction(rec["fix_measure"])


def test_defects_of_the_fiber_castle_and_of_pair_towers(w288):
    """The same on the golden fiber castle and on pair castles, for every
    nonidentity element of ball(3).  In a pair tower at least half the
    shapes s have gamma^-1 s in the tower, so the audit compares that many
    products with the owner of gamma^-1 (s v) and finds them equal."""
    fibers = parse_castle_file((GOLDEN / "castle_w288_fibers.txt").read_text(), w288)
    for gamma in w288.group.ball(3)[1:]:
        assert defect_record_counts(fibers, gamma, w288) == defect_counts(fibers, gamma)
        castle = pair_castle(w288, gamma)
        counts = defect_record_counts(castle, gamma, w288)
        assert counts == defect_counts(castle, gamma)
        assert counts[0] <= len(castle.towers[0].shapes)


def test_castle_file_round_trip(w9, group11):
    text = "\n".join(
        [
            "# one full tower over the nine cosets",
            "",
            "V= (0)|((0)) ; S= e s1 s1.s1 t1 t1.s1 t1.s1.s1 t1.t1 t1.t1.s1 t1.t1.s1.s1",
        ]
    )
    castle = parse_castle_file(text, w9)
    assert len(castle.towers) == 1
    assert len(castle.towers[0].shapes) == 9
    s1 = group11.parse_element("{(0):(1)};(0)")
    audit = audit_castle(castle, s1, w9)
    assert audit["inequality_ok"]
    assert Fraction(audit["fix_measure"]) == Fraction(2, 3)
    rec = castle.to_dict(w9)
    assert Castle.from_dict(rec, w9) == castle


def test_castle_file_errors(w9):
    cases = [
        "V= (0)|((0))",
        "S= e ; V= (0)|((0))",
        "V= ; S= e",
        "V= (0)|((0)) ; S= zap",
        "V= (9)|((0)) ; S= e",
        "# nothing here",
    ]
    for bad in cases:
        with pytest.raises(TextParseError):
            parse_castle_file(bad, w9)
    try:
        parse_castle_file("# fine\nV= oops ; S= e", w9)
    except TextParseError as exc:
        assert exc.line == 2


@pytest.mark.parametrize(
    "text, message, line",
    [
        ("V= (0)|((0)) ; S= e s1\nV= (0)|((0)) ; S= t1 s1.zap.T9 q", "unknown generator 'zap'", 2),
        ("V= (0)|((0)) ; S= s1.q\nV= (9)|((0)) ; S= e", "unknown generator 'q'", 1),
        ("V= (9)|((0)) ; S= zap", "base coordinate 9 out of range", 1),
        ("V= (0)|((0)) ; S= e.s1", "unknown generator 'e'", 1),
        ("V= (0)|((0)) ; S= s1.e", "unknown generator 'e'", 1),
        ("V= (0)|((0)) ; S= s1.", "unknown generator ''", 1),
        ("V= (0)|((0)) ; S= s1..t1", "unknown generator ''", 1),
        ("# c\n\nV= (0)|((0)) ; S= t1.t1 T1.S1.x1", "unknown generator 'x1'", 3),
        ("V= (0)|((0)) ; S= e\nV= (0)|((0)) ; S= S1.t2", "unknown generator 't2'", 2),
        ("V= (0)|((0)) ; S= s1 q.s1", "unknown generator 'q'", 1),
        ("V= (0)|((0)) ; S= e t1.zap\nV= (0)|((0)) S= e", "unknown generator 'zap'", 1),
        ("V= (0)|((0)) ; S= s1 s1.s1.", "unknown generator ''", 1),
    ],
)
def test_castle_file_names_the_first_fault_in_file_order(w9, text, message, line):
    """Lines are checked in file order, states before words and words
    letter by letter, so the error names the first unknown token."""
    with pytest.raises(TextParseError) as info:
        parse_castle_file(text, w9)
    assert (info.value.message, info.value.line) == (message, line)


@pytest.mark.parametrize("word", ["t1..t1", ".t1", "t1.", "e.t1", "x1"])
def test_castle_file_word_errors_are_those_of_parse_word(w9, word):
    """A word the castle-file pattern rejects fails with the error that
    parse_word gives it, at the word's line."""
    with pytest.raises(TextParseError) as expected:
        w9.group.parse_word(word, 2)
    with pytest.raises(TextParseError) as info:
        parse_castle_file(f"V= (0)|((0)) ; S= e t1\nV= (0)|((0)) ; S= s1 {word} T1", w9)
    assert str(info.value) == str(expected.value)
    assert (info.value.message, info.value.line) == (expected.value.message, 2)


WORD_PIECES = ["s1", "S1", "t1", "T1", "s2", "t2", "s10", "S10", "e", "x1", "1", "s", ""]
WORDS = st.one_of(
    st.lists(st.sampled_from(WORD_PIECES), min_size=1, max_size=4).map(".".join),
    st.lists(st.sampled_from(WORD_PIECES + ["."]), min_size=1, max_size=6).map("".join),
).filter(bool)
LATER_FAULTS = {
    None: "",
    "form": "V= {v} S= e\n",
    "state": "V= oops ; S= e\n",
}


@lru_cache(maxsize=None)
def ranked_window(d, m):
    """A one-level window of ranks d and m."""
    gamma = WreathElement(Lamp(), (1,) + (0,) * (m - 1))
    return Window([forge(gamma, 2, HALF, d, m)])


@pytest.mark.parametrize("ranks", [(1, 1), (2, 1), (10, 2)])
@given(WORDS, st.booleans(), st.sampled_from(list(LATER_FAULTS)))
@example("s1.e", True, None)
@example("t1.s1.", True, "form")
def test_castle_file_accepts_the_words_of_the_word_pattern(ranks, word, tail_in_file, fault):
    """A castle file accepts a word exactly when the word-pattern oracle
    does, whether or not the word's tail is also a word of the file, and
    gives it the element of its letters; otherwise it raises parse_word's
    error at the word's line, before a fault of form or state on a later
    line."""
    window = ranked_window(*ranks)
    group = window.group
    v = window.state_text(window.identity_thread())
    tail = word.partition(".")[2]
    text = f"V= {v} ; S= e s1\nV= {v} ; S= t1 {word} T1\n"
    if tail_in_file and tail:
        text += f"V= {v} ; S= {tail}\n"
    text += LATER_FAULTS[fault].format(v=v)
    if not word_pattern(group).fullmatch(word):
        with pytest.raises(TextParseError) as expected:
            group.parse_word(word, 2)
        with pytest.raises(TextParseError) as info:
            parse_castle_file(text, window)
        assert str(info.value) == str(expected.value)
        assert (info.value.message, info.value.line) == (expected.value.message, 2)
    elif fault is not None:
        with pytest.raises(TextParseError) as expected:
            parse_castle_file(LATER_FAULTS[fault].format(v=v), window)
        with pytest.raises(TextParseError) as info:
            parse_castle_file(text, window)
        assert (info.value.message, info.value.line) == (
            expected.value.message,
            len(text.splitlines()),
        )
    else:
        castle = parse_castle_file(text, window)
        assert castle.towers[1].shapes[1] == group.word_element(group.parse_word(word))


@pytest.fixture(scope="module")
def w7200_castle(d32, d9, d25):
    """W7200, a castle file of its Schreier words from a seeded start state,
    shuffled and dealt into four towers over that state, and the castle of
    those words evaluated letter by letter."""
    window = Window([d32, d9, d25])
    group = window.group
    rng = fresh_rng(21)
    orb = window.orbit(window.state_at(rng.randrange(window.size)))
    words = [orb.words[s] for s in orb.order]
    rng.shuffle(words)
    towers = [words[i::4] for i in range(4)]
    base = window.state_text(orb.start)
    text = "".join(
        f"V= {base} ; S= " + " ".join(map(group.word_name, tower)) + "\n" for tower in towers
    )
    built = Castle(
        towers=tuple(
            Tower(base=frozenset({orb.start}), shapes=tuple(map(group.word_element, tower)))
            for tower in towers
        )
    )
    return window, text, built


def test_seeded_w7200_castle_audits_as_its_word_elements(w7200_castle):
    """The audit of a castle file of shuffled Schreier words on W7200, whose
    shapes come from one product per word, equals the audit of the castle
    whose shapes are the words evaluated letter by letter."""
    window, text, built = w7200_castle
    parsed = parse_castle_file(text, window)
    assert parsed == built
    gamma = window.group.parse_element("{(0):(1)};(0)")
    record = audit_castle(parsed, gamma, window)
    assert record == audit_castle(built, gamma, window)
    assert record["ok"] and check_castle_audit(record)


def test_the_seeded_w7200_castle_takes_no_general_product(w7200_castle, monkeypatch):
    """Reading the castle file and auditing it multiply by a fixed element
    (a generator, then gamma^-1) through that element's left multiplier:
    neither calls the general product WreathElement.__mul__."""
    window, text, _ = w7200_castle
    gamma = window.group.parse_element("{(0):(1)};(0)")
    products = []
    mul = WreathElement.__mul__

    def counted(self, other):
        products.append(self)
        return mul(self, other)

    monkeypatch.setattr(WreathElement, "__mul__", counted)
    castle = parse_castle_file(text, window)
    assert products == []
    record = audit_castle(castle, gamma, window)
    assert products == []
    assert record["ok"]


def test_the_seeded_w7200_castle_builds_each_shift_block_once(w7200_castle, monkeypatch):
    """The images of the four towers' shapes, which share one base state, build
    one image block per level and distinct shift (FiniteLevel._index_of spells
    each): 121 shifts on 3 levels, where blocks kept per call built 1,452.  The
    audit of that castle still checks."""
    window, _, built = w7200_castle
    window = Window(window.data)  # levels that keep no tables yet
    spelled = []
    index_of = FiniteLevel._index_of

    def counted(self, base, lamp):
        spelled.append(self)
        return index_of(self, base, lamp)

    monkeypatch.setattr(FiniteLevel, "_index_of", counted)
    (v,) = built.towers[0].base
    for tower in built.towers:
        assert tower.base == {v}
        window.images(v, tower.shapes)
    shifts = {shape.shift for tower in built.towers for shape in tower.shapes}
    assert len(spelled) == len(shifts) * len(window.levels) == 363
    monkeypatch.undo()
    record = audit_castle(built, window.group.parse_element("{(0):(1)};(0)"), window)
    assert check_castle_audit(json.loads(json.dumps(record)))


def schreier_castle_file(window, rng, keep, extra):
    """Schreier-tree words of the window in shuffled order, each kept with
    probability keep (so some tails are missing), plus the extra words, cut
    into at most four towers over the identity thread."""
    orb = window.orbit(window.identity_thread())
    words = [window.group.word_name(orb.words[s]) for s in orb.order]
    words = [w for w in words if rng.random() < keep] + extra
    rng.shuffle(words)
    words = words or ["e"]
    cuts = sorted(rng.sample(range(1, len(words)), min(3, len(words) - 1)))
    chunks = [words[a:b] for a, b in zip([0] + cuts, cuts + [len(words)])]
    base = window.state_text(window.identity_thread())
    return "".join(f"V= {base} ; S= {' '.join(chunk)}\n" for chunk in chunks)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.data())
def test_castle_words_match_letter_by_letter(w288, rng, data):
    """Shapes parsed from a castle file equal the words evaluated letter by
    letter: Schreier-tree words in shuffled order with some of them deleted
    (so some tails are missing), plus random words.  The audit, which walks
    the towers whose tails are all castle words, gives the record, malformed
    or not, of the same castle read back from its record, which it takes
    through Window.images."""
    group = w288.group
    extra = data.draw(
        st.lists(st.lists(st.integers(0, 3), max_size=10).map(group.word_name), max_size=30),
        label="random words",
    )
    text = schreier_castle_file(w288, rng, data.draw(st.floats(0, 1), label="keep"), extra)
    castle = parse_castle_file(text, w288)
    lines = [line.split("S=")[1].split() for line in text.splitlines()]
    assert [list(t.shapes) for t in castle.towers] == [
        [group.word_element(group.parse_word(w)) for w in words] for words in lines
    ]
    gamma = data.draw(st.sampled_from(group.ball(2)[1:]), label="gamma")
    assert audit_castle(castle, gamma, w288) == audit_castle(from_record(castle, w288), gamma, w288)


def from_record(castle, window):
    """The castle read back from its record: towers given as elements."""
    return Castle.from_dict(castle.to_dict(window), window)


@pytest.mark.parametrize("gamma", range(1, 17))
def test_walked_fiber_castle_audits_as_its_record(w288, gamma, monkeypatch):
    """The golden fiber castle (16 base states per tower, every tail a
    castle word) is walked, and audits as its record at each gamma of the
    radius-2 ball."""
    counts = count_translates(monkeypatch)
    castle = parse_castle_file((GOLDEN / "castle_w288_fibers.txt").read_text(), w288)
    element = w288.group.ball(2)[gamma]
    walked = audit_castle(castle, element, w288)
    assert counts["walk"] and not counts["images"]
    assert walked == audit_castle(from_record(castle, w288), element, w288)


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False), st.data())
def test_walked_chunked_castle_audits_as_its_record(w288, rng, data):
    """random_chunked_castle, written as a castle file, parses to the same
    castle, and the walked audit gives the record of its elements."""
    seed = rng.random()
    castle = parse_castle_file(random_chunked_castle_file(random.Random(seed), w288), w288)
    built = random_chunked_castle(random.Random(seed), w288)
    assert castle == built
    gamma = data.draw(st.sampled_from(w288.group.ball(2)[1:]), label="gamma")
    assert audit_castle(castle, gamma, w288) == audit_castle(built, gamma, w288)


def count_translates(monkeypatch):
    """Count the translates that Window.images and the castle walk build,
    and keep the walk's memos."""
    counts = {"images": [], "walk": []}
    images, walk = Window.images, castle._walk

    def counted_images(self, state, xs):
        counts["images"].append(len(xs))
        return images(self, state, xs)

    def counted_walk(tower, base, window, tables, memos):
        counts["walk"].append(len(base) * len(tower.shapes))
        counts["memos"] = memos
        return walk(tower, base, window, tables, memos)

    monkeypatch.setattr(Window, "images", counted_images)
    monkeypatch.setattr(castle, "_walk", counted_walk)
    return counts


def test_a_castle_with_more_translates_than_states_is_not_walked(w288, group11, monkeypatch):
    """A castle file whose translates outnumber the states cannot tile; it
    fails with the first overlap in shape-major order after one chunk of
    images per base state, and is never walked.  The same words in three
    towers over one base state tile and are walked, each word once."""
    counts = count_translates(monkeypatch)
    orb = w288.orbit(w288.identity_thread())
    names = [group11.word_name(orb.words[s]) for s in orb.order]
    words = " ".join(names)
    v = w288.state_text(orb.order[0])
    gamma = group11.parse_element("{(0):(1)};(0)")
    text = "".join(f"V= {v} ; S= {' '.join(names[i::3])}\n" for i in range(3))
    walked = parse_castle_file(text, w288)
    assert audit_castle(walked, gamma, w288)["ok"]
    assert counts.pop("walk") == [w288.size // 3] * 3 and counts.pop("images") == []
    # One memo: the base state and each nonempty word (all but "e").
    assert [len(memo) for memo in counts.pop("memos").values()] == [w288.size]
    counts.update(images=[], walk=[])
    oversize = parse_castle_file(f"V= {v} {w288.state_text(orb.order[5])} ; S= {words}", w288)
    assert audit_castle(oversize, gamma, w288)["witness"] == tiling_witness(oversize, w288)
    assert counts == {"images": [w288.size // 2] * 2, "walk": []}


def test_a_tower_with_a_missing_tail_is_not_walked(w288, monkeypatch):
    """The Schreier words of W288 in two towers over one base state, with
    the word at position k deleted, which is the tail of a later word: the
    tower of the shorter words is walked; the other, holding that later
    word, takes Window.images.  The record names the missing state, as the
    record of the castle read back from its record does."""
    counts = count_translates(monkeypatch)
    orb = w288.orbit(w288.identity_thread())
    names = [w288.group.word_name(orb.words[s]) for s in orb.order]
    tails = {name.partition(".")[2] for name in names}
    k = next(i for i in range(len(names) // 2, len(names)) if names[i] in tails)
    v = w288.state_text(w288.identity_thread())
    text = f"V= {v} ; S= {' '.join(names[:k])}\nV= {v} ; S= {' '.join(names[k + 1 :])}\n"
    castle = parse_castle_file(text, w288)
    gamma = w288.group.parse_element("{(0):(1)};(0)")
    record = audit_castle(castle, gamma, w288)
    assert counts["walk"] == [k] and counts["images"] == [len(names) - k - 1]
    assert record["witness"] == {"missing_state": w288.state_text(orb.order[k])}
    assert record == audit_castle(from_record(castle, w288), gamma, w288)


def test_castle_read_against_other_ranks_is_checked_and_not_walked(w9, monkeypatch):
    """A castle read against a d = m = 1 window and audited on a d = 2
    window has shapes of the wrong rank: the audit checks them and raises
    RankMismatchError before any translate is built."""
    counts = count_translates(monkeypatch)
    window = Window([forge(WreathGroup(2, 1).parse_element("{};(1)"), 3, HALF, 2, 1)])
    castle = parse_castle_file("V= (0)|((0)) ; S= e t1 s1 T1", w9)
    with pytest.raises(RankMismatchError):
        audit_castle(castle, window.group.parse_element("{};(1)"), window)
    assert counts == {"images": [], "walk": []}


def test_audit_round_trip(w9, w9_transversal, group11):
    s1 = group11.parse_element("{(0):(1)};(0)")
    rec = json.loads(json.dumps(audit_castle(w9_transversal, s1, w9)))
    assert rec["kind"] == "castle-audit"
    assert check_castle_audit(rec) is True
    broken = copy.deepcopy(rec)
    broken["bound"] = "1/9"
    with pytest.raises(CertificateError):
        check_castle_audit(broken)
    with pytest.raises(CertificateError):
        check_castle_audit({"kind": "castle-audit", "v": 1})


def test_non_af_report_single_level(d32):
    cert = build_criterion([d32])
    report = non_af_report(cert)
    assert Fraction(cert["records"][0]["fixed_fraction"]) == Fraction(3, 4)
    assert Fraction(report["bound"]) == 1 - d32.epsilon == Fraction(1, 2)
    assert len(report["chain"]) == 4
    assert check_non_af_report(report) is True


def test_non_af_report_three_levels(d32, d9, d25):
    cert = build_criterion([d32, d9, d25])
    assert cert["verdict"] == "valid"
    report = non_af_report(cert)
    stage = prod(Fraction(rec["fixed_fraction"]) for rec in cert["records"])
    assert stage == Fraction(2, 5)
    assert Fraction(report["bound"]) == Fraction(1, 8)
    assert stage >= Fraction(report["bound"])
    rec = json.loads(json.dumps(report))
    assert rec["kind"] == "non-af-report"
    assert check_non_af_report(rec) is True
    steps = [step["step"] for step in rec["chain"]]
    assert steps == [
        "stage-bound",
        "positivity",
        "limit-bound",
        "castle-obstruction",
    ]


def test_fixed_epsilon_report_certifies_the_stage_only(d32, d9, d25, group11):
    s = group11.parse_element("{(0):(1)};(0)")
    t = group11.parse_element("{};(1)")
    mixed = verify_criterion([s, t], 1, 1, epsilon=lambda i: Fraction(1, 4) if i == 0 else HALF)
    for cert in (build_criterion([d32, d9, d25]), mixed):
        rec = non_af_report(cert)
        assert rec["limit_lower_bound"] is None
        assert "not almost finite" not in rec["conclusion"]
        assert "finite stage only" in rec["conclusion"]
        limit_step, obstruction = rec["chain"][2:]
        assert (limit_step["lhs"], limit_step["rel"], limit_step["rhs"]) == (None, None, None)
        assert obstruction["threshold"] == rec["bound"]
        epsilons = [Fraction(r["epsilon"]) for r in cert["records"]]
        assert Fraction(rec["bound"]) == prod(1 - eps for eps in epsilons)
        assert check_non_af_report(rec) is True


def test_scheduled_report_bounds_the_limit(group11):
    s = group11.parse_element("{(0):(1)};(0)")
    t = group11.parse_element("{};(1)")
    cert = verify_criterion([s, t], 1, 1)
    rec = non_af_report(cert)
    window = window_from_records(cert["window"])
    stage = prod(Fraction(r["fixed_fraction"]) for r in cert["records"])
    assert stage == Fraction(window.fixed_count(window.group.lamp_generators()), window.size)
    epsilons = [Fraction(r["epsilon"]) for r in cert["records"]]
    assert epsilons == [Fraction(1, 4), Fraction(1, 8)]
    assert stage >= prod(1 - eps for eps in epsilons) >= Fraction(rec["bound"])
    assert Fraction(rec["bound"]) == 1 - sum(epsilons) == Fraction(1, 2) + Fraction(1, 2**3)
    assert rec["limit_lower_bound"] == "1/2"
    limit_step, obstruction = rec["chain"][2:]
    assert limit_step["lhs"] == obstruction["threshold"] == rec["limit_lower_bound"]
    assert rec["conclusion"].endswith("the limit action is not almost finite")
    assert check_non_af_report(rec) is True


def test_non_af_report_requires_validity(d32):
    lowered = d32._replace(epsilon=Fraction(1, 8))
    with pytest.raises(CertificateError):
        non_af_report(build_criterion([lowered]))


def test_non_af_report_check_rejects_tampering(d32, d9):
    rec = non_af_report(build_criterion([d32, d9]))
    wrong_bound = copy.deepcopy(rec)
    wrong_bound["bound"] = "9/10"
    with pytest.raises(CertificateError):
        check_non_af_report(wrong_bound)
    missing_threshold = copy.deepcopy(rec)
    missing_threshold["chain"] = [
        step for step in missing_threshold["chain"] if step["step"] != "castle-obstruction"
    ]
    with pytest.raises(CertificateError):
        check_non_af_report(missing_threshold)
    false_step = copy.deepcopy(rec)
    for step in false_step["chain"]:
        if step["step"] == "stage-bound":
            step["value"] = "1/100"
    with pytest.raises(CertificateError):
        check_non_af_report(false_step)
    with pytest.raises(CertificateError):
        check_non_af_report({"kind": "non-af-report", "v": 2})


def _containers(node, path="$"):
    """Every list and dict of a record with its path, in document order."""
    if isinstance(node, (list, dict)):
        yield path, node
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield from _containers(value, f"{path}/{key}")


def test_records_are_plain_unaliased_json(cert288, d32, d9, w288, group11):
    """Each producer's record on W288 holds JSON values only and no list or
    dict at two paths, so an edit at one path of a record edits nothing
    else in it."""
    s1 = group11.parse_element("{(0):(1)};(0)")
    e = group11.identity()
    overlapping = Castle(towers=(Tower(frozenset({(0, 0)}), (e,)),) * 2)
    records = {
        "verify": build_criterion([d32, d9]),
        "report": non_af_report(cert288),
        "compare": comparison_certificate([(0, 0)], [(1, 1), (2, 2)], w288),
        "audit": audit_castle(make_transversal_castle(w288), s1, w288),
        "malformed audit": audit_castle(overlapping, s1, w288),
    }
    for name, rec in records.items():
        assert json.loads(json.dumps(rec)) == rec, name
        seen = {}
        for path, node in _containers(rec):
            assert id(node) not in seen, f"{name}: {path} is {seen[id(node)]}"
            seen[id(node)] = path


def test_window_from_records(d32, d9):
    window = window_from_records([d32.to_dict(), d9.to_dict()])
    assert window.size == 288
    assert window.data == (d32, d9)
