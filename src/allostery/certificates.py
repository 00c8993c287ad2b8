"""Certificate records, the criterion and report kinds, and their verifiers.

Four certificate kinds cover the pipeline.  This module holds two: the
freeness-vs-measure criterion for a window of forged subgroups, with the
exact transitivity step it rests on, and the assembled negative report that
a positive-measure fixed set rules out castles with small tolerance.  The
comparison of two state subsets via translated atom pieces is in
:mod:`allostery.comparison`, the audit of a castle against the fixed-set
bound in :mod:`allostery.castle`; both use the record helpers here.

A certificate is its JSON record: every producer returns a plain dict of
JSON values only (exact rationals as ``"num/den"`` strings, group elements as
canonical text, words as generator index lists, a ``kind`` tag and
``"v": 1``), and no list or dict sits at two places in one record.  Every
kind has a verifier that works from the record alone: it recomputes the
claims and rejects a record that does not serialize exactly as the
recomputation.  No field holds a whole-window product, which has thousands
of digits at radius 4: the per-level records state each window claim once.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from copy import deepcopy
from fractions import Fraction
from math import prod
from typing import Dict, Optional, Sequence

from .base import frac_str, zero
from .dynamics import FiniteLevel, Window, stabilizer_witness
from .errors import CertificateError, DatumInvariantError, TextParseError
from .forge import SubgroupDatum, assign_primes, default_epsilon
from .wreath import Lamp, WreathElement

SCHEMA_VERSION = 1


def parse_frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CertificateError(f"bad rational {text!r}: {exc}") from None


def parse_tolerance(text: str) -> Fraction:
    """A castle's defect tolerance: a positive rational."""
    eps = parse_frac(text)
    if eps <= 0:
        raise CertificateError(f"castle tolerance must be positive, got {text!r}")
    return eps


def window_from_records(records: Sequence[dict]) -> Window:
    """The window of a list of datum records; a TextParseError names a record by position."""
    if not isinstance(records, list):
        raise TextParseError("no window data found")
    return Window([SubgroupDatum.from_dict(r, f"window record {i}") for i, r in enumerate(records)])


def _require_kind(rec, kind: str, what: str) -> None:
    if not isinstance(rec, dict) or rec.get("kind") != kind or rec.get("v") != SCHEMA_VERSION:
        raise CertificateError(f"not a {what}")


@contextmanager
def _malformed(what: str):
    """Raise a malformed-record error from inside as CertificateError("malformed <what>: ...")."""
    try:
        yield
    except (KeyError, TypeError, ValueError, TextParseError, DatumInvariantError) as exc:
        raise CertificateError(f"malformed {what}: {exc}") from None


def _require_same(rec: dict, fresh: dict) -> None:
    """Raise CertificateError unless ``rec`` serializes exactly as ``fresh``.

    Key order carries no meaning; value types do (``true`` is not ``1`` and
    ``1`` is not ``1.0``), and so do extra and missing keys."""

    def canon(value) -> str:
        return json.dumps(value, sort_keys=True)

    for key in {**fresh, **rec}:
        if key not in rec or key not in fresh or canon(rec[key]) != canon(fresh[key]):
            raise CertificateError(f"recorded {key!r} disagrees with recomputation")


# --------------------------------------------------------------------------
# transitivity, by an exact per-level argument at any window size


def _level_structure_defect(level: FiniteLevel) -> Optional[str]:
    """None when the unit steps that make a level transitive hold on state 0,
    else the first step that does not.

    The digits of a state (:meth:`FiniteLevel.digits`) spell a base block b
    in m digits of radix M = p^k, then a lamp offset v in l*d digits of
    radix p.  Every element acts as (b, v) -> (b + delta, v + sigma(b +
    delta)) for its shift residue delta and a map sigma from blocks to lamp
    offsets.  So if t_j sends state 0 to block e_j, and t^E[j] s_i t^-E[j]
    (shift 0) adds the unit lamp digit (j, i) to state 0, then those lamp
    elements act on block 0 as the translations of (Z/p)^(ld), block 0 lies
    in one orbit, and products of shifts carry it bijectively onto every
    block.  That is m + l*d digit applications, the k-th of which must set
    digit k of state 0 alone, whatever the level size."""
    m, d, n = level.m, level.d, level.l * level.d
    units = [tuple(int(k == i) for k in range(d)) for i in range(d)]
    lamps = [WreathElement(Lamp.of({c: u}), zero(m)) for c in level.E for u in units]
    shifts = [level.group.shift_generator(j) for j in range(m)]
    for k, image in enumerate(level.images(0, shifts + lamps)):
        base, lamp = level.digits(image)
        if base + lamp != [int(i == k) for i in range(m + n)]:
            if k < m:
                return f"t{k + 1} does not carry state 0 to base block e_{k + 1}"
            j, i = divmod(k - m, d)
            return f"the lamp s{i + 1} at class E[{j}] does not add lamp digit ({j}, {i}) alone"
    return None


def _transitivity(ok: bool, detail: str) -> dict:
    return dict(status="pass" if ok else "fail", method="level-structure", detail=detail)


def certify_transitive(window: Window) -> dict:
    """Decide transitivity of the diagonal action, exactly, at any size.

    Each level is shown transitive by its digit arithmetic (see
    :func:`_level_structure_defect`), which costs m + l*d applications to one
    state at any level size.  The orbit of the identity thread surjects
    equivariantly onto each level, so each level size divides the orbit size;
    with pairwise distinct primes the level sizes are coprime prime powers,
    their product (the window size) divides the orbit size, and the orbit is
    everything.  Two levels that share a prime p are never transitive
    together: b -> b mod p maps each of them equivariantly onto (Z/p)^m, so
    the difference of their base blocks mod p is invariant.  The levels are
    examined in order, each for its own defect and then for an earlier prime.
    """
    first: Dict[int, int] = {}  # the first level of each prime
    for pos, level in enumerate(window.levels):
        defect = _level_structure_defect(level)
        if defect is not None:
            return _transitivity(False, f"level {pos}: {defect}")
        p, i = level.p, first.setdefault(level.p, pos)
        if i != pos:
            return _transitivity(
                False,
                f"levels {i} and {pos} share the prime {p}: b -> b mod {p} maps both "
                f"equivariantly onto (Z/{p})^m, so their base difference mod {p} is invariant",
            )
    return _transitivity(
        True,
        "on every level each element acts as (b, v) -> (b + delta, v + sigma(b + delta)); "
        "on state 0, t_j gives base e_j with zero lamp digits and t^E[j] s_i t^-E[j] gives "
        "lamp digit (j, i) alone, so the lamp elements translate block 0 through all of "
        "(Z/p)^(ld) and the shifts carry it onto every block; the pairwise-coprime level "
        "sizes all divide the thread-orbit size",
    )


# --------------------------------------------------------------------------
# criterion certificate


def record_ok(rec: dict) -> bool:
    """Whether one gamma record of a criterion certificate holds."""
    return rec["not_in_subgroup"] and rec["fraction_ok"] and rec["count_ok"]


def _gamma_record(dat: SubgroupDatum, level: FiniteLevel) -> dict:
    """The closed-form fixed fraction of one level, checked against the count
    of states that every lamp generator fixes, made from the level's blocks."""
    frac = dat.fixed_fraction()
    count = level.fixed_count(level.group.lamp_generators())
    return {
        "gamma": dat.gamma.text(),
        "prime": dat.p,
        "epsilon": frac_str(dat.epsilon),
        "index": dat.index(),
        "not_in_subgroup": not dat.contains(dat.gamma),
        "fixed_fraction": frac_str(frac),
        "fraction_ok": frac >= 1 - dat.epsilon,
        "count_ok": Fraction(count, level.size) == frac,
    }


def build_criterion(data: Sequence[SubgroupDatum], witness_radius: int = 1) -> dict:
    """Assemble the criterion certificate for pre-forged window data.  Every
    step is exact at any window size, so no state budget applies.  The
    ``verdict`` is ``valid`` or ``invalid``.  The records state the window's
    claim once: its fraction is the product of their ``fixed_fraction``s."""
    window = Window(data)
    records = [_gamma_record(dat, level) for dat, level in zip(window.data, window.levels)]
    transitivity = certify_transitive(window)
    witness = stabilizer_witness(window, ball_radius=witness_radius)
    failed = (
        not all(map(record_ok, records))
        or transitivity["status"] == "fail"
        or not witness["ok"]
    )
    return {
        "kind": "criterion",
        "v": SCHEMA_VERSION,
        "d": window.d,
        "m": window.m,
        "window": [dat.to_dict() for dat in window.data],
        "records": records,
        "primes_distinct": window.primes_distinct(),
        "transitivity": transitivity,
        "stabilizer": witness,
        "verdict": "invalid" if failed else "valid",
    }


def verify_criterion(
    gammas: Sequence[WreathElement],
    d: int,
    m: int,
    epsilon=None,
    witness_radius: int = 1,
) -> dict:
    """Forge data for the given window elements and certify the criterion.

    ``epsilon`` may be None (the summable schedule), a fixed rational applied
    to every element, or a callable on the position index.
    """
    assignment = assign_primes(gammas, default_epsilon if epsilon is None else epsilon)
    data = assignment.forge_all(d=d, m=m)
    return build_criterion(data, witness_radius=witness_radius)


def _rebuild_criterion(rec) -> dict:
    """Rebuild a serialized criterion certificate from its window and ball
    radius, and require the record to serialize exactly as the rebuild."""
    _require_kind(rec, "criterion", "criterion certificate")
    with _malformed("criterion certificate"):
        data = window_from_records(rec["window"]).data
        radius = rec["stabilizer"]["ball_radius"]
    if type(radius) is not int or radius < 0:
        raise CertificateError(f"ball radius must be a nonnegative integer, got {radius!r}")
    fresh = build_criterion(data, witness_radius=radius)
    _require_same(rec, fresh)
    return fresh


def check_criterion_certificate(rec: dict) -> bool:
    """Rebuild a serialized criterion certificate from its window.

    Returns the recomputed validity; raises CertificateError when the record
    is structurally broken or does not serialize exactly as the rebuild.
    """
    return _rebuild_criterion(rec)["verdict"] == "valid"


# --------------------------------------------------------------------------
# forwarders to the castle and comparison kinds: the benchmark's tracer wraps
# these four names here, so each imports its kind's module on its first call,
# and the kind modules call them through this module


def translate_closure(*args, **kwargs):
    from .comparison import translate_closure

    return translate_closure(*args, **kwargs)


def boolean_atoms(*args, **kwargs):
    from .comparison import boolean_atoms

    return boolean_atoms(*args, **kwargs)


def check_comparison_certificate(*args, **kwargs):
    from .comparison import check_comparison_certificate

    return check_comparison_certificate(*args, **kwargs)


def audit_castle(*args, **kwargs):
    from .castle import audit_castle

    return audit_castle(*args, **kwargs)


# --------------------------------------------------------------------------
# the assembled negative report


def non_af_report(certificate: dict) -> dict:
    """Assemble the castle-obstruction report from a valid criterion
    certificate: a lower ``bound`` on the stage fraction, on the tolerance
    schedule a lower bound on the limit, and the tolerance threshold below
    which no castle for the first lamp generator can exist.

    Each record certifies its level fraction f_i >= 1 - eps_i > 0, and the
    stage fraction is the product of the f_i.  Off the schedule the bound is
    the epsilon product prod(1 - eps_i); a continuation can push the limit
    to 0, so the report certifies the finite stage only.  On the schedule
    eps_i = 2^-(i+2) the bound is 1 - sum(eps_i) = 1/2 + 2^-(n+1) for the n
    window elements, by the Weierstrass product inequality prod(1 - eps_i)
    >= 1 - sum(eps_i); every later level keeps a fraction of at least
    1 - eps_i too, so the same inequality bounds the limit below by 1/2.

    The report embeds ``certificate`` itself under ``"criterion"`` and a copy
    of its window under ``"window"``."""
    if certificate["verdict"] != "valid":
        raise CertificateError("criterion certificate is not valid")
    window = certificate["window"]
    epsilons = [Fraction(dat["epsilon"]) for dat in window]
    on_schedule = epsilons == [default_epsilon(i) for i in range(len(epsilons))]
    if on_schedule:
        bound, limit = frac_str(1 - sum(epsilons, Fraction(0))), "1/2"
    else:
        bound, limit = frac_str(prod((1 - eps for eps in epsilons), start=Fraction(1))), None

    def pick(on, off):
        return on if on_schedule else off

    chain = [
        {
            "step": "stage-bound",
            "statement": "each record certifies a level fraction of at least 1 - eps_i, and a "
            "window state is fixed by every lamp generator exactly when each of its level "
            "states is, so the stage fraction is at least the product of the (1 - eps_i)"
            + pick(
                ", which by the Weierstrass product inequality is at least the bound "
                "1 - sum(eps_i) = 1/2 + 2^-(n+1) for the n window elements",
                ", the bound",
            ),
            "value": bound,
        },
        {
            "step": "positivity",
            "statement": "the bound is positive",
            "lhs": bound,
            "rel": ">",
            "rhs": "0/1",
        },
        {
            "step": "limit-bound",
            "statement": pick(
                "the tolerances follow the schedule 2^-(i+2), so every level i, of the "
                "window or later, keeps a fraction of at least 1 - 2^-(i+2), and by the "
                "Weierstrass product inequality the limit measure of the set fixed by every "
                "lamp generator is at least 1 - (sum over i >= 0 of 2^-(i+2)) = 1/2",
                "the tolerances do not follow the schedule 2^-(i+2), so later levels may push "
                "the limit measure to 0: no bound on the limit is certified",
            ),
            "lhs": limit,
            "rel": pick(">", None),
            "rhs": pick("0/1", None),
        },
        {
            "step": "castle-obstruction",
            "statement": pick(
                "a well-formed castle of the limit action whose shapes all have defect below "
                "the limit lower bound for the inverse of the first lamp generator would "
                "contradict the fixed-set inequality",
                "a well-formed castle of this finite stage whose shapes all have defect below "
                "the bound for the inverse of the first lamp generator would contradict the "
                "fixed-set inequality",
            ),
            "threshold": pick(limit, bound),
        },
    ]
    conclusion = pick(
        "no castle tolerance below the limit lower bound is achievable: "
        "the limit action is not almost finite",
        "this report certifies the finite stage only: no castle of the stage has every "
        "defect below the bound, and nothing is claimed about the limit action",
    )
    return {
        "kind": "non-af-report",
        "v": SCHEMA_VERSION,
        "window": deepcopy(window),
        "bound": bound,
        "limit_lower_bound": limit,
        "chain": chain,
        "conclusion": conclusion,
        "criterion": certificate,
    }


def check_non_af_report(rec: dict) -> bool:
    """Verify a serialized report: the embedded criterion certificate must
    rebuild as valid, and the whole report must serialize exactly as the
    report assembled from that rebuild."""
    _require_kind(rec, "non-af-report", "non-almost-finiteness report")
    fresh = _rebuild_criterion(rec.get("criterion"))
    if fresh["verdict"] != "valid":
        return False
    _require_same(rec, non_af_report(fresh))
    return True
