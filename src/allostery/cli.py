"""Batch command-line front end.

Subcommands: forge | verify | simulate | compare | audit | report.
JSON goes to stdout (or files under --out); human summaries go to stderr so
stdout stays machine-readable.  Exit codes: 0 valid, 1 failed check,
2 malformed input or exceeded budget.  Output is deterministic for a fixed
config and seed — no timestamps anywhere.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from importlib import import_module

from .errors import AllosteryError, CertificateError, DatumInvariantError, TextParseError

TYPE_CHECKING = False
if TYPE_CHECKING:  # for annotations only: each command imports what it runs
    import random
    from typing import Sequence

    from .config import RunConfig
    from .dynamics import Window


def _from(module: str, name: str):
    """``<module>.<name>``, imported on the first call, so that a command
    loads only the certificate modules it runs.  Each such name is a ``cli``
    attribute from import on, and can be wrapped there."""

    def call(*args, **kwargs):
        return getattr(import_module(f"{__package__}.{module}"), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


verify_criterion = _from("certificates", "verify_criterion")
non_af_report = _from("certificates", "non_af_report")
comparison_certificate = _from("comparison", "comparison_certificate")
parse_castle_file = _from("castle", "parse_castle_file")
audit_castle = _from("castle", "audit_castle")
check_criterion_certificate = _from("certificates", "check_criterion_certificate")
check_non_af_report = _from("certificates", "check_non_af_report")
check_comparison_certificate = _from("comparison", "check_comparison_certificate")
check_castle_audit = _from("castle", "check_castle_audit")

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_MALFORMED = 2


def _say(text: str) -> None:
    print(text, file=sys.stderr)


def _emit_json(obj: dict, cfg: RunConfig, name: str) -> None:
    _emit_text(json.dumps(obj, indent=2) + "\n", cfg, f"{name}.json")


def _emit_text(text: str, cfg: RunConfig, name: str) -> None:
    if cfg.out:
        from pathlib import Path

        out_dir = Path(cfg.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        target = out_dir / name
        target.write_text(text, encoding="utf-8")
        print(str(target))
    else:
        sys.stdout.write(text)


def _load_json(path: str, text: bool = False):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read() if text else json.load(fh)
    except ValueError as exc:  # not UTF-8 or not JSON, or an integer past the digit limit
        raise TextParseError(f"{path}: {exc}") from None


def _read(path: str, read, text: bool = False):
    """``read`` applied to the JSON value of the file at ``path``, or to its
    text when ``text`` is set.  A file that is not UTF-8 or not JSON, and a
    TextParseError, DatumInvariantError or CertificateError that ``read``
    raises, name the file."""
    rec = _load_json(path, text)
    try:
        return read(rec)
    except TextParseError as exc:
        raise TextParseError(f"{path}: {exc.message}", exc.line, exc.column) from None
    except (CertificateError, DatumInvariantError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _load_window(path: str) -> Window:
    from .certificates import window_from_records

    def read(rec):
        if isinstance(rec, dict) and isinstance(rec.get("criterion"), dict):
            rec = rec["criterion"]  # a report's window is its criterion's
        return window_from_records(rec.get("window", [rec]) if isinstance(rec, dict) else rec)

    return _read(path, read)


def _criterion(cfg: RunConfig) -> dict:
    """The criterion certificate of the configured ball window: one element
    per nonidentity element of the ball of the configured radius."""
    from .wreath import WreathGroup

    gammas = WreathGroup(cfg.d, cfg.m).ball(cfg.radius)[1:]  # the identity comes first
    return verify_criterion(
        gammas, cfg.d, cfg.m, epsilon=cfg.epsilon_arg(), witness_radius=cfg.radius
    )


def _parse_states(window: Window, spec: str, rng: random.Random) -> frozenset:
    """State-set specs: ``idx:0,1,2`` (flat indices) or ``random:k``."""
    kind, _, rest = spec.partition(":")
    if kind == "idx":
        try:
            flats = [int(tok) for tok in rest.split(",") if tok.strip() != ""]
        except ValueError:
            raise TextParseError(f"bad index list {rest!r}") from None
        if not flats:
            raise TextParseError("empty index list")
        for i in flats:
            if not 0 <= i < window.size:
                raise TextParseError(f"state index {i} out of range 0..{window.size - 1}")
        return frozenset(window.state_at(i) for i in flats)
    if kind == "random":
        try:
            count = int(rest)
        except ValueError:
            raise TextParseError(f"bad random count {rest!r}") from None
        if not 1 <= count <= window.size:
            raise TextParseError(f"random count {count} out of range")
        return frozenset(window.state_at(i) for i in rng.sample(range(window.size), count))
    raise TextParseError(f"state spec must be idx:... or random:k, got {spec!r}")


def cmd_forge(args: argparse.Namespace) -> int:
    from .base import frac_str
    from .forge import default_epsilon, forge
    from .wreath import WreathGroup

    group = WreathGroup(args.cfg.d, args.cfg.m)
    gamma = group.parse_element(args.gamma)
    epsilon = args.cfg.epsilon_arg() or default_epsilon(0)
    datum = forge(gamma, args.p, epsilon, args.cfg.d, args.cfg.m)
    _emit_json(datum.to_dict(), args.cfg, "datum")
    _say(
        f"forged: p={datum.p} k={datum.k} l={datum.l} index={datum.index()} "
        f"fixed fraction {frac_str(datum.fixed_fraction())}"
    )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from .certificates import record_ok

    cert = _criterion(args.cfg)
    _emit_json(cert, args.cfg, "criterion")
    for rec in cert["records"]:
        _say(
            f"gamma {rec['gamma']}: p={rec['prime']} index={rec['index']} "
            f"fixed {rec['fixed_fraction']} "
            f"{'ok' if record_ok(rec) else 'FAILED'}"
        )
    transitivity = cert["transitivity"]
    _say(
        f"primes {'distinct' if cert['primes_distinct'] else 'REPEATED'}; "
        f"transitivity {transitivity['status']} ({transitivity['method']}); "
        f"verdict {cert['verdict']}"
    )
    return EXIT_OK if cert["verdict"] == "valid" else EXIT_FAILED


def cmd_simulate(args: argparse.Namespace) -> int:
    if not args.window:
        raise TextParseError("simulate needs --window")
    window = _load_window(args.window)
    group = window.group
    if args.element.lstrip().startswith("{"):
        element = group.parse_element(args.element)
    else:
        element = group.word_element(group.parse_word(args.element))
    if args.steps < 0:
        raise TextParseError("steps must be nonnegative")
    state = window.identity_thread()
    rows = ["step,state", f"0,{window.state_text(state)}"]
    for step in range(1, args.steps + 1):
        state = window.state_at(window.images(state, (element,))[0])
        rows.append(f"{step},{window.state_text(state)}")
    _emit_text("\n".join(rows) + "\n", args.cfg, "trajectory.csv")
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    if not args.window or not args.a_spec or not args.b_spec:
        raise TextParseError("compare needs --window, --a and --b (or --check)")
    import random

    window = _load_window(args.window)
    rng = random.Random(args.cfg.seed)
    a_set = _parse_states(window, args.a_spec, rng)
    b_set = _parse_states(window, args.b_spec, rng)
    cert = comparison_certificate(a_set, b_set, window, args.cfg.budget_states)
    _emit_json(cert, args.cfg, "comparison")
    _say(f"comparison: {len(cert['pieces'])} pieces moved disjointly into B")
    return EXIT_OK


def cmd_audit(args: argparse.Namespace) -> int:
    if not args.castle or not args.window or not args.gamma:
        raise TextParseError("audit needs a castle file, --window and --gamma (or --check)")
    from .certificates import parse_tolerance

    window = _load_window(args.window)
    castle = _read(args.castle, lambda text: parse_castle_file(text, window), text=True)
    if args.tolerance:
        castle = castle._replace(epsilon=parse_tolerance(args.tolerance))
    gamma = window.group.parse_element(args.gamma)
    if gamma.is_identity():
        raise TextParseError("audit needs a nontrivial element")
    audit = audit_castle(castle, gamma, window, args.cfg.budget_states)
    _emit_json(audit, args.cfg, "audit")
    if "error" in audit:
        _say(f"malformed castle: {audit['error']}")
        return EXIT_FAILED
    verdict = "ok" if audit["inequality_ok"] else "VIOLATED"
    if audit["epsilon"] is not None:
        within = "ok" if audit["defects_within_epsilon"] else "EXCEEDED"
        verdict += f"; defects below tolerance {audit['epsilon']}: {within}"
    _say(f"audit: fix measure {audit['fix_measure']} <= bound {audit['bound']}: {verdict}")
    return EXIT_OK if audit["ok"] else EXIT_FAILED


def _report_markdown(report_dict: dict) -> str:
    from fractions import Fraction

    from .base import frac_str

    lines = [
        "| gamma | prime | index | fixed fraction | lower bound |",
        "| --- | --- | --- | --- | --- |",
    ]
    for rec in report_dict["criterion"]["records"]:
        one_minus = 1 - Fraction(rec["epsilon"])
        lines.append(
            f"| `{rec['gamma']}` | {rec['prime']} | {rec['index']} "
            f"| {rec['fixed_fraction']} | {frac_str(one_minus)} |"
        )
    lines.append("")
    limit = report_dict["limit_lower_bound"] or "none"
    lines.append(
        f"Window bound: **{report_dict['bound']}**; limit lower bound: **{limit}**; "
        f"{report_dict['conclusion']}."
    )
    return "\n".join(lines) + "\n"


def cmd_report(args: argparse.Namespace) -> int:
    cert = _criterion(args.cfg)
    if cert["verdict"] != "valid":
        _emit_json(cert, args.cfg, "criterion")
        _say(f"criterion certificate verdict {cert['verdict']}; no report emitted")
        return EXIT_FAILED
    rec = non_af_report(cert)
    if args.cfg.out or args.cfg.format == "json":
        _emit_json(rec, args.cfg, "report")
    if args.cfg.out or args.cfg.format == "md":
        _emit_text(_report_markdown(rec), args.cfg, "report.md")
    limit = rec["limit_lower_bound"] or "none"
    _say(f"bound {rec['bound']}; limit lower bound {limit}; {rec['conclusion']}")
    return EXIT_OK


# Each subcommand that checks a record given as --check: the record's name, its verdict
# words, its checker (a name here, looked up on each call so that it can be wrapped) and
# the settings that the checker takes after the record.  A check reads no other argument.
_CHECKS = {
    "verify": ("criterion certificate", ("valid", "invalid"), "check_criterion_certificate", ()),
    "compare": ("comparison certificate", ("valid", "invalid"), "check_comparison_certificate", ()),
    "audit": ("castle audit", ("ok", "failed"), "check_castle_audit", ("budget_states",)),
    "report": ("report", ("valid", "invalid"), "check_non_af_report", ()),
}


def _check(args: argparse.Namespace) -> int:
    """Check the record, say the verdict on stderr and return its exit code."""
    what, words, checker, settings = _CHECKS[args.command]
    extra = [getattr(args.cfg, key) for key in settings]
    ok = _read(args.check, lambda rec: globals()[checker](rec, *extra))
    _say(f"{what}: {words[0] if ok else words[1]}")
    return EXIT_OK if ok else EXIT_FAILED


# The settings flags, each as ``add_argument`` takes it.  A subcommand gets
# only those its command reads; the --config file takes every key.
_SETTINGS = {
    "config": dict(help="key = value config file"),
    "d": dict(type=int, help="lamp rank"),
    "m": dict(type=int, help="shift rank"),
    "radius": dict(type=int, help="word-metric ball radius"),
    "epsilon": dict(help="'schedule' or a rational like 1/2"),
    "budget-states": dict(type=int, help="bound on the states enumerated"),
    "seed": dict(type=int, help="seed of random:k state sets"),
    "out": dict(help="directory for output files"),
    "format": dict(choices=("json", "md"), help="what the report prints"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="allostery",
        description="forge congruence-style subgroups of lamplighter-like groups "
        "and certify freeness, comparison, and castle bounds on their finite quotients",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, settings: str, summary: str) -> argparse.ArgumentParser:
        # No flag may be abbreviated: compare's --win is not its --window.
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        for flag in settings.split():
            p.add_argument(f"--{flag}", **_SETTINGS[flag])
        if name in _CHECKS:
            p.add_argument("--check", help=f"re-verify an existing {_CHECKS[name][0]} JSON")
        p.set_defaults(func=func, parser=p)
        return p

    p = command("forge", cmd_forge, "config d m epsilon out", "forge one subgroup datum")
    p.add_argument("gamma", help="element text, e.g. '{(0):(1)};(0)'")
    p.add_argument("--p", type=int, required=True, help="prime")

    command(
        "verify", cmd_verify, "config d m radius epsilon out",
        "criterion certificate for a ball window",
    )

    p = command("simulate", cmd_simulate, "config out", "trajectory of one element")
    p.add_argument("element", help="element text like '{(0):(1)};(0)' or dotted word like s1.t1")
    p.add_argument("--window", help="window JSON (list of data, one datum or a certificate)")
    p.add_argument("--steps", type=int, default=10)

    p = command("compare", cmd_compare, "config budget-states seed out", "comparison certificate")
    p.add_argument("--window", help="window JSON")
    p.add_argument("--a", dest="a_spec", help="A spec: idx:0,1 or random:k")
    p.add_argument("--b", dest="b_spec", help="B spec: idx:2,3,4 or random:k")

    p = command("audit", cmd_audit, "config budget-states out", "audit a castle file")
    p.add_argument("castle", nargs="?", help="castle file: V=<states>; S=<words>")
    p.add_argument("--window", help="window JSON")
    p.add_argument("--gamma", help="element text to test")
    p.add_argument("--tolerance", help="optional defect tolerance (rational)")

    command(
        "report", cmd_report, "config d m radius epsilon out format", "assembled negative report"
    )
    return parser


class _Given(str):
    """An argument with its place ``at`` in the argument list."""

    def __new__(cls, word: str, at: int):
        given = str.__new__(cls, word)
        given.at = at
        return given


class _Unread(argparse.Action):
    """An unknown flag: adds (place, the flag with the word it takes) to ``unread``."""

    def __call__(self, *args):
        _, namespace, values, flag = args  # argparse passes the parser first
        word = values if isinstance(values, str) else ""
        text = f"{flag.replace('=', ' ', 1)} {word}".rstrip()
        vars(namespace).setdefault("unread", []).append((flag.at, text))


def _parse_args(argv: Sequence[str] | None) -> argparse.Namespace:
    """The arguments of ``argv``; one the subcommand does not take, or one beside
    ``--check`` that the check does not read, is the subcommand's usage error."""
    parser = _build_parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        # Parse again with each unknown flag taking the word after it, if any,
        # so that the error names it with that word, which a positional such as
        # audit's castle file would otherwise have taken; a positional left
        # without a word is then no error of its own.  Each word keeps its
        # place, so the error names what is left in the order given.  The flags
        # stay out of the usage line, which is then the subcommand's --help usage.
        for action in args.parser._actions:
            action.required = action.required and bool(action.option_strings)
        flags = (given for given in unknown if given[:1] == "-" and given.lstrip("-")[:1].isalpha())
        for flag in dict.fromkeys(flags):
            args.parser.add_argument(
                flag, dest="unread", action=_Unread, nargs=0 if "=" in flag else "?",
                default=argparse.SUPPRESS, help=argparse.SUPPRESS,
            )
        argv = sys.argv[1:] if argv is None else argv
        args, unknown = parser.parse_known_args(map(_Given, argv, range(len(argv))))
        unread = sorted([(word.at, word) for word in unknown] + getattr(args, "unread", []))
        args.parser.error(f"unrecognized arguments: {' '.join(text for _, text in unread)}")
    if getattr(args, "check", None) is not None:
        reads = {"check", "config", *_CHECKS[args.command][3]}
        given = [(a.option_strings or [a.dest])[0] for a in args.parser._actions
                 if a.dest not in reads and getattr(args, a.dest, None) is not None]
        if given:
            args.parser.error(f"argument --check: not allowed with {', '.join(given)}")
        args.func = _check
    return args


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The config file's settings, overridden by the settings flags that the
    subcommand defines and then by the budget environment variable."""
    from .config import RunConfig, apply_env, load_config, parse_epsilon_mode, validated

    cfg = load_config(args.config) if args.config else RunConfig()
    flags = {key: getattr(args, key, None) for key in RunConfig._fields}
    if flags["epsilon"] is not None:
        flags["epsilon"] = parse_epsilon_mode(flags["epsilon"])
    cfg = cfg._replace(**{key: value for key, value in flags.items() if value is not None})
    return apply_env(validated(cfg))


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse_args(argv)
    was_enabled = gc.isenabled()
    gc.disable()  # commands leave no cycles but argparse's few hundred (README, Layout)
    try:
        args.cfg = _config_from_args(args)
        return args.func(args)
    except KeyError as exc:
        _say(f"error: missing key {exc}")
        return EXIT_MALFORMED
    except (AllosteryError, OSError, TypeError, ValueError) as exc:
        _say(f"error: {exc}")
        return EXIT_MALFORMED
    finally:
        if was_enabled:
            gc.enable()


def run() -> None:
    """The process entry point: run :func:`main`, flush stdout and stderr,
    and end the process by ``os._exit`` with main's exit code (argparse's
    for ``--help`` and usage errors), skipping the interpreter's teardown.
    Teardown has nothing left to do: the package registers no atexit
    handler, starts no thread and leaves no file open.  A stdout flush that
    fails, as into a closed pipe, prints ``error: <exc>`` and exits 2.  Any
    other exception out of main, a ``SystemExit`` whose code is not an int
    and a stderr flush that raises take the interpreter's own exit."""
    try:
        code = main()
    except SystemExit as exc:
        if not isinstance(exc.code, int):
            raise
        code = exc.code
    try:
        sys.stdout.flush()
    except OSError as exc:
        _say(f"error: {exc}")
        code = EXIT_MALFORMED
    try:
        sys.stderr.flush()
    except Exception:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
