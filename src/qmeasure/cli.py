"""Command-line surface: validate object files, fuse and decompose
instruments, evaluate probabilities and channels, and run property suites.

Machine-readable JSON goes to stdout, human-readable notes to stderr.
Exit codes: 0 ok, 1 parse or I/O error, 2 invariant/dimension/premise
failure or a request too large for memory, 3 suite failure.  Every failure
is reported by `main`, as one stderr line and one JSON record
{"command", "ok": false, "exit_code", "error"}.  A closed stdout is an I/O
error: the stderr line is then all, and no record is written.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import decomposition, harness, matkit, serialize
from .channels import KrausChannel, Superoperator, apply_map, choi_from_map
from .matkit import Tolerances
from .measure import Instrument, Povm, fuse_sequential, induced_povm, probabilities
from .states import DensityOperator

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVARIANT = 2
EXIT_SUITE = 3


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _report(payload: dict) -> None:
    """Write the record to stdout in pieces, all built before the first write,
    so that a failure while building it leaves stdout untouched."""
    pieces = serialize.record_pieces(payload)
    sys.stdout.writelines(pieces)
    sys.stdout.flush()


def _load(path: str, wanted, tol: Tolerances):
    """The object in the file at `path`, which must be a `wanted`; a wrong
    kind, like every `serialize.read_file` failure, names the file."""
    obj = serialize.read_file(path, tol)
    if not isinstance(obj, wanted):
        names = wanted.__name__ if isinstance(wanted, type) else \
            "/".join(w.__name__ for w in wanted)
        article = "an" if names[0] in "AEIOU" else "a"
        raise serialize.ParseError(
            f"{path}: expected {article} {names} file, got {type(obj).__name__}")
    return obj


def cmd_verify(args, tol: Tolerances) -> int:
    obj = _load(args.path, object, tol)
    flags: dict = {}
    if isinstance(obj, Superoperator):
        choi = choi_from_map(obj)
        marginal = matkit.partial_trace(choi.mat, (obj.d_in, obj.d_out), keep=0)
        flags = {"cp": choi.is_cp(tol),
                 "hermiticity_preserving": choi.is_hermitian_preserving(tol),
                 "trace_preserving": tol.is_complete(marginal),
                 "min_choi_eigenvalue": choi.min_eigenvalue()}
    elif isinstance(obj, KrausChannel):
        if not obj.is_trace_nonincreasing(tol):
            raise ValueError(f"{args.path}: Kraus map increases trace")
        flags = {"cp": True,
                 "trace_preserving": obj.is_trace_preserving(tol),
                 "trace_nonincreasing": True}
    kind = serialize.to_payload(obj)["kind"]
    _report({"command": "verify", "path": args.path, "ok": True, "kind": kind,
             "flags": flags})
    _say(f"{args.path}: valid {kind}")
    return EXIT_OK


def cmd_fuse(args, tol: Tolerances) -> int:
    fused = fuse_sequential(_load(args.first, Instrument, tol),
                            _load(args.second, Instrument, tol))
    serialize.write_file(args.out, fused)
    _report({"command": "fuse", "out": args.out,
             "effects": [{"label": label, "mat": serialize.matrix_payload(eff.mat)}
                         for label, eff in fused.povm.outcomes]})
    _say(f"wrote fused instrument with outcomes {list(fused.labels)} to {args.out}")
    return EXIT_OK


def _outcome_record(inst: Instrument, label: str) -> dict:
    """Outcome `label` of `inst` split by the lemma: its effect, E's Kraus
    operators, the premise report, the reconstruction residual and B's Kraus rank."""
    channel = inst.channel(label)
    effect = induced_povm(inst).effect(label)
    rec = decomposition.decompose(channel, effect)
    return {"label": label,
            "effect": serialize.matrix_payload(effect.mat),
            "conditional_kraus": serialize.matrix_payload(rec.kraus),
            "premise": rec.premise.to_dict(),
            "reconstruction_residual": rec.reconstruction_residual,
            "kraus_rank": decomposition.kraus_rank(channel, inst.tol)}


def cmd_decompose(args, tol: Tolerances) -> int:
    record = _outcome_record(_load(args.instrument, Instrument, tol), args.label)
    _report({"command": "decompose", **record})
    _say(f"outcome {args.label!r}: reconstruction residual "
         f"{record['reconstruction_residual']:.3e}")
    return EXIT_OK


def cmd_probs(args, tol: Tolerances) -> int:
    measurement = _load(args.povm, (Povm, Instrument), tol)
    povm = measurement.povm if isinstance(measurement, Instrument) else measurement
    dist = probabilities(_load(args.state, DensityOperator, tol), povm)
    _report({"command": "probs",
             "probabilities": [{"label": label, "p": p} for label, p in dist]})
    for label, p in dist:
        _say(f"  {label}: {p:.6f}")
    return EXIT_OK


def cmd_evolve(args, tol: Tolerances) -> int:
    channel = _load(args.channel, (KrausChannel, Superoperator), tol)
    rho = _load(args.state, DensityOperator, tol)
    evolved = DensityOperator(apply_map(channel, rho.mat), tol)
    if args.out:
        serialize.write_file(args.out, evolved)
        _say(f"wrote evolved state to {args.out}")
    _report({"command": "evolve", "out": args.out,
             "state": serialize.matrix_payload(evolved.mat)})
    return EXIT_OK


def _parse_tolerance(raw: str, option: str, field: str) -> float:
    """A float that Tolerances accepts as `field`, so one policy guards both."""
    try:
        value = float(raw)
        Tolerances(**{field: value})
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad {option} value {raw!r}: {exc}") from None
    return value


def _parse_dims(raw: str) -> tuple[int, ...]:
    """The comma-separated integers >= 2 of `raw`; blank entries are skipped."""
    dims = tuple(_parse_int(part, "--dims", 2) for part in raw.split(",") if part.strip())
    if not dims:
        raise argparse.ArgumentTypeError("--dims needs integers >= 2")
    return dims


def _parse_int(raw: str, option: str, least: int) -> int:
    """An integer >= `least`, the value of `option`."""
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad {option} value {raw!r}") from None
    if value < least:
        raise argparse.ArgumentTypeError(f"{option} needs an integer >= {least}")
    return value


def cmd_suite(args, tol: Tolerances) -> int:
    seed = args.seed
    names = ["nosignal", "linearity", "lemma"] if args.name == "all" else [args.name]
    # --trials / --dims left unset fall back to each suite runner's own defaults.
    sizes = {key: value for key, value in (("trials", args.trials), ("dims", args.dims))
             if value is not None}
    reports = []
    for name in names:
        if name == "nosignal":
            rep = harness.run_nosignal_suite(seed=seed, tol=tol, **sizes)
        elif name == "linearity":
            nonlinear = harness.nonlinear_square_map if args.demo_nonlinear else None
            rep = harness.run_linearity_suite(seed=seed, nonlinear=nonlinear, tol=tol, **sizes)
        else:
            rep = harness.run_lemma_suite(seed=seed, tol=tol, **sizes)
        reports.append(rep)
    # Reported only once every suite has run, so that a suite that raises leaves
    # the error record as the run's one record.
    for rep in reports:
        _report(rep.to_dict())
        status = "pass" if rep.passed else f"FAIL ({len(rep.witnesses)} witnesses)"
        _say(f"suite {rep.suite}: {status}, max residual {rep.max_residual:.3e}")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_SUITE


def cmd_demo(args, tol: Tolerances) -> int:
    if args.which == "correlated-env":
        rep = harness.correlated_env_demo()
        fields = {name: serialize.matrix_payload(value) if isinstance(value, np.ndarray)
                  else value for name, value in vars(rep).items()}
        _report({"command": "demo", "which": args.which, **fields})
        _say("identical marginals evolve to distinct system states "
             f"(trace distance {rep.distinguishability / 2:.3f})")
        _say(rep.note)
        return EXIT_OK
    if args.which == "stern-gerlach":
        inst = harness.stern_gerlach_demo(tol=tol)
    else:
        inst = harness.atom_demo(tol)
    outcomes = [_outcome_record(inst, label) for label in inst.labels]
    _report({"command": "demo", "which": args.which, "outcomes": outcomes})
    for info in outcomes:
        _say(f"outcome {info['label']}: kraus rank {info['kraus_rank']}, "
             f"reconstruction residual {info['reconstruction_residual']:.3e}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every `main`
    call.  Each subcommand's `cmd_*` function is bound by `set_defaults(func=...)`
    when the parser is built, so patching a `cmd_*` afterwards does not reach it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", default=1e-9,
                        type=functools.partial(_parse_tolerance, option="--tol", field="eps"),
                        help="absolute comparison tolerance (default 1e-9)")
    common.add_argument("--rank-tol", default=1e-9,
                        type=functools.partial(_parse_tolerance, option="--rank-tol",
                                               field="rank_tol_factor"),
                        help="relative rank cutoff factor (default 1e-9)")

    parser = argparse.ArgumentParser(
        prog="qmeasure",
        description="Quantum instruments: validate, fuse, decompose, and test.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common],
                       help="validate an object file against its invariants")
    p.add_argument("path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fuse", parents=[common],
                       help="fuse two instrument files into one measurement")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--out", required=True, help="output path for the fused instrument")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("decompose", parents=[common],
                       help="split one instrument outcome into sqrt-effect update "
                            "plus a trace-preserving channel")
    p.add_argument("instrument")
    p.add_argument("label")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("probs", parents=[common],
                       help="outcome probabilities of a POVM on a state")
    p.add_argument("state")
    p.add_argument("povm")
    p.set_defaults(func=cmd_probs)

    p = sub.add_parser("evolve", parents=[common],
                       help="apply a channel file to a state file")
    p.add_argument("channel")
    p.add_argument("state")
    p.add_argument("--out", default=None, help="optional output path for the evolved state")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("suite", parents=[common], help="run a property suite")
    p.add_argument("name", choices=["nosignal", "linearity", "lemma", "all"])
    p.add_argument("--trials", default=None,
                   type=functools.partial(_parse_int, option="--trials", least=1))
    p.add_argument("--seed", default=42,
                   type=functools.partial(_parse_int, option="--seed", least=0))
    p.add_argument("--dims", type=_parse_dims, default=None,
                   help="comma-separated dimensions, e.g. 2,3")
    p.add_argument("--demo-nonlinear", action="store_true",
                   help="inject the rho -> rho^2/tr(rho^2) black box into the "
                        "linearity suite; it must produce a witness")
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("demo", parents=[common], help="run a fixed demonstration")
    p.add_argument("which", choices=["stern-gerlach", "atom", "correlated-env"])
    p.set_defaults(func=cmd_demo)

    return parser


def _argv_for_parser(argv: list[str]) -> list[str]:
    """`argv` as `build_parser` reads it.  Each `--tol`/`--rank-tol` word (or an
    abbreviation) before any "--" is joined with the next word as `--tol=VALUE`,
    so that a value such as -0e0 is not taken for an option.  Then a `decompose`
    label that begins with '-' (the stern-gerlach "-z") is made an operand: the
    options, then "--", then the operands.  `decompose`'s only single-dash option
    is -h, so any other word that begins with one '-' is an operand; a word that
    begins with "--" stays an option, and an unknown one is a usage error."""
    joined = []
    words = iter(argv)
    for word in words:
        name, eq, value = word.partition("=")
        if word == "--":
            joined += [word, *words]
        elif len(name) > 2 and any(o.startswith(name) for o in ("--tol", "--rank-tol")):
            if not eq:
                value = next(words, "--")
            # argparse would drop a "--" value: the option then has none, which it reports.
            joined += [name, "--"] if value == "--" else [f"{name}={value}"]
        else:
            joined.append(word)
    operands = [w for w in joined[1:] if w != "-h" and not w.startswith("--")]
    if joined[:1] != ["decompose"] or "--" in joined or not any(w[:1] == "-" for w in operands):
        return joined
    return ["decompose", *[w for w in joined[1:] if w not in operands], "--", *operands]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_argv_for_parser(argv))
    tol = Tolerances(eps=args.tol, rank_tol_factor=args.rank_tol)
    try:
        return args.func(args, tol)
    except (OSError, ValueError, ArithmeticError, KeyError, MemoryError) as exc:
        code = EXIT_PARSE if isinstance(exc, (serialize.ParseError, OSError)) else EXIT_INVARIANT
        detail = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        error = f"{type(exc).__name__}: {detail}"
        stdout_closed = isinstance(exc, BrokenPipeError)
    _say(f"qmeasure {args.command}: {error}")
    if not stdout_closed:
        try:
            _report({"command": args.command, "ok": False, "exit_code": code, "error": error})
            return code
        except BrokenPipeError:
            pass
    # Stdout's reader has gone: write no record, and point stdout at devnull so
    # that Python's exit-time flush of what its buffer still holds cannot raise.
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
