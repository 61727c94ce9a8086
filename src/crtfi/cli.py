"""Command-line front end.

Subcommands cover the whole pipeline: key generation, catalog listing,
program dumps, single signatures, fault campaigns, verification-style
transforms, and private-exponent recovery. Output bytes depend only on the
flags and seeds, so reports can be diffed across reruns.

Exit codes: 0 success, 2 flag grammar, 3 data error (unknown algorithm,
malformed key or program file, unsatisfiable campaign spec, a sign
--message outside [0, N), which RSASP1 refuses as "message
representative out of range"). Flags that a command would ignore are
flag grammar: --key, --r-bits and --build-seed with dump or transform
--program, which build nothing, --copies with a transform kind other
than harden, and campaign --format without --out, which writes no
report.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .circuit import Crash, ErrorOut, Program, Signature, check_runnable, dump_program, execute, parse_dump
from .countermeasures import build, catalog, program_inputs
from .faultengine import CampaignSpec, run_campaign
from .keytools import CrtKey, crt_from_rsa, gen_key, read_key_file, recover_d, recover_e, write_key_file
from .transforms import harden, to_infective, to_testbased

# default key for quick demos: p=7, q=11, d=43
_DEMO_KEY = CrtKey(p=7, q=11, dp=1, dq=3, iq=2, d=43, e=7, n=77)


def _load_key(path: str | None) -> CrtKey:
    if path is None:
        return _DEMO_KEY
    return read_key_file(path)


def _load_program(args) -> Program:
    """The --program dump, refused (BuildError) unless validate finds it
    runnable, or the --algo build, at r_bits 8 and build_seed 0 unless
    given."""
    if args.program is not None:
        program = parse_dump(Path(args.program).read_text())
        check_runnable(program)
        return program
    r_bits = 8 if args.r_bits is None else args.r_bits
    return build(args.algo, _load_key(args.key), r_bits=r_bits, build_seed=args.build_seed or 0)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(out).write_text(text)


def _cmd_keygen(args) -> int:
    key = crt_from_rsa(gen_key(args.bits, args.seed))
    write_key_file(key, args.out)
    print(f"wrote {args.out}: p={key.p} q={key.q} N={key.modulus}")
    return 0


def _cmd_list_algos(args) -> int:
    for entry in catalog():
        print(f"{entry.algo:30s} {entry.style}")
    return 0


def _cmd_dump(args) -> int:
    _emit(dump_program(_load_program(args)), args.out)
    return 0


def _cmd_sign(args) -> int:
    key = _load_key(args.key)
    if not 0 <= args.message < key.modulus:  # RSASP1's range check
        raise ValueError(f"message representative out of range: --message takes 0 to {key.modulus - 1}")
    prog = build(args.algo, key, r_bits=args.r_bits, build_seed=args.build_seed)
    out = execute(prog, program_inputs(prog, key, args.message), seed=args.seed)
    if isinstance(out.result, Signature):
        print(out.result.value)
        return 0
    if isinstance(out.result, ErrorOut):
        print(f"error output (check {out.result.check_index})", file=sys.stderr)
    elif isinstance(out.result, Crash):
        print(f"crash: {out.result.reason}", file=sys.stderr)
    return 3


def _cmd_campaign(args) -> int:
    key = _load_key(args.key)
    fields = [f.name for f in dataclasses.fields(CampaignSpec) if f.name not in ("key", "program")]
    spec = CampaignSpec(key=key, **{name: getattr(args, name) for name in fields})
    report = run_campaign(spec)
    if report.sampled_plans and report.plans_total < spec.plan_limit:
        # build_plans gives up after 50 * plan_limit draws
        print(
            f"note: sampling found {report.plans_total} of {spec.plan_limit} distinct plans "
            "before its draw guard",
            file=sys.stderr,
        )
    if args.out is not None:
        Path(args.out).write_text(report.to_csv() if args.format == "csv" else report.to_json() + "\n")
    print(report.summary_line)
    return 0


def _cmd_transform(args) -> int:
    prog = _load_program(args)
    if args.kind == "to-infective":
        prog = to_infective(prog)
    elif args.kind == "to-testbased":
        prog = to_testbased(prog)
    else:
        prog = harden(prog, 2 if args.copies is None else args.copies)
    _emit(dump_program(prog), args.out)
    return 0


def _cmd_recover(args) -> int:
    key = read_key_file(args.key)
    d = recover_d(key)
    e = recover_e(key)
    print(f"d={d} e={e} lambda={key.lam}")
    return 0


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of integers: {text!r}") from None


def _add_key_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--key",
        default=None,
        help="key file (JSON); defaults to the built-in 7x11 demo key",
    )


def _add_build_flags(p: argparse.ArgumentParser, r_bits: int | None = 8, build_seed: int | None = 0) -> None:
    """dump and transform default both to None, not given, so that a
    --program run can refuse them; _load_program resolves them to 8 and 0."""
    p.add_argument("--r-bits", type=int, default=r_bits, help="checksum prime width (default 8)")
    p.add_argument("--build-seed", type=int, default=build_seed, help="build-time blinder draws (default 0)")


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="crtfi", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a desk-scale key file")
    p.add_argument("--bits", type=int, default=8, help="prime width in bits")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_keygen)

    p = sub.add_parser("list-algos", help="catalog of countermeasure builders")
    p.set_defaults(fn=_cmd_list_algos)

    p = sub.add_parser("dump", help="print or save a built program")
    p.add_argument("--algo")
    p.add_argument("--program", help="read an existing dump instead of building")
    _add_key_flag(p)
    _add_build_flags(p, None, None)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_dump)

    p = sub.add_parser("sign", help="run one fault-free signature")
    p.add_argument("--algo", required=True)
    _add_key_flag(p)
    p.add_argument("--message", type=int, required=True)
    p.add_argument("--seed", type=int, default=42)
    _add_build_flags(p)
    p.set_defaults(fn=_cmd_sign)

    default = {f.name: f.default for f in dataclasses.fields(CampaignSpec)}
    p = sub.add_parser("campaign", help="inject faults at every site and report")
    p.add_argument("--algo", required=True)
    _add_key_flag(p)
    p.add_argument("--order", type=int, default=default["order"])
    p.add_argument(
        "--kinds", type=lambda text: tuple(text.split(",")), default=default["kinds"],
        help="comma list",
    )
    p.add_argument("--max-skip-len", type=int, default=default["max_skip_len"])
    p.add_argument("--exhaustive-threshold", type=int, default=default["exhaustive_threshold"])
    p.add_argument(
        "--samples", type=int, dest="samples_per_site", default=default["samples_per_site"],
        help="values per sampled site",
    )
    p.add_argument("--seed", type=int, default=default["seed"])
    p.add_argument(
        "--messages", type=_int_list, default=default["messages"], help="comma list; default 2,3,N-2"
    )
    p.add_argument(
        "--plan-limit", type=int, default=default["plan_limit"],
        help="most plans an order of 2 or more runs: a larger space is sampled to this many; at least 1",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=default["workers"],
        help="processes that run and score the batches (default: the usable CPUs); "
        "the parent keeps the bookkeeping, so reports do not depend on it",
    )
    _add_build_flags(p)
    p.add_argument("--out", help="report file")
    p.add_argument("--format", choices=("report", "csv"), help="report file format (default report)")
    p.set_defaults(fn=_cmd_campaign)

    p = sub.add_parser("transform", help="rewrite a program's verification style")
    p.add_argument("--kind", required=True, choices=("to-infective", "to-testbased", "harden"))
    p.add_argument("--algo")
    p.add_argument("--program", help="read an existing dump instead of building")
    _add_key_flag(p)
    _add_build_flags(p, None, None)
    p.add_argument("--copies", type=int, help="harden replication count (default 2)")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("recover", help="rebuild d and e from a CRT key file")
    p.add_argument("--key", required=True, help="key file (JSON), d not needed")
    p.set_defaults(fn=_cmd_recover)

    return top


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.command in ("dump", "transform") and (args.algo is None) == (args.program is None):
        print("give exactly one of --algo or --program", file=sys.stderr)
        return 2
    if args.command in ("dump", "transform") and args.program is not None and (
        (args.key, args.r_bits, args.build_seed) != (None, None, None)
    ):
        print("--key, --r-bits and --build-seed apply to --algo only", file=sys.stderr)
        return 2
    if args.command == "transform" and args.copies is not None and args.kind != "harden":
        print("--copies applies to --kind harden only", file=sys.stderr)
        return 2
    if args.command == "campaign" and args.format is not None and args.out is None:
        print("--format applies with --out only", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        # DomainError, key and program file defects, and unsatisfiable
        # campaign specs all derive from these two
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
