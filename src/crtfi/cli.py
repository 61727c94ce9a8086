"""Command-line front end.

Subcommands cover the whole pipeline: key generation, catalog listing,
program dumps, single signatures, fault campaigns, verification-style
transforms, and private-exponent recovery. Output bytes depend only on the
flags and seeds, so reports can be diffed across reruns.

Exit codes: 0 success, 2 flag grammar, 3 data error (unknown algorithm,
malformed key or program file, unsatisfiable campaign spec).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .circuit import Crash, ErrorOut, Program, Signature, dump_program, execute, parse_dump
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
    if args.program is not None:
        text = Path(args.program).read_text()
        return parse_dump(text)
    key = _load_key(args.key)
    return build(args.algo, key, r_bits=args.r_bits, build_seed=args.build_seed)


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
    spec = CampaignSpec(
        key=key,
        algo=args.algo,
        messages=args.messages,
        order=args.order,
        kinds=tuple(args.kinds.split(",")),
        max_skip_len=args.max_skip_len,
        exhaustive_threshold=args.exhaustive_threshold,
        samples_per_site=args.samples,
        seed=args.seed,
        r_bits=args.r_bits,
        build_seed=args.build_seed,
        plan_limit=args.plan_limit,
        workers=args.workers,
    )
    report = run_campaign(spec)
    if report.sampled_plans and report.plans_total < spec.plan_limit:
        # build_plans gives up after 50 * plan_limit draws
        print(
            f"note: sampling found {report.plans_total} of {spec.plan_limit} distinct plans "
            "before its draw guard",
            file=sys.stderr,
        )
    text = report.to_csv() if args.format == "csv" else report.to_json() + "\n"
    if args.out is not None:
        Path(args.out).write_text(text)
    print(report.summary_line)
    return 0


def _cmd_transform(args) -> int:
    prog = _load_program(args)
    if args.kind == "to-infective":
        prog = to_infective(prog)
    elif args.kind == "to-testbased":
        prog = to_testbased(prog)
    else:
        prog = harden(prog, args.copies)
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


def _add_build_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--r-bits", type=int, default=8, help="checksum prime width")
    p.add_argument("--build-seed", type=int, default=0, help="build-time blinder draws")


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
    _add_build_flags(p)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_dump)

    p = sub.add_parser("sign", help="run one fault-free signature")
    p.add_argument("--algo", required=True)
    _add_key_flag(p)
    p.add_argument("--message", type=int, required=True)
    p.add_argument("--seed", type=int, default=42)
    _add_build_flags(p)
    p.set_defaults(fn=_cmd_sign)

    p = sub.add_parser("campaign", help="inject faults at every site and report")
    p.add_argument("--algo", required=True)
    _add_key_flag(p)
    p.add_argument("--order", type=int, default=1)
    p.add_argument("--kinds", default="zero,randomize,skip", help="comma list")
    p.add_argument("--max-skip-len", type=int, default=2)
    p.add_argument("--exhaustive-threshold", type=int, default=16384)
    p.add_argument("--samples", type=int, default=64, help="values per sampled site")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--messages", type=_int_list, default=(), help="comma list; default 2,3,N-2")
    p.add_argument("--plan-limit", type=int, default=10000)
    p.add_argument(
        "--workers", type=int, default=1, help="accepted for compatibility; campaigns run serially"
    )
    _add_build_flags(p)
    p.add_argument("--out", help="report file")
    p.add_argument("--format", choices=("report", "csv"), default="report")
    p.set_defaults(fn=_cmd_campaign)

    p = sub.add_parser("transform", help="rewrite a program's verification style")
    p.add_argument("--kind", required=True, choices=("to-infective", "to-testbased", "harden"))
    p.add_argument("--algo")
    p.add_argument("--program", help="read an existing dump instead of building")
    _add_key_flag(p)
    _add_build_flags(p)
    p.add_argument("--copies", type=int, default=2, help="harden replication count")
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
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        # DomainError, key and program file defects, and unsatisfiable
        # campaign specs all derive from these two
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
