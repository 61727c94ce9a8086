"""End-to-end runs of the command line against the built-in demo key."""

import json
import re
import shlex
from pathlib import Path

import pytest

from crtfi import cli, faultengine
from crtfi.circuit import (
    BuildError,
    FaultRunner,
    Signature,
    check_runnable,
    execute,
    parse_dump,
    validate,
)
from crtfi.cli import main
from crtfi.countermeasures import catalog, program_inputs
from crtfi.keytools import CrtKey, KeyError_, derive_crt, read_key_file, write_key_file
from crtfi.transforms import UnrecognizedInfectionShape, to_testbased


def _readme_transcript() -> list[tuple[list[str], list[str]]]:
    """(argv, output lines) per `$ crtfi ...` line of the README's command
    line block, the output being the lines up to the next blank line."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    runs = []
    for chunk in block.strip().split("\n\n"):
        command, *output = chunk.splitlines()
        assert command.startswith("$ crtfi "), command
        runs.append((shlex.split(command)[2:], output))
    return runs


def test_the_readme_transcript_is_what_the_cli_prints(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runs = _readme_transcript()
    commands = [argv[0] for argv, _out in runs]
    assert commands == ["keygen", "list-algos", "sign", "campaign", "transform", "recover"]
    for argv, want in runs:
        assert main(argv) == 0, argv
        got = capsys.readouterr().out.splitlines()
        if "..." in want:  # the README elides the lines between
            cut = want.index("...")
            head, tail = want[:cut], want[cut + 1 :]
            assert len(got) > len(head) + len(tail), argv
            got = got[: len(head)] + ["..."] + got[len(got) - len(tail) :]
        assert got == want, argv


def test_sign_prints_the_signature(capsys):
    rc = main(["sign", "--algo", "unprotected", "--message", "2"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "30"


@pytest.mark.parametrize("offset", [-78, 0, 23])  # messages -1, N and N + 23
def test_sign_refuses_a_message_outside_zero_to_n(offset, capsys):
    n = 77  # the demo key's modulus
    assert main(["sign", "--algo", "unprotected", "--message", str(n + offset)]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert "message representative out of range" in out.err


def test_sign_signs_zero_and_n_minus_one(capsys):
    for message in (0, 76):
        assert main(["sign", "--algo", "shamir", "--message", str(message), "--r-bits", "5"]) == 0
    # 76 is -1 mod 77, and d = 43 is odd
    assert capsys.readouterr().out.split() == ["0", "76"]


def test_protected_schemes_sign_identically(capsys):
    for algo in ("shamir", "aumuller", "vigilant"):
        rc = main(["sign", "--algo", algo, "--message", "2", "--r-bits", "5"])
        assert rc == 0
    out = capsys.readouterr().out.split()
    assert out == ["30", "30", "30"]


def test_recover_needs_only_the_crt_half(tmp_path, capsys):
    path = tmp_path / "half.json"
    write_key_file(CrtKey(p=7, q=11, dp=1, dq=3, iq=2), str(path))
    rc = main(["recover", "--key", str(path)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "d=13 e=7 lambda=30"


def test_recover_refuses_a_key_no_exponent_fits(tmp_path, capsys):
    path = tmp_path / "unfit.json"
    path.write_text(json.dumps({"p": "7", "q": "11", "dp": "2", "dq": "3", "iq": "2"}))
    assert main(["recover", "--key", str(path)]) == 3
    assert "dp=2 is not a unit mod 6" in capsys.readouterr().err


def test_keygen_then_recover_round_trip(tmp_path, capsys):
    path = tmp_path / "key.json"
    assert main(["keygen", "--bits", "8", "--seed", "1", "--out", str(path)]) == 0
    assert main(["recover", "--key", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("wrote ")
    fields = dict(tok.split("=") for tok in out[1].split())
    d, e, lam = int(fields["d"]), int(fields["e"]), int(fields["lambda"])
    assert (d * e) % lam == 1

    data = json.loads(path.read_text())
    assert {"p", "q", "dp", "dq", "iq"} <= set(data)


def test_list_algos_matches_the_catalog(capsys):
    assert main(["list-algos"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert {line.split()[0] for line in lines} == {e.algo for e in catalog()}
    assert len(lines) == len(catalog())


def test_campaign_reports_are_byte_identical_across_reruns(tmp_path, capsys):
    args = [
        "campaign", "--algo", "shamir", "--kinds", "zero,randomize",
        "--r-bits", "5", "--messages", "2",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == lines[1]
    assert lines[0].startswith("algo=shamir order=1 plans=")
    json.loads(a.read_text())  # report files are valid JSON

    c = tmp_path / "c.csv"
    assert main(args + ["--format", "csv", "--out", str(c)]) == 0
    assert c.read_text().splitlines()[0].startswith("site,kind,phase,")


def test_a_campaign_builds_only_the_successes_its_report_lists(tmp_path, monkeypatch):
    built = []
    real = faultengine.AttackSuccess

    def counting(*fields):
        built.append(fields)
        return real(*fields)

    monkeypatch.setattr(faultengine, "AttackSuccess", counting)
    args = ["campaign", "--algo", "shamir", "--kinds", "zero,randomize,skip", "--r-bits", "5"]
    out = tmp_path / "rep.json"
    assert main(args + ["--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["successes_total"] > len(doc["successes"]) > 0
    assert len(built) == len(doc["successes"])
    built.clear()
    assert main(args + ["--format", "csv", "--out", str(tmp_path / "rep.csv")]) == 0
    assert built == []


def test_campaign_flag_defaults_are_the_spec_defaults(monkeypatch):
    specs = []

    def refuse(spec):
        specs.append(spec)
        raise ValueError("not run")

    monkeypatch.setattr(cli, "run_campaign", refuse)
    assert main(["campaign", "--algo", "shamir"]) == 3
    assert specs == [faultengine.CampaignSpec(key=cli._DEMO_KEY, algo="shamir")]


@pytest.mark.parametrize("fmt", ["report", "csv"])
def test_format_is_refused_without_out(tmp_path, monkeypatch, capsys, fmt):
    ran = []
    real = cli.run_campaign
    monkeypatch.setattr(cli, "run_campaign", lambda spec: ran.append(spec) or real(spec))
    args = ["campaign", "--algo", "unprotected", "--kinds", "zero", "--messages", "2"]
    assert main(args + ["--format", fmt]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--format applies with --out only" in err
    assert ran == []
    # --out alone and --out with --format report write the same JSON report
    plain, named = tmp_path / "plain.json", tmp_path / "named.json"
    assert main(args + ["--out", str(plain)]) == 0
    assert main(args + ["--out", str(named), "--format", "report"]) == 0
    assert len(ran) == 2
    assert plain.read_bytes() == named.read_bytes()
    assert json.loads(plain.read_text())["line"] == capsys.readouterr().out.splitlines()[0]


def test_a_campaign_notes_sampling_that_stops_short_of_the_plan_limit(tmp_path, monkeypatch, capsys):
    args = ["campaign", "--algo", "unprotected", "--order", "2", "--kinds", "zero",
            "--r-bits", "5", "--messages", "2", "--plan-limit", "40"]
    full = tmp_path / "full.json"
    assert main(args + ["--out", str(full)]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("algo=unprotected order=2 plans=40 ")
    # the draw guard stopping at 30 plans, as it may when a site has many actions
    real = faultengine.build_plans

    def short(program, spec, table):
        plans, sampled, ids = real(program, spec, table)
        return plans[:30], sampled, ids

    monkeypatch.setattr(faultengine, "build_plans", short)
    assert main(args) == 0
    out, err = capsys.readouterr()
    assert out.startswith("algo=unprotected order=2 plans=30 ")
    assert err == "note: sampling found 30 of 40 distinct plans before its draw guard\n"


def test_dump_transform_pipeline_round_trips(tmp_path):
    plain = tmp_path / "aumuller.txt"
    infected = tmp_path / "infective.txt"
    doubled = tmp_path / "doubled.txt"
    assert main(["dump", "--algo", "aumuller", "--r-bits", "5", "--out", str(plain)]) == 0
    assert main([
        "transform", "--kind", "to-infective", "--program", str(plain), "--out", str(infected),
    ]) == 0
    assert main([
        "transform", "--kind", "harden", "--program", str(infected),
        "--copies", "2", "--out", str(doubled),
    ]) == 0
    prog = parse_dump(doubled.read_text())
    assert len(prog.meta.factors) == 10


def test_a_hardened_dump_hardens_again(tmp_path):
    once, twice = tmp_path / "a2.txt", tmp_path / "a4.txt"
    harden = ["transform", "--kind", "harden"]
    assert main([*harden, "--algo", "aumuller", "--r-bits", "5", "--out", str(once)]) == 0
    assert main([*harden, "--program", str(once), "--out", str(twice)]) == 0
    assert len(parse_dump(twice.read_text()).meta.verification_checks) == 20


def test_dumps_naming_missing_instructions_are_refused_by_every_transform(tmp_path, capsys):
    plain = tmp_path / "plain.txt"
    assert main(["dump", "--algo", "aumuller-infective", "--r-bits", "5", "--out", str(plain)]) == 0
    text = plain.read_text()
    first_factor = next(ln for ln in text.splitlines() if ln.startswith("# factor"))
    c_reg, a, b, m, _diff, c_idx, group = first_factor.split()[2:]
    edits = {
        "infection": re.sub(r"(?m)^# infection .*$", "# infection 999", text),
        "tail": re.sub(r"(?m)^# tail .*$", "# tail 999", text),
        "factor": text.replace(
            first_factor, f"# factor {c_reg} {a} {b} {m} 999 {c_idx} {group}"
        ),
    }
    for what, bad in edits.items():
        assert bad != text, what
        path = tmp_path / f"bad-{what}.txt"
        path.write_text(bad)
        for kind in ("to-infective", "to-testbased", "harden"):
            assert main(["transform", "--kind", kind, "--program", str(path)]) == 3, (what, kind)
    err = capsys.readouterr().err
    assert err.count("error: cannot parse line") == 9
    assert "no instruction 999" in err


@pytest.mark.parametrize(
    "line, edited",
    [
        ("13: inf0c <- add inf0d onei mod p", "13: inf0c <- add inf0d onei mod q"),
        ("15: inf1c <- add inf1d onei mod q", "15: inf1c <- add inf1d onei"),
        ("46: infm1 <- mul inf0c inf1c", "46: infm1 <- mul inf0c inf1c mod p"),
        ("51: return infs", "51: return infm4"),
    ],
    ids=["factor-mod", "factor-no-mod", "product-mod", "return"],
)
def test_tampered_infection_shapes_are_not_turned_into_checks(tmp_path, capsys, line, edited):
    plain = tmp_path / "plain.txt"
    assert main(["dump", "--algo", "aumuller-infective", "--r-bits", "5", "--out", str(plain)]) == 0
    text = plain.read_text()
    assert text.count(f"\n{line}\n") == 1
    path = tmp_path / "tampered.txt"
    path.write_text(text.replace(f"\n{line}\n", f"\n{edited}\n"))
    with pytest.raises(UnrecognizedInfectionShape):
        to_testbased(parse_dump(path.read_text()))
    assert main(["transform", "--kind", "to-testbased", "--program", str(path)]) == 3
    assert "error: " in capsys.readouterr().err


def test_a_dump_whose_phases_miss_instructions_is_refused(tmp_path, capsys):
    path = tmp_path / "short.txt"
    assert main(["dump", "--algo", "aumuller", "--r-bits", "5", "--out", str(path)]) == 0
    text = path.read_text()
    short = re.sub(r"(?m)^# phases \S+ \S+ ", "# phases ", text)
    assert short != text
    path.write_text(short)
    assert main(["dump", "--program", str(path)]) == 3
    assert main(["transform", "--kind", "to-infective", "--program", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.count("error: cannot parse line '# phases") == 2


def test_a_dump_whose_draw_avoids_an_unwritten_register_is_refused(tmp_path, capsys):
    # (program, index of its draw, the transforms that accept it unedited)
    for algo, draw, kinds in (
        ("shamir", 5, ("to-infective", "harden")),
        ("aumuller-infective", 6, ("to-testbased", "harden")),
    ):
        path = tmp_path / f"{algo}.txt"
        assert main(["dump", "--algo", algo, "--r-bits", "5", "--out", str(path)]) == 0
        text = path.read_text()
        for kind in kinds:
            assert main(["transform", "--kind", kind, "--program", str(path)]) == 0, (algo, kind)
        for avoid in ("pp", "ghost"):  # written after the draw, and never written
            bad = text.replace("randprime 5 avoid p,q", f"randprime 5 avoid p,{avoid}")
            assert bad != text
            path.write_text(bad)
            prog = parse_dump(bad)
            errors = [(d.kind, d.index) for d in validate(prog) if d.severity == "error"]
            assert errors == [("def-before-use", draw)], (algo, avoid)
            inputs = program_inputs(prog, derive_crt(7, 11, 43), 2)
            # the reference reads the unwritten register as 0 and signs anyway
            assert isinstance(execute(prog, inputs, 42).result, Signature)
            with pytest.raises(BuildError, match="avoided before any write"):
                FaultRunner(prog, inputs, 42)
            for kind in kinds:
                assert main(["transform", "--kind", kind, "--program", str(path)]) == 3, (algo, avoid, kind)
    assert capsys.readouterr().err.count("avoided before any write") == 8


# a runnable dump that harden takes
RUNNABLE = """\
# program tiny
# inputs M p
0: m <- input M
1: p <- input p
2: r <- randprime 5
3: s <- mul m r mod p
4: t <- mul r m mod p
5: checkeq s t
6: return s
"""


@pytest.mark.parametrize(
    "kind, old, new, detail",
    [
        ("bad-input", "1: p <- input p", "1: p <- input q", "'q' not declared"),
        ("bad-width", "randprime 5", "randprime 1", "draw width must be >= 2 bits"),
        ("rewrite", "4: t <- mul r m mod p\n5: checkeq s t", "4: r <- mul r m mod p\n5: checkeq s r",
         "'r' already written at 2"),
        ("missing-return", "6: return s\n", "", "no Return"),
    ],
)
def test_a_dump_with_one_validate_error_is_refused(tmp_path, capsys, kind, old, new, detail):
    path = tmp_path / "tiny.txt"
    path.write_text(RUNNABLE)
    assert main(["transform", "--kind", "harden", "--program", str(path)]) == 0
    assert main(["dump", "--program", str(path)]) == 0
    assert capsys.readouterr().out.endswith(RUNNABLE)
    text = RUNNABLE.replace(old, new)
    assert text != RUNNABLE
    prog = parse_dump(text)
    assert [d.kind for d in validate(prog) if d.severity == "error"] == [kind]
    with pytest.raises(BuildError, match=re.escape(detail)):
        check_runnable(prog)
    path.write_text(text)
    assert main(["transform", "--kind", "harden", "--program", str(path)]) == 3
    assert f"is not runnable: {detail}" in capsys.readouterr().err
    # dump refuses what it could not re-emit as a runnable program
    assert main(["dump", "--program", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and f"is not runnable: {detail}" in err


@pytest.mark.parametrize(
    "text, detail",
    [
        ('["7", "11", "1", "3", "2"]', "must hold one object"),
        ('{"p": "7", "q": "eleven", "dp": "1", "dq": "3", "iq": "2"}', "field 'q' is not a decimal string"),
    ],
)
def test_a_key_file_that_is_not_one_object_of_decimals_is_refused(tmp_path, capsys, text, detail):
    path = tmp_path / "key.json"
    path.write_text(text)
    with pytest.raises(KeyError_, match=detail):
        read_key_file(path)
    assert main(["recover", "--key", str(path)]) == 3
    assert detail in capsys.readouterr().err


def test_copies_is_refused_outside_harden(capsys):
    for kind in ("to-infective", "to-testbased"):
        assert main(["transform", "--kind", kind, "--algo", "aumuller", "--copies", "5"]) == 2
    assert capsys.readouterr().err.count("--copies applies to --kind harden only") == 2
    # harden keeps its default of two copies
    assert main(["transform", "--kind", "harden", "--algo", "aumuller", "--r-bits", "5"]) == 0
    default = capsys.readouterr().out
    assert main(["transform", "--kind", "harden", "--algo", "aumuller", "--r-bits", "5",
                 "--copies", "2"]) == 0
    assert capsys.readouterr().out == default


@pytest.mark.parametrize(
    "command", [["dump"], ["transform", "--kind", "to-infective"]], ids=["dump", "transform"]
)
@pytest.mark.parametrize(
    "flag, value",
    [("--key", "bad.json"), ("--r-bits", "7"), ("--build-seed", "3")],
    ids=["key", "r-bits", "build-seed"],
)
def test_build_flags_are_refused_with_a_program_file(tmp_path, capsys, command, flag, value):
    program = tmp_path / "p.txt"
    assert main(["dump", "--algo", "aumuller", "--r-bits", "5", "--out", str(program)]) == 0
    # p = q: a key every subcommand taking --key refuses
    (tmp_path / "bad.json").write_text(json.dumps({"p": "7", "q": "7", "dp": "1", "dq": "1", "iq": "1"}))
    capsys.readouterr()
    arg = str(tmp_path / value) if flag == "--key" else value
    assert main([*command, "--program", str(program), flag, arg]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--key, --r-bits and --build-seed apply to --algo only" in err
    assert main([*command, "--program", str(program)]) == 0


def test_dump_builds_at_the_default_build_flags_unless_given(capsys):
    assert main(["dump", "--algo", "blomer"]) == 0
    default = capsys.readouterr().out
    assert main(["dump", "--algo", "blomer", "--r-bits", "8", "--build-seed", "0"]) == 0
    assert capsys.readouterr().out == default
    assert main(["dump", "--algo", "blomer", "--build-seed", "3"]) == 0
    assert capsys.readouterr().out != default


def test_dump_demands_exactly_one_source(tmp_path, capsys):
    assert main(["dump"]) == 2
    some = tmp_path / "p.txt"
    assert main(["dump", "--algo", "unprotected", "--out", str(some)]) == 0
    assert main(["dump", "--algo", "unprotected", "--program", str(some)]) == 2
    err = capsys.readouterr().err
    assert "exactly one" in err


def test_bad_inputs_exit_with_the_data_code(tmp_path, capsys):
    assert main(["sign", "--algo", "nosuch", "--message", "2"]) == 3
    assert main(["recover", "--key", str(tmp_path / "missing.json")]) == 3
    assert main(["campaign", "--algo", "unprotected", "--kinds", "melt"]) == 3
    # 0 and p = 7 are no messages for the 7x11 demo key
    assert main(["campaign", "--algo", "unprotected", "--messages", "0,7"]) == 3
    assert main(["campaign", "--algo", "unprotected", "--messages", "2,2"]) == 3
    assert main(["campaign", "--algo", "unprotected", "--kinds", "zero,zero"]) == 3
    # keys that do not sign correctly on their own
    for field, value in (("iq", "3"), ("p", "8"), ("d", "44"), ("e", "5"), ("N", "1000")):
        key = {"p": "7", "q": "11", "dp": "1", "dq": "3", "iq": "2", "d": "43", field: value}
        path = tmp_path / f"bad-{field}.json"
        path.write_text(json.dumps(key))
        assert main(["campaign", "--algo", "unprotected", "--key", str(path)]) == 3
    # every other subcommand taking a key refuses one too
    bad_iq = str(tmp_path / "bad-iq.json")
    assert main(["sign", "--algo", "unprotected", "--message", "2", "--key", bad_iq]) == 3
    assert main(["dump", "--algo", "unprotected", "--key", bad_iq]) == 3
    assert main(["recover", "--key", bad_iq]) == 3
    # campaigns with nothing to run
    no_plans = (["--kinds", "skip", "--max-skip-len", "0"], ["--order", "2", "--plan-limit", "0"])
    for flags in no_plans:
        assert main(["campaign", "--algo", "unprotected", *flags]) == 3
    # malformed program lines
    bad_lines = ("1: s <- modexp m m", "1: s <- const", "1:", "1: s <- add m m mod", "1: checkeq m")
    for line in bad_lines:
        path = tmp_path / "bad.txt"
        path.write_text(f"# program bad\n# inputs m\n0: m <- input m\n{line}\n")
        assert main(["dump", "--program", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.count("error:") == 21
    assert "key e=5 is not the inverse of dp=1 mod 6" in err
    assert "key N=1000 is not p*q=77" in err
    assert "not a unit mod N=77" in err
    assert "message 2 is repeated" in err
    assert "fault kind 'zero' is repeated" in err
    assert "no fault plans" in err
    assert "cannot parse line '1: s <- const'" in err


def test_campaigns_that_would_drop_runs_exit_with_the_data_code(tmp_path, capsys):
    # no value per sampled site would run none of the sampled randomize rows
    flags = ["--r-bits", "5", "--kinds", "randomize", "--exhaustive-threshold", "64"]
    assert main(["campaign", "--algo", "shamir", *flags, "--samples", "0"]) == 3
    # the default message 3 shares the factor 3 with N = 33
    path = tmp_path / "n33.json"
    write_key_file(derive_crt(3, 11, 7), str(path))
    assert main(["campaign", "--algo", "fixed-shamir", "--key", str(path)]) == 3
    err = capsys.readouterr().err
    assert "samples_per_site < 1 gives sampled sites no fault plans" in err
    assert "message 3 is not a unit mod N=33" in err


@pytest.mark.parametrize("order", ["1", "2"])
def test_a_plan_limit_below_one_is_refused_at_every_order(monkeypatch, capsys, order):
    # refused by the spec, before any baseline runs or any table is built
    built = []
    monkeypatch.setattr(faultengine, "site_action_table", lambda *args: built.append(args))
    monkeypatch.setattr(faultengine, "_signed_baselines", lambda *args: built.append(args))
    assert main(["campaign", "--algo", "shamir", "--order", order, "--plan-limit", "0"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and built == []
    # the one field at fault is named: widening kinds or max_skip_len would not help
    assert err == "error: plan_limit < 1 gives orders 2 and above no fault plans\n"


def test_flag_grammar_failures_use_the_argparse_code():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["campaign"])  # --algo is required
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["campaign", "--algo", "unprotected", "--messages", "a,b"])
    assert info.value.code == 2
