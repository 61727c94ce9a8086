"""End-to-end runs of the command line against the built-in demo key."""

import json
import re

import pytest

from crtfi import faultengine
from crtfi.circuit import BuildError, FaultRunner, Signature, execute, parse_dump, validate
from crtfi.cli import main
from crtfi.countermeasures import catalog, program_inputs
from crtfi.keytools import CrtKey, derive_crt, write_key_file


def test_sign_prints_the_signature(capsys):
    rc = main(["sign", "--algo", "unprotected", "--message", "2"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "30"


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
    assert err.count("error:") == 19
    assert "key e=5 is not the inverse of dp=1 mod 6" in err
    assert "key N=1000 is not p*q=77" in err
    assert "not a unit mod N=77" in err
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
