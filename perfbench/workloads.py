"""The benchmark's three workloads: set-up, timed units and output checks.

Each workload is a class whose constructor is the set-up (key, key file,
program builds, fault grid) and whose `units()` are the timed calls into
crtfi, run one after another in a closed loop on one thread. `check()`
then verifies a unit's output without trusting the code under test: every
fault-free signature must satisfy pow(S, e, N) == M with e computed here
from (p, q, d), and every reported break must hand gcd(N, |S - S'|) in
{p, q}. At the default seed, report hashes and grid tallies must also equal
values recorded from the seed commit.

crtfi is reached through module attributes (`faultengine.run_campaign`,
not a name imported from it), so the tracer's wrappers see these calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from pathlib import Path

import crtfi.cli
from crtfi import circuit, countermeasures, faultengine, keytools, transforms
from crtfi.circuit import FaultKind


def make_key(spec: dict) -> keytools.CrtKey:
    if "gen_key" in spec:
        bits, seed = spec["gen_key"]
        return keytools.crt_from_rsa(keytools.gen_key(bits, seed))
    p, q, d = spec["derive_crt"]
    return keytools.derive_crt(p, q, d)


def draw_messages(n: int, seed: int, count: int) -> list[int]:
    """Distinct messages coprime to n from the upper half of [2, n-1).

    One bit length for every draw: the first message's bit length sizes the
    envelope domain of unreduced reads, so mixing lengths would change the
    plan count, and with it the work, from seed to seed.
    """
    rng = random.Random(seed)
    out: list[int] = []
    while len(out) < count:
        m = rng.randrange(n // 2, n - 1)
        if math.gcd(m, n) == 1 and m not in out:
            out.append(m)
    return out


class Oracle:
    """Signature checks from the stdlib alone."""

    def __init__(self, key: keytools.CrtKey):
        self.p, self.q, self.n = key.p, key.q, key.p * key.q
        self.e = pow(key.d, -1, math.lcm(key.p - 1, key.q - 1))

    def baseline_ok(self, message: int, sig: int) -> bool:
        return pow(sig, self.e, self.n) == message % self.n

    def break_ok(self, good: int, faulty: int) -> bool:
        return math.gcd(self.n, abs(good - faulty)) in (self.p, self.q)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Order1Exhaustive:
    """`crtfi campaign` in-process through cli.main, one report file per algo."""

    name = "order1-exhaustive"

    def __init__(self, params: dict, seed: int, workdir: Path, default_seed: int):
        key = make_key(params["key"])
        self.oracle = Oracle(key)
        key_file = workdir / "key.json"
        keytools.write_key_file(key, key_file)
        n = key.p * key.q
        flags = list(params["campaign_flags"])
        if seed == default_seed:
            self.messages = [2, 3, n - 2]  # the CLI's own default
        else:
            self.messages = draw_messages(n, seed, params["messages"])
            flags += ["--messages", ",".join(map(str, self.messages))]
        self.argv = {
            algo: ["campaign", "--algo", algo, "--key", str(key_file), *flags,
                   "--out", str(workdir / f"{algo}.json")]
            for algo in params["algos"]
        }

    def units(self):
        for algo, argv in self.argv.items():
            yield algo, lambda argv=argv: _cli(argv)

    def check(self, label: str, out, pins: dict | None) -> tuple[int, list[str]]:
        rc, line = out
        text = Path(self.argv[label][-1]).read_text()
        doc = json.loads(text)
        bad = []
        if rc != 0:
            bad.append(f"exit code {rc}")
        if line != doc["line"]:
            bad.append(f"printed {line!r}, report says {doc['line']!r}")
        if doc["messages"] != self.messages:
            bad.append(f"messages {doc['messages']} != {self.messages}")
        bad += _check_signatures(
            self.oracle,
            {int(m): s for m, s in doc["baselines"].items()},
            [(s["message"], s["signature"], s["factor"]) for s in doc["successes"]],
        )
        if pins is not None:
            want = pins[label]
            if line != want["line"] or _sha256(text) != want["sha256"]:
                bad.append(f"report differs from the pinned one ({line})")
        return doc["plans_total"] * len(self.messages), bad


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = crtfi.cli.main(argv)
    return rc, buf.getvalue().strip()


def _check_signatures(oracle: Oracle, baselines: dict[int, int], breaks) -> list[str]:
    bad = [f"baseline S={s} fails S^e = M={m}" for m, s in baselines.items()
           if not oracle.baseline_ok(m, s)]
    for m, sig, factor in breaks:
        if not oracle.break_ok(baselines[m], sig) or factor not in (oracle.p, oracle.q):
            bad.append(f"listed break S'={sig} at M={m} leaks no factor")
    return bad


class OrderNSampled:
    """run_campaign over the correct schemes at orders above one, sampled."""

    name = "orderN-sampled"

    def __init__(self, params: dict, seed: int, workdir: Path, default_seed: int):
        self.key = make_key(params["key"])
        self.oracle = Oracle(self.key)
        (self.message,) = draw_messages(self.key.p * self.key.q, seed, 1)
        self.specs = {
            f"{algo}@{order}": faultengine.CampaignSpec(
                key=self.key, algo=algo, messages=(self.message,), order=order,
                kinds=tuple(params["kinds"]), seed=seed, r_bits=params["r_bits"],
                exhaustive_threshold=params["exhaustive_threshold"],
                plan_limit=params["plan_limit"],
            )
            for algo in params["algos"]
            for order in params["orders"]
        }

    def units(self):
        for label, spec in self.specs.items():
            yield label, lambda spec=spec: _campaign_json(spec)

    def check(self, label: str, out, pins: dict | None) -> tuple[int, list[str]]:
        rep, text = out
        bad = _check_signatures(
            self.oracle, rep.baselines,
            [(s.message, s.signature, s.factor) for s in rep.successes],
        )
        if list(rep.messages) != [self.message]:
            bad.append(f"messages {rep.messages} != ({self.message},)")
        if pins is not None and _sha256(text) != pins[label]:
            bad.append(f"report differs from the pinned one ({rep.summary_line})")
        return rep.plans_total * len(rep.messages), bad


def _campaign_json(spec):
    rep = faultengine.run_campaign(spec)
    return rep, rep.to_json()


def erase_grid(prog, key, message: int, exec_seed: int, value_seed: int, per_site: int):
    """Randomize one data write while zeroing or skipping one verification write.

    Returns the fault-free signature and the plan list. Values for each data
    site are drawn from its governing domain by a stream seeded from
    (value_seed, site index).
    """
    base = circuit.execute(prog, countermeasures.program_inputs(prog, key, message), seed=exec_seed)
    if not isinstance(base.result, circuit.Signature):
        raise ValueError(f"fault-free baseline of {prog.name} is {base.result}")
    domains = faultengine.site_domains(prog, base.regs())
    verify = sorted({i for f in prog.meta.factors for i in (f.diff_idx, f.c_idx)})
    plans = []
    for di, ins in enumerate(prog.instrs):
        if di in verify or isinstance(ins, (circuit.LoadInput, circuit.Ret)):
            continue
        if circuit.dst_of(ins) is None:
            continue
        site = circuit.WriteOf(di)
        dom, nominal = domains[site]
        rng = random.Random(value_seed * 1009 + di)
        vals: set[int] = set()
        while len(vals) < min(per_site, dom - 1):
            v = rng.randrange(dom)
            if v != nominal:
                vals.add(v)
        for v in sorted(vals):
            data_act = circuit.FaultAction(site, FaultKind.RANDOMIZE, v)
            for vi in verify:
                plans.append((data_act, circuit.FaultAction(circuit.WriteOf(vi), FaultKind.ZERO)))
                plans.append((data_act, circuit.FaultAction(circuit.SkipRange(vi, vi), FaultKind.SKIP)))
    return base.result.value, plans


class ReplayProbe:
    """The erase-the-check grid through replay_plan and plan_persists.

    A hit counts as erase-enabled when it persists and its data fault alone
    does not already break persistently, which is what doubling the
    infection factors must drive to zero.
    """

    name = "replay-probe"

    def __init__(self, params: dict, seed: int, workdir: Path, default_seed: int):
        self.key = make_key(params["key"])
        self.oracle = Oracle(self.key)
        self.message = params["message"]
        self.exec_seed = params["exec_seed"]
        self.grids = {}
        for copies in params["copies"]:
            prog = countermeasures.build(params["algo"], self.key, r_bits=params["r_bits"],
                                         build_seed=0)
            if copies > 1:
                prog = transforms.harden(prog, copies)
            good, plans = erase_grid(prog, self.key, self.message, self.exec_seed, seed,
                                     params["values_per_site"])
            self.grids[f"copies={copies}"] = (prog, good, plans)

    def units(self):
        for label, (prog, _good, plans) in self.grids.items():
            yield label, lambda prog=prog, plans=plans: self._probe(prog, plans)

    def _probe(self, prog, plans):
        key, m, seed = self.key, self.message, self.exec_seed
        enabled = 0
        hits: list[tuple[int, int]] = []  # (released value, claimed factor)
        alone: dict = {}
        for plan in plans:
            res, broke, factor = faultengine.replay_plan(prog, key, m, plan, seed)
            if not broke:
                continue
            hits.append((res.value, factor))
            if not faultengine.plan_persists(prog, key, m, plan, seed):
                continue
            data_act = plan[0]
            ck = (data_act.site, data_act.value)
            if ck not in alone:
                _r, b1, _f1 = faultengine.replay_plan(prog, key, m, (data_act,), seed)
                alone[ck] = b1 and faultengine.plan_persists(prog, key, m, (data_act,), seed)
            if not alone[ck]:
                enabled += 1
        return enabled, hits

    def check(self, label: str, out, pins: dict | None) -> tuple[int, list[str]]:
        enabled, hits = out
        _prog, good, plans = self.grids[label]
        bad = _check_signatures(
            self.oracle, {self.message: good},
            [(self.message, v, factor) for v, factor in hits],
        )
        if pins is not None and [len(plans), enabled] != pins[label]:
            bad.append(f"grid (plans, erase-enabled) = ({len(plans)}, {enabled}) "
                       f"!= pinned {tuple(pins[label])}")
        return len(plans), bad


WORKLOADS = {w.name: w for w in (Order1Exhaustive, OrderNSampled, ReplayProbe)}
