"""Spans around calls into crtfi's modules, recorded from the benchmark side.

The tracer replaces public functions at the module attribute their caller
looks up: `faultengine` imported `execute`, `build`, `program_inputs` and
`bellcore_extract` by name, so those are wrapped as
`crtfi.faultengine.execute` and so on, and the benchmark's own calls go
through the defining module's attribute, which is wrapped as well. No file
under `src/` changes, so report bytes are the same traced or not.

Every call becomes a span (name, start, end, parent). Spans are kept in
compact arrays and written out once, at the end. A span's self time is its
duration minus the durations of its direct children; calls nest strictly on
one thread, so the children never overlap.
"""

from __future__ import annotations

import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

EXEC_BASELINE = "circuit.execute.baseline"
EXEC_FAULTED = "circuit.execute.faulted"
EXEC_REPLAY = "circuit.execute.replay"
PERSISTS = "faultengine.plan_persists"

# (module, attribute, span name); a name given twice is one layer reached
# through several importing modules
WRAPPED = (
    ("crtfi.cli", "main", "cli.main"),
    ("crtfi.cli", "run_campaign", "faultengine.run_campaign"),
    ("crtfi.faultengine", "run_campaign", "faultengine.run_campaign"),
    ("crtfi.faultengine", "site_action_table", "faultengine.site_action_table"),
    ("crtfi.faultengine", "build_plans", "faultengine.build_plans"),
    ("crtfi.faultengine", "score_outcome", "faultengine.score_outcome"),
    ("crtfi.faultengine", "replay_plan", "faultengine.replay_plan"),
    ("crtfi.faultengine", "plan_persists", PERSISTS),
    ("crtfi.faultengine.CampaignReport", "to_json", "faultengine.to_json"),
    ("crtfi.faultengine", "execute", None),
    ("crtfi.circuit", "execute", None),
    ("crtfi.faultengine", "build", "countermeasures.build"),
    ("crtfi.countermeasures", "build", "countermeasures.build"),
    ("crtfi.faultengine", "program_inputs", "countermeasures.program_inputs"),
    ("crtfi.countermeasures", "program_inputs", "countermeasures.program_inputs"),
    ("crtfi.transforms", "harden", "transforms.harden"),
    ("crtfi.faultengine", "bellcore_extract", "modmath.bellcore_extract"),
    ("crtfi.cli", "read_key_file", "keytools"),
    ("crtfi.keytools", "write_key_file", "keytools"),
    ("crtfi.keytools", "gen_key", "keytools"),
    ("crtfi.keytools", "crt_from_rsa", "keytools"),
    ("crtfi.keytools", "derive_crt", "keytools"),
)


class Tracer:
    """Installs the wrappers, records spans, and sums self time per name."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._self_s: list[float] = []
        self._calls: list[int] = []
        self.persistent = 0
        self._persist_depth = 0
        self._stack: list[int] = []
        self._child: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._self_s.append(0.0)
            self._calls.append(0)
        return self._ids[name]

    def self_s(self, name: str) -> float:
        return self._self_s[self._ids[name]] if name in self._ids else 0.0

    def calls(self, name: str) -> int:
        return self._calls[self._ids[name]] if name in self._ids else 0

    def total_self_s(self) -> float:
        return sum(self._self_s)

    def _counting_persists(self, fn):
        def persists(*args, **kwargs):
            self._persist_depth += 1
            try:
                held = fn(*args, **kwargs)
            finally:
                self._persist_depth -= 1
            self.persistent += bool(held)
            return held

        return persists

    def _wrap(self, fn, name: str | None):
        """The span wrapper; hot (one call per execution), so all locals."""
        stack, child = self._stack, self._child
        self_s, calls = self._self_s, self._calls
        starts, ends = self.span_start, self.span_end
        add_name, add_parent = self.span_name.append, self.span_parent.append
        add_start, add_end = starts.append, ends.append
        is_exec = name is None  # execute: classed by its plan and by who asked
        if is_exec:
            base_id, faulted_id, replay_id = (
                self._id(n) for n in (EXEC_BASELINE, EXEC_FAULTED, EXEC_REPLAY))
            fixed_id = -1
        else:
            fixed_id = self._id(name)
            if name == PERSISTS:
                fn = self._counting_persists(fn)

        def wrapper(*args, **kwargs):
            if is_exec:
                plan = kwargs["plan"] if "plan" in kwargs else (args[3] if len(args) > 3 else ())
                if not plan:
                    nid = base_id
                else:
                    nid = replay_id if self._persist_depth else faulted_id
            else:
                nid = fixed_id
            i = len(starts)
            add_name(nid)
            add_parent(stack[-1] if stack else -1)
            add_start(0.0)
            add_end(0.0)
            stack.append(i)
            child.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                d = t1 - t0
                self_s[nid] += d - child.pop()
                calls[nid] += 1
                starts[i] = t0
                ends[i] = t1
                if child:
                    child[-1] += d

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for owner_name, attr, name in WRAPPED:
            owner = _owner(owner_name)
            fn = getattr(owner, attr)
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def write(self, path: Path) -> None:
        """One JSON header line, then the four span arrays back to back."""
        header = {
            "names": self.names,
            "count": len(self.span_start),
            "layout": "int32 name[count], int32 parent[count], float64 start[count], "
            "float64 end[count]; native byte order; parent -1 is a root span",
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)


def _owner(dotted: str):
    if dotted.endswith(".CampaignReport"):
        return sys.modules[dotted.rsplit(".", 1)[0]].CampaignReport
    return sys.modules[dotted]


def layer_metrics(tr: Tracer, traced_wall_s: float,
                  overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics by name, as (value, unit).

    traced_wall_s is the traced interval's uncorrected length, which the
    self times and the residue add up to; overhead_s is what tracing cost.
    """
    sec, cnt = tr.self_s, tr.calls

    faulted_calls = cnt(EXEC_FAULTED)
    persists_calls = cnt(PERSISTS)
    out = {
        "circuit.execute.faulted_s": (sec(EXEC_FAULTED), "s"),
        "circuit.execute.faulted_calls": (faulted_calls, "count"),
        "circuit.execute.us_per_call": (
            1e6 * sec(EXEC_FAULTED) / faulted_calls if faulted_calls else 0.0, "us"),
        "circuit.execute.baseline_s": (sec(EXEC_BASELINE), "s"),
        "circuit.execute.baseline_calls": (cnt(EXEC_BASELINE), "count"),
        "circuit.execute.replay_s": (sec(EXEC_REPLAY), "s"),
        "circuit.execute.replay_calls": (cnt(EXEC_REPLAY), "count"),
        "faultengine.build_plans_s": (sec("faultengine.build_plans"), "s"),
        "faultengine.run_campaign.self_s": (sec("faultengine.run_campaign"), "s"),
        "faultengine.site_action_table_s": (sec("faultengine.site_action_table"), "s"),
        "faultengine.score_outcome_s": (sec("faultengine.score_outcome"), "s"),
        "faultengine.replay_plan_s": (sec("faultengine.replay_plan"), "s"),
        "faultengine.replay_plan_calls": (cnt("faultengine.replay_plan"), "count"),
        "faultengine.plan_persists_s": (sec(PERSISTS), "s"),
        "faultengine.plan_persists_calls": (persists_calls, "count"),
        "faultengine.persist_ratio": (
            tr.persistent / persists_calls if persists_calls else 0.0, "ratio"),
        "faultengine.to_json_s": (sec("faultengine.to_json"), "s"),
        "countermeasures.build_s": (sec("countermeasures.build"), "s"),
        "countermeasures.program_inputs_s": (sec("countermeasures.program_inputs"), "s"),
        "countermeasures.program_inputs_calls": (cnt("countermeasures.program_inputs"), "count"),
        "transforms.harden_s": (sec("transforms.harden"), "s"),
        "keytools.s": (sec("keytools"), "s"),
        "modmath.bellcore_extract_s": (sec("modmath.bellcore_extract"), "s"),
        "modmath.bellcore_extract_calls": (cnt("modmath.bellcore_extract"), "count"),
        "cli.main.self_s": (sec("cli.main"), "s"),
    }
    out["bench.residue_s"] = (traced_wall_s - tr.total_self_s(), "s")
    out["trace.wall_s"] = (traced_wall_s, "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out
