#!/usr/bin/env python3
"""Validate tcfpn telemetry documents (CI smoke check).

Usage:
    validate_metrics.py --metrics metrics.json [--trace trace.json]
    validate_metrics.py --postmortem crash.postmortem.json
    validate_metrics.py --profile run.profile.json
    validate_metrics.py --stream run.stream [--metrics metrics.json]

Checks, using only the Python standard library:
  * each file parses as JSON (json.load — the real consumer-side test of
    the hand-rolled C++ emitters);
  * the metrics document has the {"run", "metrics"} shape, with the four
    instrumented subsystem subtrees and well-formed leaf instruments;
  * the trace document is Chrome trace-event JSON ("traceEvents" array of
    complete "X"/metadata "M" events) and contains at least one host span
    per instrumented subsystem prefix;
  * post-mortem documents follow the tcfpn-postmortem-v1 schema (DESIGN.md
    §8): run metadata, a classified fault, the journal-tail events, the
    flow table at the time of death and the involved cells;
  * metrics, profile and post-mortem run metadata carry the heterogeneous
    machine-shape summary (DESIGN.md §12): "uniform", a named preset's
    expansion, or a run-length-encoded `COUNT*key=val,...` group list;
  * stream captures follow the tcfpn-stream-v1 NDJSON schema (DESIGN.md
    §13): every line one JSON object, header first, seq contiguous from 0,
    step monotone non-decreasing across metrics/sample/events lines, exactly
    one run_end and it is last; with --metrics alongside, the run_end's
    cumulative metrics must equal the --metrics-json document leaf-for-leaf
    (the two exporters share one serializer — any divergence is a bug);
  * profile documents follow the tcfpn-profile-v1 schema (DESIGN.md §11):
    the closed world of ten cost terms, per-term totals and per-cell cycles
    that conserve exactly (cells == totals == attributed_cycles ==
    run.cycles), parseable folded stacks and a well-formed step-criticality
    aggregate.

Exit status 0 on success; 1 with a diagnostic on the first failure.
"""

import argparse
import json
import sys

SUBSYSTEMS = ("machine", "mem", "net", "sched")
# Present only in fault-injected runs (tcfrun --inject-faults); validated
# like any other subtree, plus the --expect-rollback assertion below.
RESIL_SUBSYSTEM = "resil"
INSTRUMENT_TYPES = {"counter", "accumulator", "histogram"}
FAULT_CLASSES = {"policy", "arith", "addr", "flow", "other", "divergence",
                 "watchdog"}
EVENT_KINDS = {
    "flow_created", "flow_halted", "thickness_changed", "spawn", "join",
    "suspend", "resume", "evict", "print", "step_committed", "fault",
    "fault_injected", "retry", "rollback", "group_retired",
}
FLOW_STATUSES = {"ready", "waiting-join", "suspended", "halted"}
# The profiler's closed-world term taxonomy, in canonical order (DESIGN.md
# §11). A document listing anything else was produced by a different schema.
PROFILE_TERMS = ["compute", "operand", "local", "branch", "fill", "net",
                 "fault", "idle", "switch", "sched"]
STEP_LIMITS = {"compute", "net", "fault", "idle"}


def fail(msg: str) -> None:
    print(f"validate_metrics: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_machine_shape(path, run):
    """The per-group heterogeneous config metadata (DESIGN.md §12): every
    run-describing document reports the machine shape as either the literal
    "uniform" or a run-length-encoded group list whose every '+'-separated
    term is COUNT*key[=val],... — the same grammar machine::apply_shape
    accepts back (modulo the elided NUMA rows)."""
    shape = run.get("machine_shape")
    if not isinstance(shape, str) or not shape:
        fail(f"{path}: run metadata missing non-empty string 'machine_shape'")
    if shape == "uniform":
        return
    for term in shape.split("+"):
        count, star, specs = term.partition("*")
        if not star or not count.isdigit() or int(count) < 1:
            fail(f"{path}: machine_shape term {term!r} lacks a COUNT* prefix")
        for kv in specs.split(","):
            key = kv.split("=", 1)[0]
            if key not in ("slots", "clock", "fill", "dist", "default"):
                fail(f"{path}: machine_shape term {term!r} has unknown "
                     f"key {key!r}")


def walk_instruments(tree, path=""):
    """Yields (path, leaf) for every instrument leaf in the metrics tree."""
    if not isinstance(tree, dict):
        fail(f"metrics node '{path}' is not an object")
    if "type" in tree:
        yield path, tree
        return
    for key, child in tree.items():
        yield from walk_instruments(child, f"{path}/{key}" if path else key)


def check_instrument(path, leaf):
    t = leaf.get("type")
    if t not in INSTRUMENT_TYPES:
        fail(f"instrument '{path}' has unknown type {t!r}")
    if t == "counter":
        if not isinstance(leaf.get("value"), int) or leaf["value"] < 0:
            fail(f"counter '{path}' value must be a non-negative integer")
    elif t == "accumulator":
        if not isinstance(leaf.get("count"), int):
            fail(f"accumulator '{path}' missing integer count")
        if leaf["count"] > 0 and not (leaf["min"] <= leaf["mean"] <= leaf["max"]):
            fail(f"accumulator '{path}' violates min <= mean <= max")
    elif t == "histogram":
        buckets = leaf.get("buckets")
        if not isinstance(buckets, list) or not buckets:
            fail(f"histogram '{path}' missing buckets")
        if sum(buckets) != leaf.get("count"):
            fail(f"histogram '{path}' bucket sum != count")


STREAM_SCHEMA = "tcfpn-stream-v1"
STREAM_TYPES = {"header", "metrics", "sample", "events", "log", "run_end"}
STEPPED_TYPES = {"metrics", "sample", "events"}
LOG_LEVELS = {"debug", "info", "warn", "error"}


def check_stream(path, metrics_path=None):
    """tcfpn-stream-v1 NDJSON capture (DESIGN.md §13). Framing and ordering
    first (json.loads per line, header/seq/step/run_end invariants), then —
    when the run's --metrics-json document is also on hand — the cross-export
    consistency check: the stream's final cumulative metrics must be the same
    values, leaf for leaf."""
    records = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f):
            line = line.rstrip("\n")
            if not line:
                fail(f"{path}:{lineno}: empty stream line")
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"{path}:{lineno}: unparseable line: {e}")
            if not isinstance(rec, dict):
                fail(f"{path}:{lineno}: line is not a JSON object")
            records.append((lineno, rec))
    if not records:
        fail(f"{path}: empty stream")

    # Header: first line, schema-stamped, with a run-metadata object.
    _, head = records[0]
    if head.get("type") != "header":
        fail(f"{path}: first line is {head.get('type')!r}, not the header")
    if head.get("schema") != STREAM_SCHEMA:
        fail(f"{path}: header schema is {head.get('schema')!r}, "
             f"expected {STREAM_SCHEMA!r}")
    if not isinstance(head.get("run"), dict):
        fail(f"{path}: header missing 'run' metadata object")

    counts = {t: 0 for t in STREAM_TYPES}
    last_step = -1
    run_end = None
    for i, (lineno, rec) in enumerate(records):
        t = rec.get("type")
        if t not in STREAM_TYPES:
            fail(f"{path}:{lineno}: unknown record type {t!r}")
        counts[t] += 1
        # seq is assigned by the sink at write time: contiguous from 0
        # regardless of how many records backpressure dropped.
        if rec.get("seq") != i:
            fail(f"{path}:{lineno}: seq is {rec.get('seq')!r}, expected {i} "
                 "(sink seq must be contiguous from 0)")
        if t in STEPPED_TYPES:
            step = rec.get("step")
            if not isinstance(step, int) or step < 0:
                fail(f"{path}:{lineno}: {t} record missing integer 'step'")
            if step < last_step:
                fail(f"{path}:{lineno}: step went backwards ({step} after "
                     f"{last_step}) — rollback replay leaked into the stream")
            last_step = step
        if t == "metrics":
            for leaf_path, leaf in rec.get("delta", {}).items():
                check_instrument(f"{path}:{lineno}:{leaf_path}", leaf)
        elif t == "sample":
            for key in ("step", "cycles", "operations", "busy_slots",
                        "idle_slots", "live_flows"):
                if not isinstance(rec.get(key), int):
                    fail(f"{path}:{lineno}: sample missing integer '{key}'")
        elif t == "events":
            for kind, n in rec.get("counts", {}).items():
                if kind not in EVENT_KINDS:
                    fail(f"{path}:{lineno}: unknown event kind {kind!r}")
                if not isinstance(n, int) or n < 1:
                    fail(f"{path}:{lineno}: event count for {kind!r} must "
                         "be a positive integer (zero counts are omitted)")
        elif t == "log":
            if rec.get("level") not in LOG_LEVELS:
                fail(f"{path}:{lineno}: unknown log level "
                     f"{rec.get('level')!r}")
            for key in ("category", "message"):
                if not isinstance(rec.get(key), str):
                    fail(f"{path}:{lineno}: log record missing '{key}'")
        elif t == "run_end":
            if i != len(records) - 1:
                fail(f"{path}:{lineno}: run_end is not the last line")
            run_end = rec

    if counts["header"] != 1:
        fail(f"{path}: {counts['header']} header lines, expected exactly 1")
    if run_end is None:
        fail(f"{path}: no run_end line — truncated stream (producer died?)")
    if not isinstance(run_end.get("completed"), bool):
        fail(f"{path}: run_end missing boolean 'completed'")
    obs = run_end.get("obs")
    if not isinstance(obs, dict):
        fail(f"{path}: run_end missing 'obs' bus-counter object")
    for key in ("pushed", "written", "dropped_records", "dropped_logs",
                "write_errors"):
        if not isinstance(obs.get(key), int) or obs[key] < 0:
            fail(f"{path}: run_end obs missing non-negative '{key}'")
    cumulative = run_end.get("metrics")
    if not isinstance(cumulative, dict):
        fail(f"{path}: run_end missing cumulative 'metrics' map")
    for leaf_path, leaf in cumulative.items():
        check_instrument(f"{path}:run_end:{leaf_path}", leaf)

    if metrics_path is not None:
        with open(metrics_path, encoding="utf-8") as f:
            doc = json.load(f)
        flat_doc = dict(walk_instruments(doc.get("metrics", {})))
        if set(flat_doc) != set(cumulative):
            only_doc = sorted(set(flat_doc) - set(cumulative))[:5]
            only_stream = sorted(set(cumulative) - set(flat_doc))[:5]
            fail(f"{path}: run_end metrics paths differ from {metrics_path} "
                 f"(doc-only: {only_doc}, stream-only: {only_stream})")
        for leaf_path, leaf in flat_doc.items():
            if cumulative[leaf_path] != leaf:
                fail(f"{path}: run_end '{leaf_path}' = "
                     f"{cumulative[leaf_path]} but {metrics_path} has "
                     f"{leaf} — the exporters diverged")
        cross = f", cumulative == {metrics_path} ({len(flat_doc)} leaves)"
    else:
        cross = ""

    dropped = obs["dropped_records"] + obs["dropped_logs"]
    print(f"validate_metrics: {path}: OK ({len(records)} lines: "
          f"{counts['metrics']} metrics, {counts['sample']} samples, "
          f"{counts['events']} events, {counts['log']} logs; "
          f"{dropped} dropped{cross})")


def check_metrics(path, expect_rollback=False):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    run = doc.get("run")
    if not isinstance(run, dict) or "variant" not in run:
        fail(f"{path}: missing run metadata")
    check_machine_shape(path, run)
    tree = doc.get("metrics")
    if not isinstance(tree, dict):
        fail(f"{path}: missing metrics tree")
    for subsystem in SUBSYSTEMS:
        if subsystem not in tree:
            fail(f"{path}: no '{subsystem}/' instruments")
    n = 0
    for leaf_path, leaf in walk_instruments(tree):
        check_instrument(leaf_path, leaf)
        n += 1
    if expect_rollback:
        resil = tree.get(RESIL_SUBSYSTEM)
        if not isinstance(resil, dict):
            fail(f"{path}: --expect-rollback but no '{RESIL_SUBSYSTEM}/' "
                 "subtree (was the run fault-injected?)")
        rollbacks = resil.get("rollbacks", {}).get("value")
        if not isinstance(rollbacks, int) or rollbacks < 1:
            fail(f"{path}: --expect-rollback but resil/rollbacks is "
                 f"{rollbacks!r} (the schedule should have forced >= 1)")
    for sample in doc.get("samples", []):
        for key in ("step", "cycles", "operations"):
            if not isinstance(sample.get(key), int):
                fail(f"{path}: sample missing integer '{key}'")
    print(f"validate_metrics: {path}: OK "
          f"({n} instruments, {len(doc.get('samples', []))} samples)")


def check_trace(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: missing traceEvents")
    host_prefixes = set()
    spans = 0
    for ev in events:
        ph = ev.get("ph")
        if ph not in ("X", "M"):
            fail(f"{path}: unexpected event phase {ph!r}")
        if ph != "X":
            continue
        spans += 1
        for key in ("name", "pid", "tid", "ts", "dur"):
            if key not in ev:
                fail(f"{path}: span missing '{key}': {ev}")
        if ev["dur"] < 0:
            fail(f"{path}: negative duration span: {ev}")
        if ev["pid"] == 1 and "/" in ev["name"]:
            host_prefixes.add(ev["name"].split("/", 1)[0])
    missing = [s for s in SUBSYSTEMS if s not in host_prefixes]
    if missing:
        fail(f"{path}: no host spans for subsystem(s): {', '.join(missing)}")
    other = doc.get("otherData")
    if not isinstance(other, dict):
        fail(f"{path}: missing otherData")
    if not isinstance(other.get("truncated"), bool):
        fail(f"{path}: otherData.truncated must be a boolean (the host-span "
             "buffer overflow flag)")
    print(f"validate_metrics: {path}: OK "
          f"({spans} spans, host subsystems: {sorted(host_prefixes)}, "
          f"truncated: {other['truncated']})")


def check_postmortem(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != "tcfpn-postmortem-v1":
        fail(f"{path}: schema is {doc.get('schema')!r}, "
             "expected 'tcfpn-postmortem-v1'")
    run = doc.get("run")
    if not isinstance(run, dict):
        fail(f"{path}: missing run metadata")
    for key in ("variant", "policy"):
        if not isinstance(run.get(key), str):
            fail(f"{path}: run metadata missing string '{key}'")
    check_machine_shape(path, run)
    for key in ("steps", "cycles"):
        if not isinstance(run.get(key), int) or run[key] < 0:
            fail(f"{path}: run metadata missing non-negative '{key}'")

    fault = doc.get("fault")
    if not isinstance(fault, dict):
        fail(f"{path}: missing fault object")
    if fault.get("class") not in FAULT_CLASSES:
        fail(f"{path}: unknown fault class {fault.get('class')!r}")
    if not isinstance(fault.get("message"), str) or not fault["message"]:
        fail(f"{path}: fault missing message")
    if not isinstance(fault.get("step"), int):
        fail(f"{path}: fault missing integer step")
    for key in ("flow", "address"):  # nullable integers
        if fault.get(key) is not None and not isinstance(fault[key], int):
            fail(f"{path}: fault '{key}' must be an integer or null")

    events = doc.get("events")
    if not isinstance(events, list):
        fail(f"{path}: missing events array")
    prev_seq = -1
    for ev in events:
        if ev.get("kind") not in EVENT_KINDS:
            fail(f"{path}: unknown event kind {ev.get('kind')!r}")
        for key in ("seq", "step", "group", "a", "b"):
            if not isinstance(ev.get(key), int):
                fail(f"{path}: event missing integer '{key}': {ev}")
        if ev.get("flow") is not None and not isinstance(ev["flow"], int):
            fail(f"{path}: event flow must be an integer or null")
        if ev["seq"] <= prev_seq:
            fail(f"{path}: event sequence numbers not increasing at {ev}")
        prev_seq = ev["seq"]

    flows = doc.get("flows")
    if not isinstance(flows, list) or not flows:
        fail(f"{path}: missing flow table")
    for fl in flows:
        for key in ("id", "home", "pc", "thickness", "live_children"):
            if not isinstance(fl.get(key), int):
                fail(f"{path}: flow missing integer '{key}': {fl}")
        if fl.get("status") not in FLOW_STATUSES:
            fail(f"{path}: unknown flow status {fl.get('status')!r}")
        if fl.get("mode") not in ("pram", "numa"):
            fail(f"{path}: unknown flow mode {fl.get('mode')!r}")

    cells = doc.get("cells")
    if not isinstance(cells, list):
        fail(f"{path}: missing cells array")
    for cell in cells:
        for key in ("addr", "value", "module"):
            if not isinstance(cell.get(key), int):
                fail(f"{path}: cell missing integer '{key}': {cell}")

    print(f"validate_metrics: {path}: OK "
          f"(fault class '{fault['class']}', {len(events)} events, "
          f"{len(flows)} flows, {len(cells)} cells)")


def check_profile(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != "tcfpn-profile-v1":
        fail(f"{path}: schema is {doc.get('schema')!r}, "
             "expected 'tcfpn-profile-v1'")
    run = doc.get("run")
    if not isinstance(run, dict):
        fail(f"{path}: missing run metadata")
    if not isinstance(run.get("program"), str):
        fail(f"{path}: run metadata missing string 'program'")
    check_machine_shape(path, run)
    if not isinstance(run.get("completed"), bool):
        fail(f"{path}: run metadata missing boolean 'completed'")
    for key in ("steps", "cycles", "attributed_cycles", "pipeline_fill"):
        if not isinstance(run.get(key), int) or run[key] < 0:
            fail(f"{path}: run metadata missing non-negative '{key}'")

    # Closed world: the term list is exactly the canonical taxonomy, and the
    # totals object covers it with nothing extra.
    if doc.get("terms") != PROFILE_TERMS:
        fail(f"{path}: terms is {doc.get('terms')!r}, expected the canonical "
             f"taxonomy {PROFILE_TERMS}")
    totals = doc.get("totals")
    if not isinstance(totals, dict) or set(totals) != set(PROFILE_TERMS):
        fail(f"{path}: totals keys must be exactly the term taxonomy")
    for term, value in totals.items():
        if not isinstance(value, int) or value < 0:
            fail(f"{path}: totals[{term!r}] must be a non-negative integer")

    # Conservation: cells == totals == attributed == the run clock.
    cells = doc.get("cells")
    if not isinstance(cells, list):
        fail(f"{path}: missing cells array")
    cell_sum = 0
    for cell in cells:
        if cell.get("term") not in PROFILE_TERMS:
            fail(f"{path}: cell with unknown term: {cell}")
        if not isinstance(cell.get("cycles"), int) or cell["cycles"] <= 0:
            fail(f"{path}: cell cycles must be a positive integer: {cell}")
        for key in ("group", "flow", "pc"):  # nullable (machine-level cells)
            if cell.get(key) is not None and not isinstance(cell[key], int):
                fail(f"{path}: cell '{key}' must be an integer or null")
        cell_sum += cell["cycles"]
    attributed = run["attributed_cycles"]
    if cell_sum != attributed:
        fail(f"{path}: cells sum to {cell_sum}, not attributed_cycles "
             f"{attributed}")
    if sum(totals.values()) != attributed:
        fail(f"{path}: totals sum to {sum(totals.values())}, not "
             f"attributed_cycles {attributed}")
    if attributed != run["cycles"]:
        fail(f"{path}: attributed_cycles {attributed} != run cycles "
             f"{run['cycles']} — the conservation invariant broke")

    steps = doc.get("steps")
    if not isinstance(steps, dict):
        fail(f"{path}: missing steps aggregate")
    if not isinstance(steps.get("recorded"), int) or steps["recorded"] < 0:
        fail(f"{path}: steps.recorded must be a non-negative integer")
    if not isinstance(steps.get("truncated"), bool):
        fail(f"{path}: steps.truncated must be a boolean")
    # One record per committed step until the tape's cap: a rollback that
    # rewinds the clock but not the tape (or vice versa) breaks this.
    if not steps["truncated"] and steps["recorded"] != run["steps"]:
        fail(f"{path}: steps.recorded {steps['recorded']} != run steps "
             f"{run['steps']} on an untruncated tape")
    limited = steps.get("limited_by")
    if not isinstance(limited, dict) or not set(limited) <= STEP_LIMITS:
        fail(f"{path}: steps.limited_by keys must be within {STEP_LIMITS}")
    for cls, agg in limited.items():
        for key in ("steps", "cycles"):
            if not isinstance(agg.get(key), int) or agg[key] < 0:
                fail(f"{path}: limited_by[{cls!r}] missing non-negative "
                     f"'{key}'")

    folded = doc.get("folded")
    if not isinstance(folded, list):
        fail(f"{path}: missing folded array")
    folded_sum = 0
    for line in folded:
        parts = line.rsplit(" ", 1)
        if len(parts) != 2 or not parts[1].isdigit():
            fail(f"{path}: folded line has no trailing count: {line!r}")
        frames = parts[0].split(";")
        if not 2 <= len(frames) <= 4:
            fail(f"{path}: folded line has {len(frames)} frames, "
                 f"expected 2-4: {line!r}")
        folded_sum += int(parts[1])
    if folded_sum != attributed:
        fail(f"{path}: folded stacks sum to {folded_sum}, not "
             f"attributed_cycles {attributed}")

    print(f"validate_metrics: {path}: OK "
          f"({len(cells)} cells, {attributed} cycles conserved, "
          f"{steps['recorded']} steps, {len(folded)} folded stacks)")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--metrics", help="metrics JSON document")
    ap.add_argument("--trace", help="Chrome trace-event JSON document")
    ap.add_argument("--postmortem", action="append", default=[],
                    help="tcfpn-postmortem-v1 document (repeatable)")
    ap.add_argument("--profile", action="append", default=[],
                    help="tcfpn-profile-v1 document (repeatable)")
    ap.add_argument("--stream", help="tcfpn-stream-v1 NDJSON capture "
                    "(tcfrun --stream); combined with --metrics the run_end "
                    "cumulative metrics are cross-checked against the doc")
    ap.add_argument("--expect-rollback", action="store_true",
                    help="require a resil/ subtree with rollbacks >= 1 in "
                         "--metrics (for fault schedules that guarantee a "
                         "fatal fault)")
    args = ap.parse_args()
    if (not args.metrics and not args.trace and not args.postmortem
            and not args.profile and not args.stream):
        ap.error("nothing to validate: pass --metrics, --trace, --stream, "
                 "--postmortem and/or --profile")
    if args.expect_rollback and not args.metrics:
        ap.error("--expect-rollback needs --metrics")
    if args.metrics:
        check_metrics(args.metrics, expect_rollback=args.expect_rollback)
    if args.stream:
        check_stream(args.stream, metrics_path=args.metrics)
    if args.trace:
        check_trace(args.trace)
    for path in args.postmortem:
        check_postmortem(path)
    for path in args.profile:
        check_profile(path)


if __name__ == "__main__":
    main()
