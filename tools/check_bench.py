#!/usr/bin/env python3
"""Compare a fresh bench run against the committed baseline.

Handles two document kinds, keyed on the top-level shape:
  * BENCH_parallel_step.json — the stepping-engine bench;
  * BENCH_scenarios.json ("bench": "tcfpn-scenarios-v1") — the scenario
    workload suite across heterogeneous machine shapes. Rows are keyed by
    (scenario, shape, variant); the simulated cycle/step columns (and the
    Table-1 term split) must match the committed baseline EXACTLY, every
    row must report oracle_match, and the three canonical shapes (uniform,
    fat-thin, gpu) must all be covered.

Usage:
    cp BENCH_parallel_step.json /tmp/committed.json   # bench overwrites cwd
    ./build/bench/bench_parallel_step
    check_bench.py /tmp/committed.json BENCH_parallel_step.json

Checks (stdlib only):
  * both documents parse and describe the same workload and variant;
  * simulated_cycles and simulated_steps match EXACTLY — the simulated
    machine is deterministic, so any drift is a semantics change, not noise;
  * the run's wall clock stays within --tolerance of the committed one,
    a generous factor since runners differ;
  * the streaming telemetry lane (DESIGN.md §13) is present, bit-identical,
    actually produced a stream, and its wall-clock overhead — the median
    over interleaved plain/streamed pairs — stays within
    --max-stream-overhead (default 5%).

Exit status 0 on success; 1 with a diagnostic on the first failure.
"""

import argparse
import json
import sys


def fail(msg: str) -> None:
    print(f"check_bench: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"{path}: {e}")
    for key in ("workload", "variant", "simulated_cycles", "simulated_steps",
                "wall_clock_s"):
        if key not in doc:
            fail(f"{path}: missing '{key}'")
    return doc


SCENARIO_SCHEMA = "tcfpn-scenarios-v1"
SCENARIO_ROW_KEYS = ("scenario", "shape", "machine_shape", "variant",
                     "total_slots", "simulated_cycles", "simulated_steps",
                     "fill_cycles", "slot_cycles", "mem_cycles",
                     "switch_cycles", "utilization", "wall_clock_s",
                     "oracle_match")
SCENARIO_SHAPES = {"uniform", "fat-thin", "gpu"}
# Semantics columns: deterministic simulation output, compared exactly.
SCENARIO_EXACT = ("machine_shape", "total_slots", "simulated_cycles",
                  "simulated_steps", "fill_cycles", "slot_cycles",
                  "mem_cycles", "switch_cycles")


def load_scenarios(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"{path}: {e}")
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        fail(f"{path}: empty rows array")
    table = {}
    for row in rows:
        for key in SCENARIO_ROW_KEYS:
            if key not in row:
                fail(f"{path}: row missing '{key}': {row}")
        key = (row["scenario"], row["shape"], row["variant"])
        if key in table:
            fail(f"{path}: duplicate row {key}")
        table[key] = row
    shapes = {shape for _, shape, _ in table}
    missing = SCENARIO_SHAPES - shapes
    if missing:
        fail(f"{path}: canonical shape(s) not covered: {sorted(missing)}")
    return table


def check_scenarios(committed_path: str, fresh_path: str) -> None:
    committed = load_scenarios(committed_path)
    fresh = load_scenarios(fresh_path)
    if set(committed) != set(fresh):
        gone = sorted(set(committed) - set(fresh))
        new = sorted(set(fresh) - set(committed))
        fail(f"row coverage changed: removed {gone}, added {new} — "
             "re-baseline BENCH_scenarios.json deliberately if the suite "
             "itself changed")
    for key in sorted(fresh):
        c, f = committed[key], fresh[key]
        if not f["oracle_match"]:
            fail(f"{key}: fresh run diverged from the sequential oracle")
        for col in SCENARIO_EXACT:
            if c[col] != f[col]:
                fail(f"{key}: {col} drifted: committed {c[col]} vs fresh "
                     f"{f[col]} — the simulated schedule changed")
    shapes = sorted({shape for _, shape, _ in fresh})
    print(f"check_bench: scenarios OK ({len(fresh)} rows, "
          f"shapes: {', '.join(shapes)})")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("committed", help="the baseline BENCH_parallel_step.json")
    ap.add_argument("fresh", help="the just-produced BENCH_parallel_step.json")
    ap.add_argument("--tolerance", type=float, default=3.0,
                    help="allowed wall-clock slowdown factor vs the committed "
                         "run (default 3.0; runners differ, this catches "
                         "order-of-magnitude regressions only)")
    ap.add_argument("--max-stream-overhead", type=float, default=0.05,
                    help="allowed wall-clock overhead of the streaming "
                         "telemetry lane, as a fraction (default 0.05 = 5%%, "
                         "the budget of DESIGN.md §13.5)")
    args = ap.parse_args()

    # Dispatch on the document kind: the scenario suite carries a schema tag.
    try:
        with open(args.fresh, encoding="utf-8") as f:
            peek = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"{args.fresh}: {e}")
    if isinstance(peek, dict) and peek.get("bench") == SCENARIO_SCHEMA:
        check_scenarios(args.committed, args.fresh)
        return

    committed = load(args.committed)
    fresh = load(args.fresh)

    for key in ("workload", "variant"):
        if committed[key] != fresh[key]:
            fail(f"{key} changed: committed {committed[key]!r} vs fresh "
                 f"{fresh[key]!r} — re-baseline BENCH_parallel_step.json "
                 "deliberately if the bench itself changed")

    # The simulated machine is deterministic: cycles and steps are semantics,
    # not performance, and must not move without a re-baseline.
    for key in ("simulated_cycles", "simulated_steps"):
        if committed[key] != fresh[key]:
            fail(f"{key} drifted: committed {committed[key]} vs fresh "
                 f"{fresh[key]} — the simulated schedule changed")

    limit = committed["wall_clock_s"] * args.tolerance
    if fresh["wall_clock_s"] > limit:
        fail(f"wall clock regressed: {fresh['wall_clock_s']:.3f}s vs "
             f"committed {committed['wall_clock_s']:.3f}s "
             f"(tolerance {args.tolerance:.1f}x)")

    # Streaming telemetry lane (DESIGN.md §13): the bus must stay within the
    # overhead budget AND leave the simulated run bit-identical. The block is
    # required — a fresh document without it means the lane silently stopped
    # running, which is itself a regression.
    streaming = fresh.get("streaming")
    if not isinstance(streaming, dict):
        fail(f"{args.fresh}: missing 'streaming' overhead lane")
    for key in ("stream_every", "pairs", "baseline_wall_clock_s",
                "wall_clock_s", "overhead", "records_pushed",
                "records_written", "dropped_records", "bit_identical"):
        if key not in streaming:
            fail(f"{args.fresh}: streaming lane missing '{key}'")
    if not streaming["bit_identical"]:
        fail("streamed run was not bit-identical to the no-stream run")
    if streaming["records_written"] < 2:
        fail("streaming lane wrote fewer than header + run_end — the bus "
             "never produced a stream")
    print(f"check_bench: streaming overhead {streaming['overhead'] * 100:.2f}%"
          f" (median of {streaming['pairs']} pairs; "
          f"{streaming['records_written']} records, "
          f"{streaming['dropped_records']} dropped)")
    if streaming["overhead"] > args.max_stream_overhead:
        fail(f"streaming overhead {streaming['overhead'] * 100:.2f}% exceeds "
             f"the {args.max_stream_overhead * 100:.1f}% budget")

    print(f"check_bench: OK ({fresh['simulated_cycles']} simulated cycles, "
          f"{fresh['simulated_steps']} steps, wall clock "
          f"{fresh['wall_clock_s']:.3f}s)")


if __name__ == "__main__":
    main()
