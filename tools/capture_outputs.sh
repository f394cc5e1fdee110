#!/usr/bin/env bash
# Captures the outputs of a fixed set of tool runs, so that a change which
# must not move simulated results can be checked byte for byte against its
# parent:
#
#   tools/capture_outputs.sh <parent-build-dir> /tmp/cap-parent
#   tools/capture_outputs.sh build /tmp/cap-change
#   diff -r /tmp/cap-parent /tmp/cap-change
#
# Each run gets a directory under OUT_DIR with its stdout, stderr and exit
# code, plus whichever of the metrics, profile, stream and post-mortem
# documents it writes. --trace-json is left out: its host spans are
# wall-clock and differ between any two runs. Inputs come from the tree
# this script lives in and binaries from BUILD_DIR, so one script captures
# both sides of a diff; the runs are sequential and take a few seconds.
set -u

if [ $# -ne 2 ]; then
  echo "usage: $0 BUILD_DIR OUT_DIR" >&2
  exit 2
fi
BUILD=$(cd "$1" && pwd) || exit 2
mkdir -p "$2" || exit 2
OUT=$(cd "$2" && pwd)
ROOT=$(cd "$(dirname "$0")/.." && pwd)
TOOLS="$BUILD/tools"
for tool in tcfrun tcfasm tcfprof tcfdbg tcffuzz; do
  if [ ! -x "$TOOLS/$tool" ]; then
    echo "$0: $TOOLS/$tool is missing; build the tools first" >&2
    exit 2
  fi
done

# run NAME TOOL ARGS...: runs TOOL in OUT/NAME, where the documents the
# arguments name land, and records stdout, stderr and the exit code there.
run() {
  local name=$1 tool=$2
  shift 2
  mkdir -p "$OUT/$name"
  (cd "$OUT/$name" && "$TOOLS/$tool" "$@" > stdout 2> stderr
   echo $? > exit_code)
}

# program FILE TEXT: writes the program TEXT to OUT/programs/FILE, which a
# run names as ../programs/FILE.
program() {
  mkdir -p "$OUT/programs"
  printf '%s\n' "$2" > "$OUT/programs/$1"
}

DOCS=(--metrics-json=metrics.json --profile=profile.json)

run scan_stream tcfrun "$ROOT/examples/programs/scan.tcf" --trace \
    --stream=run.stream --stream-every=8 "${DOCS[@]}"

for prog in "$ROOT"/scenarios/*.tcf; do
  base=$(basename "$prog" .tcf)
  run "scenario_${base}_single" tcfrun "$prog" \
      --variant=single-instruction "${DOCS[@]}"
  run "scenario_${base}_balanced16" tcfrun "$prog" \
      --variant=balanced --bound=16 "${DOCS[@]}"
done

run bfs_faulted_rollback tcfrun "$ROOT/scenarios/bfs.tcf" \
    --variant=balanced --bound=16 \
    --inject-faults=seed=3,flip=0.004,kill=0.004,memfail=0.002 \
    --recover=rollback --stream=run.stream --stream-every=8 "${DOCS[@]}"

run fault_div tcfrun "$ROOT/tests/programs/fault_div.tcf" \
    --post-mortem=post_mortem.json "${DOCS[@]}"
run fault_div_gpu tcfrun "$ROOT/tests/programs/fault_div.tcf" --shape=gpu \
    --post-mortem=post_mortem.json "${DOCS[@]}"

run histogram_degrade tcfrun "$ROOT/examples/programs/histogram.tcf" \
    --inject-faults=at=2:kill:1 --recover=degrade "${DOCS[@]}"
run histogram_fat_thin tcfrun "$ROOT/examples/programs/histogram.tcf" \
    --shape=fat-thin "${DOCS[@]}"

for variant in single-operation config-single-operation multi-instruction; do
  run "vecadd_$variant" tcfrun "$ROOT/examples/programs/vecadd.tcf" \
      --variant="$variant" "${DOCS[@]}"
done
# vecadd.tcf sets its thickness, which those variants refuse; these
# reproducers run to completion under them.
for variant in single-operation config-single-operation; do
  run "esm_loop_$variant" tcfprof "$ROOT/tests/corpus/esm_loop.s" \
      --variant="$variant" --report=summary,steps,folded
done
run fork_join_multi-instruction tcfprof "$ROOT/tests/corpus/fork_join.s" \
    --variant=multi-instruction --report=summary,steps,folded

run sum_squares tcfasm "$ROOT/examples/programs/sum_squares.s" --trace \
    "${DOCS[@]}"

# Group 2 faults after printing and storing: what the faulting step shows.
run spawn_fault_single tcfasm "$ROOT/tests/programs/spawn_fault.s" \
    --groups=4 --trace --post-mortem=post_mortem.json "${DOCS[@]}"
run spawn_fault_balanced16 tcfasm "$ROOT/tests/programs/spawn_fault.s" \
    --groups=4 --variant=balanced --bound=16 --trace \
    --post-mortem=post_mortem.json "${DOCS[@]}"

# The smoke script writes err_crew.postmortem.json into the run directory.
run tcfdbg_smoke tcfdbg "$ROOT/tests/corpus/err_crew.s" \
    --script="$ROOT/tools/tcfdbg_smoke.script"
run tcfdbg_travel tcfdbg "$ROOT/examples/programs/sum_squares.s" \
    --script="$ROOT/tools/tcfdbg_travel.script"

# Each corpus reproducer at its boot thickness (tcfprof reads the header)
# under every lane its `; lanes:` header lists, so thick multioperations,
# NUMA blocks under balanced and config-single-operation, and the
# multi-instruction lane runner all reach the data path. ESM reproducers
# boot thickness-1 threads and run once, under the default lane.
for prog in "$ROOT"/tests/corpus/*.s; do
  base=$(basename "$prog" .s)
  if grep -q '^; boot: .*esm=1' "$prog"; then
    run "tcfprof_$base" tcfprof "$prog" --report=summary,steps,folded
    continue
  fi
  for lane in $(sed -n 's/^; lanes: //p' "$prog"); do
    lane=${lane%/aligned}
    args=(--variant="${lane%%:*}")
    case $lane in
      balanced:*) args+=(--bound="${lane#balanced:}") ;;
      fixed-thickness) args+=(--groups=1) ;;
    esac
    run "tcfprof_${base}_${lane/:/}" tcfprof "$prog" "${args[@]}" \
        --report=summary,steps,folded
  done
done

# INT64_MIN / -1 through tcfasm on both step paths.
for variant in single-instruction multi-instruction; do
  run "div_min_by_minus_one_$variant" tcfasm \
      "$ROOT/tests/corpus/div_min_by_minus_one.s" --variant="$variant" \
      "${DOCS[@]}"
done
# A bare RET and an out-of-range jump on both step paths: program faults
# with one message.
program ret.s "RET"
program jmp.s "JMP -5"
for variant in single-instruction multi-instruction; do
  for fault in ret jmp; do
    run "${fault}_fault_$variant" tcfasm ../programs/$fault.s \
        --variant="$variant"
  done
done
# The TCF front end's constant folding: INT64_MIN / -1 as an array size
# and a negative size (both below 1, rejected: a negative size would lay
# the next array out below the heap base), and INT64_MIN % -1 folding to 0.
program min_div.tcf "array a[(0 - 9223372036854775807 - 1) / (0 - 1)];"
program negative.tcf "array a[0 - 1]; array b[4]; #4; b.[id] = 7;"
program min_mod.tcf \
    "array a[(0 - 9223372036854775807 - 1) % (0 - 1) + 4]; #4; a.[id] = id;"
for fold in min_div negative min_mod; do
  run "lang_fold_$fold" tcfrun ../programs/$fold.tcf
done

# Numbers too large for their field: each reader's one-line error. A
# layout past INT64_MAX is a compile error naming the array.
program literal_past_int64.tcf "array a[9223372036854775808];"
program hex_literal_past_int64.tcf "array a[0x8000000000000000];"
program layout_past_int64.tcf "array a[9223372036854775807]; \
array b[9223372036854775807]; array c[4]; #4; c.[id] = 7;"
for prog in literal_past_int64 hex_literal_past_int64 layout_past_int64; do
  run "lang_$prog" tcfrun ../programs/$prog.tcf
done
program register_past_int.s "LDI r99999999999, 1"
run asm_register_past_int tcfasm ../programs/register_past_int.s
corpus_header() {
  printf '; tcffuzz corpus v1\n; policy: arbitrary\n%b\n  HALT\n' "$2" \
      > "$OUT/programs/$1.s"
}
corpus_header balanced_abc "; lanes: balanced:abc"
corpus_header balanced_zero "; lanes: balanced:0"
corpus_header balanced_past_uint32 "; lanes: balanced:99999999999"
corpus_header thickness_zz \
    "; boot: thickness=zz flows=1 esm=0\n; lanes: single-instruction/aligned"
for entry in balanced_abc balanced_zero balanced_past_uint32 thickness_zz; do
  run "fuzz_replay_$entry" tcffuzz --replay=../programs/$entry.s
  run "tcfprof_corpus_$entry" tcfprof ../programs/$entry.s
done

run fuzz_shapes tcffuzz --seed=1 --runs=500 --shape-seed=7
run fuzz_faults tcffuzz --seed=9001 --runs=200 --fault-seed=1
run fuzz_oracle_soak tcffuzz --seed=20001 --runs=2000

echo "captured $(ls "$OUT" | grep -cvx programs) runs into $OUT"
