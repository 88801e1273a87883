#!/bin/sh
# Command-line contract of the bench binaries (run by ctest):
#
#   flags_check.sh strict BINDIR   every bad configuration below exits 2,
#                                  names the flag or variable on stderr,
#                                  and prints nothing on stdout (no cell
#                                  ran);
#   flags_check.sh help BINDIR     --help exits 0 on each plan binary and
#                                  lists every flag it accepts, none of
#                                  the hidden worker-protocol rows, and no
#                                  flag the binary would ignore.
set -u
mode=$1
bin=$(cd "$2" && pwd) || exit 1
# Work in a scratch directory: a binary that wrongly runs its plan writes
# its default report there, not over a committed baseline.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cd "$tmp" || exit 1
out=$tmp/stdout
err=$tmp/stderr
fail=0

# expect2 NAME COMMAND...: COMMAND exits 2 and its diagnostic names NAME.
expect2() {
  name=$1
  shift
  timeout 60 "$@" >"$out" 2>"$err"
  rc=$?
  if [ "$rc" -ne 2 ] || ! grep -q -- "invalid $name" "$err" ||
    [ -s "$out" ]; then
    echo "FAIL: exit $rc, want 2 naming $name: $*"
    fail=1
  fi
}

if [ "$mode" = strict ]; then
  s=$bin/sweep
  expect2 'argument="--bogus-flag"' "$s" --bogus-flag
  expect2 --jobs "$s" --jobs abc
  expect2 --jobs "$s" --jobs 0
  expect2 --trace-cache-mb "$s" --trace-cache-mb -5
  expect2 --sweep-deadline "$s" --sweep-deadline nope
  expect2 --json "$s" --workloads compress --json
  expect2 --epochs "$s" --epochs 2x
  expect2 --governor "$s" --governor maybe
  expect2 --workloads "$s" --workloads nosuchthing
  a=$bin/adaptation
  expect2 --min-recovered "$a" --min-recovered x
  expect2 --workloads "$a" --workloads db,nosuchthing
  # adaptation plans its own GC variants and governor settings.
  expect2 'argument="--gc-variant"' "$a" --gc-variant mark-sweep
  expect2 'argument="--governor"' "$a" --governor on
  expect2 'argument="--phase-change"' "$a" --phase-change
  # Only sweep samples a timeline.
  expect2 'argument="--timeline-every"' "$bin/fig6_speedup_p4" \
    --timeline-every 5000
  expect2 'argument="--machine"' "$bin/fig6_speedup_p4" --machine p4
  expect2 SPF_JOBS env SPF_JOBS=banana "$s"
  exit $fail
fi

shared="--jobs --no-trace-reuse --trace-cache-mb --trace-dir --isolate
  --cell-mem-mb --journal --resume --sweep-deadline --cells-out
  --profile-out --stats-out --decisions-out --explain --help"
adapt="--epochs --gc-variant --governor --phase-change"
for b in fig6_speedup_p4 fig7_speedup_athlon fig8_l1_mpi fig9_l2_mpi \
  fig10_dtlb_mpi fig11_compile_time ablation_inspection \
  ablation_scheduling ablation_tlb_priming comparison_greedy adaptation \
  sweep; do
  # absent: flags the binary must not list (it would ignore them).
  case $b in
  sweep)
    flags="$shared $adapt --json --workloads --timeline-every --throughput
      --throughput-json --throughput-secs --machine --machine-file
      --hw-prefetch"
    absent= ;;
  adaptation)
    flags="$shared --epochs --out --workloads --min-recovered
      --check-against"
    absent="--gc-variant --governor --phase-change --timeline-every" ;;
  *)
    flags=$shared
    absent="$adapt --timeline-every" ;;
  esac
  if ! timeout 60 "$bin/$b" --help >"$out" 2>"$err"; then
    echo "FAIL: $b --help did not exit 0"
    fail=1
    continue
  fi
  for f in $flags; do
    grep -q -- "^  $f " "$out" || {
      echo "FAIL: $b --help does not list $f"
      fail=1
    }
  done
  for f in --run-cell --cell-attempt --result-fd --inject-self-check-failure; do
    ! grep -q -- "$f" "$out" || {
      echo "FAIL: $b --help lists hidden $f"
      fail=1
    }
  done
  for f in $absent; do
    ! grep -q -- "^  $f " "$out" || {
      echo "FAIL: $b --help lists $f, which it does not honour"
      fail=1
    }
  done
done
exit $fail
