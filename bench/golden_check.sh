#!/bin/sh
# Golden check of the CI-scale sweep (run by ctest):
#
#   golden_check.sh BINDIR SPF_REPORT GOLDENDIR OBSERVABILITY
#
# Runs the SPF_SCALE=0.1 sweep at --jobs 4 once and compares
#
#   - its report, normalized by `spf-report normalize`, byte for byte
#     against GOLDENDIR/sweep_p4_athlon_scale01.json normalized the same
#     way: every simulated number of the 72 cells must be unchanged;
#   - its decision log, without the LDG stage's no-candidates lines
#     (emitted before inspection runs), against
#     GOLDENDIR/decisions_scale01.jsonl: every inspection, stride, plan
#     and codegen decision must be unchanged. This half is skipped, and
#     says so, when the build compiled observability out
#     (OBSERVABILITY=OFF) or SPF_OBS=0 turns it off at run time.
set -u
bin=$1
report=$2
golden=$3
obs=$4
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

decisions=yes
if [ "$obs" != ON ]; then
  decisions="skipped: observability is compiled out"
elif [ "${SPF_OBS:-1}" -eq 0 ] 2>/dev/null; then
  decisions="skipped: SPF_OBS=0"
fi

set -- --jobs 4 --json "$tmp/report.json"
[ "$decisions" = yes ] && set -- "$@" --decisions-out "$tmp/decisions.jsonl"
if ! SPF_SCALE=0.1 "$bin/sweep" "$@" >"$tmp/stdout" 2>"$tmp/stderr"; then
  echo "FAIL: the sweep exited nonzero"
  cat "$tmp/stderr"
  exit 1
fi

fail=0
"$report" normalize "$golden/sweep_p4_athlon_scale01.json" >"$tmp/want.json" &&
  "$report" normalize "$tmp/report.json" >"$tmp/got.json" || exit 1
if cmp "$tmp/want.json" "$tmp/got.json"; then
  echo "golden report: identical after normalization"
else
  echo "FAIL: the sweep report diverged from sweep_p4_athlon_scale01.json"
  fail=1
fi

if [ "$decisions" = yes ]; then
  grep -v '"event":"no-candidates"' "$tmp/decisions.jsonl" >"$tmp/got.jsonl"
  if cmp "$golden/decisions_scale01.jsonl" "$tmp/got.jsonl"; then
    echo "golden decisions: $(wc -l <"$tmp/got.jsonl") lines identical"
  else
    echo "FAIL: the decision log diverged from decisions_scale01.jsonl"
    diff "$golden/decisions_scale01.jsonl" "$tmp/got.jsonl" | head -20
    fail=1
  fi
else
  echo "golden decisions: $decisions"
fi
exit $fail
