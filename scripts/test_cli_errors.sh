#!/usr/bin/env bash
# CLI error-contract test for decompose_file, run by ctest as
# test_cli_errors:
#
#   exit 0  success
#   exit 1  usage error (bad flag, unknown algorithm, malformed or
#           out-of-range algorithm parameter value, or a graph outside the
#           algorithm's preconditions: empty, or disconnected where the
#           algorithm needs a center or a BFS reach in every component)
#   exit 2  unreadable or corrupt input, or an mr.* run whose shuffle lost
#           spilled data (one-line Status diagnostic on stderr)
#
# Exit code 2 is what batch drivers key retry/skip decisions on, so it is
# pinned here against both a missing file and a truncated CSR v2 file,
# against persistent spill faults under mr.cluster, and along with the
# GCLUS_FAULT environment wiring end to end.
set -u

DECOMPOSE_FILE="${1:?usage: test_cli_errors.sh /path/to/decompose_file}"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/gclus_cli_errors.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# Missing input: exit 2 with a one-line IO_ERROR diagnostic.
set +e
err="$("$DECOMPOSE_FILE" "$WORK/does-not-exist.txt" 2>&1 >/dev/null)"
code=$?
set -e
[ "$code" -eq 2 ] || fail "missing file: expected exit 2, got $code"
echo "$err" | grep -q "decompose_file: IO_ERROR" ||
  fail "missing file: diagnostic not found in: $err"
[ "$(echo "$err" | wc -l)" -eq 1 ] ||
  fail "missing file: diagnostic is not one line: $err"

# Build a valid CSR v2 file, then truncate it: exit 2, DATA_LOSS.
"$DECOMPOSE_FILE" --convert="$WORK/ok.csr2" >/dev/null 2>&1 ||
  fail "--convert of the demo graph failed"
head -c 40 "$WORK/ok.csr2" > "$WORK/trunc.csr2"
set +e
err="$("$DECOMPOSE_FILE" "$WORK/trunc.csr2" --format=csr2 2>&1 >/dev/null)"
code=$?
set -e
[ "$code" -eq 2 ] || fail "truncated csr2: expected exit 2, got $code"
echo "$err" | grep -q "decompose_file: DATA_LOSS" ||
  fail "truncated csr2: diagnostic not found in: $err"

# A corrupted payload byte (checksum mismatch) is also exit 2.  Byte 130
# sits in the offsets section (payload starts at 128) and is zero in any
# small graph, so the overwrite always changes it.
cp "$WORK/ok.csr2" "$WORK/flip.csr2"
printf '\xff' | dd of="$WORK/flip.csr2" bs=1 seek=130 conv=notrunc 2>/dev/null
set +e
"$DECOMPOSE_FILE" "$WORK/flip.csr2" --format=csr2 >/dev/null 2>&1
code=$?
set -e
[ "$code" -eq 2 ] || fail "corrupt csr2: expected exit 2, got $code"

# Usage errors stay exit 1, distinct from environment failures.
set +e
"$DECOMPOSE_FILE" --algo=definitely-not-an-algo >/dev/null 2>&1
code=$?
set -e
[ "$code" -eq 1 ] || fail "unknown algorithm: expected exit 1, got $code"

# A parameter value that does not parse as its declared type is a usage
# error too: exit 1 with a one-line INVALID_ARGUMENT diagnostic, not an
# abort.
for bad in --tau=abc --tau=99999999999; do
  set +e
  err="$("$DECOMPOSE_FILE" "$bad" 2>&1 >/dev/null)"
  code=$?
  set -e
  [ "$code" -eq 1 ] || fail "$bad: expected exit 1, got $code"
  echo "$err" | grep -q "decompose_file: INVALID_ARGUMENT: parameter tau" ||
    fail "$bad: diagnostic not found in: $err"
  [ "$(echo "$err" | wc -l)" -eq 1 ] ||
    fail "$bad: diagnostic is not one line: $err"
done

# The registry is the validation boundary: input that breaks an
# algorithm's preconditions is exit 1 with a one-line INVALID_ARGUMENT
# diagnostic, never an abort (exit 134).
expect_invalid() {
  local label="$1"
  shift
  set +e
  err="$("$DECOMPOSE_FILE" "$@" 2>&1 >/dev/null)"
  code=$?
  set -e
  [ "$code" -eq 1 ] || fail "$label: expected exit 1, got $code"
  echo "$err" | grep -q "^decompose_file: INVALID_ARGUMENT: " ||
    fail "$label: diagnostic not found in: $err"
  [ "$(echo "$err" | wc -l)" -eq 1 ] ||
    fail "$label: diagnostic is not one line: $err"
}
: > "$WORK/empty.txt"
expect_invalid "empty file" "$WORK/empty.txt"
printf '0 1\n1 2\n2 0\n3 4\n4 5\n' > "$WORK/two.txt"
for algo in kcenter gonzalez; do
  expect_invalid "two components, $algo k=1" "$WORK/two.txt" \
    --algo="$algo" --k=1
done
expect_invalid "two components, mr.bfs" "$WORK/two.txt" --algo=mr.bfs
expect_invalid "--tau=0" "$WORK/two.txt" --tau=0
expect_invalid "--beta=0" "$WORK/two.txt" --algo=mpx --beta=0
expect_invalid "--partitions=0" "$WORK/two.txt" --algo=mr.cluster \
  --partitions=0

# The growth-direction heuristic divides by alpha and beta, so a
# non-finite or non-positive value is a usage error: exit 1 with one
# diagnostic line, before any run starts.
for flag in growth.alpha growth.beta; do
  for bad in nan 0 -3 inf; do
    set +e
    err="$("$DECOMPOSE_FILE" "$WORK/two.txt" "--$flag=$bad" 2>&1 >/dev/null)"
    code=$?
    set -e
    [ "$code" -eq 1 ] || fail "--$flag=$bad: expected exit 1, got $code"
    echo "$err" | grep -q "^--$flag=$bad is not a finite positive number$" ||
      fail "--$flag=$bad: diagnostic not found in: $err"
    [ "$(echo "$err" | wc -l)" -eq 1 ] ||
      fail "--$flag=$bad: diagnostic is not one line: $err"
  done
done

# GCLUS_FAULT reaches the CLI.  A one-shot open failure is absorbed by
# the mmap->read fallback: the run succeeds and reports the triggered
# point on its fault counter line.
"$DECOMPOSE_FILE" "$WORK/ok.csr2" --format=csr2 >/dev/null 2>&1 ||
  fail "valid csr2 should decompose cleanly"
out="$(GCLUS_FAULT=io.open:once "$DECOMPOSE_FILE" "$WORK/ok.csr2" \
  --format=csr2 2>/dev/null)" ||
  fail "GCLUS_FAULT=io.open:once should degrade to the read() path"
echo "$out" | grep -q "fault     io.open" ||
  fail "fault counter line missing from: $out"
# A persistent open failure exhausts every fallback: exit 2.
set +e
GCLUS_FAULT=io.open:always "$DECOMPOSE_FILE" "$WORK/ok.csr2" --format=csr2 \
  >/dev/null 2>&1
code=$?
set -e
[ "$code" -eq 2 ] ||
  fail "GCLUS_FAULT=io.open:always: expected exit 2, got $code"

# An mr.* round that loses spilled data (a run that cannot be read back,
# seeked or flushed) is an environment failure: exit 2 with one
# IO_ERROR line, never an abort.  A failed spill *write* degrades to an
# in-memory shuffle instead: exit 0 with the fault-free partition.
mr_run() {
  "$DECOMPOSE_FILE" "$WORK/ok.csr2" --format=csr2 --algo=mr.cluster --tau=4 \
    --spill_bytes=4096 "$@"
}
partition_of() {
  grep -v -e "^  telemetry" -e "^  fault" "$1"
}
mr_run >"$WORK/mr-clean.out" 2>/dev/null ||
  fail "mr.cluster with a 4 KiB spill budget should succeed"
for point in spill.read spill.seek spill.flush; do
  set +e
  err="$(GCLUS_FAULT="$point:always" mr_run 2>&1 >/dev/null)"
  code=$?
  set -e
  [ "$code" -eq 2 ] ||
    fail "GCLUS_FAULT=$point:always: expected exit 2, got $code"
  echo "$err" | grep -q "^decompose_file: IO_ERROR: " ||
    fail "GCLUS_FAULT=$point:always: diagnostic not found in: $err"
  [ "$(echo "$err" | wc -l)" -eq 1 ] ||
    fail "GCLUS_FAULT=$point:always: diagnostic is not one line: $err"
done
GCLUS_FAULT=spill.write:always mr_run >"$WORK/mr-write.out" 2>/dev/null ||
  fail "GCLUS_FAULT=spill.write:always should degrade to an in-memory shuffle"
grep -q "VALIDATION FAILED" "$WORK/mr-write.out" &&
  fail "GCLUS_FAULT=spill.write:always: invalid partition"
[ "$(partition_of "$WORK/mr-write.out")" = \
  "$(partition_of "$WORK/mr-clean.out")" ] ||
  fail "GCLUS_FAULT=spill.write:always: partition differs from the clean run"

# A malformed retry setting is not an error: the run keeps the default
# policy and succeeds, with one warning naming the variable (the
# environment parses through env_u64, like every other GCLUS_* knob).
set +e
err="$(GCLUS_IO_RETRIES=abc "$DECOMPOSE_FILE" --algo=mr.cluster --tau=4 \
  --spill_bytes=4096 2>&1 >/dev/null)"
code=$?
set -e
[ "$code" -eq 0 ] || fail "GCLUS_IO_RETRIES=abc: expected exit 0, got $code"
echo "$err" | grep -q "^GCLUS_IO_RETRIES=abc " ||
  fail "GCLUS_IO_RETRIES=abc: warning not found in: $err"
[ "$(echo "$err" | wc -l)" -eq 1 ] ||
  fail "GCLUS_IO_RETRIES=abc: warning is not one line: $err"

echo "PASS: decompose_file error contract holds"
