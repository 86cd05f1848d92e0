#!/usr/bin/env bash
# Batch-analyze gate (docs/PARALLELISM.md).
#
# Drives `firmres analyze <dir>...` over the synthesized Table I corpus plus
# four extra directories, and checks what the per-directory CorpusRunner
# tasks (load → analyze → render) must preserve:
#
#   - a copy of device 03 whose manifest names another vendor, placed
#     first, and a copy of device 07, placed last among the good dirs, so
#     both device ids are shared by two directories;
#   - a nonexistent directory, one whose manifest is garbage, one whose
#     manifest nests 300 000 arrays deep (past the JSON depth limit), and a
#     copy of device 05 whose first program document has a string "addr".
#
# Asserts:
#   - `--jobs 1` and `--jobs 4` print the same reports once the timing keys
#     are dropped;
#   - every array element equals the single-directory `firmres analyze
#     <dir> --json` report of its own directory, in device-id order with
#     ties in argument order;
#   - stderr has one `skipping <dir>: …` line per bad directory, in
#     argument order (the bad program document's line names it), and the
#     exit code is 1;
#   - the text report prints each image under its own header (the edited
#     copy shows its own vendor, the original its own);
#   - the `--jobs 4 --profile-out` span profile shows `load.image` and
#     `report.emit` under `corpus.device` and no load outside it.
#
#   tools/run_batch_analyze_gate.sh [firmres-binary] [workdir]
#
# Defaults: binary build/tools/firmres, workdir a fresh mktemp -d (removed
# on exit; a caller-supplied workdir is left in place for inspection).
set -euo pipefail

cd "$(dirname "$0")/.."

FIRMRES=${1:-build/tools/firmres}
if [[ ! -x "$FIRMRES" ]]; then
  echo "run_batch_analyze_gate: firmres binary not found at $FIRMRES" >&2
  echo "  build it first: cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

if [[ $# -ge 2 ]]; then
  WORKDIR=$2
  mkdir -p "$WORKDIR"
else
  WORKDIR=$(mktemp -d)
  trap 'rm -rf "$WORKDIR"' EXIT
fi

"$FIRMRES" synth "$WORKDIR/corpus" >/dev/null
rm -rf "$WORKDIR/dup07" "$WORKDIR/edited03" "$WORKDIR/badtype" "$WORKDIR/single"
cp -r "$WORKDIR/corpus/device07" "$WORKDIR/dup07"
cp -r "$WORKDIR/corpus/device03" "$WORKDIR/edited03"
cp -r "$WORKDIR/corpus/device05" "$WORKDIR/badtype"
sed -i 's/"addr":\([0-9]*\)/"addr":"\1"/' "$WORKDIR/badtype/programs/000.json"
python3 - "$WORKDIR/edited03/manifest.json" <<'EOF'
import json
import sys

manifest = json.load(open(sys.argv[1], encoding="utf-8"))
manifest["profile"]["vendor"] = "EditedVendor"
json.dump(manifest, open(sys.argv[1], "w", encoding="utf-8"))
EOF
mkdir -p "$WORKDIR/garbage" "$WORKDIR/deep"
echo "not json" > "$WORKDIR/garbage/manifest.json"
head -c 300000 /dev/zero | tr '\0' '[' > "$WORKDIR/deep/manifest.json"

DIRS=("$WORKDIR/edited03" "$WORKDIR"/corpus/device* "$WORKDIR/missing"
      "$WORKDIR/dup07" "$WORKDIR/garbage" "$WORKDIR/deep" "$WORKDIR/badtype")
printf '%s\n' "${DIRS[@]}" > "$WORKDIR/args.txt"

run() {  # run <name> <analyze args...>: stdout/stderr/exit code to files
  local name=$1
  shift
  local code=0
  "$FIRMRES" analyze "$@" > "$WORKDIR/$name.out" 2> "$WORKDIR/$name.err" ||
    code=$?
  echo "$code" > "$WORKDIR/$name.code"
}

run jobs1 "${DIRS[@]}" --json --jobs 1
run jobs4 "${DIRS[@]}" --json --jobs 4 --profile-out "$WORKDIR/profile.txt"
run text4 "${DIRS[@]}" --jobs 4
mkdir -p "$WORKDIR/single"
for i in "${!DIRS[@]}"; do
  if [[ -f "${DIRS[$i]}/manifest.json" && "${DIRS[$i]}" != */garbage &&
        "${DIRS[$i]}" != */deep && "${DIRS[$i]}" != */badtype ]]; then
    "$FIRMRES" analyze "${DIRS[$i]}" --json > "$WORKDIR/single/$i.json"
  fi
done

python3 - "$WORKDIR" <<'EOF'
import json
import os
import sys

work = sys.argv[1]
dirs = open(os.path.join(work, "args.txt"), encoding="utf-8").read().split("\n")[:-1]
bad = [d for d in dirs
       if d.endswith(("/missing", "/garbage", "/deep", "/badtype"))]
failures = []


def read(name):
    return open(os.path.join(work, name), encoding="utf-8").read()


def untimed(report):
    report.pop("timings", None)
    return report


def check(ok, message):
    if not ok:
        failures.append(message)


jobs1 = [untimed(r) for r in json.loads(read("jobs1.out"))]
jobs4 = [untimed(r) for r in json.loads(read("jobs4.out"))]
check(jobs1 == jobs4, "--jobs 1 and --jobs 4 reports differ")

singles = {}
for i, d in enumerate(dirs):
    path = os.path.join(work, "single", "%d.json" % i)
    if os.path.exists(path):
        singles[i] = untimed(json.loads(read(path)))
expected = sorted(singles, key=lambda i: (singles[i]["device_id"], i))
check(len(jobs4) == len(expected),
      "%d reports, expected %d" % (len(jobs4), len(expected)))
for report, i in zip(jobs4, expected):
    check(report == singles[i],
          "report for device %d is not the single-dir report of %s"
          % (report["device_id"], dirs[i]))

for name in ("jobs1", "jobs4", "text4"):
    check(read(name + ".code").strip() == "1",
          "%s: exit code %s, expected 1" % (name, read(name + ".code").strip()))
    lines = [line for line in read(name + ".err").splitlines()
             if line.startswith("skipping ")]
    skipped = [line.split(": ")[0][len("skipping "):] for line in lines]
    check(skipped == bad, "%s: skipping lines %s, expected %s"
          % (name, skipped, bad))
    check(any(line.startswith("skipping %s/badtype: " % work)
              and "program document" in line for line in lines),
          "%s: no skipping line names the bad program document" % name)

headers = [line for line in read("text4.out").splitlines()
           if line.startswith("image: ")]
edited = [h for h in headers if h.startswith("image: EditedVendor ")]
original = [h for h in headers
            if h.endswith("(device 3)") and not h.startswith("image: EditedVendor ")]
# Argument order puts the edited copy's report first.
check([h for h in headers if h.endswith("(device 3)")] == edited + original
      and len(edited) == 1 and len(original) == 1,
      "device 3 headers %s, expected the edited copy's then the original's"
      % [h for h in headers if h.endswith("(device 3)")])

stacks = [line.rsplit(" ", 1)[0] for line in read("profile.txt").splitlines()]
for leaf in ("load.image", "report.emit"):
    under = [s for s in stacks if s.endswith(leaf)]
    check(under and all(s.endswith("corpus.device;" + leaf) for s in under),
          "%s spans %s, expected all under corpus.device" % (leaf, under))

for f in failures:
    print("FAIL " + f, file=sys.stderr)
print("batch analyze gate: %d failure(s) over %d reports" % (len(failures), len(jobs4)))
sys.exit(1 if failures else 0)
EOF
