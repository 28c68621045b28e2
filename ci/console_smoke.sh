#!/usr/bin/env bash
# Smoke test of the installed `kspod` console script. Run from the repository
# root with a scratch directory:
#
#   bash ci/console_smoke.sh "$RUNNER_TEMP"
#
# The tests call cli.main; this runs the entry point itself. A tiny pipeline
# (criterion 11's config) writes a KSEM2 model that predict reads back,
# predict loads each golden KSEM1 file (re-deriving its coefficient means and
# variances), and a refused config value must exit 2, the configuration-error
# code, before anything is written.
set -euo pipefail
work=${1:?usage: bash ci/console_smoke.sh WORKDIR}
mkdir -p "$work"

kspod --help
kspod design --dims 3 --slices 2 --per-slice 3 --seed 0 --out "$work/design.csv"
cat > "$work/tiny.json" <<'JSON'
{"seed": 7,
 "design": {"dims": 2, "slices": 2, "per_slice": 3, "ranges": [[0.0, 1.0], [10.0, 20.0]]},
 "synth": {"nx": 12, "nr": 10, "x_range": [0.0, 5.0], "r_range": [0.0, 2.0],
           "snapshots": 20, "dt": 1e-4},
 "test": {"count": 2, "shrink": 0.75},
 "metrics": {"kde_bandwidth": 0.05}}
JSON
kspod pipeline --config "$work/tiny.json" --workdir "$work/tiny"
head -c 6 "$work/tiny/model.ksem" | grep -q KSEM2
kspod predict --model "$work/tiny/model.ksem" --x 0.5,15 --times 0,19 \
  --out "$work/tiny/predicted.kspd"
for name in centered uncentered; do
  kspod predict --model "tests/data/ksem1_$name.ksem" --x 48,0.9,2 --times 0,5 \
    --out "$work/golden_$name.kspd"
done

# a removed key and an out-of-range count
for kriging in '{"weight_theta": 5.0}' '{"restarts": 0}'; do
  echo "{\"kriging\": $kriging}" > "$work/refused.json"
  status=0
  kspod pipeline --config "$work/refused.json" --workdir "$work/refused" || status=$?
  if [ "$status" -ne 2 ]; then
    echo "kspod pipeline exited $status, not 2, on {\"kriging\": $kriging}" >&2
    exit 1
  fi
  if [ -e "$work/refused" ]; then
    echo "kspod pipeline wrote to its workdir before refusing {\"kriging\": $kriging}" >&2
    exit 1
  fi
done
