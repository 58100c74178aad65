#!/usr/bin/env bash
# Elastic chaos smoke: 3 workers with drop+rejoin and a deterministic
# straggler; the run must stay bit-identical to in-process, and its
# metrics export must name the rejoined worker's lane. A second
# scenario kills a flight-recorder-armed worker mid-run: the run must
# still survive (eviction + dispatch replay) and the dying worker must
# leave a parseable flight-<pid>.json naming its in-flight dispatch.
# Usage: smoke_elastic_chaos.sh [BUILD_DIR]   (default: build)
set -euo pipefail
cd "${1:-build}"

./run_experiment --method FedTrip --rounds 3 --scale 0.05 \
  --per-round 6 --schedule deadline --compressor ef+topk --delta \
  --network straggler --compute-profile bimodal \
  --availability markov --out inproc_elastic.csv
# Worker 1 drops its connection mid-run and rejoins; worker 2 is a
# deterministic straggler (sheds load through stealing); worker 3 is
# clean. The run must still match the in-process CSV exactly.
./fl_worker --listen 5711 --max-sessions 1 --chaos-drop-after 2 \
  2> w1.log &
./fl_worker --listen 5712 --max-sessions 1 --chaos-delay-ms 25 \
  2> w2.log &
./fl_worker --listen 5713 --max-sessions 1 2> w3.log &
sleep 1
./run_experiment --method FedTrip --rounds 3 --scale 0.05 \
  --per-round 6 --schedule deadline --compressor ef+topk --delta \
  --network straggler --compute-profile bimodal \
  --availability markov \
  --connect 127.0.0.1:5711,127.0.0.1:5712,127.0.0.1:5713 \
  --elastic --heartbeat-interval 0.05 --obs \
  --metrics-out elastic_metrics.json --out elastic.csv
wait
cat w1.log w2.log w3.log
diff inproc_elastic.csv elastic.csv
grep -q "rejoined" w1.log  # the drop+rejoin actually happened
# Lane i of the merged export is worker slot i under its own label, so
# the rejoiner's stats land on a "(rejoined)" lane, not a renumbered one.
python3 - <<'EOF'
import json
names = [l["name"] for l in json.load(open("elastic_metrics.json"))["lanes"]]
assert any(n.endswith("(rejoined)") for n in names), names
print(f"lanes ok: {names}")
EOF

# Flight-recorder scenario: worker 1 is armed and chaos-kills itself
# after 2 dispatches (a hard process death, no farewell frame); the
# elastic coordinator must evict + replay, and the corpse must have
# dumped its black box first.
rm -rf flightdir && mkdir flightdir
./fl_worker --listen 5721 --max-sessions 1 --chaos-kill-after 2 \
  --flight-recorder flightdir 2> fw1.log &
./fl_worker --listen 5722 --max-sessions 1 2> fw2.log &
sleep 1
./run_experiment --method FedTrip --rounds 3 --scale 0.05 \
  --per-round 6 --schedule deadline --compressor ef+topk --delta \
  --network straggler --compute-profile bimodal \
  --availability markov \
  --connect 127.0.0.1:5721,127.0.0.1:5722 \
  --elastic --heartbeat-interval 0.05 --out flight_run.csv
wait || true   # the killed worker's exit status is the point
cat fw1.log fw2.log
diff inproc_elastic.csv flight_run.csv  # survived the kill, bit-identical
python3 - <<'EOF'
import glob, json
dumps = glob.glob("flightdir/flight-*.json")
assert dumps, "chaos-killed worker left no flight dump"
d = json.load(open(dumps[0]))["flight_recorder"]
assert d["reason"].startswith("chaos kill"), d["reason"]
assert "batch_seq=" in d.get("last_dispatch", ""), d
assert any("dispatch" in e["what"] for e in d["events"]), \
    "event ring never saw a dispatch"
print(f"flight dump ok: {dumps[0]} ({d['last_dispatch']})")
EOF
