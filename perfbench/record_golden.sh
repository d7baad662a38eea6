#!/usr/bin/env bash
# Re-record perfbench/golden.txt: one fingerprint per workload and seed
# (seeds 0-99 and the held-out seed), plus a `*` line for qr_migration,
# whose simulated result does not depend on its seed. Run from the
# repository root after an intended change of simulated results, and say
# in the commit message which results changed and why.
set -euo pipefail
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
bin="${CARGO_TARGET_DIR:-perfbench/target}/release/grads-perfbench"
out=perfbench/golden.txt.new
: > "$out"
for w in qr_migration alltoall_collective service_saturated service_mapheavy; do
    for s in $(seq 0 99) 20041026; do
        "$bin" --workload "$w" --seed "$s" --record >> "$out"
    done
done
qr=$(awk '$1 == "qr_migration" {print $3}' "$out" | sort -u)
if [ "$(echo "$qr" | wc -l)" -eq 1 ]; then
    echo "qr_migration * $qr" >> "$out"
fi
mv "$out" perfbench/golden.txt
