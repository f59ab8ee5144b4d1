#!/bin/sh
# Prints expected-reports.tsv: the CampaignReport digest of every workload
# at seeds 0-63 and the held-out seed 104729, at full and smoke size. The
# output checks compare every run against it, so regenerate it only for a
# change meant to alter simulated results. From the repository root:
#
#   cargo build --release --offline --manifest-path perfbench/Cargo.toml
#   sh perfbench/expected-reports.sh BINARY > perfbench/expected-reports.tsv
#
# where BINARY is the built perfbench (perfbench/target/release/perfbench,
# or under CARGO_TARGET_DIR).
set -eu
bin=$1
dir=.bench_work/expected-reports
for size in "" --smoke; do
    for workload in fixed-cost long-horizon shrink-shard fleet-lease; do
        for seed in $(seq 0 63) 104729; do
            rm -rf "$dir"
            "$bin" --workload "$workload" --seed "$seed" --child "$dir" $size
        done
    done
done
rm -rf "$dir"
