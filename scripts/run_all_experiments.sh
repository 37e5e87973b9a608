#!/usr/bin/env bash
# Regenerates every table/figure of the paper plus the extra ablations.
# CSV/JSONL output and run manifests land in target/experiments/; at the
# end, manifests (and any observability sidecars the sweep produced:
# traces under ANT_OBS=trace, collapsed stacks under ANT_OBS=flame,
# Perfetto timelines under ANT_OBS=profile) are collected into results/ as
# the sweep's durable record — ready for `obsctl trace` / `obsctl flame
# diff`. Every sidecar is named after its binary (<bin>.trace.jsonl,
# <bin>.folded, ...), so the binaries never overwrite each other's.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --workspace --release

BINARIES=(
  fig01_breakdown
  tab02_efficiency
  tab03_matmul_efficiency
  fig09_speedup_energy
  tab05_rcps_avoided
  fig10_vs_dense
  fig11_same_sparsity
  fig12_multiplier_sweep
  fig13_fnir_sweep
  fig14_ablation
  sec75_area
  sec76_overhead
  sec77_inner_product
  sec78_transformer_rnn
  extra_real_traces
  extra_table1_machines
  extra_load_balance
  extra_dataflow
  extra_pattern_sensitivity
  extra_accumulator
  extra_minimum_mults
  extra_energy_breakdown
  extra_scheduling
  extra_resnet_traces
)

EXPDIR="${CARGO_TARGET_DIR:-target}/experiments"

for bin in "${BINARIES[@]}"; do
  echo
  echo "================================================================"
  echo "== $bin"
  echo "================================================================"
  ./target/release/"$bin"
done

# Collect the durable record of this sweep.
mkdir -p results
cp -f "$EXPDIR"/*.manifest.json results/ 2>/dev/null || true
# ANT_OBS names the sidecars to collect: "pairs" implies a trace.
IFS=, read -r -a OBS_ITEMS <<< "${ANT_OBS:-}"
for item in "${OBS_ITEMS[@]}"; do
  case "${item// /}" in
    trace | pairs) cp -f "$EXPDIR"/*.trace.jsonl results/ 2>/dev/null || true ;;
    flame) cp -f "$EXPDIR"/*.folded results/ 2>/dev/null || true ;;
    profile) cp -f "$EXPDIR"/*.perfetto.json results/ 2>/dev/null || true ;;
  esac
done
echo
echo "manifests collected into results/ ($(ls results/*.manifest.json 2>/dev/null | wc -l) files)"
