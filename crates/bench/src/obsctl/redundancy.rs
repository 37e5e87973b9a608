//! `obsctl redundancy`: analyze an `ant-redundancy/1` sidecar into
//! per-layer tables, per-machine aggregates, and cross-machine ANT-vs-SCNN
//! advantage attribution.
//!
//! Input is the JSONL the [`crate::redundancy::RedundancyLedger`] writes:
//! one `ant-redundancy/1` object per (network, machine, layer, phase).
//! Lines that do not carry that schema (or do not parse) are counted and
//! skipped, never fatal. The `--json` report carries the stable
//! `ant-redundancy-stats/1` schema; its `totals` reproduce the aggregate
//! RCP counters the producing experiment mirrored into its manifest, which
//! CI cross-checks.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ant_obs::json::{write_json_string, Json};
use ant_sim::RedundancyRecord;

/// Schema tag of the machine-readable report (`--json`).
pub const SCHEMA: &str = "ant-redundancy-stats/1";

/// Schema tag the input rows must carry.
pub const ROW_SCHEMA: &str = crate::redundancy::SCHEMA;

/// Which rows participate. Every populated field must match exactly
/// (`phase` matches the paper name, e.g. `W*A`, `W*G_A`, `G_A*A`).
#[derive(Debug, Default, Clone)]
pub struct RedundancyFilter {
    /// Exact `network` value.
    pub network: Option<String>,
    /// Exact `machine` value.
    pub machine: Option<String>,
    /// Exact `layer` value.
    pub layer: Option<String>,
    /// Exact `phase` paper name.
    pub phase: Option<String>,
}

impl RedundancyFilter {
    fn matches(&self, row: &Row) -> bool {
        for (want, got) in [
            (&self.network, &row.network),
            (&self.machine, &row.machine),
            (&self.layer, &row.layer),
            (&self.phase, &row.phase),
        ] {
            if let Some(want) = want {
                if want != got {
                    return false;
                }
            }
        }
        true
    }
}

/// One parsed sidecar row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Network label.
    pub network: String,
    /// Machine label.
    pub machine: String,
    /// Layer index in the network spec.
    pub layer_index: u64,
    /// Layer name.
    pub layer: String,
    /// Training-phase paper name.
    pub phase: String,
    /// The row's redundancy counters.
    pub record: RedundancyRecord,
    /// Analytic paper-Eq. 6 efficiency, when the producer could derive it.
    pub eq6_efficiency: Option<f64>,
    /// Whether quarantined pairs left the row's counters incomplete.
    pub partial: bool,
}

/// Aggregated counters for one group key (machine, network, ...).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroupStats {
    /// Rows aggregated into this group.
    pub rows: u64,
    /// Integer-summed counters.
    pub record: RedundancyRecord,
}

/// One (network, layer) ANT-vs-baseline attribution entry: what the
/// anticipating machine avoided relative to the baseline outer-product
/// machine on identical operands.
#[derive(Debug, Clone, PartialEq)]
pub struct Advantage {
    /// Network label.
    pub network: String,
    /// Layer index in the network spec.
    pub layer_index: u64,
    /// Layer name.
    pub layer: String,
    /// The anticipating machine.
    pub machine: String,
    /// The baseline machine compared against.
    pub baseline: String,
    /// Multiplications the baseline executed but `machine` did not.
    pub mults_saved: u64,
    /// RCPs the baseline executed but `machine` did not.
    pub rcps_executed_avoided: u64,
    /// SRAM reads the baseline performed but `machine` did not (skipped).
    pub sram_reads_skipped: u64,
    /// SRAM reads `machine` performed.
    pub sram_reads_performed: u64,
}

/// The outcome of one `obsctl redundancy` aggregation.
#[derive(Debug, Clone, Default)]
pub struct RedundancyReport {
    /// Filtered rows, in file order.
    pub rows: Vec<Row>,
    /// Integer sum over the filtered rows.
    pub totals: RedundancyRecord,
    /// Per-machine aggregates, sorted by machine label.
    pub machines: Vec<(String, GroupStats)>,
    /// Per-(network, machine) aggregates, sorted.
    pub networks: Vec<((String, String), GroupStats)>,
    /// ANT-vs-baseline attribution per (network, layer), present when the
    /// sidecar holds an anticipating machine and a baseline on the same
    /// operands (fig09 pairs ANT with SCNN+).
    pub advantage: Vec<Advantage>,
    /// Rows the filter matched.
    pub rows_matched: u64,
    /// Rows the filter rejected.
    pub rows_filtered: u64,
    /// Rows flagged partial among the matched.
    pub partial_rows: u64,
    /// Lines that were not parseable `ant-redundancy/1` rows.
    pub lines_skipped: u64,
}

fn parse_row(line: &str) -> Option<Row> {
    let doc = ant_obs::parse_json(line).ok()?;
    if doc.get("schema").and_then(Json::as_str) != Some(ROW_SCHEMA) {
        return None;
    }
    let str_field = |key: &str| doc.get(key).and_then(Json::as_str).map(str::to_string);
    let u64_field = |key: &str| doc.get(key).and_then(Json::as_u64);
    let record = RedundancyRecord {
        pairs_total: u64_field("pairs_total")?,
        rcps_skipped: u64_field("rcps_skipped")?,
        rcps_executed: u64_field("rcps_executed")?,
        mults: u64_field("mults")?,
        effectual_macs: u64_field("effectual_macs")?,
        sram_reads: u64_field("sram_reads")?,
        sram_writes: u64_field("sram_writes")?,
    };
    Some(Row {
        network: str_field("network")?,
        machine: str_field("machine")?,
        layer_index: u64_field("layer_index")?,
        layer: str_field("layer")?,
        phase: str_field("phase")?,
        record,
        eq6_efficiency: doc.get("eq6_efficiency").and_then(Json::as_f64),
        partial: doc.get("partial").and_then(Json::as_bool).unwrap_or(false),
    })
}

/// Aggregates `text` (an `ant-redundancy/1` JSONL sidecar) under `filter`.
pub fn analyze(text: &str, filter: &RedundancyFilter) -> RedundancyReport {
    let mut report = RedundancyReport::default();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Some(row) = parse_row(line) else {
            report.lines_skipped += 1;
            continue;
        };
        if !filter.matches(&row) {
            report.rows_filtered += 1;
            continue;
        }
        report.rows_matched += 1;
        if row.partial {
            report.partial_rows += 1;
        }
        report.totals.accumulate(&row.record);
        report.rows.push(row);
    }
    let mut machines: BTreeMap<String, GroupStats> = BTreeMap::new();
    let mut networks: BTreeMap<(String, String), GroupStats> = BTreeMap::new();
    for row in &report.rows {
        let m = machines.entry(row.machine.clone()).or_default();
        m.rows += 1;
        m.record.accumulate(&row.record);
        let n = networks
            .entry((row.network.clone(), row.machine.clone()))
            .or_default();
        n.rows += 1;
        n.record.accumulate(&row.record);
    }
    report.machines = machines.into_iter().collect();
    report.networks = networks.into_iter().collect();
    report.advantage = attribute_advantage(&report.rows);
    report
}

/// Pairs the machine that skipped the most RCPs (the anticipating one)
/// against the machine that executed the most (the baseline) per
/// (network, layer), summed over phases. Empty when the sidecar holds
/// fewer than two machines.
fn attribute_advantage(rows: &[Row]) -> Vec<Advantage> {
    let mut machines: Vec<&str> = rows.iter().map(|r| r.machine.as_str()).collect();
    machines.sort_unstable();
    machines.dedup();
    if machines.len() < 2 {
        return Vec::new();
    }
    let sum_for = |machine: &str| {
        let mut agg = RedundancyRecord::default();
        for r in rows.iter().filter(|r| r.machine == machine) {
            agg.accumulate(&r.record);
        }
        agg
    };
    // The anticipating machine is the one that skipped the most RCPs;
    // the baseline is the remaining machine that executed the most.
    let Some(ant) = machines
        .iter()
        .copied()
        .max_by_key(|m| sum_for(m).rcps_skipped)
    else {
        return Vec::new();
    };
    let Some(baseline) = machines
        .iter()
        .copied()
        .filter(|m| *m != ant)
        .max_by_key(|m| sum_for(m).rcps_executed)
    else {
        return Vec::new();
    };
    #[derive(Default)]
    struct LayerPair {
        ant: RedundancyRecord,
        base: RedundancyRecord,
        has_ant: bool,
        has_base: bool,
    }
    let mut per_layer: BTreeMap<(String, u64, String), LayerPair> = BTreeMap::new();
    for r in rows {
        if r.machine != ant && r.machine != baseline {
            continue;
        }
        let key = (r.network.clone(), r.layer_index, r.layer.clone());
        let entry = per_layer.entry(key).or_default();
        if r.machine == ant {
            entry.ant.accumulate(&r.record);
            entry.has_ant = true;
        } else {
            entry.base.accumulate(&r.record);
            entry.has_base = true;
        }
    }
    per_layer
        .into_iter()
        .filter(|(_, pair)| pair.has_ant && pair.has_base)
        .map(
            |(
                (network, layer_index, layer),
                LayerPair {
                    ant: a, base: b, ..
                },
            )| Advantage {
                network,
                layer_index,
                layer,
                machine: ant.to_string(),
                baseline: baseline.to_string(),
                mults_saved: b.mults.saturating_sub(a.mults),
                rcps_executed_avoided: b.rcps_executed.saturating_sub(a.rcps_executed),
                sram_reads_skipped: b.sram_reads.saturating_sub(a.sram_reads),
                sram_reads_performed: a.sram_reads,
            },
        )
        .collect()
}

fn pct(value: f64) -> String {
    format!("{:.1}%", value * 100.0)
}

/// Renders the report as markdown: summary, the `top` heaviest per-layer
/// rows (by RCPs), per-machine aggregates, and the advantage attribution.
pub fn to_markdown(report: &RedundancyReport, top: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Redundancy attribution\n");
    let t = &report.totals;
    let _ = writeln!(
        out,
        "- rows matched: {} ({} filtered out, {} partial, {} unusable line(s) skipped)",
        report.rows_matched, report.rows_filtered, report.partial_rows, report.lines_skipped
    );
    let _ = writeln!(
        out,
        "- totals: {} RCPs ({} avoided), efficiency {}, window tightness {}\n",
        t.rcps_total(),
        pct(t.rcps_avoided_fraction()),
        pct(t.efficiency()),
        pct(t.window_tightness()),
    );
    let _ = writeln!(
        out,
        "| network | machine | layer | phase | rcps_total | avoided | efficiency | eq6 | tightness | false_neg | sram_reads | partial |"
    );
    let _ = writeln!(
        out,
        "|---|---|---|---|---:|---:|---:|---:|---:|---:|---:|---|"
    );
    let mut heaviest: Vec<&Row> = report.rows.iter().collect();
    heaviest.sort_by(|a, b| {
        b.record
            .rcps_total()
            .cmp(&a.record.rcps_total())
            .then_with(|| {
                (&a.network, a.layer_index, &a.machine, &a.phase).cmp(&(
                    &b.network,
                    b.layer_index,
                    &b.machine,
                    &b.phase,
                ))
            })
    });
    for row in heaviest.iter().take(top) {
        let r = &row.record;
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |",
            row.network,
            row.machine,
            row.layer,
            row.phase,
            r.rcps_total(),
            pct(r.rcps_avoided_fraction()),
            pct(r.efficiency()),
            row.eq6_efficiency.map_or_else(|| "-".to_string(), pct),
            pct(r.window_tightness()),
            r.false_negatives(),
            r.sram_reads,
            if row.partial { "yes" } else { "" },
        );
    }
    if heaviest.len() > top {
        let _ = writeln!(
            out,
            "\n({} more row(s) below --top {top})",
            heaviest.len() - top
        );
    }
    let _ = writeln!(out, "\n## Per-machine totals\n");
    let _ = writeln!(
        out,
        "| machine | rows | pairs_total | rcps_total | avoided | efficiency | tightness | sram_reads |"
    );
    let _ = writeln!(out, "|---|---:|---:|---:|---:|---:|---:|---:|");
    for (machine, g) in &report.machines {
        let r = &g.record;
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} | {} |",
            machine,
            g.rows,
            r.pairs_total,
            r.rcps_total(),
            pct(r.rcps_avoided_fraction()),
            pct(r.efficiency()),
            pct(r.window_tightness()),
            r.sram_reads,
        );
    }
    if !report.advantage.is_empty() {
        let (machine, baseline) = (
            report.advantage[0].machine.as_str(),
            report.advantage[0].baseline.as_str(),
        );
        let _ = writeln!(
            out,
            "\n## {machine} advantage over {baseline} (per layer)\n"
        );
        let _ = writeln!(
            out,
            "| network | layer | mults_saved | rcps_exec_avoided | sram_skipped | sram_performed |"
        );
        let _ = writeln!(out, "|---|---|---:|---:|---:|---:|");
        let mut ranked: Vec<&Advantage> = report.advantage.iter().collect();
        ranked.sort_by(|a, b| {
            b.mults_saved
                .cmp(&a.mults_saved)
                .then_with(|| (&a.network, a.layer_index).cmp(&(&b.network, b.layer_index)))
        });
        for adv in ranked.iter().take(top) {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} |",
                adv.network,
                adv.layer,
                adv.mults_saved,
                adv.rcps_executed_avoided,
                adv.sram_reads_skipped,
                adv.sram_reads_performed,
            );
        }
        if ranked.len() > top {
            let _ = writeln!(
                out,
                "\n({} more layer(s) below --top {top})",
                ranked.len() - top
            );
        }
    }
    out
}

fn write_record_fields(out: &mut String, g: &RedundancyRecord) {
    for (name, value) in g.fields() {
        let _ = write!(out, "\"{name}\":{value},");
    }
    let _ = write!(
        out,
        "\"rcps_total\":{},\"rcps_avoided_fraction\":{},\"efficiency\":{},\"window_tightness\":{}",
        g.rcps_total(),
        g.rcps_avoided_fraction(),
        g.efficiency(),
        g.window_tightness()
    );
}

/// Serializes the report under the [`SCHEMA`] JSON schema. The per-layer
/// `rows` array is bounded by `top` (heaviest by RCPs first) with the
/// number dropped reported as `truncated`; totals and aggregates always
/// cover every matched row.
pub fn to_json(report: &RedundancyReport, top: usize) -> String {
    let mut out = String::with_capacity(512 + report.rows.len().min(top) * 300);
    let _ = write!(
        out,
        "{{\"schema\":\"{SCHEMA}\",\"rows_matched\":{},\"rows_filtered\":{},\"partial_rows\":{},\"lines_skipped\":{},",
        report.rows_matched, report.rows_filtered, report.partial_rows, report.lines_skipped
    );
    out.push_str("\"totals\":{");
    write_record_fields(&mut out, &report.totals);
    out.push_str("},\"machines\":[");
    for (i, (machine, g)) in report.machines.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"machine\":");
        write_json_string(machine, &mut out);
        let _ = write!(out, ",\"rows\":{},", g.rows);
        write_record_fields(&mut out, &g.record);
        out.push('}');
    }
    out.push_str("],\"networks\":[");
    for (i, ((network, machine), g)) in report.networks.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"network\":");
        write_json_string(network, &mut out);
        out.push_str(",\"machine\":");
        write_json_string(machine, &mut out);
        let _ = write!(out, ",\"rows\":{},", g.rows);
        write_record_fields(&mut out, &g.record);
        out.push('}');
    }
    out.push_str("],\"advantage\":[");
    for (i, adv) in report.advantage.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"network\":");
        write_json_string(&adv.network, &mut out);
        out.push_str(",\"layer\":");
        write_json_string(&adv.layer, &mut out);
        out.push_str(",\"machine\":");
        write_json_string(&adv.machine, &mut out);
        out.push_str(",\"baseline\":");
        write_json_string(&adv.baseline, &mut out);
        let _ = write!(
            out,
            ",\"layer_index\":{},\"mults_saved\":{},\"rcps_executed_avoided\":{},\"sram_reads_skipped\":{},\"sram_reads_performed\":{}}}",
            adv.layer_index,
            adv.mults_saved,
            adv.rcps_executed_avoided,
            adv.sram_reads_skipped,
            adv.sram_reads_performed
        );
    }
    out.push_str("],\"rows\":[");
    let mut heaviest: Vec<&Row> = report.rows.iter().collect();
    heaviest.sort_by(|a, b| {
        b.record
            .rcps_total()
            .cmp(&a.record.rcps_total())
            .then_with(|| {
                (&a.network, a.layer_index, &a.machine, &a.phase).cmp(&(
                    &b.network,
                    b.layer_index,
                    &b.machine,
                    &b.phase,
                ))
            })
    });
    for (i, row) in heaviest.iter().take(top).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"network\":");
        write_json_string(&row.network, &mut out);
        out.push_str(",\"machine\":");
        write_json_string(&row.machine, &mut out);
        out.push_str(",\"layer\":");
        write_json_string(&row.layer, &mut out);
        out.push_str(",\"phase\":");
        write_json_string(&row.phase, &mut out);
        let _ = write!(
            out,
            ",\"layer_index\":{},\"partial\":{},",
            row.layer_index, row.partial
        );
        write_record_fields(&mut out, &row.record);
        match row.eq6_efficiency {
            Some(eq6) if eq6.is_finite() => {
                let _ = write!(out, ",\"eq6_efficiency\":{eq6}");
            }
            _ => out.push_str(",\"eq6_efficiency\":null"),
        }
        out.push('}');
    }
    let truncated = heaviest.len().saturating_sub(top);
    let _ = write!(out, "],\"truncated\":{truncated}}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::redundancy::RedundancyLedger;
    use crate::runner::{simulate_network, ExperimentConfig};
    use ant_sim::ant::AntAccelerator;
    use ant_sim::scnn::ScnnPlus;
    use ant_workloads::{ConvLayerSpec, NetworkModel};

    fn sample_sidecar() -> (String, RedundancyLedger) {
        let net = NetworkModel {
            name: "tiny",
            layers: vec![
                ConvLayerSpec::new("l1", 4, 2, 3, 16, 1, 1, 1),
                ConvLayerSpec::new("l2", 4, 4, 3, 8, 1, 1, 2),
            ],
        };
        let cfg = ExperimentConfig::paper_default();
        let scnn = simulate_network(&ScnnPlus::paper_default(), &net, &cfg);
        let ant = simulate_network(&AntAccelerator::paper_default(), &net, &cfg);
        let mut ledger = RedundancyLedger::new();
        ledger.add_network(&scnn, &net);
        ledger.add_network(&ant, &net);
        (ledger.to_jsonl(), ledger)
    }

    #[test]
    fn analyze_round_trips_ledger_totals() {
        let (text, ledger) = sample_sidecar();
        let report = analyze(&text, &RedundancyFilter::default());
        assert_eq!(report.rows_matched, ledger.len() as u64);
        assert_eq!(report.lines_skipped, 0);
        assert_eq!(report.totals, ledger.totals());
        assert_eq!(report.machines.len(), 2);
        // Advantage pairs ANT (most skipped) against SCNN+ (most executed).
        assert!(!report.advantage.is_empty());
        assert_eq!(report.advantage[0].machine, "ANT");
        assert_eq!(report.advantage[0].baseline, "SCNN+");
        for adv in &report.advantage {
            assert!(adv.mults_saved > 0, "{adv:?}");
        }
    }

    #[test]
    fn filters_and_skips_compose() {
        let (text, _) = sample_sidecar();
        let garbled = format!("not json\n{text}{{\"schema\":\"other/1\"}}\n");
        let filter = RedundancyFilter {
            machine: Some("ANT".to_string()),
            phase: Some("G_A*A".to_string()),
            ..RedundancyFilter::default()
        };
        let report = analyze(&garbled, &filter);
        assert_eq!(report.lines_skipped, 2);
        assert_eq!(report.rows_matched, 2); // 2 layers x 1 phase x 1 machine
        assert!(report
            .rows
            .iter()
            .all(|r| r.machine == "ANT" && r.phase == "G_A*A"));
        // Single machine after filtering: no advantage attribution.
        assert!(report.advantage.is_empty());
    }

    #[test]
    fn json_is_schema_tagged_and_truncates() {
        let (text, _) = sample_sidecar();
        let report = analyze(&text, &RedundancyFilter::default());
        let json = ant_obs::parse_json(&to_json(&report, 3)).expect("valid JSON");
        assert_eq!(json.get("schema").and_then(Json::as_str), Some(SCHEMA));
        let rows = json.get("rows").and_then(Json::as_array).expect("rows");
        assert_eq!(rows.len(), 3);
        assert_eq!(
            json.get("truncated").and_then(Json::as_u64),
            Some(report.rows_matched - 3)
        );
        let totals = json.get("totals").expect("totals");
        assert_eq!(
            totals.get("rcps_total").and_then(Json::as_u64),
            Some(report.totals.rcps_total())
        );
        // Totals keep full coverage even when rows are truncated.
        let machines = json
            .get("machines")
            .and_then(Json::as_array)
            .expect("machines");
        assert_eq!(machines.len(), 2);
        let advantage = json
            .get("advantage")
            .and_then(Json::as_array)
            .expect("advantage");
        assert!(!advantage.is_empty());
        let markdown = to_markdown(&report, 3);
        assert!(markdown.contains("# Redundancy attribution"));
        assert!(markdown.contains("more row(s) below --top 3"));
        assert!(markdown.contains("advantage over SCNN+"));
    }
}
