//! Sweep-job specifications: the validated unit of work `ant-sweepd`
//! accepts over `POST /jobs`.
//!
//! A spec names a model from the workload registry, a machine list, a
//! sparsity grid, and the tenant submitting it, plus scheduling fields
//! (priority weight, deadline) and the sampling knobs every experiment
//! binary shares (`seed`, `max_channels`, `num_pes`). Parsing validates
//! everything up front through the [`AntError`] taxonomy — a malformed
//! submission is rejected with a 400 before it can ever occupy a queue
//! slot. The canonical JSON emission is deterministic, so a spec hashes to
//! a stable identity (part of every job id). A re-submitted or
//! crash-recovered job *resumes* instead of restarting because each cell's
//! layers resolve from the layer cache, whose keys derive from the
//! experiment config the spec builds, not from the tenant or deadline.

use ant_obs::json::{write_json_string, Json};
use ant_sim::ant::AntAccelerator;
use ant_sim::dst::DstAccelerator;
use ant_sim::inner::{DenseInnerProduct, TensorDash};
use ant_sim::intersection::IntersectionAccelerator;
use ant_sim::scnn::ScnnPlus;
use ant_sim::{AntError, ConvSim};
use ant_workloads::{models, ConvLayerSpec, LayerSparsity, NetworkModel};

use crate::fingerprint::StableHasher;
use crate::runner::ExperimentConfig;

/// Highest accepted priority weight (a tenant cannot grab more than this
/// many shares relative to weight-1 tenants).
pub const MAX_WEIGHT: u64 = 100;

/// Model names accepted in a spec (the workload registry).
pub const MODELS: &[&str] = &[
    "tiny",
    "resnet18",
    "densenet121",
    "vgg16",
    "wrn-16-8",
    "resnet50",
    "resnet18-imagenet",
];

/// Machine names accepted in a spec (the simulator registry).
pub const MACHINES: &[&str] = &["scnn+", "ant", "dadiannao", "tensordash", "gospa", "dst"];

/// Sparsifier names accepted in a spec.
pub const SPARSIFIERS: &[&str] = &["uniform", "weight-only", "activation-only"];

/// A validated sweep-job specification.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Submitting tenant (fair-share scheduling key).
    pub tenant: String,
    /// Workload name from [`MODELS`].
    pub model: String,
    /// Machines to sweep, from [`MACHINES`], in submission order.
    pub machines: Vec<String>,
    /// Sparsity grid, each in `[0, 1)`, in submission order.
    pub sparsities: Vec<f64>,
    /// How the grid value maps onto the three tensor roles, from
    /// [`SPARSIFIERS`].
    pub sparsifier: String,
    /// Priority weight for weighted fair scheduling (`1..=MAX_WEIGHT`).
    pub weight: u64,
    /// Wall-clock deadline in milliseconds from submission; `None` means
    /// no deadline. A deadline of zero is *sheddable at submission* — the
    /// daemon refuses it with a typed 503 rather than accepting work it
    /// already knows it cannot finish.
    pub deadline_ms: Option<u64>,
    /// Base RNG seed (defaults to the paper seed).
    pub seed: u64,
    /// Channel-sampling bound (defaults to the paper setting).
    pub max_channels: usize,
    /// PE count (defaults to the paper setting).
    pub num_pes: usize,
}

impl JobSpec {
    /// Parses and validates a JSON request body. Every rejection is an
    /// [`AntError::InvalidConfig`] naming the offending field.
    pub fn parse(body: &str) -> Result<Self, AntError> {
        let json = ant_obs::parse_json(body)
            .map_err(|e| AntError::invalid_config("body", format!("not valid JSON: {e}")))?;
        let Json::Obj(_) = &json else {
            return Err(AntError::invalid_config("body", "expected a JSON object"));
        };
        let str_field = |key: &'static str| -> Result<Option<String>, AntError> {
            match json.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(v) => v
                    .as_str()
                    .map(|s| Some(s.to_string()))
                    .ok_or_else(|| AntError::invalid_config(key, "expected a string")),
            }
        };
        let u64_field = |key: &'static str| -> Result<Option<u64>, AntError> {
            match json.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(v) => v.as_u64().map(Some).ok_or_else(|| {
                    AntError::invalid_config(key, "expected a non-negative integer")
                }),
            }
        };

        let tenant =
            str_field("tenant")?.ok_or_else(|| AntError::invalid_config("tenant", "required"))?;
        if tenant.is_empty() || tenant.len() > 64 {
            return Err(AntError::invalid_config(
                "tenant",
                "must be 1..=64 characters",
            ));
        }
        if !tenant
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
        {
            return Err(AntError::invalid_config(
                "tenant",
                format!("invalid name {tenant:?} (alphanumeric, '-', '_', '.' only)"),
            ));
        }

        let model = str_field("model")?
            .ok_or_else(|| AntError::invalid_config("model", "required"))?
            .to_ascii_lowercase();
        if !MODELS.contains(&model.as_str()) {
            return Err(AntError::invalid_config(
                "model",
                format!("unknown model {model:?} (expected one of {MODELS:?})"),
            ));
        }

        let machines_json = json
            .get("machines")
            .and_then(Json::as_array)
            .ok_or_else(|| AntError::invalid_config("machines", "required (array of strings)"))?;
        if machines_json.is_empty() {
            return Err(AntError::invalid_config("machines", "must not be empty"));
        }
        let mut machines = Vec::with_capacity(machines_json.len());
        for m in machines_json {
            let name = m
                .as_str()
                .ok_or_else(|| AntError::invalid_config("machines", "expected strings"))?
                .to_ascii_lowercase();
            if !MACHINES.contains(&name.as_str()) {
                return Err(AntError::invalid_config(
                    "machines",
                    format!("unknown machine {name:?} (expected one of {MACHINES:?})"),
                ));
            }
            if machines.contains(&name) {
                return Err(AntError::invalid_config(
                    "machines",
                    format!("duplicate machine {name:?}"),
                ));
            }
            machines.push(name);
        }

        let sparsities_json = json
            .get("sparsities")
            .and_then(Json::as_array)
            .ok_or_else(|| AntError::invalid_config("sparsities", "required (array of numbers)"))?;
        if sparsities_json.is_empty() {
            return Err(AntError::invalid_config("sparsities", "must not be empty"));
        }
        let mut sparsities = Vec::with_capacity(sparsities_json.len());
        for s in sparsities_json {
            let v = s
                .as_f64()
                .ok_or_else(|| AntError::invalid_config("sparsities", "expected numbers"))?;
            if !(0.0..1.0).contains(&v) {
                return Err(AntError::invalid_config(
                    "sparsities",
                    format!("sparsity {v} outside [0, 1)"),
                ));
            }
            sparsities.push(v);
        }

        let sparsifier = str_field("sparsifier")?
            .unwrap_or_else(|| "uniform".to_string())
            .to_ascii_lowercase();
        if !SPARSIFIERS.contains(&sparsifier.as_str()) {
            return Err(AntError::invalid_config(
                "sparsifier",
                format!("unknown sparsifier {sparsifier:?} (expected one of {SPARSIFIERS:?})"),
            ));
        }

        let weight = u64_field("weight")?.unwrap_or(1);
        if !(1..=MAX_WEIGHT).contains(&weight) {
            return Err(AntError::invalid_config(
                "weight",
                format!("must be 1..={MAX_WEIGHT} (got {weight})"),
            ));
        }

        let deadline_ms = u64_field("deadline_ms")?;
        let paper = ExperimentConfig::paper_default();
        let seed = u64_field("seed")?.unwrap_or(paper.seed);
        let max_channels = u64_field("max_channels")?.unwrap_or(paper.max_channels as u64);
        if max_channels == 0 || max_channels > 64 {
            return Err(AntError::invalid_config(
                "max_channels",
                format!("must be 1..=64 (got {max_channels})"),
            ));
        }
        let num_pes = u64_field("num_pes")?.unwrap_or(paper.num_pes as u64);
        if num_pes == 0 || num_pes > 4096 {
            return Err(AntError::invalid_config(
                "num_pes",
                format!("must be 1..=4096 (got {num_pes})"),
            ));
        }

        Ok(JobSpec {
            tenant,
            model,
            machines,
            sparsities,
            sparsifier,
            weight,
            deadline_ms,
            seed,
            max_channels: max_channels as usize,
            num_pes: num_pes as usize,
        })
    }

    /// Deterministic canonical JSON: fixed key order, lowercase names,
    /// shortest-round-trip floats. Two specs describing the same sweep
    /// always emit identical bytes, so [`JobSpec::content_hash`] is a
    /// stable identity across submissions and daemon restarts.
    pub fn canonical_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"tenant\":");
        write_json_string(&self.tenant, &mut out);
        out.push_str(",\"model\":");
        write_json_string(&self.model, &mut out);
        out.push_str(",\"machines\":[");
        for (i, m) in self.machines.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(m, &mut out);
        }
        out.push_str("],\"sparsities\":[");
        for (i, s) in self.sparsities.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{s}"));
        }
        out.push_str("],\"sparsifier\":");
        write_json_string(&self.sparsifier, &mut out);
        out.push_str(&format!(",\"weight\":{}", self.weight));
        match self.deadline_ms {
            Some(ms) => out.push_str(&format!(",\"deadline_ms\":{ms}")),
            None => out.push_str(",\"deadline_ms\":null"),
        }
        out.push_str(&format!(
            ",\"seed\":{},\"max_channels\":{},\"num_pes\":{}}}",
            self.seed, self.max_channels, self.num_pes
        ));
        out
    }

    /// Stable 64-bit identity of the *work* this spec describes: everything
    /// except the scheduling fields (tenant, weight, deadline), so the same
    /// sweep re-submitted under any tenant or deadline carries the same
    /// hash in its job id.
    pub fn content_hash(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_bytes(self.model.as_bytes());
        for m in &self.machines {
            h.write_bytes(m.as_bytes());
        }
        for s in &self.sparsities {
            h.write_u64(s.to_bits());
        }
        h.write_bytes(self.sparsifier.as_bytes());
        h.write_u64(self.seed);
        h.write_u64(self.max_channels as u64);
        h.write_u64(self.num_pes as u64);
        h.finish()
    }

    /// Builds the workload model this spec names.
    pub fn build_model(&self) -> NetworkModel {
        build_model(&self.model)
    }

    /// Builds one machine by registry name; `None` for unknown names
    /// (unreachable after [`JobSpec::parse`]).
    pub fn build_machine(name: &str) -> Option<Box<dyn ConvSim + Send + Sync>> {
        match name {
            "scnn+" => Some(Box::new(ScnnPlus::paper_default())),
            "ant" => Some(Box::new(AntAccelerator::paper_default())),
            "dadiannao" => Some(Box::new(DenseInnerProduct::paper_default())),
            "tensordash" => Some(Box::new(TensorDash::paper_default())),
            "gospa" => Some(Box::new(IntersectionAccelerator::training_default())),
            "dst" => Some(Box::new(DstAccelerator::paper_default())),
            _ => None,
        }
    }

    /// Maps a grid sparsity through the spec's sparsifier.
    pub fn layer_sparsity(&self, sparsity: f64) -> LayerSparsity {
        match self.sparsifier.as_str() {
            "weight-only" => LayerSparsity {
                weight: sparsity,
                activation: 0.0,
                gradient: 0.0,
            },
            "activation-only" => LayerSparsity {
                weight: 0.0,
                activation: sparsity,
                gradient: sparsity,
            },
            _ => LayerSparsity::uniform(sparsity),
        }
    }

    /// The experiment config for one grid cell.
    pub fn experiment_config(&self, sparsity: f64) -> ExperimentConfig {
        ExperimentConfig {
            sparsity: self.layer_sparsity(sparsity),
            max_channels: self.max_channels,
            num_pes: self.num_pes,
            seed: self.seed,
        }
    }

    /// The sweep's grid cells `(machine, sparsity)` in deterministic spec
    /// order: machines outer, sparsities inner.
    pub fn cells(&self) -> Vec<(String, f64)> {
        let mut cells = Vec::with_capacity(self.machines.len() * self.sparsities.len());
        for m in &self.machines {
            for &s in &self.sparsities {
                cells.push((m.clone(), s));
            }
        }
        cells
    }
}

fn build_model(name: &str) -> NetworkModel {
    match name {
        "resnet18" => models::resnet18_cifar(),
        "densenet121" => models::densenet121_cifar(),
        "vgg16" => models::vgg16_cifar(),
        "wrn-16-8" => models::wrn_16_8_cifar(),
        "resnet50" => models::resnet50_imagenet(),
        "resnet18-imagenet" => models::resnet18_imagenet(),
        // "tiny": the synthetic two-layer smoke net every harness shares.
        _ => NetworkModel {
            name: "tiny",
            layers: vec![
                ConvLayerSpec::new("l1", 4, 2, 3, 16, 1, 1, 1),
                ConvLayerSpec::new("l2", 4, 4, 3, 8, 1, 1, 2),
            ],
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> String {
        r#"{"tenant":"alice","model":"tiny","machines":["ANT","SCNN+"],"sparsities":[0.8,0.9]}"#
            .to_string()
    }

    #[test]
    fn minimal_spec_parses_with_paper_defaults() {
        let spec = JobSpec::parse(&minimal()).expect("parses");
        let paper = ExperimentConfig::paper_default();
        assert_eq!(spec.tenant, "alice");
        assert_eq!(spec.model, "tiny");
        assert_eq!(spec.machines, vec!["ant", "scnn+"]);
        assert_eq!(spec.weight, 1);
        assert_eq!(spec.deadline_ms, None);
        assert_eq!(spec.seed, paper.seed);
        assert_eq!(spec.max_channels, paper.max_channels);
        assert_eq!(spec.num_pes, paper.num_pes);
        assert_eq!(spec.sparsifier, "uniform");
        assert_eq!(
            spec.cells(),
            vec![
                ("ant".to_string(), 0.8),
                ("ant".to_string(), 0.9),
                ("scnn+".to_string(), 0.8),
                ("scnn+".to_string(), 0.9),
            ]
        );
    }

    #[test]
    fn rejections_name_the_offending_field() {
        for (body, field) in [
            ("not json", "body"),
            ("[]", "body"),
            (
                r#"{"model":"tiny","machines":["ant"],"sparsities":[0.5]}"#,
                "tenant",
            ),
            (
                r#"{"tenant":"a b","model":"tiny","machines":["ant"],"sparsities":[0.5]}"#,
                "tenant",
            ),
            (
                r#"{"tenant":"a","model":"gpt5","machines":["ant"],"sparsities":[0.5]}"#,
                "model",
            ),
            (
                r#"{"tenant":"a","model":"tiny","machines":[],"sparsities":[0.5]}"#,
                "machines",
            ),
            (
                r#"{"tenant":"a","model":"tiny","machines":["warp"],"sparsities":[0.5]}"#,
                "machines",
            ),
            (
                r#"{"tenant":"a","model":"tiny","machines":["ant","ant"],"sparsities":[0.5]}"#,
                "machines",
            ),
            (
                r#"{"tenant":"a","model":"tiny","machines":["ant"],"sparsities":[1.5]}"#,
                "sparsities",
            ),
            (
                r#"{"tenant":"a","model":"tiny","machines":["ant"],"sparsities":[0.5],"weight":0}"#,
                "weight",
            ),
            (
                r#"{"tenant":"a","model":"tiny","machines":["ant"],"sparsities":[0.5],"weight":101}"#,
                "weight",
            ),
            (
                r#"{"tenant":"a","model":"tiny","machines":["ant"],"sparsities":[0.5],"max_channels":0}"#,
                "max_channels",
            ),
            (
                r#"{"tenant":"a","model":"tiny","machines":["ant"],"sparsities":[0.5],"sparsifier":"magic"}"#,
                "sparsifier",
            ),
        ] {
            let err = JobSpec::parse(body).expect_err(body);
            match err {
                AntError::InvalidConfig { param, .. } => {
                    assert_eq!(param, field, "wrong field for body {body}")
                }
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn canonical_json_round_trips_and_hash_ignores_scheduling_fields() {
        let spec = JobSpec::parse(&minimal()).expect("parses");
        let reparsed = JobSpec::parse(&spec.canonical_json()).expect("canonical parses");
        assert_eq!(spec, reparsed);

        // Same work under a different tenant/weight/deadline: same hash.
        let mut other = spec.clone();
        other.tenant = "bob".to_string();
        other.weight = 9;
        other.deadline_ms = Some(120_000);
        assert_eq!(spec.content_hash(), other.content_hash());
        assert_ne!(spec.canonical_json(), other.canonical_json());

        // Different grid: different hash.
        let mut grid = spec.clone();
        grid.sparsities = vec![0.8];
        assert_ne!(spec.content_hash(), grid.content_hash());
    }

    #[test]
    fn every_registry_machine_builds_and_names_itself() {
        for name in MACHINES {
            let machine = JobSpec::build_machine(name).expect(name);
            assert!(!machine.name().is_empty());
        }
        assert!(JobSpec::build_machine("warp").is_none());
    }
}
