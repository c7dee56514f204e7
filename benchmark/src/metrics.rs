//! The metric names, units, directions and regression bounds — the single
//! source `BENCHMARK.json` is printed from (`--print-manifest`; a unit test
//! keeps the committed file equal to it).

use crate::inputs::WORKLOADS;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; 0 for per-layer metrics, which have no bound.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: 0.0 }
}

use Better::{Higher, Lower};

/// Measured by the untraced run, each timing as the best decile of its
/// windows (see `stats.rs`). The bounds leave room for what that does not
/// remove: a run the neighbours held back from its first second to its
/// last; see the README's "Noise".
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("index_bytes", "B", Lower, 0.02),
    e2e("classify_mpps", "Mpkt/s", Higher, 0.25),
    e2e("churn_classify_mpps", "Mpkt/s", Higher, 0.25),
    e2e("wire_p50_us", "us", Lower, 0.25),
];

/// Measured by the traced run; layer = module name.
pub const PER_LAYER: [MetricDef; 66] = [
    layer("iset.partition_s", "s", Lower),
    layer("iset.count", "count", Lower),
    layer("iset.coverage", "ratio", Higher),
    layer("rqrmi.train_s", "s", Lower),
    layer("rqrmi.model_bytes", "B", Lower),
    layer("rqrmi.infer_ns_per_pkt", "ns", Lower),
    layer("rqrmi.infer_batch_ns_per_pkt", "ns", Lower),
    layer("rqrmi.err_bound_mean", "count", Lower),
    layer("system.search_ns_per_pkt", "ns", Lower),
    layer("system.validate_ns_per_pkt", "ns", Lower),
    layer("system.scalar_mpps", "Mpkt/s", Higher),
    layer("system.batch_p99_us", "us", Lower),
    layer("system.isets_batch_ns_per_pkt", "ns", Lower),
    layer("system.iset_hit_ratio", "ratio", Higher),
    layer("system.validate_pass_ratio", "ratio", Higher),
    layer("system.residue_ns_per_pkt", "ns", Lower),
    layer("system.residue_scalar_ns_per_pkt", "ns", Lower),
    layer("system.residue_share", "ratio", Lower),
    layer("tuplemerge.remainder_rules", "count", Lower),
    layer("tuplemerge.remainder_bytes", "B", Lower),
    layer("tuplemerge.remainder_ns_per_pkt", "ns", Lower),
    layer("tuplemerge.remainder_share", "ratio", Lower),
    layer("tuplemerge.floor_prune_ratio", "ratio", Higher),
    layer("tuplemerge.standalone_bytes", "B", Lower),
    layer("tuplemerge.standalone_ns_per_pkt", "ns", Lower),
    layer("runtime.mpps", "Mpkt/s", Higher),
    layer("runtime.overhead_ns_per_pkt", "ns", Lower),
    layer("runtime.batch_latency_us", "us", Lower),
    layer("persist.save_ms", "ms", Lower),
    layer("persist.load_ms", "ms", Lower),
    layer("persist.snapshot_bytes", "B", Lower),
    layer("handle.pin_ns", "ns", Lower),
    layer("handle.apply_us_per_op", "us", Lower),
    layer("handle.apply_us_p50", "us", Lower),
    layer("handle.apply_us_p95", "us", Lower),
    layer("handle.apply_growth_ratio", "ratio", Lower),
    layer("handle.generations", "count", Higher),
    layer("handle.remainder_fraction_mean", "ratio", Lower),
    layer("handle.remainder_fraction_peak", "ratio", Lower),
    layer("handle.retrain_ms_p50", "ms", Lower),
    layer("handle.retrain_partial_ms", "ms", Lower),
    layer("handle.retrain_full_ms", "ms", Lower),
    layer("handle.partial_share", "ratio", Higher),
    layer("handle.reader_stall_us_max", "us", Lower),
    layer("frame.decode_ns_per_req", "ns", Lower),
    layer("frame.encode_ns_per_resp", "ns", Lower),
    layer("sysio.recv_ns_per_pkt", "ns", Lower),
    layer("sysio.send_ns_per_pkt", "ns", Lower),
    layer("serve.syscalls_per_pkt", "ratio", Lower),
    layer("serve.empty_recv_per_pkt", "ratio", Lower),
    layer("serve.batch_fill_mean", "count", Higher),
    layer("serve.deadline_flush_ratio", "ratio", Lower),
    layer("serve.server_p50_us", "us", Lower),
    layer("serve.server_p99_us", "us", Lower),
    layer("serve.wire_p99_us", "us", Lower),
    layer("serve.wire_sat_kpps", "kreq/s", Higher),
    layer("serve.null_plane_sat_kpps", "kreq/s", Higher),
    layer("serve.classify_share", "ratio", Lower),
    layer("serve.wire_residue_us", "us", Lower),
    layer("serve.p99_us_at_100k", "us", Lower),
    layer("serve.p99_us_at_200k", "us", Lower),
    layer("serve.rate_at_1ms_kpps", "kreq/s", Higher),
    layer("loadgen.late_us_p99", "us", Lower),
    layer("loadgen.retransmit_ratio", "ratio", Lower),
    layer("loadgen.threads", "count", Lower),
    layer("trace.overhead_ratio", "ratio", Higher),
];

/// Default `--seconds`, and `run_seconds` in the manifest.
pub const RUN_SECONDS: u64 = 32;

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .unwrap_or_else(|| panic!("metric {name} is not declared in metrics.rs"))
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let better = |b: Better| if b == Lower { "lower" } else { "higher" };
    let list = |rows: Vec<String>| format!("[\n    {}\n  ]", rows.join(",\n    "));
    let workloads =
        WORKLOADS.iter().map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why));
    let end_to_end = END_TO_END.iter().map(|m| {
        format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
            m.name,
            m.unit,
            better(m.better),
            m.bound
        )
    });
    let per_layer = PER_LAYER.iter().map(|m| {
        format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            m.name,
            m.unit,
            better(m.better)
        )
    });
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \
         \"per_layer\": {}\n}}\n",
        list(workloads.collect()),
        list(end_to_end.collect()),
        list(per_layer.collect())
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars().all(ok)
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            let unit_ok =
                |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
            assert!(!m.unit.is_empty() && m.unit.len() <= 16 && m.unit.chars().all(unit_ok));
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name));
        }
    }

    #[test]
    fn committed_manifest_is_the_printed_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, manifest(), "regenerate with --print-manifest > BENCHMARK.json");
        assert!(on_disk.len() <= 64 * 1024);
    }
}
