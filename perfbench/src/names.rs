//! Every metric name the benchmark reports, with its unit.  `BENCHMARK.json`
//! lists the same names; a self-test keeps the two in step.

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_rps", "req/s"),
    ("max_rate_rps", "req/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("answered_frac", "ratio"),
    ("exact_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every traced run (`0` for a layer the
/// workload never calls).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.fingerprint.us_p50", "us"),
    ("core.fingerprint.calls", "count"),
    ("serve.store.get_us_p50", "us"),
    ("serve.store.hits", "count"),
    ("serve.store.misses", "count"),
    ("serve.store.evictions", "count"),
    ("serve.store.hit_ratio", "ratio"),
    ("serve.admission.decide_us_p50", "us"),
    ("serve.admission.decide_us_p99", "us"),
    ("serve.admission.calls", "count"),
    ("serve.admission.reject_frac", "ratio"),
    ("serve.service.batch_ms_p50", "ms"),
    ("serve.service.batch_ms_p99", "ms"),
    ("serve.service.cold_solves", "count"),
    ("serve.service.dedup_hits", "count"),
    ("serve.service.served_ratio", "ratio"),
    ("serve.frontend.tick_us_p50", "us"),
    ("serve.frontend.tick_us_p99", "us"),
    ("serve.frontend.submit_us_p50", "us"),
    ("serve.frontend.busy_frac", "ratio"),
    ("serve.frontend.ticks", "count"),
    ("serve.frontend.dispatches", "count"),
    ("serve.frontend.peak_backlog", "count"),
    ("serve.frontend.sheds", "count"),
    ("serve.online.replan_ms_p50", "ms"),
    ("serve.online.replan_ms_p99", "ms"),
    ("serve.online.replans", "count"),
    ("serve.online.evaluated", "count"),
    ("sched.solve.ms_total.minperiod", "ms"),
    ("sched.solve.evaluated.minperiod", "count"),
    ("sched.orchestrate.ms_total.minperiod", "ms"),
    ("sched.engine.prelude_ms_total.minperiod", "ms"),
    ("sched.engine.prelude_share.minperiod", "ratio"),
    ("sched.engine.search_ms_est.minperiod", "ms"),
    ("sched.engine.shapes.minperiod", "count"),
    ("sched.engine.expanded.minperiod", "count"),
    ("sched.engine.certified_shapes.minperiod", "count"),
    ("sched.engine.peak_resident.minperiod", "count"),
    ("sched.engine.eval_cache.hits.minperiod", "count"),
    ("sched.engine.eval_cache.misses.minperiod", "count"),
    ("sched.engine.eval_cache.hit_ratio.minperiod", "ratio"),
    ("sched.solve.ms_total.minlatency", "ms"),
    ("sched.solve.evaluated.minlatency", "count"),
    ("sched.orchestrate.ms_total.minlatency", "ms"),
    ("sched.engine.prelude_ms_total.minlatency", "ms"),
    ("sched.engine.prelude_share.minlatency", "ratio"),
    ("sched.engine.search_ms_est.minlatency", "ms"),
    ("sched.engine.shapes.minlatency", "count"),
    ("sched.engine.expanded.minlatency", "count"),
    ("sched.engine.certified_shapes.minlatency", "count"),
    ("sched.engine.peak_resident.minlatency", "count"),
    ("sched.engine.eval_cache.hits.minlatency", "count"),
    ("sched.engine.eval_cache.misses.minlatency", "count"),
    ("sched.engine.eval_cache.hit_ratio.minlatency", "ratio"),
    ("latency_ms_p99", "ms"),
    ("gen.lag_ms_p99", "ms"),
    ("trace.overhead_frac", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one `BENCHMARK.json` section, read with a
    /// minimal scan (the file is small and machine-checked elsewhere).
    fn section(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |name: &str| {
                    let at = entry.find(&format!("\"{name}\"")).expect("field present");
                    let rest = &entry[at + name.len() + 2..];
                    let open = rest.find('"').expect("value opens") + 1;
                    let close = rest[open..].find('"').expect("value closes") + open;
                    rest[open..close].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section(&json, "end_to_end"), owned(END_TO_END));
        assert_eq!(section(&json, "per_layer"), owned(PER_LAYER));
    }
}
