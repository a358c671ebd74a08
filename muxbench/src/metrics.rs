//! Turning a measured run into named metrics, and printing them.

use std::collections::BTreeMap;

use crate::pct::{median, tail, trimmed_mean};
use crate::run::Measured;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

fn metric(out: &mut Vec<Metric>, name: &str, unit: &'static str, value: f64) {
    out.push(Metric {
        name: name.to_string(),
        unit,
        value: if value.is_finite() { value } else { 0.0 },
    });
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Samples of `kinds` merged.
fn samples(by_kind: &BTreeMap<&'static str, Vec<u64>>, kinds: &[&str]) -> Vec<u64> {
    kinds
        .iter()
        .filter_map(|k| by_kind.get(k))
        .flatten()
        .copied()
        .collect()
}

const META: [&str; 3] = ["create", "unlink", "stat"];

/// Value of `target` under the percentile rule, in µs.
fn tail_us(mut v: Vec<u64>, target: f64) -> f64 {
    tail(&mut v, target).map_or(0.0, |p| p.value as f64 / 1e3)
}

/// Mean of `v`, ns → µs.
fn mean_us(v: &[u64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<u64>() as f64 / v.len() as f64 / 1e3
    }
}

/// Peak resident memory of this process so far, MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Host ops per second over the time spent inside calls (ticks included).
fn ops_per_s(m: &Measured) -> f64 {
    m.ops as f64 / (m.call_ns as f64 / 1e9)
}

/// The host plane of an untraced run. These figures do not repeat within
/// a tenth from run to run on a shared 2-core VM (the same seed moves them
/// by 10–40 %), so they are per-layer numbers, not end-to-end gates.
pub fn host_plane(m: &Measured) -> Vec<Metric> {
    let mut out = Vec::new();
    metric(&mut out, "host.ops_per_s", "ops/s", ops_per_s(m));
    let host = |k: &[&str]| samples(&m.host, k);
    metric(
        &mut out,
        "host.read_p50_us",
        "us",
        tail_us(host(&["read"]), 0.5),
    );
    metric(
        &mut out,
        "host.read_p99_us",
        "us",
        tail_us(host(&["read"]), 0.99),
    );
    metric(
        &mut out,
        "host.write_p50_us",
        "us",
        tail_us(host(&["write"]), 0.5),
    );
    metric(
        &mut out,
        "host.write_p99_us",
        "us",
        tail_us(host(&["write"]), 0.99),
    );
    metric(
        &mut out,
        "host.meta_p99_us",
        "us",
        tail_us(host(&META), 0.99),
    );
    out
}

/// Chunks the timed phase's ops are cut into for `host_op_us`.
const CHUNKS: usize = 40;

/// Host latency per op of each chunk of the timed phase, in order: the
/// ops cut into [`CHUNKS`] runs of consecutive ops, and in each the mean
/// with the fastest and slowest tenth left out, ns.
pub fn host_op_by_chunk(m: &Measured) -> Vec<u64> {
    let len = m.op_host.len().div_ceil(CHUNKS).max(1);
    m.op_host
        .chunks(len)
        .map(|c| trimmed_mean(&mut c.to_vec()) as u64)
        .collect()
}

/// The host-plane end-to-end figure, µs: the median over chunks of
/// [`host_op_by_chunk`]. Trimming keeps an op the host stalled from moving
/// its chunk, and the median keeps a chunk the host stalled from moving
/// the figure. Op kinds weigh in by their share of the mix.
fn host_op_us(m: &Measured) -> f64 {
    median(&mut host_op_by_chunk(m)) / 1e3
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(m: &Measured, setups: &[f64]) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut setup_ns: Vec<u64> = setups.iter().map(|s| (s * 1e9) as u64).collect();
    metric(&mut out, "setup_s", "s", median(&mut setup_ns) / 1e9);
    let user_bytes = m.bytes_read + m.bytes_written;
    metric(
        &mut out,
        "virt_mb_per_s",
        "MB/s",
        user_bytes as f64 / 1e6 / (m.virt_elapsed_ns as f64 / 1e9),
    );
    let virt = |k: &[&str]| samples(&m.virt, k);
    metric(
        &mut out,
        "virt_read_mean_us",
        "us",
        mean_us(&virt(&["read"])),
    );
    metric(
        &mut out,
        "virt_write_mean_us",
        "us",
        mean_us(&virt(&["write"])),
    );
    metric(&mut out, "ok_frac", "ratio", 1.0 - ratio(m.errors, m.ops));
    let dev_written: u64 = m
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("dev.") && k.ends_with(".bytes_written"))
        .map(|(_, v)| v)
        .sum();
    metric(
        &mut out,
        "write_amp",
        "ratio",
        ratio(dev_written, m.bytes_written),
    );
    let used: u64 = m.used.values().sum();
    metric(&mut out, "space_amp", "ratio", ratio(used, m.live_bytes));
    metric(&mut out, "peak_rss_mib", "MiB", peak_rss_mib());
    metric(&mut out, "host_op_us", "us", host_op_us(m));
    out
}

/// The per-layer metrics: span self times and counters from the traced
/// run; raw host durations (fast-path hits, ticks) from the untraced
/// replay of the same op stream, which carries no tracing cost.
pub fn per_layer(t: &Measured, plain: &Measured) -> Vec<Metric> {
    let c = |k: &str| t.counters.get(k).copied().unwrap_or(0);
    let (kinds, calls) = t.spans.clone().unwrap_or_default();
    let self_p50 = |ks: &[&str]| {
        let mut v: Vec<u64> = ks
            .iter()
            .filter_map(|k| kinds.get(k))
            .filter_map(|kt| kt.per_op.get("mux"))
            .flatten()
            .copied()
            .collect();
        median(&mut v) / 1e3
    };
    let mut out = host_plane(plain);
    // Virtual percentiles are steps of the cost model, identical on every
    // seed, so they are kept here rather than as end-to-end figures.
    let virt = |k: &[&str]| samples(&t.virt, k);
    metric(
        &mut out,
        "virt.read_p50_us",
        "us",
        tail_us(virt(&["read"]), 0.5),
    );
    metric(
        &mut out,
        "virt.read_p99_us",
        "us",
        tail_us(virt(&["read"]), 0.99),
    );
    metric(
        &mut out,
        "virt.write_p99_us",
        "us",
        tail_us(virt(&["write"]), 0.99),
    );
    metric(
        &mut out,
        "virt.fsync_p99_us",
        "us",
        tail_us(virt(&["fsync"]), 0.99),
    );
    metric(&mut out, "mux.read_self_us_p50", "us", self_p50(&["read"]));
    metric(
        &mut out,
        "mux.write_self_us_p50",
        "us",
        self_p50(&["write"]),
    );
    metric(&mut out, "mux.meta_self_us_p50", "us", self_p50(&META));
    let mux_rw = c("mux.reads") + c("mux.writes");
    metric(
        &mut out,
        "mux.dispatches_per_op",
        "count",
        ratio(c("mux.dispatches"), mux_rw),
    );
    metric(
        &mut out,
        "mux.split_frac",
        "ratio",
        ratio(c("mux.split_reads") + c("mux.split_writes"), mux_rw),
    );
    metric(
        &mut out,
        "mux.io_retries",
        "count",
        c("mux.io_retries") as f64,
    );
    metric(
        &mut out,
        "mux.io_errors",
        "count",
        c("mux.io_errors") as f64,
    );
    metric(
        &mut out,
        "mux.blocks_migrated",
        "count",
        c("mux.blocks_migrated") as f64,
    );
    metric(&mut out, "fail_frac", "ratio", ratio(t.errors, t.ops));

    let (hits, falls) = (c("mux.fastpath_hits"), c("mux.fastpath_fallbacks"));
    metric(
        &mut out,
        "fastpath.hit_frac",
        "ratio",
        ratio(hits, hits + falls),
    );
    metric(
        &mut out,
        "fastpath.hit_host_us_p50",
        "us",
        tail_us(plain.hit_host.clone(), 0.5),
    );
    metric(
        &mut out,
        "fastpath.hit_host_us_p999",
        "us",
        tail_us(plain.hit_host.clone(), 0.999),
    );
    let writes = t.virt.get("write").map_or(0, |v| v.len() as u64);
    metric(
        &mut out,
        "fastpath.invalidations_per_write",
        "count",
        ratio(c("mux.fastpath_invalidations"), writes),
    );

    for k in [
        "corruptions_detected",
        "corruptions_repaired",
        "scrub_blocks_verified",
    ] {
        metric(
            &mut out,
            &format!("integrity.{k}"),
            "count",
            c(&format!("mux.{k}")) as f64,
        );
    }

    let ticks = plain.host.get("tick").cloned().unwrap_or_default();
    metric(
        &mut out,
        "autotier.tick_host_ms_p50",
        "ms",
        tail_us(ticks.clone(), 0.5) / 1e3,
    );
    metric(
        &mut out,
        "autotier.tick_host_ms_max",
        "ms",
        ticks.iter().max().copied().unwrap_or(0) as f64 / 1e6,
    );
    for (name, k) in [
        ("promotions", "auto_promotions"),
        ("demotions", "auto_demotions"),
        ("mirrors_created", "mirrors_created"),
        ("planner_vetoes", "planner_vetoes"),
    ] {
        metric(
            &mut out,
            &format!("autotier.{name}"),
            "count",
            c(&format!("mux.{k}")) as f64,
        );
    }
    metric(
        &mut out,
        "autotier.throttled_bytes",
        "B",
        c("mux.throttled_bytes") as f64,
    );
    metric(
        &mut out,
        "autotier.hot_fast_frac",
        "ratio",
        ratio(t.hot_fast.0, t.hot_fast.1),
    );

    for k in [
        "migrations",
        "blocks_moved",
        "conflicts",
        "retries",
        "aborts",
    ] {
        metric(
            &mut out,
            &format!("occ.{k}"),
            "count",
            c(&format!("occ.{k}")) as f64,
        );
    }
    let migs = c("occ.migrations");
    metric(
        &mut out,
        "occ.commit_frac",
        "ratio",
        ratio(migs.saturating_sub(c("occ.aborts")), migs),
    );
    metric(
        &mut out,
        "occ.lock_hold_ms",
        "ms",
        c("occ.lock_hold_vns") as f64 / 1e6,
    );
    metric(
        &mut out,
        "persist.journal_bytes",
        "B",
        t.journal_bytes as f64,
    );

    for fs in ["novafs", "xefs", "e4fs"] {
        let self_ns: u64 = kinds.values().filter_map(|k| k.self_ns.get(fs)).sum();
        metric(
            &mut out,
            &format!("{fs}.calls"),
            "count",
            calls.get(fs).copied().unwrap_or(0) as f64,
        );
        metric(
            &mut out,
            &format!("{fs}.host_ms"),
            "ms",
            self_ns as f64 / 1e6,
        );
        metric(
            &mut out,
            &format!("{fs}.used_mib"),
            "MiB",
            t.used.get(fs).copied().unwrap_or(0) as f64 / (1u64 << 20) as f64,
        );
    }

    for tag in ["pm", "ssd", "hdd"] {
        let d = |k: &str| c(&format!("dev.{tag}.{k}"));
        metric(
            &mut out,
            &format!("dev.{tag}.busy_ms"),
            "ms",
            d("busy_ns") as f64 / 1e6,
        );
        metric(
            &mut out,
            &format!("dev.{tag}.read_mib"),
            "MiB",
            d("bytes_read") as f64 / 1048576.0,
        );
        metric(
            &mut out,
            &format!("dev.{tag}.write_mib"),
            "MiB",
            d("bytes_written") as f64 / 1048576.0,
        );
        metric(
            &mut out,
            &format!("dev.{tag}.flushes"),
            "count",
            d("flushes") as f64,
        );
    }
    metric(
        &mut out,
        "dev.hdd.seeks",
        "count",
        c("dev.hdd.seeks") as f64,
    );

    // A single Mux serves every op locally, with no links.
    let (local, remote) = (c("cluster.routed_local"), c("cluster.routed_remote"));
    let local_frac = if local + remote == 0 {
        1.0
    } else {
        ratio(local, local + remote)
    };
    metric(&mut out, "cluster.local_frac", "ratio", local_frac);
    metric(
        &mut out,
        "cluster.rpc_per_op",
        "count",
        ratio(remote, t.ops),
    );
    metric(
        &mut out,
        "link.bytes_per_op",
        "B",
        ratio(c("link.bytes"), t.ops),
    );
    metric(
        &mut out,
        "link.busy_ms",
        "ms",
        c("link.busy_ns") as f64 / 1e6,
    );
    metric(
        &mut out,
        "link.dropped_messages",
        "count",
        c("link.dropped_messages") as f64,
    );
    let node_ops: Vec<u64> = t
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("node") && k.ends_with(".ops"))
        .map(|(_, v)| *v)
        .collect();
    let skew = if node_ops.is_empty() {
        1.0
    } else {
        let mean = node_ops.iter().sum::<u64>() as f64 / node_ops.len() as f64;
        *node_ops.iter().max().expect("non-empty") as f64 / mean
    };
    metric(&mut out, "cluster.node_ops_skew", "ratio", skew);

    metric(
        &mut out,
        "trace.overhead_frac",
        "ratio",
        1.0 - ops_per_s(t) / ops_per_s(plain),
    );
    for (name, ks) in [
        ("samples.read", &["read"][..]),
        ("samples.write", &["write"][..]),
        ("samples.fsync", &["fsync"][..]),
        ("samples.meta", &META[..]),
        ("samples.tick", &["tick"][..]),
    ] {
        metric(
            &mut out,
            name,
            "count",
            samples(&plain.host, ks).len() as f64,
        );
    }
    out
}

/// Prints, for each latency figure, which percentile was reported and the
/// sample count it rests on.
pub fn print_samples(m: &Measured) {
    for (label, ks) in [
        ("read", &["read"][..]),
        ("write", &["write"][..]),
        ("fsync", &["fsync"][..]),
        ("meta", &META[..]),
        ("tick", &["tick"][..]),
    ] {
        let mut v = samples(&m.host, ks);
        if let Some(p) = tail(&mut v, 0.99) {
            println!(
                "samples {label:>5}: n = {:>8}, tail reported at p{:.3} (target p99)",
                p.n,
                p.q * 100.0
            );
        }
    }
    println!(
        "ops {} (steps {}), errors {} {:?}, wrong {}, read-back {} reads / {} errors / {} wrong",
        m.ops, m.steps, m.errors, m.error_kinds, m.wrong, m.readback.0, m.readback.1, m.readback.2
    );
}

/// Prints every metric as a table row.
pub fn print_table(ms: &[Metric]) {
    for m in ms {
        println!("{:<36} {:>18.6} {}", m.name, m.value, m.unit);
    }
}

/// The result line: one JSON object.
pub fn json(correct: bool, attempted: u64, failed: u64, ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let ms = vec![Metric {
            name: "setup_s".into(),
            unit: "s",
            value: 0.25,
        }];
        let j = json(true, 10, 0, &ms);
        assert_eq!(
            j,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
