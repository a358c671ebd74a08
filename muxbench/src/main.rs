//! Two-plane benchmark of the Mux tiered file system.
//!
//! ```text
//! cargo run --release --manifest-path muxbench/Cargo.toml -- \
//!     --workload zipf-read --seed 1 --seconds 10 --trace 0
//! ```
//!
//! A run issues a fixed amount of work, `--seconds` × the workload's
//! nominal op rate. `--trace 0` runs the ops untraced on the first stack
//! it sets up, syncs, reads every live file back, sets the workload up a
//! few more times (reporting the median set-up time), and prints the
//! end-to-end metrics. `--trace 1` runs the ops traced, replays the same op
//! stream untraced on a fresh stack, checks that both runs agree on every
//! virtual-plane result and counter and that no native call escaped the
//! spans, and prints the per-layer metrics. The last line of standard
//! output is one JSON object; see README.md for every metric.

mod metrics;
mod oracle;
mod pct;
mod run;
mod span;
mod stack;
mod timed;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use run::{Client, Measured};
use workload::Spec;

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = val.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Sets the workload up; returns the client and the host seconds it took.
fn timed_setup(spec: Spec, seed: u64, traced: bool) -> Result<(Client, f64), String> {
    let t0 = Instant::now();
    let c = Client::setup(spec, seed, traced)?;
    Ok((c, t0.elapsed().as_secs_f64()))
}

/// The fixed amount of work a run of `--seconds` issues.
fn steps(spec: Spec, args: &Args) -> u64 {
    (spec.steps_per_s as f64 * args.seconds).round().max(1.0) as u64
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<metrics::Metric>,
}

fn check_outputs(m: &Measured, what: &str, problems: &mut Vec<String>) {
    if let Some(w) = &m.first_wrong {
        problems.push(format!("{what}: {} wrong outputs, first: {w}", m.wrong));
    }
    if m.readback.2 > 0 {
        problems.push(format!("{what}: {} wrong read-back chunks", m.readback.2));
    }
}

fn end_to_end(spec: Spec, args: &Args) -> Result<Report, String> {
    // The timed phase runs on the first stack the process builds; the extra
    // set-ups follow it, each dropped at once, so one stack is resident.
    let (mut client, s) = timed_setup(spec, args.seed, false)?;
    let m = client.run(steps(spec, args), false);
    drop(client);
    let mut setups = vec![s];
    for _ in 1..SETUPS {
        setups.push(timed_setup(spec, args.seed, false)?.1);
    }
    println!("set-ups: {setups:.3?} s");
    let mut problems = Vec::new();
    check_outputs(&m, "run", &mut problems);
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    println!(
        "host_op_us by chunk, us: {:?}",
        metrics::host_op_by_chunk(&m)
            .iter()
            .map(|ns| ns / 1000)
            .collect::<Vec<_>>()
    );
    let metrics = metrics::end_to_end(&m, &setups);
    metrics::print_samples(&m);
    println!("host plane (reported by --trace 1, not gated):");
    metrics::print_table(&metrics::host_plane(&m));
    Ok(Report {
        correct: problems.is_empty(),
        attempted: m.ops + m.readback.0,
        failed: m.errors + m.readback.1,
        metrics,
    })
}

fn per_layer(spec: Spec, args: &Args) -> Result<Report, String> {
    // One stack at a time: each client is dropped before the next is built.
    let traced = timed_setup(spec, args.seed, true)?
        .0
        .run(steps(spec, args), true);
    let plain = timed_setup(spec, args.seed, false)?
        .0
        .run(steps(spec, args), false);

    let mut problems = Vec::new();
    check_outputs(&traced, "traced run", &mut problems);
    check_outputs(&plain, "untraced replay", &mut problems);
    let (ft, fp) = (traced.fingerprint(), plain.fingerprint());
    let differing: Vec<_> = ft
        .keys()
        .chain(fp.keys())
        .filter(|k| ft.get(*k) != fp.get(*k))
        .collect();
    if !differing.is_empty() {
        problems.push(format!(
            "traced and untraced runs differ in the virtual plane: {:?}",
            differing
                .iter()
                .take(8)
                .map(|k| (k, ft.get(*k), fp.get(*k)))
                .collect::<Vec<_>>()
        ));
    }
    // Self times are only as complete as the spans: a native call made on
    // another thread, or outside a client op, would be missing from them.
    if traced.stray_calls > 0 {
        problems.push(format!(
            "{} native calls were made outside a client op or on another thread",
            traced.stray_calls
        ));
    }
    // Arithmetic, not evidence: nested spans' self times sum to the root by
    // construction; this guards the bookkeeping that folds them.
    if let Some((kinds, _)) = &traced.spans {
        for (kind, t) in kinds {
            let sum: u64 = t.self_ns.values().sum();
            println!(
                "self-time check {kind:>7}: client spans {:>14} ns, layer self times {:>14} ns ({} ops)",
                t.root_ns, sum, t.ops
            );
            if sum != t.root_ns {
                problems.push(format!(
                    "{kind}: layer self times {sum} ns != client spans {} ns",
                    t.root_ns
                ));
            }
        }
    }
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    let metrics = metrics::per_layer(&traced, &plain);
    metrics::print_samples(&plain);
    Ok(Report {
        correct: problems.is_empty(),
        attempted: traced.ops + traced.readback.0 + plain.ops + plain.readback.0,
        failed: traced.errors + traced.readback.1 + plain.errors + plain.readback.1,
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("muxbench: {e}");
            eprintln!(
                "usage: muxbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workload::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(spec) = Spec::full(&args.workload) else {
        eprintln!(
            "muxbench: unknown workload {:?} (one of {})",
            args.workload,
            workload::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let report = if args.trace {
        per_layer(spec, &args)
    } else {
        end_to_end(spec, &args)
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("muxbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    metrics::print_table(&report.metrics);
    println!(
        "{}",
        metrics::json(
            report.correct,
            report.attempted,
            report.failed,
            &report.metrics
        )
    );
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
