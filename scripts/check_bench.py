#!/usr/bin/env python3
"""CI regression gates over deterministic bench results.

Usage:
  check_bench.py <current scaling.json> <baseline.json>
  check_bench.py --crash <current crash_matrix.json> <baseline crash_matrix.json>
  check_bench.py --autotier <current autotier.json> <baseline autotier.json>
  check_bench.py --integrity <current integrity.json> <baseline integrity.json>
  check_bench.py --read-overhead <current read_overhead.json> <baseline read_overhead.json>
  check_bench.py --mirror <current mirror.json> <baseline mirror.json>
  check_bench.py --qos <current qos.json> <baseline qos.json>
  check_bench.py --cluster <current cluster.json> <baseline cluster.json>
  check_bench.py --policy <current ablation_policy.json> <baseline ablation_policy.json>
  check_bench.py --all [baseline-ref]

`--all` runs every gate in one process against freshly regenerated
results under bench_results/, taking each baseline from the committed
copy at `baseline-ref` (default HEAD) via `git show`, and prints a
per-gate summary table. Any missing result or baseline file is a hard
failure — a gate that cannot read its inputs must never pass silently.

Scaling mode fails (exit 1) if:
  * single-thread throughput for any (config, mix) present in the
    baseline regressed by more than REGRESSION_TOLERANCE, or
  * the read-heavy mix no longer reaches MIN_SPEEDUP_8T aggregate
    speedup at 8 threads, or
  * any cell reports verify failures.

Crash mode fails (exit 1) if:
  * any crash point present and recovered in the baseline now fails
    (a "recovered" -> "violated"/"panic" regression), or
  * the current matrix has any failure at all (the suite's contract is
    zero violations and zero panics), or
  * coverage shrank below MIN_CRASH_POINTS enumerated points.

Autotier mode fails (exit 1) if:
  * the hot set did not converge onto the fast tiers
    (>= AUTOTIER_MIN_CONVERGENCE of hot-set blocks off HDD), or
  * steady-state read p50 with the daemon on is not better than the
    daemon-off run of the same workload, or
  * foreground throughput with the daemon on fell below
    AUTOTIER_MIN_FG_RATIO of the daemon-off run, or
  * convergence or the foreground ratio regressed by more than
    REGRESSION_TOLERANCE against the committed baseline.

Integrity mode fails (exit 1) if:
  * either bit-rot storm detected less than 100% of rotten blocks, or
  * the replicated storm repaired less than 100% of what it detected, or
  * any corrupt byte reached a caller in either storm, or
  * the unreplicated storm left any undetected block unquarantined, or
  * the scrubber's foreground read-p95 tax exceeds SCRUB_P95_BUDGET
    (or regressed by more than REGRESSION_TOLERANCE vs the baseline), or
  * the paced scrubber completed no full pass during the overhead run.

Read-overhead mode fails (exit 1) if:
  * Mux read overhead over native exceeds READ_OVERHEAD_BUDGET_PCT on
    the PM or SSD tier (the fast-path acceptance target), or
  * overhead on any tier regressed by more than
    READ_OVERHEAD_SLACK_PCT percentage points against the committed
    baseline (catches the HDD tier, which has no percentage budget).

Mirror mode fails (exit 1) if:
  * the mirrored arm created no replicas on the fast tier, or
  * mirrored read p99 is not under MIRROR_MAX_P99_RATIO of the
    single-copy arm's p99, or
  * fenced-PM goodput with mirrors is not at least
    MIRROR_MIN_DEGRADED_RATIO times the single-copy arm's, or
  * either ratio regressed by more than REGRESSION_TOLERANCE against
    the committed baseline.

QoS mode fails (exit 1) if:
  * the QoS arm's victim read p99 exceeds QOS_MAX_BLOWUP times the
    antagonist-free baseline arm (isolation must hold), or
  * the unfenced arm's blowup is below QOS_MIN_UNFENCED_BLOWUP (the
    antagonist must demonstrably starve an unfenced victim, or the
    experiment is not exercising anything), or
  * the QoS arm did not promote >= QOS_MIN_VICTIM_PM of the victim's
    blocks onto PM, or the unfenced arm promoted more than
    QOS_MAX_UNFENCED_VICTIM_PM of them (placement must corroborate the
    latency story), or
  * plan-time fair-share fencing never engaged in the QoS arm
    (qos_plan_exclusions == 0), or
  * either blowup regressed by more than REGRESSION_TOLERANCE against
    the committed baseline.

Cluster mode fails (exit 1) if:
  * aggregate throughput at 4 nodes is below CLUSTER_MIN_SCALING_4N of
    ideal linear scaling from the 1-node row, or
  * any scaling row reports pattern-verification failures, or
  * the partition/heal chaos arm lost any acked byte, left migration
    debris after heal, or failed a structural check, or
  * the chaos arm never exercised the machinery (no failed ops while
    dark, no breaker fast-fails, or no migration abort), or
  * 4-node efficiency or 1-node throughput regressed by more than
    REGRESSION_TOLERANCE against the committed baseline.

Policy mode (Ablation A3) fails (exit 1) if:
  * LRU does not hold the whole hot set on PM (hot_on_fast == 1.0), or
    its average read drifts more than POLICY_LRU_SLACK from
    POLICY_LRU_READ_NS (the paper's policy must keep its §3.1 result), or
  * the pinned-to-HDD arm has any hot-set block on PM, or
  * the average-read order lru < tpfs < hot-cold < pinned-to-HDD breaks, or
  * any policy's average read moved more than REGRESSION_TOLERANCE
    (either way) from the committed baseline, or a baseline row is gone.

All numbers are virtual-time (deterministic), so the gates are safe on
shared CI runners: a failure means the code got worse, not the machine.
"""

import json
import os
import subprocess
import sys
import tempfile

REGRESSION_TOLERANCE = 0.15  # fail if >15% below baseline
MIN_SPEEDUP_8T = 3.0  # acceptance floor for read-heavy @ 8 threads
MIN_CRASH_POINTS = 500  # acceptance floor for crash-matrix coverage
AUTOTIER_MIN_CONVERGENCE = 0.9  # hot-set blocks that must leave the HDD
AUTOTIER_MIN_FG_RATIO = 0.8  # daemon-on / daemon-off foreground floor
SCRUB_P95_BUDGET = 1.25  # scrub-on / scrub-off foreground read p95 ceiling
READ_OVERHEAD_BUDGET_PCT = 10.0  # Mux-over-native ceiling on PM and SSD reads
READ_OVERHEAD_SLACK_PCT = 2.0  # percentage points of drift allowed vs baseline
MIRROR_MAX_P99_RATIO = 0.9  # mirrored read p99 must beat single-copy by >=10%
MIRROR_MIN_DEGRADED_RATIO = 1.2  # fenced-PM goodput must beat single-copy by >=20%
QOS_MAX_BLOWUP = 2.0  # victim p99 with QoS on, relative to antagonist-free
QOS_MIN_UNFENCED_BLOWUP = 3.0  # unfenced starvation must be material
QOS_MIN_VICTIM_PM = 0.9  # QoS arm: victim blocks that must reach PM
QOS_MAX_UNFENCED_VICTIM_PM = 0.1  # unfenced arm: victim blocks allowed on PM
CLUSTER_MIN_SCALING_4N = 0.8  # 4-node aggregate throughput vs ideal linear
POLICY_LRU_READ_NS = 1825.6  # A3 LRU average read before the planners merged
POLICY_LRU_SLACK = 0.05  # allowed relative drift of the LRU row from it
POLICY_ORDER = ["lru", "tpfs", "hot-cold", "pinned-to-hdd (worst case)"]


class GateInputError(Exception):
    """A gate's input file is missing or unreadable — always a hard failure."""


def load_json(path):
    """Loads a result file; an absent file is a hard failure, never a skip.

    (An earlier version of this script let a missing bench_results file
    slide through as exit 0, which silently disabled the gate.)
    """
    if not os.path.exists(path):
        raise GateInputError(
            f"MISSING RESULT FILE: {path} — regenerate it with "
            f"`cargo run --release -p bench --bin repro` (or restore the "
            f"committed baseline); a gate without inputs must not pass"
        )
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise GateInputError(f"UNREADABLE RESULT FILE: {path}: {e}") from e


def git_baseline(name, ref):
    """Extracts `bench_results/<name>.json` at `ref` into a temp file."""
    res = subprocess.run(
        ["git", "show", f"{ref}:bench_results/{name}.json"],
        capture_output=True,
        text=True,
    )
    if res.returncode != 0:
        raise GateInputError(
            f"MISSING BASELINE: bench_results/{name}.json not found at "
            f"{ref} ({res.stderr.strip()}); commit a baseline before "
            f"gating against it"
        )
    fd, path = tempfile.mkstemp(prefix=f"{name}_baseline_", suffix=".json")
    with os.fdopen(fd, "w") as f:
        f.write(res.stdout)
    return path


def crash_gate(current_path, baseline_path):
    current = load_json(current_path)
    baseline = load_json(baseline_path)

    failures = []

    def failed_points(matrix):
        out = {}
        for sc in matrix["scenarios"]:
            k = (sc["scenario"], sc["mode"])
            out[k] = {p["k"]: p for p in sc["failures"]}
        return out

    base_failed = failed_points(baseline)
    cur_failed = failed_points(current)

    # Regressions: a point the baseline recovered must keep recovering.
    for key_, fails in sorted(cur_failed.items()):
        base = base_failed.get(key_, {})
        for k, p in sorted(fails.items()):
            if k not in base:
                failures.append(
                    f"{key_[0]}[{key_[1]}] k={k}: recovered -> "
                    f"{p['kind']} ({p['detail']})"
                )

    # Contract: the committed matrix is all-green; any failure is a bug.
    if current["violated"] or current["panicked"]:
        failures.append(
            f"matrix not clean: {current['violated']} violated, "
            f"{current['panicked']} panicked"
        )

    if current["total_points"] < MIN_CRASH_POINTS:
        failures.append(
            f"coverage shrank: {current['total_points']} points "
            f"< {MIN_CRASH_POINTS}"
        )
    else:
        print(
            f"ok coverage: {current['total_points']} points, "
            f"{current['recovered']} recovered"
        )

    if failures:
        print("\nCRASH GATE FAILED:")
        for f_ in failures:
            print(f"  {f_}")
        return 1
    print("crash gate passed")
    return 0


def autotier_gate(current_path, baseline_path):
    cur = load_json(current_path)
    base = load_json(baseline_path)

    failures = []
    on, off = cur["daemon_on"], cur["daemon_off"]

    if on["convergence"] < AUTOTIER_MIN_CONVERGENCE:
        failures.append(
            f"hot set did not converge: {on['convergence']:.2%} "
            f"< {AUTOTIER_MIN_CONVERGENCE:.0%} of blocks off HDD"
        )
    else:
        print(f"ok convergence: {on['convergence']:.2%} of hot blocks off HDD")

    if on["read_p50_ns"] >= off["read_p50_ns"]:
        failures.append(
            f"daemon-on read p50 ({on['read_p50_ns']} ns) not better "
            f"than daemon-off ({off['read_p50_ns']} ns)"
        )
    else:
        print(
            f"ok read p50: {on['read_p50_ns']} ns on vs "
            f"{off['read_p50_ns']} ns off"
        )

    if cur["fg_ratio"] < AUTOTIER_MIN_FG_RATIO:
        failures.append(
            f"foreground throughput ratio {cur['fg_ratio']:.2f} "
            f"< {AUTOTIER_MIN_FG_RATIO}"
        )
    else:
        print(f"ok foreground ratio on/off: {cur['fg_ratio']:.2f}")

    # Regressions against the committed baseline.
    base_conv = base["daemon_on"]["convergence"]
    if on["convergence"] < base_conv * (1.0 - REGRESSION_TOLERANCE):
        failures.append(
            f"convergence regressed: {on['convergence']:.2%} vs "
            f"baseline {base_conv:.2%}"
        )
    if cur["fg_ratio"] < base["fg_ratio"] * (1.0 - REGRESSION_TOLERANCE):
        failures.append(
            f"foreground ratio regressed: {cur['fg_ratio']:.2f} vs "
            f"baseline {base['fg_ratio']:.2f}"
        )

    if failures:
        print("\nAUTOTIER GATE FAILED:")
        for f_ in failures:
            print(f"  {f_}")
        return 1
    print("autotier gate passed")
    return 0


def integrity_gate(current_path, baseline_path):
    cur = load_json(current_path)
    base = load_json(baseline_path)

    failures = []

    for name in ("replicated", "unreplicated"):
        st = cur[name]
        if st["detection_rate"] < 1.0:
            failures.append(
                f"{name}: detected {st['detected']} of {st['blocks']} "
                f"rotten blocks ({st['detection_rate']:.2%})"
            )
        else:
            print(f"ok {name}: 100% of {st['blocks']} rotten blocks detected")
        if st["corrupt_bytes_served"]:
            failures.append(
                f"{name}: {st['corrupt_bytes_served']} corrupt bytes "
                f"reached a caller"
            )
        else:
            print(f"ok {name}: zero corrupt bytes served")

    rep = cur["replicated"]
    if rep["repair_rate"] < 1.0 or rep["quarantined"]:
        failures.append(
            f"replicated: repaired {rep['repaired']} of {rep['detected']} "
            f"detections, {rep['quarantined']} quarantined (want 100%, 0)"
        )
    else:
        print(f"ok replicated: all {rep['repaired']} detections repaired")

    unrep = cur["unreplicated"]
    if unrep["quarantined"] != unrep["blocks"]:
        failures.append(
            f"unreplicated: {unrep['quarantined']} of {unrep['blocks']} "
            f"blocks quarantined (every unrepairable block must be)"
        )
    else:
        print(f"ok unreplicated: all {unrep['quarantined']} blocks quarantined")

    ratio = cur["scrub_p95_ratio"]
    if ratio > SCRUB_P95_BUDGET:
        failures.append(
            f"scrub foreground tax: p95 ratio {ratio:.3f} > "
            f"{SCRUB_P95_BUDGET} budget"
        )
    elif ratio > base["scrub_p95_ratio"] * (1.0 + REGRESSION_TOLERANCE):
        failures.append(
            f"scrub foreground tax regressed: p95 ratio {ratio:.3f} vs "
            f"baseline {base['scrub_p95_ratio']:.3f}"
        )
    else:
        print(f"ok scrub tax: fg read p95 ratio {ratio:.3f} (budget {SCRUB_P95_BUDGET})")

    if cur["scrub_passes"] < 1:
        failures.append("paced scrubber completed no full pass")
    else:
        print(
            f"ok scrubber: {cur['scrub_passes']} passes, "
            f"{cur['scrub_blocks_verified']} blocks verified"
        )

    if failures:
        print("\nINTEGRITY GATE FAILED:")
        for f_ in failures:
            print(f"  {f_}")
        return 1
    print("integrity gate passed")
    return 0


def read_overhead_gate(current_path, baseline_path):
    cur = {r["tier"]: r for r in load_json(current_path)}
    base = {r["tier"]: r for r in load_json(baseline_path)}

    failures = []

    # Absolute budget: the fast path must hold PM and SSD under 10%.
    for tier in ("PM (novafs)", "SSD (xefs)"):
        r = cur.get(tier)
        if r is None:
            failures.append(f"{tier}: missing from current results")
            continue
        if r["overhead_pct"] > READ_OVERHEAD_BUDGET_PCT:
            failures.append(
                f"{tier}: Mux overhead {r['overhead_pct']:.1f}% > "
                f"{READ_OVERHEAD_BUDGET_PCT}% budget "
                f"(native {r['native_ns']:.0f} ns, mux {r['mux_ns']:.0f} ns, "
                f"fast-path hit {r.get('fastpath_hit_pct', 0.0):.1f}%)"
            )
        else:
            print(
                f"ok {tier}: overhead {r['overhead_pct']:.1f}% "
                f"(budget {READ_OVERHEAD_BUDGET_PCT}%, fast-path hit "
                f"{r.get('fastpath_hit_pct', 0.0):.1f}%)"
            )

    # Drift against the committed baseline, all tiers (covers the HDD,
    # which has no absolute budget).
    for tier, b in sorted(base.items()):
        r = cur.get(tier)
        if r is None:
            failures.append(f"{tier}: missing from current results")
            continue
        ceiling = b["overhead_pct"] + READ_OVERHEAD_SLACK_PCT
        if r["overhead_pct"] > ceiling:
            failures.append(
                f"{tier}: overhead regressed to {r['overhead_pct']:.1f}% "
                f"(baseline {b['overhead_pct']:.1f}% + "
                f"{READ_OVERHEAD_SLACK_PCT} pp slack)"
            )
        else:
            print(
                f"ok {tier}: overhead {r['overhead_pct']:.1f}% vs "
                f"baseline {b['overhead_pct']:.1f}%"
            )

    if failures:
        print("\nREAD-OVERHEAD GATE FAILED:")
        for f_ in failures:
            print(f"  {f_}")
        return 1
    print("read-overhead gate passed")
    return 0


def mirror_gate(current_path, baseline_path):
    cur = load_json(current_path)
    base = load_json(baseline_path)

    failures = []
    on = cur["mirrored"]

    if not on["mirrors_created"] or not on["pm_replica_blocks"]:
        failures.append(
            f"no replica placement: {on['mirrors_created']} mirrors "
            f"created, {on['pm_replica_blocks']} replica blocks on PM"
        )
    else:
        print(
            f"ok placement: {on['pm_replica_blocks']} replica blocks on PM "
            f"({on['mirrors_created']} created, "
            f"{on['mirror_reads_fast']} reads served from replicas)"
        )

    # Absolute margins: mirrors must clearly beat single-copy placement,
    # healthy and fenced.
    if cur["p99_ratio"] > MIRROR_MAX_P99_RATIO:
        failures.append(
            f"read p99 ratio mirrored/single-copy {cur['p99_ratio']:.2f} > "
            f"{MIRROR_MAX_P99_RATIO} ceiling "
            f"({on['read_p99_ns']} ns vs {cur['baseline']['read_p99_ns']} ns)"
        )
    else:
        print(
            f"ok read p99: {on['read_p99_ns']} ns mirrored vs "
            f"{cur['baseline']['read_p99_ns']} ns single-copy "
            f"(ratio {cur['p99_ratio']:.2f}, ceiling {MIRROR_MAX_P99_RATIO})"
        )

    if cur["degraded_ratio"] < MIRROR_MIN_DEGRADED_RATIO:
        failures.append(
            f"fenced-PM goodput ratio mirrored/single-copy "
            f"{cur['degraded_ratio']:.2f} < {MIRROR_MIN_DEGRADED_RATIO} floor "
            f"({on['degraded_reads_ok']} ok reads vs "
            f"{cur['baseline']['degraded_reads_ok']})"
        )
    else:
        print(
            f"ok fenced-PM goodput: {on['degraded_mbps']:.1f} MB/s mirrored "
            f"vs {cur['baseline']['degraded_mbps']:.1f} MB/s single-copy "
            f"(ratio {cur['degraded_ratio']:.2f}, "
            f"floor {MIRROR_MIN_DEGRADED_RATIO})"
        )

    # Regressions against the committed baseline run.
    if cur["p99_ratio"] > base["p99_ratio"] * (1.0 + REGRESSION_TOLERANCE):
        failures.append(
            f"read p99 ratio regressed: {cur['p99_ratio']:.2f} vs "
            f"baseline {base['p99_ratio']:.2f}"
        )
    if cur["degraded_ratio"] < base["degraded_ratio"] * (1.0 - REGRESSION_TOLERANCE):
        failures.append(
            f"fenced-PM goodput ratio regressed: {cur['degraded_ratio']:.2f} "
            f"vs baseline {base['degraded_ratio']:.2f}"
        )

    if failures:
        print("\nMIRROR GATE FAILED:")
        for f_ in failures:
            print(f"  {f_}")
        return 1
    print("mirror gate passed")
    return 0


def qos_gate(current_path, baseline_path):
    cur = load_json(current_path)
    base = load_json(baseline_path)

    failures = []
    qos, unfenced = cur["qos"], cur["unfenced"]

    if cur["qos_blowup"] > QOS_MAX_BLOWUP:
        failures.append(
            f"victim not isolated: QoS-arm p99 blowup {cur['qos_blowup']:.2f}x "
            f"> {QOS_MAX_BLOWUP}x budget ({qos['victim_read_p99_ns']} ns vs "
            f"{cur['alone']['victim_read_p99_ns']} ns alone)"
        )
    else:
        print(
            f"ok isolation: QoS-arm victim p99 {qos['victim_read_p99_ns']} ns, "
            f"{cur['qos_blowup']:.2f}x alone (budget {QOS_MAX_BLOWUP}x)"
        )

    if cur["unfenced_blowup"] < QOS_MIN_UNFENCED_BLOWUP:
        failures.append(
            f"antagonist not antagonizing: unfenced blowup "
            f"{cur['unfenced_blowup']:.2f}x < {QOS_MIN_UNFENCED_BLOWUP}x — "
            f"the experiment no longer demonstrates starvation"
        )
    else:
        print(
            f"ok contrast: unfenced victim p99 blowup "
            f"{cur['unfenced_blowup']:.2f}x (floor {QOS_MIN_UNFENCED_BLOWUP}x)"
        )

    # Placement census must corroborate the latency story.
    if qos["victim_pm_blocks"] < QOS_MIN_VICTIM_PM * qos["victim_blocks"]:
        failures.append(
            f"QoS arm: only {qos['victim_pm_blocks']} of "
            f"{qos['victim_blocks']} victim blocks on PM "
            f"(want >= {QOS_MIN_VICTIM_PM:.0%})"
        )
    else:
        print(
            f"ok placement: {qos['victim_pm_blocks']}/{qos['victim_blocks']} "
            f"victim blocks on PM with QoS"
        )
    if unfenced["victim_pm_blocks"] > QOS_MAX_UNFENCED_VICTIM_PM * unfenced["victim_blocks"]:
        failures.append(
            f"unfenced arm: {unfenced['victim_pm_blocks']} of "
            f"{unfenced['victim_blocks']} victim blocks reached PM "
            f"(want <= {QOS_MAX_UNFENCED_VICTIM_PM:.0%} — the antagonist "
            f"should be hogging it)"
        )
    else:
        print(
            f"ok starvation census: {unfenced['victim_pm_blocks']}/"
            f"{unfenced['victim_blocks']} victim blocks on PM unfenced"
        )

    if not qos["qos_plan_exclusions"]:
        failures.append(
            "plan-time fencing never engaged: qos_plan_exclusions == 0 "
            "in the QoS arm"
        )
    else:
        print(
            f"ok fencing: {qos['qos_plan_exclusions']} plan exclusions, "
            f"{qos['qos_deferrals']} deferrals, {qos['qos_sheds']} sheds"
        )

    # Regressions against the committed baseline run.
    if cur["qos_blowup"] > base["qos_blowup"] * (1.0 + REGRESSION_TOLERANCE):
        failures.append(
            f"QoS blowup regressed: {cur['qos_blowup']:.2f}x vs "
            f"baseline {base['qos_blowup']:.2f}x"
        )
    if cur["unfenced_blowup"] < base["unfenced_blowup"] * (1.0 - REGRESSION_TOLERANCE):
        failures.append(
            f"unfenced contrast shrank: {cur['unfenced_blowup']:.2f}x vs "
            f"baseline {base['unfenced_blowup']:.2f}x"
        )

    if failures:
        print("\nQOS GATE FAILED:")
        for f_ in failures:
            print(f"  {f_}")
        return 1
    print("qos gate passed")
    return 0


def cluster_gate(current_path, baseline_path):
    cur = load_json(current_path)
    base = load_json(baseline_path)

    failures = []

    if cur["scaling_4n"] < CLUSTER_MIN_SCALING_4N:
        failures.append(
            f"4-node scaling {cur['scaling_4n']:.2f} < "
            f"{CLUSTER_MIN_SCALING_4N} of ideal linear"
        )
    else:
        print(
            f"ok scaling: {cur['scaling_4n']:.2f} of ideal linear at 4 nodes "
            f"(floor {CLUSTER_MIN_SCALING_4N})"
        )

    for row in cur["rows"]:
        if row.get("verify_failures", 0):
            failures.append(
                f"{row['nodes']}-node row: {row['verify_failures']} "
                f"pattern-verification failures"
            )

    chaos = cur["chaos"]
    if chaos["lost_bytes"]:
        failures.append(
            f"chaos arm LOST ACKED DATA: {chaos['lost_bytes']} of "
            f"{chaos['acked_bytes']} acked bytes unreadable after heal"
        )
    else:
        print(
            f"ok chaos oracle: {chaos['acked_bytes']} acked bytes, "
            f"0 lost through partition+heal"
        )
    if chaos["debris_after_heal"]:
        failures.append(
            f"chaos arm left {chaos['debris_after_heal']} migration "
            f"staging/intent orphans after heal"
        )
    if chaos["structural_violations"]:
        failures.append(
            f"chaos arm: {chaos['structural_violations']} nodes failed "
            f"the structural check after heal"
        )
    if chaos["creates_rerouted"] != chaos["creates_during_partition"]:
        failures.append(
            f"placement sent {chaos['creates_during_partition'] - chaos['creates_rerouted']} "
            f"creates to the dark node"
        )

    # The arm must demonstrably exercise the machinery, or the oracle is
    # vacuous: ops must fail while a node is dark, the breaker must fast-
    # fail, and the mid-partition migration must abort.
    for field, label in [
        ("ops_failed", "no ops failed while a node was dark"),
        ("breaker_fast_fails", "peer breaker never fast-failed"),
        ("migration_aborts", "mid-partition migration never aborted"),
    ]:
        if not chaos[field]:
            failures.append(f"chaos arm vacuous: {label}")
    if not failures:
        print(
            f"ok chaos coverage: {chaos['ops_failed']} dark-op failures, "
            f"{chaos['breaker_fast_fails']} fast-fails, "
            f"{chaos['migration_aborts']} migration aborts, "
            f"{chaos['creates_rerouted']}/{chaos['creates_during_partition']} "
            f"creates rerouted"
        )

    # Regressions against the committed baseline run.
    floor = base["scaling_4n"] * (1.0 - REGRESSION_TOLERANCE)
    if cur["scaling_4n"] < floor:
        failures.append(
            f"4-node scaling regressed: {cur['scaling_4n']:.2f} vs "
            f"baseline {base['scaling_4n']:.2f}"
        )
    cur_1n = next((r for r in cur["rows"] if r["nodes"] == 1), None)
    base_1n = next((r for r in base["rows"] if r["nodes"] == 1), None)
    if cur_1n is None:
        failures.append("no 1-node row in current results")
    elif base_1n is not None:
        floor = base_1n["agg_mib_s"] * (1.0 - REGRESSION_TOLERANCE)
        if cur_1n["agg_mib_s"] < floor:
            failures.append(
                f"1-node throughput regressed: {cur_1n['agg_mib_s']:.1f} "
                f"MiB/s vs baseline {base_1n['agg_mib_s']:.1f}"
            )
        else:
            print(
                f"ok 1-node throughput: {cur_1n['agg_mib_s']:.1f} MiB/s "
                f"(baseline {base_1n['agg_mib_s']:.1f})"
            )

    if failures:
        print("\nCLUSTER GATE FAILED:")
        for f_ in failures:
            print(f"  {f_}")
        return 1
    print("cluster gate passed")
    return 0


def policy_gate(current_path, baseline_path):
    cur = {r["policy"]: r for r in load_json(current_path)}
    base = {r["policy"]: r for r in load_json(baseline_path)}

    failures = []

    missing = [p for p in POLICY_ORDER if p not in cur]
    if missing:
        failures.append(f"missing policy rows: {missing}")
    else:
        lru = cur["lru"]
        if lru["hot_on_fast"] != 1.0:
            failures.append(f"lru hot_on_fast {lru['hot_on_fast']} != 1.0")
        drift = abs(lru["avg_read_ns"] / POLICY_LRU_READ_NS - 1.0)
        if drift > POLICY_LRU_SLACK:
            failures.append(
                f"lru avg read {lru['avg_read_ns']:.1f} ns is {drift:.1%} "
                f"off {POLICY_LRU_READ_NS} ns (slack {POLICY_LRU_SLACK:.0%})"
            )
        else:
            print(
                f"ok lru: {lru['avg_read_ns']:.1f} ns, hot_on_fast "
                f"{lru['hot_on_fast']}"
            )
        pinned = cur[POLICY_ORDER[-1]]
        if pinned["hot_on_fast"] != 0:
            failures.append(
                f"pinned-to-hdd has hot_on_fast {pinned['hot_on_fast']} != 0"
            )
        reads = [cur[p]["avg_read_ns"] for p in POLICY_ORDER]
        if all(a < b for a, b in zip(reads, reads[1:])):
            print("ok order: " + " < ".join(POLICY_ORDER))
        else:
            failures.append(
                "order broken: "
                + ", ".join(f"{p} {r:.0f} ns" for p, r in zip(POLICY_ORDER, reads))
            )

    for name, b in sorted(base.items()):
        c = cur.get(name)
        if c is None:
            failures.append(f"{name}: missing from current results")
            continue
        ratio = c["avg_read_ns"] / b["avg_read_ns"]
        if abs(ratio - 1.0) > REGRESSION_TOLERANCE:
            failures.append(
                f"{name}: avg read {c['avg_read_ns']:.1f} ns vs baseline "
                f"{b['avg_read_ns']:.1f} ({ratio:.2f}x)"
            )

    if failures:
        print("\nPOLICY GATE FAILED:")
        for f_ in failures:
            print(f"  {f_}")
        return 1
    print("policy gate passed")
    return 0


def key(cell):
    return (cell["config"], cell["mix"], cell["threads"])


def scaling_gate(current_path, baseline_path):
    current = {key(c): c for c in load_json(current_path)}
    baseline = {key(c): c for c in load_json(baseline_path)}

    failures = []

    for k, base in sorted(baseline.items()):
        if k[2] != 1:
            continue  # the gate pins single-thread cost; scaling below
        cur = current.get(k)
        if cur is None:
            failures.append(f"{k}: missing from current results")
            continue
        floor = base["throughput_mib_s"] * (1.0 - REGRESSION_TOLERANCE)
        if cur["throughput_mib_s"] < floor:
            failures.append(
                f"{k}: {cur['throughput_mib_s']:.1f} MiB/s < "
                f"{floor:.1f} (baseline {base['throughput_mib_s']:.1f} "
                f"- {REGRESSION_TOLERANCE:.0%})"
            )
        else:
            print(
                f"ok {k}: {cur['throughput_mib_s']:.1f} MiB/s "
                f"(baseline {base['throughput_mib_s']:.1f})"
            )

    for k, cur in sorted(current.items()):
        if cur.get("verify_failures", 0):
            failures.append(f"{k}: {cur['verify_failures']} verify failures")

    for (config, mix, threads), cur in sorted(current.items()):
        if mix == "read-heavy" and threads == 8:
            if cur["speedup_vs_1t"] < MIN_SPEEDUP_8T:
                failures.append(
                    f"({config}, {mix}, 8t): speedup "
                    f"{cur['speedup_vs_1t']:.2f}x < {MIN_SPEEDUP_8T}x"
                )
            else:
                print(
                    f"ok ({config}, {mix}, 8t): "
                    f"{cur['speedup_vs_1t']:.2f}x speedup"
                )

    if failures:
        print("\nBENCH GATE FAILED:")
        for f_ in failures:
            print(f"  {f_}")
        return 1
    print("\nbench gate passed")
    return 0


# (gate name, gate function, current result file, committed baseline name)
ALL_GATES = [
    ("scaling", scaling_gate, "bench_results/scaling.json", "baseline"),
    ("crash", crash_gate, "bench_results/crash_matrix.json", "crash_matrix"),
    ("autotier", autotier_gate, "bench_results/autotier.json", "autotier"),
    ("integrity", integrity_gate, "bench_results/integrity.json", "integrity"),
    (
        "read-overhead",
        read_overhead_gate,
        "bench_results/read_overhead.json",
        "read_overhead",
    ),
    ("mirror", mirror_gate, "bench_results/mirror.json", "mirror"),
    ("qos", qos_gate, "bench_results/qos.json", "qos"),
    ("cluster", cluster_gate, "bench_results/cluster.json", "cluster"),
    ("policy", policy_gate, "bench_results/ablation_policy.json", "ablation_policy"),
]


def all_gates(ref):
    """Runs every gate, printing a per-gate summary table at the end.

    A gate whose inputs are missing is reported as FAIL (missing input)
    and the run keeps going, so one summary covers the whole suite.
    """
    outcomes = []
    for name, fn, cur_path, base_name in ALL_GATES:
        print(f"\n=== {name} gate ===")
        try:
            rc = fn(cur_path, git_baseline(base_name, ref))
            outcomes.append((name, "PASS" if rc == 0 else "FAIL"))
        except GateInputError as e:
            print(e)
            outcomes.append((name, "FAIL (missing input)"))

    width = max(len(n) for n, _ in outcomes)
    print("\n=== gate summary ===")
    print(f"  {'gate':<{width}}  result")
    print(f"  {'-' * width}  ------")
    for name, outcome in outcomes:
        print(f"  {name:<{width}}  {outcome}")

    failed = [n for n, o in outcomes if o != "PASS"]
    if failed:
        print(f"\n{len(failed)} of {len(outcomes)} gates failed: " + ", ".join(failed))
        return 1
    print(f"\nall {len(outcomes)} gates passed")
    return 0


MODES = {
    "--crash": crash_gate,
    "--autotier": autotier_gate,
    "--integrity": integrity_gate,
    "--read-overhead": read_overhead_gate,
    "--mirror": mirror_gate,
    "--qos": qos_gate,
    "--cluster": cluster_gate,
    "--policy": policy_gate,
}


def main():
    if len(sys.argv) >= 2 and sys.argv[1] == "--all":
        ref = sys.argv[2] if len(sys.argv) == 3 else "HEAD"
        return all_gates(ref)
    try:
        if len(sys.argv) == 4 and sys.argv[1] in MODES:
            return MODES[sys.argv[1]](sys.argv[2], sys.argv[3])
        if len(sys.argv) == 3:
            return scaling_gate(sys.argv[1], sys.argv[2])
    except GateInputError as e:
        print(e)
        return 2
    print(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main())
