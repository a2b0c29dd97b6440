//! One run of one workload: set-up, the timed run, the correctness gate,
//! and (when asked for) the layer pass and the traced re-run.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use oasis::core::OverloadStats;
use oasis_obs::{Recorder, Registry};

use crate::drive::{self, Client, Outcome};
use crate::layers::{self, LayerTimings};
use crate::placement;
use crate::reference::{self, HostSpeed};
use crate::report::{
    git_commit, ops_per_s, proc_status_kb, run_metrics, setup_metric, Metric, Provenance, RunReport,
};
use crate::workload::{Op, Workload, CLIENTS, PARKED};
use crate::world::World;

/// Longest the traced re-run lasts; shorter runs re-run for their own
/// length.
const TRACED_RERUN: Duration = Duration::from_secs(5);
/// Lifecycles of the single-client pass that counts quorum commits per
/// operation on `replicated_civ`.
const CENSUS_LIFECYCLES: usize = 20;

pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub measure: Duration,
    /// Run the layer pass and the traced re-run after the timed run.
    pub layers: bool,
    /// Set-ups made in fresh child processes besides this process's own,
    /// so `setup_s` is a median. A served deployment cannot be shut down
    /// (`WireServer` has no stop), so repeating set-up in this process
    /// would leave earlier deployments polling beside the measured one.
    pub extra_setups: usize,
    pub out_dir: PathBuf,
    /// The command line, for the provenance header.
    pub command: String,
}

/// Where result files go, beside the build: `$CARGO_TARGET_DIR`, or
/// `target` under the working directory.
pub fn target_dir() -> PathBuf {
    PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()))
}

/// How long one set-up took.
#[derive(Debug, Clone, Copy)]
pub struct SetUpTime {
    /// Seconds relative to the host-speed reference (the warm-up's own
    /// round trips) where the workload is host-bound, else as `raw_s`.
    pub seconds: f64,
    /// Seconds the clock read.
    pub raw_s: f64,
}

/// Builds the deployment, connects the clients and warms up; the part of
/// a run that `setup_s` times.
pub fn set_up(workload: Workload, seed: u64) -> (World, Vec<Client>, Outcome, SetUpTime) {
    let started = Instant::now();
    placement::deployment_side();
    let mut world = World::build(workload);
    let reference = reference::serve();
    placement::client_side();
    let (clients, warm_up) = drive::connect_and_warm_up(&world, reference, seed);
    // Parked after warm-up: what warm-up fills (plan caches, allocator,
    // sockets) does not depend on them, and 50 lifecycles at ~24 ms an
    // operation would add 12 s to every set-up.
    world.park_connections();
    let raw_s = started.elapsed().as_secs_f64();
    let slowdown = HostSpeed::of(&warm_up.reference)
        .filter(|_| workload.host_bound())
        .map_or(1.0, |host| host.median_slowdown());
    let time = SetUpTime {
        seconds: raw_s / slowdown,
        raw_s,
    };
    (world, clients, warm_up, time)
}

/// One set-up in a fresh process (`e2e setup ...`), which prints its
/// seconds and its raw seconds.
fn set_up_in_child(workload: Workload, seed: u64) -> SetUpTime {
    let exe = std::env::current_exe().expect("own executable path");
    let output = std::process::Command::new(exe)
        .args(["setup", "--workload", workload.name(), "--seed"])
        .arg(seed.to_string())
        .output()
        .expect("set-up child runs");
    assert!(output.status.success(), "set-up child failed: {output:?}");
    let printed = String::from_utf8_lossy(&output.stdout);
    let mut numbers = printed
        .split_whitespace()
        .map(|n| n.parse().expect("set-up child prints seconds"));
    let mut next = || numbers.next().expect("set-up child prints two numbers");
    SetUpTime {
        seconds: next(),
        raw_s: next(),
    }
}

/// Counters read from the served deployment through its public stats.
#[derive(Debug, Clone, Default)]
struct Counters {
    active: usize,
    revoked: usize,
    committed: u64,
    bus_delivered: u64,
}

fn counters(world: &World) -> Counters {
    let mut c = Counters::default();
    for service in world.services.distinct() {
        let (active, revoked, _) = service.record_stats();
        c.active += active;
        c.revoked += revoked;
    }
    if let Some(cluster) = &world.cluster {
        c.committed = cluster.nodes[cluster.leader].stats().committed;
    }
    c.bus_delivered = world.services.bus.stats().delivered;
    c
}

fn overload_stats(world: &World) -> Vec<OverloadStats> {
    world.controllers.iter().map(|c| c.stats()).collect()
}

/// The correctness gate at the end of the timed run. Each violation
/// counts as a failed operation.
fn end_checks(
    world: &World,
    before: &Counters,
    after: &Counters,
    run: &Outcome,
    parked_alive: usize,
) -> Vec<String> {
    let mut violations = Vec::new();
    if after.active != before.active {
        violations.push(format!(
            "{} records still active after the run (baseline {})",
            after.active, before.active
        ));
    }
    // Every login was revoked and every granted treating RMC collapsed
    // with it: nothing more, nothing less.
    let expected = (run.lifecycles + run.granted) as usize;
    if run.failed == 0 && after.revoked - before.revoked != expected {
        violations.push(format!(
            "{} records revoked during the run, expected {expected}",
            after.revoked - before.revoked
        ));
    }
    if world.workload == Workload::ParkedConns && parked_alive != PARKED {
        violations.push(format!(
            "{parked_alive} of {PARKED} parked connections answered"
        ));
    }
    for stats in overload_stats(world) {
        if stats.conns_shed != 0 || stats.conns_idle_closed != 0 {
            violations.push(format!(
                "server shed {} and idle-closed {} connections",
                stats.conns_shed, stats.conns_idle_closed
            ));
        }
    }
    if let Some(cluster) = &world.cluster {
        // No acked write lost: both followers hold the leader's journal.
        let journal = |i: usize| {
            cluster.nodes[i]
                .region("journal")
                .read()
                .unwrap_or_default()
        };
        let leader = journal(cluster.leader);
        let deadline = Instant::now() + Duration::from_secs(5);
        let followers: Vec<usize> = (0..cluster.nodes.len())
            .filter(|&i| i != cluster.leader)
            .collect();
        while !followers.iter().all(|&i| journal(i) == leader) {
            if Instant::now() >= deadline {
                violations.push("a follower's journal differs from the leader's after 5 s".into());
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    violations
}

/// Counts quorum commits per operation: client 0 alone, reading the
/// leader's `committed` counter around every call.
fn commit_census(world: &World, client: &mut Client) -> [f64; 5] {
    let Some(cluster) = &world.cluster else {
        return [0.0; 5];
    };
    let out = client.census(
        Arc::clone(&cluster.nodes[cluster.leader]),
        CENSUS_LIFECYCLES,
    );
    let mut per_op = [0.0; 5];
    for op in Op::ALL {
        let calls = out.samples[op.idx()].len().max(1);
        per_op[op.idx()] = out.commits[op.idx()] as f64 / calls as f64;
    }
    per_op
}

/// Re-runs the timed loop with span recording installed and a trace
/// context on every call. Returns the outcome and the spans recorded.
fn traced_rerun(world: &World, clients: &mut [Client], duration: Duration) -> (Outcome, usize) {
    let registry = Arc::new(Registry::with_span_recording());
    for service in world.services.distinct() {
        service.set_obs(Arc::clone(&registry) as Arc<dyn Recorder>);
    }
    if let Some(cluster) = &world.cluster {
        for node in &cluster.nodes {
            node.set_obs(registry.as_ref(), &format!("{}.replica", node.id()));
        }
    }
    for client in clients.iter_mut() {
        client.traced = true;
    }
    let outcome = drive::run(clients, duration);
    let spans = (registry.as_ref() as &dyn Recorder).spans().len();
    (outcome, spans)
}

/// Operations attempted and failed over every phase of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn outcome(&mut self, outcome: &Outcome) {
        self.attempted += outcome.attempted;
        self.failed += outcome.failed;
        self.failures.extend(outcome.failures.iter().cloned());
    }

    /// A violated end-of-run check counts as one failed operation.
    fn violations(&mut self, violations: Vec<String>) {
        self.attempted += violations.len() as u64;
        self.failed += violations.len() as u64;
        self.failures.extend(violations);
    }
}

/// What the per-layer metrics are computed from.
struct LayerInputs<'a> {
    world: &'a World,
    end_to_end: &'a [Metric],
    run: &'a Outcome,
    host: Option<&'a HostSpeed>,
    before: &'a Counters,
    after: &'a Counters,
    parked_alive: usize,
    /// Resident-set growth across the timed run.
    rss_growth_kb: f64,
    timings: &'a LayerTimings,
    commits_per_op: [f64; 5],
    traced: &'a Outcome,
    traced_spans: usize,
}

/// Every per-layer metric, named `<module>.<metric>`, in the order
/// `BENCHMARK.json` lists them. A layer the deployment does not exercise
/// reports 0.
fn per_layer_metrics(i: &LayerInputs) -> Vec<Metric> {
    let t = i.timings;
    let sv = &i.world.services;
    let overload = overload_stats(i.world);
    let lanes = || overload.iter().flat_map(|s| s.lanes.iter());
    let cache = sv.hospital.validation_cache_stats().unwrap_or_default();
    let lookups = cache.hits + cache.misses;
    let plans = sv
        .distinct()
        .iter()
        .map(|s| s.plan_stats())
        .fold((0, 0), |(total, ground), p| {
            (total + p.total, ground + p.ground)
        });
    let replicas: Vec<_> = i
        .world
        .cluster
        .iter()
        .flat_map(|c| c.nodes.iter().map(|n| n.stats()))
        .collect();
    let lifecycles = i.run.lifecycles.max(1) as f64;
    // Each rate relative to the host's speed while it was measured, where
    // the end-to-end metrics are.
    let host_bound = i.world.workload.host_bound();
    let traced_host = HostSpeed::of(&i.traced.reference);
    let untraced_rate = ops_per_s(i.run, i.host.filter(|_| host_bound));
    let traced_rate = ops_per_s(i.traced, traced_host.as_ref().filter(|_| host_bound));

    let m = Metric::plain;
    let mut metrics = vec![
        m(
            "host.echo_rtt_us",
            "us",
            i.host.map_or(0.0, HostSpeed::median_rtt_us),
        ),
        m("wire.ping_rtt_us", "us", t.ping_rtt_us),
        m("wire.frame.encode_us", "us", t.frame_encode_us),
        m("wire.frame.decode_us", "us", t.frame_decode_us),
        m("wire.frame.request_bytes", "bytes", t.request_bytes),
        m("wire.frame.response_bytes", "bytes", t.response_bytes),
        m("wire.server.conns_parked", "count", i.parked_alive as f64),
        m(
            "wire.server.conns_shed",
            "count",
            overload.iter().map(|s| s.conns_shed).sum::<u64>() as f64,
        ),
        m(
            "wire.server.idle_closed",
            "count",
            overload.iter().map(|s| s.conns_idle_closed).sum::<u64>() as f64,
        ),
        m("wire.sync_client.callback_us", "us", t.callback_us),
        m("core.overload.admit_us", "us", t.admit_us),
        m(
            "core.overload.queue_wait_ms",
            "ms",
            lanes().map(|l| l.ewma_queue_wait_ms).fold(0.0, f64::max),
        ),
        m(
            "core.overload.shed",
            "count",
            lanes().map(|l| l.shed).sum::<u64>() as f64,
        ),
        m(
            "core.overload.expired",
            "count",
            lanes().map(|l| l.expired).sum::<u64>() as f64,
        ),
    ];
    for op in Op::ALL {
        let name = format!("core.service.{}_us", op.name());
        metrics.push(m(&name, "us", t.service_us[op.idx()]));
    }
    metrics.extend([
        m("core.service.cascade_size", "count", t.cascade_size),
        m(
            "core.service.records_active_end",
            "count",
            i.after.active as f64,
        ),
        m(
            "core.service.cache_hit_ratio",
            "ratio",
            cache.hits as f64 / lookups.max(1) as f64,
        ),
        m(
            "core.service.cache_invalidations",
            "count",
            cache.invalidations as f64,
        ),
        m(
            "core.service.rss_kb_per_lifecycle",
            "kB",
            i.rss_growth_kb / lifecycles,
        ),
        m("core.plan.compiled", "count", plans.0 as f64),
        m("core.plan.ground", "count", plans.1 as f64),
        m("policy.compile_ms", "ms", sv.compile_ms),
        m("crypto.sign_us", "us", t.sign_us),
        m("crypto.verify_us", "us", t.verify_us),
        m("store.journal.append_us", "us", t.journal_append_us),
        m("store.replicated.commit_us", "us", t.replicated_commit_us),
        m(
            "store.replicated.commits_per_lifecycle",
            "count",
            (i.after.committed - i.before.committed) as f64 / lifecycles,
        ),
        m(
            "store.replicated.no_quorum",
            "count",
            replicas.iter().map(|r| r.no_quorum).sum::<u64>() as f64,
        ),
        m(
            "store.replicated.repairs",
            "count",
            replicas
                .iter()
                .map(|r| r.repairs_pulled + r.syncs_sent)
                .sum::<u64>() as f64,
        ),
        m(
            "store.replicated.elections",
            "count",
            replicas.iter().map(|r| r.elections_started).sum::<u64>() as f64,
        ),
        m("events.bus.publish_us", "us", t.bus_publish_us),
        m(
            "events.bus.deliveries_per_revoke",
            "count",
            (i.after.bus_delivered - i.before.bus_delivered) as f64 / lifecycles,
        ),
        m(
            "obs.trace_overhead_pct",
            "%",
            (untraced_rate - traced_rate) / untraced_rate * 100.0,
        ),
        m(
            "obs.spans_per_lifecycle",
            "count",
            i.traced_spans as f64 / i.traced.lifecycles.max(1) as f64,
        ),
    ]);
    // What an outside view cannot place: thread hand-off, syscalls,
    // rotation wait. Of the p50 as the clock read it: the layer timings
    // are not relative to the host-speed reference either.
    for op in Op::ALL {
        let p50 = i
            .end_to_end
            .iter()
            .find(|e| e.name == format!("{}_p50_us", op.name()))
            .map_or(0.0, |e| e.raw.unwrap_or(e.value));
        let callback = if op == Op::EnterRole {
            t.callback_us
        } else {
            0.0
        };
        let placed = t.ping_rtt_us
            + t.service_us[op.idx()]
            + i.commits_per_op[op.idx()] * t.replicated_commit_us
            + callback;
        let name = format!("client.unattributed_us.{}", op.name());
        metrics.push(m(&name, "us", p50 - placed));
    }
    metrics
}

/// Runs one workload end to end, writes its result file (and span file),
/// and returns the report.
pub fn run_workload(cfg: &RunConfig) -> RunReport {
    let mut setups: Vec<SetUpTime> = (0..cfg.extra_setups)
        .map(|_| set_up_in_child(cfg.workload, cfg.seed))
        .collect();
    let (mut world, mut clients, warm_up, own_setup) = set_up(cfg.workload, cfg.seed);
    setups.push(own_setup);

    // Read when set-up is done: a fixed amount of work, so the figure does
    // not grow with throughput (records and audit entries are never freed,
    // and a faster server would otherwise look like a memory regression).
    let peak_rss_mb = proc_status_kb("VmHWM") / 1024.0;
    let rss_before_kb = proc_status_kb("VmRSS");

    let before = counters(&world);
    let run = drive::run(&mut clients, cfg.measure);
    let rss_growth_kb = proc_status_kb("VmRSS") - rss_before_kb;
    // Pinged once, after the run, to prove none was shed or idle-closed.
    let parked_alive = world.parked_alive();
    let after = counters(&world);
    let violations = end_checks(&world, &before, &after, &run, parked_alive);

    let host = HostSpeed::of(&run.reference);
    let setups: Vec<(f64, f64)> = setups.iter().map(|s| (s.seconds, s.raw_s)).collect();
    let mut end_to_end = vec![setup_metric(&setups)];
    end_to_end.extend(run_metrics(
        &run,
        host.as_ref().filter(|_| cfg.workload.host_bound()),
    ));
    end_to_end.push(Metric::plain("peak_rss_mb", "MiB", peak_rss_mb));

    let mut tally = Tally::default();
    tally.outcome(&warm_up);
    tally.outcome(&run);
    tally.violations(violations);

    std::fs::create_dir_all(&cfg.out_dir).expect("output directory is creatable");
    let mut per_layer = Vec::new();
    if cfg.layers {
        let commits_per_op = commit_census(&world, &mut clients[0]);
        let (timings, spans) = layers::run(&world, clients[0].connection(), cfg.seed);
        spans
            .write_jsonl(
                &cfg.out_dir
                    .join(format!("{}.spans.jsonl", cfg.workload.name())),
            )
            .expect("span file is writable");
        let (traced, traced_spans) =
            traced_rerun(&world, &mut clients, cfg.measure.min(TRACED_RERUN));
        tally.outcome(&traced);
        tally.violations(timings.violations.clone());
        per_layer = per_layer_metrics(&LayerInputs {
            world: &world,
            end_to_end: &end_to_end,
            run: &run,
            host: host.as_ref(),
            before: &before,
            after: &after,
            parked_alive,
            rss_growth_kb,
            timings: &timings,
            commits_per_op,
            traced: &traced,
            traced_spans,
        });
    }
    tally.failures.truncate(16);

    let report = RunReport {
        provenance: Provenance {
            workload: cfg.workload.name(),
            commit: git_commit(),
            nproc: placement::cpus(),
            placement: placement::describe(),
            seed: cfg.seed,
            clients: CLIENTS,
            measured_s: run.elapsed.as_secs_f64(),
            command: cfg.command.clone(),
        },
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        end_to_end,
        per_layer,
    };
    let file = cfg.out_dir.join(format!("{}.json", cfg.workload.name()));
    std::fs::write(&file, format!("{}\n", report.to_file_json())).expect("result file is writable");
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_json::Json;

    /// `(name, unit)` of every metric `BENCHMARK.json` declares in
    /// `section`, in file order.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let field = |m: &Json, key: &str| m.get(key).and_then(Json::as_str).unwrap().to_string();
        json.get(section)
            .and_then(Json::as_arr)
            .expect("section is a list")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    fn reported(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect()
    }

    /// Every workload, briefly, with the correctness gate, the layer pass
    /// and the traced re-run on. One test, so the deployments never run
    /// side by side.
    #[test]
    fn smoke_all_four_workloads_with_every_check_on() {
        let out_dir = target_dir().join("e2e-smoke");
        for workload in Workload::ALL {
            let report = run_workload(&RunConfig {
                workload,
                seed: 3,
                measure: Duration::from_millis(300),
                layers: true,
                extra_setups: 0,
                out_dir: out_dir.clone(),
                command: "smoke test".into(),
            });
            let name = workload.name();
            assert!(report.correct(), "{name}: {:?}", report.failures);
            assert!(report.attempted > 0);
            assert_eq!(reported(&report.end_to_end), declared("end_to_end"));
            assert_eq!(reported(&report.per_layer), declared("per_layer"));
            for m in &report.end_to_end {
                assert!(m.value > 0.0, "{name}: {} is {}", m.name, m.value);
            }
            let layer = |metric: &str| {
                report
                    .per_layer
                    .iter()
                    .find(|m| m.name == metric)
                    .unwrap_or_else(|| panic!("{metric} is reported"))
                    .value
            };
            assert_eq!(layer("core.service.cascade_size"), 1.0, "{name}");
            assert_eq!(layer("core.service.records_active_end"), 0.0, "{name}");
            assert_eq!(layer("core.overload.shed"), 0.0, "{name}");
            assert!(layer("wire.ping_rtt_us") > 0.0, "{name}");
            assert!(layer("host.echo_rtt_us") > 0.0, "{name}");
            let raw_kept = report.end_to_end.iter().filter(|m| m.raw.is_some()).count();
            assert_eq!(
                raw_kept,
                if workload.host_bound() { 12 } else { 0 },
                "{name}"
            );
            assert!(layer("obs.spans_per_lifecycle") > 0.0, "{name}");
            let parked = if workload == Workload::ParkedConns {
                PARKED as f64
            } else {
                0.0
            };
            assert_eq!(layer("wire.server.conns_parked"), parked, "{name}");
            let replicated = workload == Workload::ReplicatedCiv;
            assert_eq!(
                layer("store.replicated.commit_us") > 0.0,
                replicated,
                "{name}"
            );
            assert_eq!(
                layer("store.replicated.commits_per_lifecycle") > 0.0,
                replicated,
                "{name}"
            );
            let cross = workload == Workload::CrossDomain;
            assert_eq!(layer("wire.sync_client.callback_us") > 0.0, cross, "{name}");
            if cross {
                let ratio = layer("core.service.cache_hit_ratio");
                assert!((0.7..0.9).contains(&ratio), "hit ratio {ratio}");
            }

            let spans = std::fs::read_to_string(out_dir.join(format!("{name}.spans.jsonl")))
                .expect("span file was written");
            let spans: Vec<Json> = spans
                .lines()
                .map(|line| Json::parse(line).expect("span line parses"))
                .collect();
            assert!(spans.len() > 1_000, "{name}: {} spans", spans.len());
            let id = |s: &Json, key: &str| s.get(key).and_then(Json::as_u64).unwrap();
            let ids: std::collections::HashSet<u64> = spans.iter().map(|s| id(s, "id")).collect();
            for s in &spans {
                let parent = id(s, "parent");
                assert!(
                    parent == 0 || ids.contains(&parent),
                    "{name}: orphan span {s}"
                );
                assert!(id(s, "end_ns") >= id(s, "start_ns"));
            }
            let result = std::fs::read_to_string(out_dir.join(format!("{name}.json")))
                .expect("result file was written");
            let result = Json::parse(&result).expect("result file parses");
            assert_eq!(
                result
                    .get("provenance")
                    .and_then(|p| p.get("seed"))
                    .and_then(Json::as_u64),
                Some(3)
            );
        }
    }
}
