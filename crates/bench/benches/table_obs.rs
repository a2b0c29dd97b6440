//! TAB-K — what the unified metrics registry costs on the hot path.
//!
//! The registry (sharded atomic counters and log2 histograms) on the
//! warm-activation hot path must cost < 5% against an explicit
//! `NoopRecorder` baseline. Measured as the fastest of [`ROUNDS`]
//! interleaved baseline/instrumented rounds of [`ITERS`] activations,
//! each round on a fresh world, so allocator state and record growth
//! cancel.
//!
//! The causal cascade trace is checked by
//! `traced_revocation_is_one_causal_chain` in `tests/revocation_cascade.rs`,
//! and the per-layer revoke breakdown is the e2e benchmark's layer
//! timings on `replicated_civ`.
//!
//! Emitted to `BENCH_obs.json`.

use std::sync::Arc;
use std::time::Instant;

use oasis::prelude::*;
use oasis_bench::{histogram_of, provenance_fields, table_header, ServiceWorld};
use oasis_obs::{NoopRecorder, Recorder, Registry};

const ROUNDS: usize = 7;
const WARMUP: usize = 300;
const ITERS: usize = 3_000;
const OVERHEAD_BUDGET_PCT: f64 = 5.0;

/// One fresh-world round: warm the `treating_doctor` activation path,
/// then time `iters` activations individually (nanoseconds each).
fn activation_round(recorder: Arc<dyn Recorder>, iters: usize) -> Vec<u64> {
    let w = ServiceWorld::new(8);
    w.service.set_obs(recorder);
    let doctor = PrincipalId::new("dr-0");
    let ctx = EnvContext::new(1_000);
    let login = w
        .service
        .activate_role(
            &doctor,
            &RoleName::new("logged_in"),
            &[Value::id("dr-0")],
            &[],
            &ctx,
        )
        .expect("login activates");
    let presented = vec![Credential::Rmc(login)];
    let params = [Value::id("dr-0"), Value::id("p0")];
    let activate = || {
        w.service
            .activate_role(
                &doctor,
                &RoleName::new("treating_doctor"),
                &params,
                &presented,
                &ctx,
            )
            .expect("warm activation succeeds")
    };
    for _ in 0..WARMUP {
        activate();
    }
    (0..iters)
        .map(|_| {
            let start = Instant::now();
            activate();
            start.elapsed().as_nanos() as u64
        })
        .collect()
}

fn main() {
    table_header(
        "TAB-K observability: registry overhead",
        "metrics cost < 5% on the warm-activation hot path",
        "series                         p50         mean",
    );

    // Interleave baseline and instrumented rounds and keep each
    // configuration's fastest round: min-of-rounds is robust to scheduler
    // noise, and the instrumentation delta is systematic, so it survives.
    let mut best_base: Option<Vec<u64>> = None;
    let mut best_instr: Option<Vec<u64>> = None;
    let keep_min = |best: &mut Option<Vec<u64>>, round: Vec<u64>| {
        let sum: u64 = round.iter().sum();
        if best.as_ref().is_none_or(|b| sum < b.iter().sum::<u64>()) {
            *best = Some(round);
        }
    };
    for _ in 0..ROUNDS {
        keep_min(
            &mut best_base,
            activation_round(Arc::new(NoopRecorder), ITERS),
        );
        keep_min(
            &mut best_instr,
            activation_round(Arc::new(Registry::new()), ITERS),
        );
    }
    let (baseline_ns, instrumented_ns) = (best_base.unwrap(), best_instr.unwrap());
    let base_sum: u64 = baseline_ns.iter().sum();
    let instr_sum: u64 = instrumented_ns.iter().sum();
    let overhead_pct = (instr_sum as f64 - base_sum as f64) / base_sum as f64 * 100.0;

    let base = histogram_of(&baseline_ns);
    let instr = histogram_of(&instrumented_ns);
    for (name, h) in [
        ("activation noop_recorder", &base),
        ("activation live_registry", &instr),
    ] {
        println!("{name:<28} {:>7} ns  {:>9.1} ns", h.p50(), h.mean());
    }
    println!("instrumentation overhead: {overhead_pct:.2}% (budget {OVERHEAD_BUDGET_PCT}%)");
    assert!(
        overhead_pct < OVERHEAD_BUDGET_PCT,
        "live registry costs {overhead_pct:.2}% on the warm-activation hot path, \
         budget is {OVERHEAD_BUDGET_PCT}%"
    );

    let json = format!(
        "{{\n  {},\n  \"baseline_p50_ns\": {}, \"baseline_mean_ns\": {:.1},\n  \
         \"instrumented_p50_ns\": {}, \"instrumented_mean_ns\": {:.1},\n  \
         \"overhead_pct\": {overhead_pct:.2}, \"budget_pct\": {OVERHEAD_BUDGET_PCT}\n}}\n",
        provenance_fields("table_obs", ITERS, ROUNDS, "fastest of rounds"),
        base.p50(),
        base.mean(),
        instr.p50(),
        instr.mean(),
    );
    // Resolved at run time: a copy of the tree that reuses a copied
    // `target/` writes its own table, not the original's.
    let out = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(
            || env!("CARGO_MANIFEST_DIR").into(),
            std::path::PathBuf::from,
        )
        .join("../../BENCH_obs.json");
    std::fs::write(&out, json).expect("write BENCH_obs.json");
    println!("wrote {}", out.display());
}
