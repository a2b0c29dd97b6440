//! Shared world-builders for the benchmark harness.
//!
//! Every bench regenerates one figure or table of the paper (see
//! `DESIGN.md` §2 for the experiment index and `EXPERIMENTS.md` for the
//! recorded results). The builders here construct the same OASIS worlds
//! the integration tests use, parameterised by the sweep variables the
//! experiments need.

use std::sync::Arc;

use oasis::prelude::*;

/// A linear prerequisite chain of `depth` roles inside one service
/// (`level0` initial, `level{i}` requiring `level{i-1}`), as in Fig 1.
pub struct ChainWorld {
    /// The service defining the chain.
    pub service: Arc<oasis::core::OasisService>,
    /// The shared fact store.
    pub facts: Arc<FactStore<Value>>,
    /// Chain depth.
    pub depth: usize,
}

impl ChainWorld {
    /// Builds the chain service.
    pub fn new(depth: usize) -> Self {
        let facts = Arc::new(FactStore::new());
        let service = OasisService::new(ServiceConfig::new("chain"), Arc::clone(&facts));
        service.define_role("level0", &[], true).unwrap();
        service
            .add_activation_rule("level0", vec![], vec![], vec![])
            .unwrap();
        for i in 1..depth {
            service
                .define_role(format!("level{i}"), &[], false)
                .unwrap();
            service
                .add_activation_rule(
                    format!("level{i}"),
                    vec![],
                    vec![Atom::prereq(format!("level{}", i - 1), vec![])],
                    vec![0],
                )
                .unwrap();
        }
        Self {
            service,
            facts,
            depth,
        }
    }

    /// Activates the full chain for `principal`, returning every RMC.
    pub fn activate_chain(&self, principal: &PrincipalId) -> Vec<oasis::core::cert::Rmc> {
        let ctx = EnvContext::new(0);
        let mut rmcs: Vec<oasis::core::cert::Rmc> = Vec::with_capacity(self.depth);
        for i in 0..self.depth {
            let presented: Vec<Credential> = rmcs
                .last()
                .map(|r| vec![Credential::Rmc(r.clone())])
                .unwrap_or_default();
            let rmc = self
                .service
                .activate_role(
                    principal,
                    &RoleName::new(format!("level{i}")),
                    &[],
                    &presented,
                    &ctx,
                )
                .expect("chain activation");
            rmcs.push(rmc);
        }
        rmcs
    }
}

/// The Fig 2 single-service world: login + parametrised treating_doctor +
/// a gated method, with `patients` registered patients.
pub struct ServiceWorld {
    /// The secured service.
    pub service: Arc<oasis::core::OasisService>,
    /// The shared fact store.
    pub facts: Arc<FactStore<Value>>,
}

impl ServiceWorld {
    /// Builds the world with `patients` patients registered to `dr-0`.
    pub fn new(patients: usize) -> Self {
        let facts = Arc::new(FactStore::new());
        facts.define("password_ok", 1).unwrap();
        facts.define("registered", 2).unwrap();
        facts.define("excluded", 2).unwrap();
        facts
            .insert("password_ok", vec![Value::id("dr-0")])
            .unwrap();
        for p in 0..patients {
            facts
                .insert(
                    "registered",
                    vec![Value::id("dr-0"), Value::id(format!("p{p}"))],
                )
                .unwrap();
        }
        let service = OasisService::new(ServiceConfig::new("hospital"), Arc::clone(&facts));
        service
            .define_role("logged_in", &[("u", ValueType::Id)], true)
            .unwrap();
        service
            .add_activation_rule(
                "logged_in",
                vec![Term::var("U")],
                vec![Atom::env_fact("password_ok", vec![Term::var("U")])],
                vec![0],
            )
            .unwrap();
        service
            .define_role(
                "treating_doctor",
                &[("d", ValueType::Id), ("p", ValueType::Id)],
                false,
            )
            .unwrap();
        service
            .add_activation_rule(
                "treating_doctor",
                vec![Term::var("D"), Term::var("P")],
                vec![
                    Atom::prereq("logged_in", vec![Term::var("D")]),
                    Atom::env_fact("registered", vec![Term::var("D"), Term::var("P")]),
                    Atom::env_not_fact("excluded", vec![Term::var("P"), Term::var("D")]),
                ],
                vec![0, 1, 2],
            )
            .unwrap();
        service.add_invocation_rule(
            "read_record",
            vec![Term::var("P")],
            vec![Atom::prereq(
                "treating_doctor",
                vec![Term::Wildcard, Term::var("P")],
            )],
        );
        Self { service, facts }
    }
}

/// A federation of two domains with an SLA, for cross-domain experiments
/// (Fig 3): `hospital.records` issues `treating_doctor`, `national.ehr`
/// accepts it.
pub struct CrossDomainWorld {
    /// The federation (keeps the SLA graph and shared bus alive).
    pub federation: Arc<Federation>,
    /// Hospital domain.
    pub hospital: Arc<Domain>,
    /// National domain.
    pub national: Arc<Domain>,
    /// The hospital issuing service.
    pub records: Arc<oasis::core::OasisService>,
    /// The national consuming service.
    pub ehr: Arc<oasis::core::OasisService>,
}

impl CrossDomainWorld {
    /// Builds the two-domain federation. `ehr_cache` is the TTL of the
    /// national service's validation cache (the ECR of Fig 5); `None`
    /// leaves it off, so every call pays the callback.
    pub fn new(ehr_cache: Option<u64>) -> Self {
        let federation = Federation::new();
        let hospital = Domain::new("hospital", &federation);
        let national = Domain::new("national", &federation);

        let records = hospital.create_service("hospital.records");
        records.set_validator(federation.validator_for("hospital"));
        hospital.facts().define("registered", 2).unwrap();
        records
            .define_role(
                "treating_doctor",
                &[("d", ValueType::Id), ("p", ValueType::Id)],
                true,
            )
            .unwrap();
        records
            .add_activation_rule(
                "treating_doctor",
                vec![Term::var("D"), Term::var("P")],
                vec![Atom::env_fact(
                    "registered",
                    vec![Term::var("D"), Term::var("P")],
                )],
                vec![0],
            )
            .unwrap();

        let ehr_config = ServiceConfig::new("national.ehr");
        let ehr = national.create_service_with(match ehr_cache {
            Some(ttl) => ehr_config.with_validation_cache(ttl),
            None => ehr_config,
        });
        ehr.set_validator(federation.validator_for("national"));
        ehr.add_invocation_rule(
            "request_ehr",
            vec![Term::var("P")],
            vec![Atom::prereq_at(
                "hospital.records",
                "treating_doctor",
                vec![Term::Wildcard, Term::var("P")],
            )],
        );

        federation.add_sla(Sla::between("national", "hospital").accept(SlaClause {
            issuer: "hospital.records".into(),
            name: "treating_doctor".into(),
            kind: oasis::core::CredentialKind::Rmc,
        }));

        Self {
            federation,
            hospital,
            national,
            records,
            ehr,
        }
    }

    /// Registers a doctor/patient pair and issues the treating RMC.
    pub fn issue_treating(&self, doctor: &str, patient: &str) -> oasis::core::cert::Rmc {
        self.hospital
            .facts()
            .insert("registered", vec![Value::id(doctor), Value::id(patient)])
            .unwrap();
        self.records
            .activate_role(
                &PrincipalId::new(doctor),
                &RoleName::new("treating_doctor"),
                &[Value::id(doctor), Value::id(patient)],
                &[],
                &EnvContext::new(0),
            )
            .unwrap()
    }
}

/// Builds an [`oasis_obs::Histogram`] over raw latency samples: the one
/// shared quantile implementation for every bench table, and the same
/// readout the live metrics registry serves over the wire.
pub fn histogram_of(samples: &[u64]) -> oasis_obs::Histogram {
    let hist = oasis_obs::Histogram::new();
    for &v in samples {
        hist.observe(v);
    }
    hist
}

/// Nearest-rank percentile (`p` in `[0, 100]`) over raw samples via
/// [`histogram_of`]. Quantization error is bounded by ~1.6% (see the
/// histogram's bucket layout), well inside every table's margins.
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    histogram_of(samples).quantile(p / 100.0)
}

/// Prints an experiment table header in the harness's uniform format.
pub fn table_header(experiment: &str, claim: &str, columns: &str) {
    println!("\n=== {experiment} ===");
    println!("claim: {claim}");
    println!("{columns}");
}

/// The fields every `BENCH_*.json` opens with, so a table can be traced
/// to the tree and the machine that produced it: the bench's name, the
/// commit (`git rev-parse HEAD`, `-dirty` appended when the working tree
/// differs from it in anything but the `BENCH_*` outputs themselves,
/// `unknown` outside a checkout), the CPU count, how many rounds of how
/// many iterations each figure is read from, and how (`reading`, e.g.
/// `"median of rounds"`). Returned without the enclosing braces, to
/// splice in.
pub fn provenance_fields(bench: &str, iterations: usize, rounds: usize, reading: &str) -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
    };
    let commit = match git(&["rev-parse", "HEAD"]) {
        Some(hash) => {
            // `top`: benches run in the crate directory, the outputs sit
            // at the root.
            let status = git(&["status", "--porcelain", "--", ":(top,exclude)BENCH_*"]);
            let clean = status.is_some_and(|s| s.is_empty());
            format!("{}{}", hash.trim(), if clean { "" } else { "-dirty" })
        }
        None => "unknown".to_string(),
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    format!(
        "\"bench\": \"{bench}\", \"commit\": \"{commit}\", \"nproc\": {nproc}, \
         \"iterations\": {iterations}, \"rounds\": {rounds}, \"reading\": \"{reading}\""
    )
}
