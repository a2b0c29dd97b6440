//! The four deployments, built in-process and served over loopback TCP.
//!
//! The benchmark builds its own world (not `oasis_bench::ServiceWorld`) so
//! that what is measured is fixed by the files in this directory.

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

use oasis::core::{AdmissionController, CertEvent, ResilientValidator, ServiceJournal};
use oasis::crypto::{IssuerSecret, SecretKey};
use oasis::prelude::*;
use oasis::store::{ReplicaConfig, ReplicaNode, StorageBackend};
use oasis::wire::{RemoteValidator, WireClient, WireServer, WireTransport};

use crate::workload::{
    doctor_name, patient_name, Workload, CROSS_DOMAIN_POLICY, DOCTORS, HOSPITAL_POLICY, PARKED,
    PATIENTS,
};

/// Virtual-time TTL of the relying service's validation cache; far beyond
/// any `now` a run reaches, so only revocation events evict.
const CACHE_TTL: u64 = 1 << 40;

/// The services of one deployment, before anything is bound to a socket.
/// The layer pass builds the same services and calls them directly.
pub struct Services {
    /// Issues `logged_in`.
    pub login: Arc<OasisService>,
    /// Issues `treating_doctor` and guards `read_record`; the same service
    /// as `login` except on `cross_domain`.
    pub hospital: Arc<OasisService>,
    pub bus: EventBus<CertEvent>,
    /// `Policy::parse` + `apply_to`, milliseconds.
    pub compile_ms: f64,
}

impl Services {
    /// The deployment's services, each once.
    pub fn distinct(&self) -> Vec<&Arc<OasisService>> {
        if Arc::ptr_eq(&self.login, &self.hospital) {
            vec![&self.hospital]
        } else {
            vec![&self.login, &self.hospital]
        }
    }
}

/// Every replica (and every run) signs with the same key: secrets are not
/// journalled, and MAC bytes should not vary between runs of one seed.
pub fn issuer_secret() -> IssuerSecret {
    IssuerSecret::from_key(SecretKey::from_bytes([9; 32]))
}

fn service_with_policy(
    policy: &Policy,
    config: ServiceConfig,
    registers_patients: bool,
) -> Arc<OasisService> {
    let facts = Arc::new(FactStore::new());
    let service = OasisService::new(config.with_secret(issuer_secret()), Arc::clone(&facts));
    policy
        .apply_to(&service)
        .expect("the benchmark policy applies to its own services");
    if registers_patients {
        for d in 0..DOCTORS {
            for p in 0..PATIENTS {
                facts
                    .insert(
                        "registered",
                        vec![Value::id(doctor_name(d)), Value::id(patient_name(p))],
                    )
                    .expect("`registered` was declared by the policy");
            }
        }
    }
    service
}

/// Builds the deployment's services from policy text. On `cross_domain`
/// the caller still has to give `hospital` a validator for `login`.
pub fn build_services(workload: Workload, journal: Option<ServiceJournal>) -> Services {
    let bus = EventBus::new();
    let started = Instant::now();
    if workload == Workload::CrossDomain {
        let policy = Policy::parse(CROSS_DOMAIN_POLICY).expect("cross-domain policy parses");
        let login = service_with_policy(
            &policy,
            ServiceConfig::new("login").with_bus(bus.clone()),
            false,
        );
        let hospital = service_with_policy(
            &policy,
            ServiceConfig::new("hospital")
                .with_bus(bus.clone())
                .with_validation_cache(CACHE_TTL),
            true,
        );
        let compile_ms = started.elapsed().as_secs_f64() * 1e3;
        return Services {
            login,
            hospital,
            bus,
            compile_ms,
        };
    }
    let policy = Policy::parse(HOSPITAL_POLICY).expect("hospital policy parses");
    let mut config = ServiceConfig::new("hospital").with_bus(bus.clone());
    if let Some(journal) = journal {
        config = config.with_journal(journal).with_revocation_retention(64);
    }
    let hospital = service_with_policy(&policy, config, true);
    let compile_ms = started.elapsed().as_secs_f64() * 1e3;
    Services {
        login: Arc::clone(&hospital),
        hospital,
        bus,
        compile_ms,
    }
}

/// Election timeout and leader lease of the CIV replicas. The defaults
/// (150 ms) assume a ticker that is never late; on the two-core sizing box
/// a stall of the leader's ticker fenced it (`NotLeader`, no hint) about
/// once in 300 set-ups, and the workloads must be ones on which no
/// operation fails. Failover is out of scope here (`WireServer` has no
/// shutdown), so nothing measured depends on a short timeout; the 50 ms
/// heartbeat is kept.
const REPLICA_PATIENCE_MS: u64 = 2_000;

/// The three-node CIV of `replicated_civ`.
pub struct Cluster {
    pub nodes: Vec<Arc<ReplicaNode>>,
    pub leader: usize,
}

/// A served deployment.
pub struct World {
    pub workload: Workload,
    pub services: Services,
    /// Where ① and ⑤ go.
    pub login_addr: SocketAddr,
    /// Where ②③④⑥ go.
    pub hospital_addr: SocketAddr,
    /// Admission controllers of the servers the clients talk to.
    pub controllers: Vec<Arc<AdmissionController>>,
    pub cluster: Option<Cluster>,
    /// `parked_conns` only: deployment state, not load. Held so the
    /// connections stay open; no thread ever touches them during a run.
    pub parked: Vec<WireClient>,
}

fn serve(service: &Arc<OasisService>) -> (SocketAddr, Arc<AdmissionController>) {
    let server = WireServer::bind(Arc::clone(service), "127.0.0.1:0").expect("loopback binds");
    let controller = server.controller();
    let addr = server.serve_in_background().expect("server serves");
    (addr, controller)
}

/// Reserves `n` loopback ports: replicas need each other's addresses
/// before any of them binds. The listeners are dropped before the servers
/// bind; the kernel does not reissue a just-released port this fast.
fn free_addrs(n: usize) -> Vec<SocketAddr> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr"))
        .collect()
}

fn build_cluster() -> World {
    let addrs = free_addrs(3);
    let ids: Vec<String> = (0..3).map(|i| format!("civ{i}")).collect();
    let mut nodes = Vec::new();
    let mut all_services = Vec::new();
    let mut controllers = Vec::new();
    for (i, id) in ids.iter().enumerate() {
        let peers = ids.iter().filter(|p| *p != id).cloned().collect();
        let directory: Vec<(String, SocketAddr)> = ids
            .iter()
            .cloned()
            .zip(addrs.iter().copied())
            .filter(|(p, _)| p != id)
            .collect();
        let mut config = ReplicaConfig::new(id.clone(), peers, addrs[i].to_string());
        config.election_timeout_ms = REPLICA_PATIENCE_MS;
        config.lease_ms = REPLICA_PATIENCE_MS;
        let node = Arc::new(ReplicaNode::new(
            config,
            Arc::new(WireTransport::new(directory)),
        ));
        let journal: Arc<dyn StorageBackend> = Arc::new(node.replicated("journal"));
        let snapshot: Arc<dyn StorageBackend> = Arc::new(node.replicated("snapshot"));
        let store = ServiceJournal::open(journal, snapshot).expect("replicated journal opens");
        let services = build_services(Workload::ReplicatedCiv, Some(store));
        let server = WireServer::bind(Arc::clone(&services.hospital), &addrs[i].to_string())
            .expect("replica binds its reserved port")
            .with_replica(Arc::clone(&node));
        controllers.push(server.controller());
        server.serve_in_background().expect("replica serves");
        nodes.push(node);
        all_services.push(services);
    }
    // The first node stands at once instead of waiting out the election
    // timeout; should it lose, the tickers elect someone in their own time.
    nodes[0].start_election(controllers[0].now_ms());
    let deadline = Instant::now() + Duration::from_secs(10);
    let leader = loop {
        let leaders: Vec<usize> = (0..3).filter(|&i| nodes[i].is_leader()).collect();
        if let [one] = leaders.as_slice() {
            break *one;
        }
        assert!(Instant::now() < deadline, "no unique leader within 10 s");
        std::thread::sleep(Duration::from_millis(5));
    };
    World {
        workload: Workload::ReplicatedCiv,
        services: all_services.swap_remove(leader),
        login_addr: addrs[leader],
        hospital_addr: addrs[leader],
        controllers: vec![controllers.swap_remove(leader)],
        cluster: Some(Cluster { nodes, leader }),
        parked: Vec::new(),
    }
}

impl World {
    /// Builds and serves the deployment. `parked_conns` gets its idle
    /// connections from [`World::park_connections`], after warm-up.
    pub fn build(workload: Workload) -> World {
        match workload {
            Workload::ReplicatedCiv => build_cluster(),
            Workload::CrossDomain => {
                let services = build_services(workload, None);
                let (login_addr, login_ctl) = serve(&services.login);
                let remote = RemoteValidator::new();
                remote.add_issuer("login", login_addr);
                services
                    .hospital
                    .set_validator(Arc::new(ResilientValidator::new(Arc::new(remote))));
                let (hospital_addr, hospital_ctl) = serve(&services.hospital);
                World {
                    workload,
                    services,
                    login_addr,
                    hospital_addr,
                    controllers: vec![login_ctl, hospital_ctl],
                    cluster: None,
                    parked: Vec::new(),
                }
            }
            Workload::SingleNode | Workload::ParkedConns => {
                let services = build_services(workload, None);
                let (addr, controller) = serve(&services.hospital);
                World {
                    workload,
                    services,
                    login_addr: addr,
                    hospital_addr: addr,
                    controllers: vec![controller],
                    cluster: None,
                    parked: Vec::new(),
                }
            }
        }
    }

    /// Opens and pings the idle keep-alive connections of `parked_conns`
    /// (a CIV with [`PARKED`] relying services, each holding
    /// `RemoteValidator`'s cached connection). A no-op elsewhere.
    pub fn park_connections(&mut self) {
        if self.workload != Workload::ParkedConns {
            return;
        }
        for _ in 0..PARKED {
            let mut conn = WireClient::connect(self.hospital_addr).expect("parked conn connects");
            conn.ping().expect("parked conn answers its first ping");
            self.parked.push(conn);
        }
    }

    /// Pings every parked connection again; the number that still answer.
    pub fn parked_alive(&mut self) -> usize {
        self.parked
            .iter_mut()
            .map(|conn| conn.ping().is_ok())
            .filter(|alive| *alive)
            .count()
    }
}
