//! The frozen workload: the four deployments' names, the hospital policy
//! text, and the seeded session lifecycles every client replays.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Doctors (principals) the lifecycles draw from.
pub const DOCTORS: u64 = 64;
/// Patients registered with every doctor.
pub const PATIENTS: u64 = 16;
/// `read_record` invocations per granted lifecycle (step ③).
pub const INVOKES: usize = 4;
/// Closed-loop client threads, one connection per server each. Fixed: the
/// sizing box has two cores, and callers of an access-control service
/// block on the reply.
pub const CLIENTS: usize = 2;
/// Untimed lifecycles each client runs inside set-up.
pub const WARMUP_LIFECYCLES: usize = 50;
/// Idle keep-alive connections of the `parked_conns` deployment.
pub const PARKED: usize = 32;

/// One service owns both roles (`single_node`, `parked_conns`,
/// `replicated_civ`).
pub const HOSPITAL_POLICY: &str = r#"
service hospital {
  initial role logged_in(u: id);
  role treating_doctor(d: id, p: id);

  rule logged_in(U) <- ;

  rule treating_doctor(D, P) <-
      prereq logged_in(D),
      env registered(D, P),
      env not excluded(P, D);

  invoke read_record(P) <- prereq treating_doctor(_, P);
}
"#;

/// The issuer of `logged_in` is a service of its own (`cross_domain`).
pub const CROSS_DOMAIN_POLICY: &str = r#"
service login {
  initial role logged_in(u: id);
  rule logged_in(U) <- ;
}

service hospital {
  role treating_doctor(d: id, p: id);

  rule treating_doctor(D, P) <-
      prereq login::logged_in(D),
      env registered(D, P),
      env not excluded(P, D);

  invoke read_record(P) <- prereq treating_doctor(_, P);
}
"#;

/// The deployments the lifecycle is driven against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SingleNode,
    ParkedConns,
    ReplicatedCiv,
    CrossDomain,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SingleNode,
        Workload::ParkedConns,
        Workload::ReplicatedCiv,
        Workload::CrossDomain,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SingleNode => "single_node",
            Workload::ParkedConns => "parked_conns",
            Workload::ReplicatedCiv => "replicated_civ",
            Workload::CrossDomain => "cross_domain",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether an operation's latency is made of host work (loopback round
    /// trips, wake-ups, syscalls) and so drifts with the host's speed; its
    /// metrics are then reported relative to the host-speed reference. On
    /// `parked_conns` it is made of `POLL_SLICE` sleeps, which do not.
    pub fn host_bound(self) -> bool {
        self != Workload::ParkedConns
    }
}

/// The five timed operations of a lifecycle, in step order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Login,
    EnterRole,
    Invoke,
    Validate,
    Revoke,
}

impl Op {
    pub const ALL: [Op; 5] = [
        Op::Login,
        Op::EnterRole,
        Op::Invoke,
        Op::Validate,
        Op::Revoke,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Op::Login => "login",
            Op::EnterRole => "enter_role",
            Op::Invoke => "invoke",
            Op::Validate => "validate",
            Op::Revoke => "revoke",
        }
    }

    pub fn idx(self) -> usize {
        self as usize
    }
}

/// One session: who logs in, whose record is read, and which of the
/// seeded negative cases it carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lifecycle {
    /// Position in this client's stream (warm-up included).
    pub id: u64,
    pub doctor: String,
    pub patient: String,
    /// The patient is not registered with the doctor: step ② must be
    /// refused and ③④⑥ are skipped.
    pub denied: bool,
    /// A second principal presents the login RMC between ① and ②; it must
    /// be refused.
    pub stolen: bool,
}

/// The seeded lifecycle stream of one client.
pub struct Lifecycles {
    rng: ChaCha8Rng,
    next_id: u64,
}

impl Lifecycles {
    pub fn new(seed: u64, client: usize) -> Self {
        // Distinct, seed-determined streams per client.
        let stream = seed ^ (client as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Self {
            rng: ChaCha8Rng::seed_from_u64(stream),
            next_id: 0,
        }
    }
}

impl Iterator for Lifecycles {
    type Item = Lifecycle;

    fn next(&mut self) -> Option<Lifecycle> {
        let doctor = self.rng.random_range(0..DOCTORS);
        let patient = self.rng.random_range(0..PATIENTS);
        let denied = self.rng.random_range(0..8u64) == 0;
        let stolen = self.rng.random_range(0..64u64) == 0;
        let id = self.next_id;
        self.next_id += 1;
        Some(Lifecycle {
            id,
            doctor: doctor_name(doctor),
            // Patients PATIENTS.. exist but are registered with nobody.
            patient: patient_name(if denied { PATIENTS + patient } else { patient }),
            denied,
            stolen,
        })
    }
}

pub fn doctor_name(n: u64) -> String {
    format!("dr-{n}")
}

pub fn patient_name(n: u64) -> String {
    format!("pat-{n}")
}

/// The principal who presents stolen login RMCs.
pub const THIEF: &str = "mallory";

#[cfg(test)]
mod tests {
    use super::*;

    fn first(seed: u64, client: usize, n: usize) -> Vec<Lifecycle> {
        Lifecycles::new(seed, client).take(n).collect()
    }

    #[test]
    fn same_seed_same_lifecycles_other_seed_other_lifecycles() {
        assert_eq!(first(7, 0, 200), first(7, 0, 200));
        assert_ne!(first(7, 0, 200), first(8, 0, 200));
        // The two clients of one run do not replay each other.
        assert_ne!(first(7, 0, 200), first(7, 1, 200));
    }

    #[test]
    fn negative_cases_come_at_their_seeded_rates() {
        let lifecycles = first(1, 0, 6_400);
        let denied = lifecycles.iter().filter(|l| l.denied).count();
        let stolen = lifecycles.iter().filter(|l| l.stolen).count();
        // One in eight and one in 64, within sampling noise.
        assert!((600..1_000).contains(&denied), "{denied} denied");
        assert!((50..160).contains(&stolen), "{stolen} stolen");
        // A denied lifecycle names a patient registered with nobody.
        let registered: Vec<String> = (0..PATIENTS).map(patient_name).collect();
        for l in &lifecycles {
            assert_eq!(registered.contains(&l.patient), !l.denied);
        }
        assert_eq!(lifecycles[5].id, 5);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
