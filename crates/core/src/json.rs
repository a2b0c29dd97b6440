//! JSON conversions for the core types that cross the wire protocol.
//!
//! Enums use a single-key externally-tagged object (`{"Rmc": {...}}`);
//! structs are plain objects. These impls live here (not in `oasis-wire`)
//! because Rust's orphan rule requires either the trait or the type to be
//! local.

use oasis_json::{json_enum, json_struct, FromJson, JsonError, Reader, ToJson};

use crate::cert::{
    AppointmentCertificate, CertEvent, CertEventKind, CredRecord, CredStatus, Credential,
    CredentialKind, Crr, Rmc,
};
use crate::env::CmpOp;
use crate::ids::{CertId, PrincipalId, RoleName, ServiceId, SessionId};
use crate::pattern::{Term, VarName};
use crate::rule::Atom;
use crate::value::Value;

macro_rules! string_id_json {
    ($($t:ident),* $(,)?) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                self.as_str().write_json(out);
            }
        }

        impl FromJson for $t {
            fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
                r.str().map(|s| $t::from(&*s))
            }
        }
    )*};
}

string_id_json!(PrincipalId, ServiceId, RoleName);

macro_rules! u64_id_json {
    ($($t:ident),* $(,)?) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                self.0.write_json(out);
            }
        }

        impl FromJson for $t {
            fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
                r.u64().map($t)
            }
        }
    )*};
}

u64_id_json!(CertId, SessionId);

impl ToJson for VarName {
    fn write_json(&self, out: &mut String) {
        self.0.write_json(out);
    }
}

impl FromJson for VarName {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        String::read_json(r).map(VarName)
    }
}

json_enum! { Value { Id(v), Str(v), Int(v), Bool(v), Time(v) } }
json_struct! { Crr { issuer, cert_id } }
json_struct! { Rmc { crr, role, args, issued_at, holder_key, epoch, signature } }
json_struct! { AppointmentCertificate {
    crr, name, args, issued_at, expires_at, holder_key, epoch, signature,
} }
json_enum! { Credential { Rmc(c), Appointment(c) } }
json_enum! { CredentialKind { Rmc = "rmc", Appointment = "appointment" } }
json_enum! { CertEventKind { Revoked { reason } } }
json_struct! { CertEvent { crr, kind } }
json_enum! { CredStatus { Active = null, Revoked { reason, at }, Expired { at } } }
json_struct! { CredRecord { crr, principal, kind, name, args, issued_at, expires_at, status } }
json_enum! { Term { Const(v), Var(v), Wildcard = null } }
json_enum! { CmpOp { Eq = "==", Ne = "!=", Lt = "<", Le = "<=", Gt = ">", Ge = ">=" } }
json_enum! { Atom {
    Prereq { service, role, args },
    Appointment { issuer, name, args },
    EnvFact { relation, args, negated },
    EnvCompare { left, op, right },
    EnvPredicate { name, args },
} }

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_crypto::{IssuerSecret, SecretEpoch, SecretKey};

    fn sample_rmc() -> Rmc {
        let secret = IssuerSecret::from_key(SecretKey::from_bytes([9; 32]));
        let pair = oasis_crypto::KeyPair::from_seed([3; 32]);
        Rmc::issue(
            &secret.current(),
            SecretEpoch(0),
            &PrincipalId::new("alice"),
            Crr::new(ServiceId::new("svc"), CertId(1)),
            RoleName::new("doctor"),
            vec![Value::id("dr-1"), Value::Int(-3), Value::Time(u64::MAX)],
            100,
            Some(pair.public_key()),
        )
    }

    fn round_trip<T: ToJson + FromJson + PartialEq + std::fmt::Debug>(value: &T) {
        let text = oasis_json::to_string(value);
        let back: T = oasis_json::from_str(&text).unwrap();
        assert_eq!(&back, value, "{text}");
    }

    #[test]
    fn values_round_trip() {
        for v in [
            Value::id("x"),
            Value::str("free \"text\""),
            Value::Int(i64::MIN),
            Value::Bool(true),
            Value::Time(u64::MAX),
        ] {
            round_trip(&v);
        }
    }

    #[test]
    fn rmc_round_trips_and_still_verifies() {
        let rmc = sample_rmc();
        let text = oasis_json::to_string(&rmc);
        let back: Rmc = oasis_json::from_str(&text).unwrap();
        assert_eq!(back, rmc);
        let secret = IssuerSecret::from_key(SecretKey::from_bytes([9; 32]));
        assert!(back.verify(&secret.current(), &PrincipalId::new("alice")));
    }

    #[test]
    fn credential_variants_round_trip() {
        round_trip(&Credential::Rmc(sample_rmc()));
        let secret = IssuerSecret::from_key(SecretKey::from_bytes([9; 32]));
        let appt = AppointmentCertificate::issue(
            &secret.current(),
            SecretEpoch(0),
            &PrincipalId::new("bob"),
            Crr::new(ServiceId::new("svc"), CertId(2)),
            "employed".into(),
            vec![],
            5,
            Some(90),
            None,
        );
        round_trip(&Credential::Appointment(appt));
    }

    #[test]
    fn cred_records_round_trip_in_every_status() {
        for status in [
            CredStatus::Active,
            CredStatus::Revoked {
                reason: "appointment withdrawn".into(),
                at: 40,
            },
            CredStatus::Expired { at: 99 },
        ] {
            round_trip(&CredRecord {
                crr: Crr::new(ServiceId::new("svc"), CertId(7)),
                principal: PrincipalId::new("alice"),
                kind: CredentialKind::Rmc,
                name: "doctor".into(),
                args: vec![Value::id("dr-1"), Value::Int(2)],
                issued_at: 10,
                expires_at: Some(500),
                status,
            });
        }
        round_trip(&CredentialKind::Appointment);
    }

    #[test]
    fn rule_atoms_round_trip() {
        for atom in [
            Atom::Prereq {
                service: None,
                role: RoleName::new("logged_in"),
                args: vec![Term::var("uid"), Term::Wildcard],
            },
            Atom::Appointment {
                issuer: Some(ServiceId::new("nhs")),
                name: "employed_as_doctor".into(),
                args: vec![Term::val(Value::id("dr-1"))],
            },
            Atom::EnvFact {
                relation: "on_duty".into(),
                args: vec![Term::var("uid")],
                negated: true,
            },
            Atom::EnvCompare {
                left: Term::var("t"),
                op: CmpOp::Le,
                right: Term::val(Value::Time(100)),
            },
            Atom::EnvPredicate {
                name: "within_ward".into(),
                args: vec![Term::var("w")],
            },
        ] {
            round_trip(&atom);
        }
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            round_trip(&op);
        }
    }

    #[test]
    fn missing_fields_are_descriptive_errors() {
        let err = oasis_json::from_str::<Crr>("{\"issuer\":\"svc\"}").unwrap_err();
        assert!(err.to_string().contains("cert_id"));
        // A body that is no object at all is missing its first field.
        let err = oasis_json::from_str::<Crr>("7").unwrap_err();
        assert!(err.to_string().contains("issuer"));
        let err = oasis_json::from_str::<Value>("{\"Nope\":1}").unwrap_err();
        assert!(err.to_string().contains("Nope"));
    }
}
