//! Certificates and credential records (Fig 4 of the paper).
//!
//! Two certificate kinds exist in OASIS:
//!
//! * **Role membership certificates** ([`Rmc`]) — returned on successful
//!   role activation; session-scoped; presented as proof of authorisation
//!   to use services and as credentials for activating further roles.
//! * **Appointment certificates** ([`AppointmentCertificate`]) — issued by
//!   principals active in appointer roles; potentially long-lived
//!   (academic/professional qualification, employment, membership) or
//!   transient (standing in for a colleague); their lifetime is
//!   independent of any session.
//!
//! Both are MAC-protected over their fields with the *principal id as a
//! hidden input* — `F(principal_id, protected fields, SECRET)` — making
//! them principal-specific without recording the principal readably, and
//! both carry a credential record reference ([`Crr`]) locating the
//! issuer-side [`CredRecord`] so holders of the certificate can be
//! validated by callback and revoked by event (Fig 5).

use std::fmt;

use oasis_crypto::{MacSignature, PublicKey, SecretEpoch, SecretKey};

use crate::ids::{CertId, PrincipalId, RoleName, ServiceId};
use crate::value::Value;

/// Credential record reference: locates the issuer and the issuer-side
/// record of a certificate (the "CRR" of Fig 4).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Crr {
    /// The issuing service.
    pub issuer: ServiceId,
    /// The issuer-local certificate id.
    pub cert_id: CertId,
}

impl Crr {
    /// Creates a credential record reference.
    pub fn new(issuer: ServiceId, cert_id: CertId) -> Self {
        Self { issuer, cert_id }
    }
}

impl fmt::Display for Crr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.issuer, self.cert_id)
    }
}

/// Which kind of certificate a credential record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CredentialKind {
    /// A role membership certificate.
    Rmc,
    /// An appointment certificate.
    Appointment,
}

impl CredentialKind {
    /// The kind's name, which is also its tag in the certificate MAC.
    fn as_str(self) -> &'static str {
        match self {
            CredentialKind::Rmc => "rmc",
            CredentialKind::Appointment => "appointment",
        }
    }
}

impl fmt::Display for CredentialKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The fields of a certificate that its MAC covers, borrowed from it.
struct MacFields<'a> {
    kind: CredentialKind,
    crr: &'a Crr,
    name: &'a str,
    args: &'a [Value],
    issued_at: u64,
    expires_at: Option<u64>,
    holder_key: Option<&'a PublicKey>,
}

impl MacFields<'_> {
    /// Hands `mac` the canonical MAC input shared by both certificate
    /// kinds. Field order is part of the format and must never change.
    /// Only the args are encoded into fresh buffers; every other field
    /// is the certificate's own bytes or a stack array. The other two
    /// allocations are the list holding the args and the list of slices.
    fn with<R>(&self, mac: impl FnOnce(&[&[u8]]) -> R) -> R {
        let cert_id = self.crr.cert_id.0.to_le_bytes();
        let issued_at = self.issued_at.to_le_bytes();
        let mut expiry = [0u8; 9];
        let expiry: &[u8] = match self.expires_at {
            Some(t) => {
                expiry[0] = 1;
                expiry[1..].copy_from_slice(&t.to_le_bytes());
                &expiry
            }
            None => &expiry[..1],
        };
        let args: Vec<Vec<u8>> = self.args.iter().map(Value::canonical_bytes).collect();
        let mut fields: Vec<&[u8]> = Vec::with_capacity(7 + args.len());
        fields.extend([
            self.kind.as_str().as_bytes(),
            self.crr.issuer.as_bytes(),
            &cert_id,
            self.name.as_bytes(),
        ]);
        fields.extend(args.iter().map(Vec::as_slice));
        fields.extend([
            &issued_at[..],
            expiry,
            self.holder_key.map_or(&[][..], |k| k.as_bytes()),
        ]);
        mac(&fields)
    }

    fn sign(&self, secret: &SecretKey, principal: &PrincipalId) -> MacSignature {
        self.with(|fields| oasis_crypto::sign_fields(secret, principal.as_bytes(), fields))
    }

    fn verify(&self, secret: &SecretKey, principal: &PrincipalId, sig: &MacSignature) -> bool {
        self.with(|fields| oasis_crypto::verify_fields(secret, principal.as_bytes(), fields, sig))
    }
}

/// A role membership certificate (RMC).
///
/// The RMC's readable fields are protected by the signature; the holding
/// principal's id is a *hidden* signature input (Fig 4), so presenting a
/// stolen RMC under a different principal id fails verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rmc {
    /// Where the issuer-side credential record lives.
    pub crr: Crr,
    /// The activated role.
    pub role: RoleName,
    /// The role's parameter values.
    pub args: Vec<Value>,
    /// Virtual time of issue.
    pub issued_at: u64,
    /// Session public key bound into the certificate, if the principal
    /// supplied one (enables challenge–response at any time, Sect. 4.1).
    pub holder_key: Option<PublicKey>,
    /// Which issuer secret epoch signed this certificate.
    pub epoch: SecretEpoch,
    /// `F(principal_id, fields, SECRET)`.
    pub signature: MacSignature,
}

impl Rmc {
    /// Issues (signs) an RMC for `principal`.
    #[allow(clippy::too_many_arguments)]
    pub fn issue(
        secret: &SecretKey,
        epoch: SecretEpoch,
        principal: &PrincipalId,
        crr: Crr,
        role: RoleName,
        args: Vec<Value>,
        issued_at: u64,
        holder_key: Option<PublicKey>,
    ) -> Self {
        let mut rmc = Self {
            crr,
            role,
            args,
            issued_at,
            holder_key,
            epoch,
            signature: MacSignature([0; 32]),
        };
        rmc.signature = rmc.mac_fields().sign(secret, principal);
        rmc
    }

    /// Verifies the signature for the presenting `principal` under the
    /// issuer `secret` of this certificate's epoch.
    pub fn verify(&self, secret: &SecretKey, principal: &PrincipalId) -> bool {
        self.mac_fields().verify(secret, principal, &self.signature)
    }

    fn mac_fields(&self) -> MacFields<'_> {
        MacFields {
            kind: CredentialKind::Rmc,
            crr: &self.crr,
            name: self.role.as_str(),
            args: &self.args,
            issued_at: self.issued_at,
            expires_at: None,
            holder_key: self.holder_key.as_ref(),
        }
    }
}

impl fmt::Display for Rmc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RMC[{} {}(", self.crr, self.role)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")]")
    }
}

/// An appointment certificate.
///
/// "Being active in certain roles gives the principal the right to issue
/// appointment certificates to one or more other principals" (Sect. 2).
/// Unlike an RMC its lifetime is independent of any session, so it carries
/// an optional expiry and is bound to a *persistent* principal id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppointmentCertificate {
    /// Where the issuer-side credential record lives.
    pub crr: Crr,
    /// The appointment kind, e.g. `employed_as_doctor`.
    pub name: String,
    /// Appointment parameters, e.g. the hospital id.
    pub args: Vec<Value>,
    /// Virtual time of issue.
    pub issued_at: u64,
    /// Optional expiry (virtual time, inclusive).
    pub expires_at: Option<u64>,
    /// Long-lived public key of the holder, if bound (Sect. 4.1 recommends
    /// this for theft protection of long-lived credentials).
    pub holder_key: Option<PublicKey>,
    /// Which issuer secret epoch signed this certificate.
    pub epoch: SecretEpoch,
    /// `F(principal_id, fields, SECRET)`.
    pub signature: MacSignature,
}

impl AppointmentCertificate {
    /// Issues (signs) an appointment certificate for `principal`.
    #[allow(clippy::too_many_arguments)]
    pub fn issue(
        secret: &SecretKey,
        epoch: SecretEpoch,
        principal: &PrincipalId,
        crr: Crr,
        name: String,
        args: Vec<Value>,
        issued_at: u64,
        expires_at: Option<u64>,
        holder_key: Option<PublicKey>,
    ) -> Self {
        let mut appt = Self {
            crr,
            name,
            args,
            issued_at,
            expires_at,
            holder_key,
            epoch,
            signature: MacSignature([0; 32]),
        };
        appt.signature = appt.mac_fields().sign(secret, principal);
        appt
    }

    /// Verifies the signature for the presenting `principal`.
    pub fn verify(&self, secret: &SecretKey, principal: &PrincipalId) -> bool {
        self.mac_fields().verify(secret, principal, &self.signature)
    }

    fn mac_fields(&self) -> MacFields<'_> {
        MacFields {
            kind: CredentialKind::Appointment,
            crr: &self.crr,
            name: &self.name,
            args: &self.args,
            issued_at: self.issued_at,
            expires_at: self.expires_at,
            holder_key: self.holder_key.as_ref(),
        }
    }

    /// Whether the certificate has passed its expiry at virtual time `now`.
    pub fn is_expired(&self, now: u64) -> bool {
        self.expires_at.is_some_and(|deadline| now > deadline)
    }
}

impl fmt::Display for AppointmentCertificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "APPT[{} {}(", self.crr, self.name)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")]")
    }
}

/// Either certificate kind, as presented in a credential list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Credential {
    /// A role membership certificate.
    Rmc(Rmc),
    /// An appointment certificate.
    Appointment(AppointmentCertificate),
}

impl Credential {
    /// The credential record reference.
    pub fn crr(&self) -> &Crr {
        match self {
            Credential::Rmc(c) => &c.crr,
            Credential::Appointment(c) => &c.crr,
        }
    }

    /// The issuing service.
    pub fn issuer(&self) -> &ServiceId {
        &self.crr().issuer
    }

    /// The role or appointment name.
    pub fn name(&self) -> &str {
        match self {
            Credential::Rmc(c) => c.role.as_str(),
            Credential::Appointment(c) => &c.name,
        }
    }

    /// The parameter values.
    pub fn args(&self) -> &[Value] {
        match self {
            Credential::Rmc(c) => &c.args,
            Credential::Appointment(c) => &c.args,
        }
    }

    /// Which kind this is.
    pub fn kind(&self) -> CredentialKind {
        match self {
            Credential::Rmc(_) => CredentialKind::Rmc,
            Credential::Appointment(_) => CredentialKind::Appointment,
        }
    }

    /// The secret epoch the certificate was signed under.
    pub fn epoch(&self) -> SecretEpoch {
        match self {
            Credential::Rmc(c) => c.epoch,
            Credential::Appointment(c) => c.epoch,
        }
    }

    /// Verifies the signature for the presenting `principal`.
    pub fn verify(&self, secret: &SecretKey, principal: &PrincipalId) -> bool {
        match self {
            Credential::Rmc(c) => c.verify(secret, principal),
            Credential::Appointment(c) => c.verify(secret, principal),
        }
    }

    /// The bound holder key, if any.
    pub fn holder_key(&self) -> Option<&PublicKey> {
        match self {
            Credential::Rmc(c) => c.holder_key.as_ref(),
            Credential::Appointment(c) => c.holder_key.as_ref(),
        }
    }
}

impl From<Rmc> for Credential {
    fn from(c: Rmc) -> Self {
        Credential::Rmc(c)
    }
}

impl From<AppointmentCertificate> for Credential {
    fn from(c: AppointmentCertificate) -> Self {
        Credential::Appointment(c)
    }
}

impl fmt::Display for Credential {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Credential::Rmc(c) => c.fmt(f),
            Credential::Appointment(c) => c.fmt(f),
        }
    }
}

/// The lifecycle state of an issued certificate, held in its issuer-side
/// credential record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CredStatus {
    /// Valid and usable.
    Active,
    /// Revoked by the issuer (role deactivated, appointment withdrawn,
    /// or a supporting credential collapsed).
    Revoked {
        /// Human-readable reason, recorded for audit.
        reason: String,
        /// Virtual time of revocation.
        at: u64,
    },
    /// Lapsed by reaching its expiry time.
    Expired {
        /// Virtual time at which expiry was noticed.
        at: u64,
    },
}

impl CredStatus {
    /// Whether the certificate may currently be used.
    pub fn is_active(&self) -> bool {
        matches!(self, CredStatus::Active)
    }
}

impl fmt::Display for CredStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CredStatus::Active => f.write_str("active"),
            CredStatus::Revoked { reason, at } => write!(f, "revoked at t{at}: {reason}"),
            CredStatus::Expired { at } => write!(f, "expired at t{at}"),
        }
    }
}

/// The issuer-side record of an issued certificate ("CR" in Figs 1, 2
/// and 5): who holds it, what it says, and whether it is still valid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CredRecord {
    /// The reference that certificates carry to locate this record.
    pub crr: Crr,
    /// The principal the certificate was issued to.
    pub principal: PrincipalId,
    /// RMC or appointment.
    pub kind: CredentialKind,
    /// Role name (for RMCs) or appointment name.
    pub name: String,
    /// The certificate's parameter values.
    pub args: Vec<Value>,
    /// Virtual time of issue.
    pub issued_at: u64,
    /// Optional expiry.
    pub expires_at: Option<u64>,
    /// Current validity.
    pub status: CredStatus,
}

/// A certificate lifecycle event published on the event bus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertEvent {
    /// The certificate concerned.
    pub crr: Crr,
    /// What happened.
    pub kind: CertEventKind,
}

/// What happened to a certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertEventKind {
    /// The issuer invalidated the certificate.
    Revoked {
        /// Why.
        reason: String,
    },
}

/// The bus topic on which `issuer` publishes revocation events.
pub fn revocation_topic(issuer: &ServiceId) -> oasis_events::Topic {
    oasis_events::Topic::new(format!("cred.revoked.{issuer}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_crypto::IssuerSecret;

    fn setup() -> (SecretKey, PrincipalId, Crr) {
        let secret = IssuerSecret::from_key(SecretKey::from_bytes([9; 32]));
        (
            secret.current(),
            PrincipalId::new("alice"),
            Crr::new(ServiceId::new("svc"), CertId(1)),
        )
    }

    fn sample_rmc(key: &SecretKey, principal: &PrincipalId, crr: Crr) -> Rmc {
        Rmc::issue(
            key,
            SecretEpoch(0),
            principal,
            crr,
            RoleName::new("doctor"),
            vec![Value::id("dr-1"), Value::id("pat-2")],
            100,
            None,
        )
    }

    #[test]
    fn rmc_round_trip_verifies() {
        let (key, alice, crr) = setup();
        let rmc = sample_rmc(&key, &alice, crr);
        assert!(rmc.verify(&key, &alice));
    }

    #[test]
    fn rmc_is_principal_specific() {
        let (key, alice, crr) = setup();
        let rmc = sample_rmc(&key, &alice, crr);
        assert!(!rmc.verify(&key, &PrincipalId::new("mallory")));
    }

    #[test]
    fn rmc_tamper_with_args_detected() {
        let (key, alice, crr) = setup();
        let mut rmc = sample_rmc(&key, &alice, crr);
        rmc.args[1] = Value::id("pat-999");
        assert!(!rmc.verify(&key, &alice));
    }

    #[test]
    fn rmc_tamper_with_role_detected() {
        let (key, alice, crr) = setup();
        let mut rmc = sample_rmc(&key, &alice, crr);
        rmc.role = RoleName::new("chief_surgeon");
        assert!(!rmc.verify(&key, &alice));
    }

    #[test]
    fn rmc_wrong_secret_detected() {
        let (key, alice, crr) = setup();
        let rmc = sample_rmc(&key, &alice, crr);
        let other = SecretKey::from_bytes([1; 32]);
        assert!(!rmc.verify(&other, &alice));
    }

    #[test]
    fn appointment_round_trip_and_expiry() {
        let (key, alice, crr) = setup();
        let appt = AppointmentCertificate::issue(
            &key,
            SecretEpoch(0),
            &alice,
            crr,
            "employed_as_doctor".into(),
            vec![Value::id("hospital-1")],
            10,
            Some(100),
            None,
        );
        assert!(appt.verify(&key, &alice));
        assert!(!appt.is_expired(100));
        assert!(appt.is_expired(101));
    }

    #[test]
    fn appointment_tamper_with_expiry_detected() {
        let (key, alice, crr) = setup();
        let mut appt = AppointmentCertificate::issue(
            &key,
            SecretEpoch(0),
            &alice,
            crr,
            "member".into(),
            vec![],
            10,
            Some(100),
            None,
        );
        appt.expires_at = Some(10_000);
        assert!(!appt.verify(&key, &alice));
    }

    #[test]
    fn rmc_and_appointment_with_same_fields_do_not_collide() {
        let (key, alice, crr) = setup();
        let rmc = Rmc::issue(
            &key,
            SecretEpoch(0),
            &alice,
            crr.clone(),
            RoleName::new("x"),
            vec![],
            0,
            None,
        );
        let appt = AppointmentCertificate::issue(
            &key,
            SecretEpoch(0),
            &alice,
            crr,
            "x".into(),
            vec![],
            0,
            None,
            None,
        );
        assert_ne!(rmc.signature, appt.signature, "kind tag separates domains");
    }

    #[test]
    fn holder_key_is_protected() {
        let (key, alice, crr) = setup();
        let pair = oasis_crypto::KeyPair::from_seed([3; 32]);
        let mut rmc = Rmc::issue(
            &key,
            SecretEpoch(0),
            &alice,
            crr,
            RoleName::new("r"),
            vec![],
            0,
            Some(pair.public_key()),
        );
        assert!(rmc.verify(&key, &alice));
        // Swap in the attacker's key: signature must break.
        let attacker = oasis_crypto::KeyPair::from_seed([4; 32]);
        rmc.holder_key = Some(attacker.public_key());
        assert!(!rmc.verify(&key, &alice));
    }

    /// The MAC bytes of both certificate kinds, fixed: any change to the
    /// field order, the encoding or the hash shows up here.
    #[test]
    fn mac_bytes_are_pinned() {
        let (key, alice, crr) = setup();
        let holder = Some(oasis_crypto::KeyPair::from_seed([3; 32]).public_key());
        let rmc = Rmc::issue(
            &key,
            SecretEpoch(0),
            &alice,
            crr.clone(),
            RoleName::new("treating_doctor"),
            vec![Value::id("dr-1"), Value::Int(-7)],
            100,
            holder,
        );
        let appt = AppointmentCertificate::issue(
            &key,
            SecretEpoch(0),
            &alice,
            crr,
            "employed_as_doctor".into(),
            vec![Value::str("ward 3"), Value::Time(42)],
            10,
            Some(1_000),
            holder,
        );
        assert_eq!(
            rmc.signature.to_string(),
            "ed3093d28f61291f6f97659dc708da8619fadd9ea9d31bc5e1ca1f5a9fa508b2"
        );
        assert_eq!(
            appt.signature.to_string(),
            "7df6fe90a0203ae8066475cef99fbf92ee6c97b01b99b19aa86f05c5d4ffe881"
        );
    }

    #[test]
    fn credential_enum_accessors() {
        let (key, alice, crr) = setup();
        let rmc = sample_rmc(&key, &alice, crr.clone());
        let cred: Credential = rmc.clone().into();
        assert_eq!(cred.crr(), &crr);
        assert_eq!(cred.name(), "doctor");
        assert_eq!(cred.kind(), CredentialKind::Rmc);
        assert_eq!(cred.args().len(), 2);
        assert!(cred.verify(&key, &alice));
        assert_eq!(cred.to_string(), rmc.to_string());
    }

    #[test]
    fn status_transitions_display() {
        assert!(CredStatus::Active.is_active());
        let revoked = CredStatus::Revoked {
            reason: "shift ended".into(),
            at: 5,
        };
        assert!(!revoked.is_active());
        assert_eq!(revoked.to_string(), "revoked at t5: shift ended");
    }

    #[test]
    fn revocation_topic_format() {
        assert_eq!(
            revocation_topic(&ServiceId::new("hospital")).as_str(),
            "cred.revoked.hospital"
        );
    }
}
