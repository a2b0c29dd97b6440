//! A party's accumulated interaction history.

use std::fmt;

use crate::cert::{AuditCertificate, Outcome};

/// The audit certificates a party has accumulated and can present as
/// "checkable credentials which provide evidence of previous successful
/// interactions" (Sect. 6).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InteractionHistory {
    certificates: Vec<AuditCertificate>,
}

impl InteractionHistory {
    /// An empty history (a newcomer).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a certificate.
    pub fn add(&mut self, cert: AuditCertificate) {
        self.certificates.push(cert);
    }

    /// All certificates, in acquisition order.
    pub fn certificates(&self) -> &[AuditCertificate] {
        &self.certificates
    }

    /// Keeps only certificates the given verifier accepts (e.g. "validated
    /// by a CIV registry I recognise"), returning how many were dropped.
    pub fn retain_verified(&mut self, verify: impl Fn(&AuditCertificate) -> bool) -> usize {
        let before = self.certificates.len();
        self.certificates.retain(|c| verify(c));
        before - self.certificates.len()
    }

    /// `(fulfilled, defaulted, disputed)` counts across the history.
    pub fn outcome_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for c in &self.certificates {
            match c.outcome {
                Outcome::Fulfilled => counts.0 += 1,
                Outcome::ClientDefaulted | Outcome::ProviderDefaulted => counts.1 += 1,
                Outcome::Disputed => counts.2 += 1,
            }
        }
        counts
    }

    /// Number of certificates held.
    pub fn len(&self) -> usize {
        self.certificates.len()
    }

    /// Whether the history is empty.
    pub fn is_empty(&self) -> bool {
        self.certificates.is_empty()
    }
}

impl Extend<AuditCertificate> for InteractionHistory {
    fn extend<T: IntoIterator<Item = AuditCertificate>>(&mut self, iter: T) {
        self.certificates.extend(iter);
    }
}

impl FromIterator<AuditCertificate> for InteractionHistory {
    fn from_iter<T: IntoIterator<Item = AuditCertificate>>(iter: T) -> Self {
        Self {
            certificates: iter.into_iter().collect(),
        }
    }
}

impl fmt::Display for InteractionHistory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (ok, bad, disputed) = self.outcome_counts();
        write!(
            f,
            "history: {} certificates ({ok} fulfilled, {bad} defaulted, {disputed} disputed)",
            self.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::CivNotary;
    use oasis_core::{PrincipalId, ServiceId};

    fn certs() -> (CivNotary, InteractionHistory, PrincipalId, ServiceId) {
        let notary = CivNotary::new("civ");
        let alice = PrincipalId::new("alice");
        let library = ServiceId::new("library");
        let mut history = InteractionHistory::new();
        history.add(notary.notarise(&alice, &library, "c1", Outcome::Fulfilled, 1));
        history.add(notary.notarise(&alice, &library, "c2", Outcome::ClientDefaulted, 2));
        history.add(notary.notarise(
            &PrincipalId::new("bob"),
            &library,
            "c3",
            Outcome::Disputed,
            3,
        ));
        (notary, history, alice, library)
    }

    #[test]
    fn outcome_counts_add_up() {
        let (_n, history, _, _) = certs();
        assert_eq!(history.outcome_counts(), (1, 1, 1));
        assert_eq!(history.len(), 3);
    }

    #[test]
    fn retain_verified_drops_forgeries() {
        let (notary, mut history, alice, library) = certs();
        let forger = CivNotary::new("civ");
        history.add(forger.notarise(&alice, &library, "fake", Outcome::Fulfilled, 4));
        let dropped = history.retain_verified(|c| notary.validate(c));
        assert_eq!(dropped, 1);
        assert_eq!(history.len(), 3);
    }

    #[test]
    fn display_summarises() {
        let (_n, history, _, _) = certs();
        assert_eq!(
            history.to_string(),
            "history: 3 certificates (1 fulfilled, 1 defaulted, 1 disputed)"
        );
    }
}
