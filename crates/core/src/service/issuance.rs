//! Issuance: role activation and service use (paths 1–4 of Fig 2), and
//! appointment.

use std::borrow::Cow;
use std::sync::atomic::Ordering;

use oasis_crypto::PublicKey;

use super::{CompiledRule, OasisService, RecordState};
use crate::audit::AuditKind;
use crate::cert::{
    AppointmentCertificate, CredRecord, CredStatus, Credential, CredentialKind, Crr, Rmc,
};
use crate::durable::SecurityEvent;
use crate::env::EnvContext;
use crate::error::OasisError;
use crate::ids::{CertId, PrincipalId, RoleName};
use crate::pattern::{Bindings, Term};
use crate::plan::CredIndex;
use crate::rule::{ActivationRule, Atom, RuleId, Solution};
use crate::value::Value;

/// The result of a successful role activation.
#[derive(Debug, Clone)]
pub struct ActivationOutcome {
    /// The issued role membership certificate.
    pub rmc: Rmc,
    /// Which activation rule fired.
    pub rule: RuleId,
    /// The variable bindings of the satisfied rule.
    pub bindings: Bindings,
}

/// The result of an authorised invocation.
#[derive(Debug, Clone)]
pub struct Invocation {
    /// The method invoked.
    pub method: String,
    /// Which invocation rule authorised it.
    pub rule: RuleId,
    /// The variable bindings of the satisfied rule.
    pub bindings: Bindings,
    /// The credentials that authorised the call (recorded for audit, as in
    /// the cross-domain EHR scenario of Fig 3).
    pub used: Vec<Crr>,
}

impl OasisService {
    /// Filters the presented credentials down to those that validate,
    /// auditing each rejection. Returns the input slice unchanged — no
    /// clones — in the common case where every credential validates.
    fn validated<'c>(
        &self,
        presented: &'c [Credential],
        presenter: &PrincipalId,
        now: u64,
    ) -> Cow<'c, [Credential]> {
        let mut surviving: Option<Vec<Credential>> = None;
        for (idx, cred) in presented.iter().enumerate() {
            match self.validate_credential(cred, presenter, now) {
                Ok(()) => {
                    if let Some(valid) = surviving.as_mut() {
                        valid.push(cred.clone());
                    }
                }
                Err(err) => {
                    if surviving.is_none() {
                        surviving = Some(presented[..idx].to_vec());
                    }
                    self.audit.record(
                        now,
                        AuditKind::CredentialRejected {
                            principal: presenter.clone(),
                            crr: cred.crr().clone(),
                            reason: err.to_string(),
                        },
                    );
                }
            }
        }
        match surviving {
            Some(valid) => Cow::Owned(valid),
            None => Cow::Borrowed(presented),
        }
    }

    // ------------------------------------------------------------------
    // Role activation (paths 1–2 of Fig 2)
    // ------------------------------------------------------------------

    /// Activates `role(args)` for `principal`, returning the RMC.
    ///
    /// See [`OasisService::activate_role_detailed`] for the full outcome,
    /// and `activate_role_with_key` to bind a session public key into the
    /// certificate.
    ///
    /// # Errors
    ///
    /// [`OasisError::UnknownRole`], [`OasisError::ArityMismatch`],
    /// [`OasisError::TypeMismatch`], or [`OasisError::ActivationDenied`]
    /// when no rule is satisfied.
    pub fn activate_role(
        &self,
        principal: &PrincipalId,
        role: &RoleName,
        args: &[Value],
        presented: &[Credential],
        ctx: &EnvContext,
    ) -> Result<Rmc, OasisError> {
        self.activate_role_detailed(principal, role, args, presented, None, ctx)
            .map(|outcome| outcome.rmc)
    }

    /// As [`OasisService::activate_role`], additionally binding a session
    /// public key into the issued RMC (Sect. 4.1).
    pub fn activate_role_with_key(
        &self,
        principal: &PrincipalId,
        role: &RoleName,
        args: &[Value],
        presented: &[Credential],
        holder_key: PublicKey,
        ctx: &EnvContext,
    ) -> Result<Rmc, OasisError> {
        self.activate_role_detailed(principal, role, args, presented, Some(holder_key), ctx)
            .map(|outcome| outcome.rmc)
    }

    /// The full-fat activation entry point: returns the fired rule and its
    /// bindings alongside the certificate.
    ///
    /// # Errors
    ///
    /// As [`OasisService::activate_role`].
    pub fn activate_role_detailed(
        &self,
        principal: &PrincipalId,
        role: &RoleName,
        args: &[Value],
        presented: &[Credential],
        holder_key: Option<PublicKey>,
        ctx: &EnvContext,
    ) -> Result<ActivationOutcome, OasisError> {
        let result = self.activate_role_inner(principal, role, args, presented, holder_key, ctx);
        match &result {
            Ok(_) => self.requests.activations_ok.inc(),
            Err(_) => self.requests.activations_denied.inc(),
        }
        let obs = self.obs.read();
        if obs.sink.is_recording() {
            if let Some(trace) = ctx.trace().or_else(oasis_obs::current) {
                obs.sink.emit(
                    trace,
                    self.id.as_str(),
                    "svc.activate",
                    ctx.now(),
                    ctx.now(),
                );
            }
        }
        result
    }

    fn activate_role_inner(
        &self,
        principal: &PrincipalId,
        role: &RoleName,
        args: &[Value],
        presented: &[Credential],
        holder_key: Option<PublicKey>,
        ctx: &EnvContext,
    ) -> Result<ActivationOutcome, OasisError> {
        self.last_now.store(ctx.now(), Ordering::Relaxed);
        // Argument checking happens under the read lock — no RoleDef
        // clone per activation.
        let rules = {
            let policy = self.policy.read();
            policy
                .roles
                .get(role)
                .ok_or_else(|| OasisError::UnknownRole(role.clone()))?
                .check_args(args)?;
            policy
                .activation_rules
                .get(role)
                .cloned()
                .unwrap_or_default()
        };

        let creds = self.validated(presented, principal, ctx.now());

        // One credential index for the whole request, indexed candidate
        // fetches per rule.
        let index = CredIndex::build(&creds);
        for CompiledRule { rule, plan } in rules.iter() {
            if let Some(solution) = plan.eval(args, &index, &self.facts, ctx) {
                return self.issue_rmc(
                    principal, role, args, rule, solution, &creds, holder_key, ctx,
                );
            }
        }

        self.audit.record(
            ctx.now(),
            AuditKind::ActivationDenied {
                principal: principal.clone(),
                role: role.clone(),
                reason: format!("none of {} rule(s) satisfied", rules.len()),
            },
        );
        Err(OasisError::ActivationDenied {
            role: role.clone(),
            principal: principal.clone(),
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn issue_rmc(
        &self,
        principal: &PrincipalId,
        role: &RoleName,
        args: &[Value],
        rule: &ActivationRule,
        solution: Solution,
        creds: &[Credential],
        holder_key: Option<PublicKey>,
        ctx: &EnvContext,
    ) -> Result<ActivationOutcome, OasisError> {
        let cert_id = CertId(self.next_cert.fetch_add(1, Ordering::Relaxed));
        let crr = Crr::new(self.id.clone(), cert_id);
        let rmc = Rmc::issue(
            &self.secret.current(),
            self.secret.current_epoch(),
            principal,
            crr.clone(),
            role.clone(),
            args.to_vec(),
            ctx.now(),
            holder_key,
        );

        // Membership rule: collect what must *remain* true.
        let mut depends_on: Vec<Crr> = Vec::new();
        let mut retained_checks: Vec<Atom> = Vec::new();
        for &idx in &rule.membership {
            let atom = &rule.conditions[idx];
            if atom.is_credential() {
                if let Some((_, used_crr)) = solution.used.iter().find(|(cond, _)| *cond == idx) {
                    if !depends_on.contains(used_crr) {
                        depends_on.push(used_crr.clone());
                    }
                }
            } else {
                retained_checks.push(substitute_atom(atom, &solution.bindings));
            }
        }

        let record = CredRecord {
            crr: crr.clone(),
            principal: principal.clone(),
            kind: CredentialKind::Rmc,
            name: role.as_str().to_string(),
            args: args.to_vec(),
            issued_at: ctx.now(),
            expires_at: None,
            status: CredStatus::Active,
        };

        let retained_creds = depends_on.clone();
        // Dependency and fact edges go in first (one shard lock at a
        // time), then the record itself. A revocation racing this window
        // may find an edge pointing at a record that does not exist yet
        // and drop the cascade — the re-validation below closes exactly
        // that hole.
        self.commit_record(RecordState::new(
            &self.id,
            record,
            depends_on,
            retained_checks,
        ))?;

        // Close the race with concurrent revocation: the supporting
        // credentials were validated *before* the dependency edges above
        // existed, so a revocation landing in between would have found no
        // dependents. Re-validate now that the edges are in place; any
        // revocation from here on cascades normally. An own credential's
        // MAC was verified on these same bytes moments ago, so only its
        // standing is re-checked; a foreign one takes the full path.
        for dep in &retained_creds {
            let Some(cred) = creds.iter().find(|c| c.crr() == dep) else {
                continue;
            };
            let revalidated = if cred.issuer() == &self.id {
                self.own_key(cred)
                    .and_then(|_| self.own_standing(cred, principal, ctx.now()))
            } else {
                self.validate_credential(cred, principal, ctx.now())
            };
            if revalidated.is_err() {
                self.revoke_certificate(
                    cert_id,
                    &format!("supporting credential {dep} was revoked during activation"),
                    ctx.now(),
                );
                self.audit.record(
                    ctx.now(),
                    AuditKind::ActivationDenied {
                        principal: principal.clone(),
                        role: role.clone(),
                        reason: format!("supporting credential {dep} revoked concurrently"),
                    },
                );
                return Err(OasisError::ActivationDenied {
                    role: role.clone(),
                    principal: principal.clone(),
                });
            }
        }

        self.audit.record(
            ctx.now(),
            AuditKind::RoleActivated {
                principal: principal.clone(),
                role: role.clone(),
                args: args.to_vec(),
                crr,
            },
        );
        self.maybe_autosnapshot();

        Ok(ActivationOutcome {
            rmc,
            rule: rule.id,
            bindings: solution.bindings,
        })
    }

    /// Journals a new certificate's record, then installs it. Write
    /// ahead: a journal failure aborts the issuance, because the
    /// certificate must never outlive a crash its issuer cannot
    /// remember. The commit guard keeps a concurrent snapshot from
    /// covering this append before the record lands.
    fn commit_record(&self, state: RecordState) -> Result<(), OasisError> {
        let _commit = self.durable.as_ref().map(|d| d.commit.read());
        self.journal(|| SecurityEvent::CertIssued {
            record: state.record.clone(),
            depends_on: state.depends_on.clone(),
            retained_checks: state.retained_checks().to_vec(),
        })?;
        if self.chaos_crash_pending() {
            return Err(OasisError::Journal(
                "chaos: crashed between journal append and apply".into(),
            ));
        }
        self.install_record(state);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Service use (paths 3–4 of Fig 2)
    // ------------------------------------------------------------------

    /// Authorises an invocation of `method(args)` under the service-use
    /// policy.
    ///
    /// # Errors
    ///
    /// [`OasisError::InvocationDenied`] when no invocation rule is
    /// satisfied (including when the method has no rules at all — deny by
    /// default).
    pub fn invoke(
        &self,
        principal: &PrincipalId,
        method: &str,
        args: &[Value],
        presented: &[Credential],
        ctx: &EnvContext,
    ) -> Result<Invocation, OasisError> {
        let result = self.invoke_inner(principal, method, args, presented, ctx);
        match &result {
            Ok(_) => self.requests.invocations_ok.inc(),
            Err(_) => self.requests.invocations_denied.inc(),
        }
        let obs = self.obs.read();
        if obs.sink.is_recording() {
            if let Some(trace) = ctx.trace().or_else(oasis_obs::current) {
                obs.sink
                    .emit(trace, self.id.as_str(), "svc.invoke", ctx.now(), ctx.now());
            }
        }
        result
    }

    fn invoke_inner(
        &self,
        principal: &PrincipalId,
        method: &str,
        args: &[Value],
        presented: &[Credential],
        ctx: &EnvContext,
    ) -> Result<Invocation, OasisError> {
        self.last_now.store(ctx.now(), Ordering::Relaxed);
        let rules = self
            .policy
            .read()
            .invocation_rules
            .get(method)
            .cloned()
            .unwrap_or_default();
        let creds = self.validated(presented, principal, ctx.now());

        let index = CredIndex::build(&creds);
        for CompiledRule { rule, plan } in rules.iter() {
            if let Some(solution) = plan.eval(args, &index, &self.facts, ctx) {
                let used: Vec<Crr> = solution.used.into_iter().map(|(_, c)| c).collect();
                self.audit.record(
                    ctx.now(),
                    AuditKind::Invoked {
                        principal: principal.clone(),
                        method: method.to_string(),
                        args: args.to_vec(),
                        credentials: used.clone(),
                    },
                );
                return Ok(Invocation {
                    method: method.to_string(),
                    rule: rule.id,
                    bindings: solution.bindings,
                    used,
                });
            }
        }

        self.audit.record(
            ctx.now(),
            AuditKind::InvocationDenied {
                principal: principal.clone(),
                method: method.to_string(),
                reason: format!("none of {} rule(s) satisfied", rules.len()),
            },
        );
        Err(OasisError::InvocationDenied {
            method: method.to_string(),
            principal: principal.clone(),
        })
    }

    // ------------------------------------------------------------------
    // Appointment (Sect. 2)
    // ------------------------------------------------------------------

    /// Issues an appointment certificate of kind `name` to `appointee`.
    ///
    /// The `appointer` must present a *valid RMC of this service* for a
    /// role that has been granted the appointer privilege for `name`
    /// (via [`OasisService::grant_appointer`]). The certificate's lifetime
    /// is independent of the appointer's session: revoking the appointer's
    /// RMC later does **not** cascade to the appointment.
    ///
    /// # Errors
    ///
    /// [`OasisError::NotAppointer`] when no presented credential carries
    /// the privilege.
    #[allow(clippy::too_many_arguments)]
    pub fn issue_appointment(
        &self,
        appointer: &PrincipalId,
        appointer_creds: &[Credential],
        name: &str,
        args: Vec<Value>,
        appointee: &PrincipalId,
        expires_at: Option<u64>,
        holder_key: Option<PublicKey>,
        ctx: &EnvContext,
    ) -> Result<AppointmentCertificate, OasisError> {
        self.last_now.store(ctx.now(), Ordering::Relaxed);
        let allowed_roles = self
            .policy
            .read()
            .appointers
            .get(name)
            .cloned()
            .unwrap_or_default();

        let creds = self.validated(appointer_creds, appointer, ctx.now());
        let entitled = creds.iter().any(|c| match c {
            Credential::Rmc(rmc) => rmc.crr.issuer == self.id && allowed_roles.contains(&rmc.role),
            Credential::Appointment(_) => false,
        });
        if !entitled {
            return Err(OasisError::NotAppointer {
                principal: appointer.clone(),
                appointment: name.to_string(),
            });
        }

        let cert_id = CertId(self.next_cert.fetch_add(1, Ordering::Relaxed));
        let crr = Crr::new(self.id.clone(), cert_id);
        let cert = AppointmentCertificate::issue(
            &self.secret.current(),
            self.secret.current_epoch(),
            appointee,
            crr.clone(),
            name.to_string(),
            args.clone(),
            ctx.now(),
            expires_at,
            holder_key,
        );

        let record = CredRecord {
            crr: crr.clone(),
            principal: appointee.clone(),
            kind: CredentialKind::Appointment,
            name: name.to_string(),
            args,
            issued_at: ctx.now(),
            expires_at,
            status: CredStatus::Active,
        };
        self.commit_record(RecordState::new(&self.id, record, Vec::new(), Vec::new()))?;

        self.audit.record(
            ctx.now(),
            AuditKind::AppointmentIssued {
                appointer: appointer.clone(),
                appointee: appointee.clone(),
                name: name.to_string(),
                crr,
            },
        );
        self.maybe_autosnapshot();
        Ok(cert)
    }
}

/// Substitutes bound variables with their values, leaving `$`-reserved
/// variables (re-bound at evaluation time) and unbound variables alone.
fn substitute_atom(atom: &Atom, bindings: &Bindings) -> Atom {
    let sub_term = |t: &Term| -> Term {
        if let Term::Var(name) = t {
            if name.0.starts_with('$') {
                return t.clone();
            }
            if let Some(v) = bindings.get(name) {
                return Term::Const(v.clone());
            }
        }
        t.clone()
    };
    let sub_terms = |ts: &[Term]| ts.iter().map(sub_term).collect();
    match atom {
        Atom::Prereq {
            service,
            role,
            args,
        } => Atom::Prereq {
            service: service.clone(),
            role: role.clone(),
            args: sub_terms(args),
        },
        Atom::Appointment { issuer, name, args } => Atom::Appointment {
            issuer: issuer.clone(),
            name: name.clone(),
            args: sub_terms(args),
        },
        Atom::EnvFact {
            relation,
            args,
            negated,
        } => Atom::EnvFact {
            relation: relation.clone(),
            args: sub_terms(args),
            negated: *negated,
        },
        Atom::EnvCompare { left, op, right } => Atom::EnvCompare {
            left: sub_term(left),
            op: *op,
            right: sub_term(right),
        },
        Atom::EnvPredicate { name, args } => Atom::EnvPredicate {
            name: name.clone(),
            args: sub_terms(args),
        },
    }
}
