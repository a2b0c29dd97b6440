//! Policy definition (roles, rules, appointers) and introspection.

use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use super::{CompiledRule, OasisService};
use crate::cert::{CredRecord, CredStatus, Crr};
use crate::error::OasisError;
use crate::ids::{CertId, RoleName};
use crate::pattern::Term;
use crate::plan::{PlanStats, RulePlan};
use crate::role::RoleDef;
use crate::rule::{ActivationRule, Atom, InvocationRule, RuleId};
use crate::value::ValueType;

impl OasisService {
    /// Defines a role with a typed parameter schema.
    ///
    /// # Errors
    ///
    /// [`OasisError::DuplicateRole`] /
    /// [`OasisError::DuplicateParam`].
    pub fn define_role(
        &self,
        name: impl Into<RoleName>,
        params: &[(&str, ValueType)],
        initial: bool,
    ) -> Result<(), OasisError> {
        let name = name.into();
        let schema = params.iter().map(|(n, t)| ((*n).to_string(), *t)).collect();
        let def = RoleDef::new(name.clone(), schema, initial)?;
        let mut policy = self.policy.write();
        if policy.roles.contains_key(&name) {
            return Err(OasisError::DuplicateRole(name));
        }
        policy.roles.insert(name, def);
        Ok(())
    }

    /// The definition of a role, if present.
    pub fn role(&self, name: &RoleName) -> Option<RoleDef> {
        self.policy.read().roles.get(name).cloned()
    }

    /// Adds an activation rule `role(head_args) ← conditions`, with
    /// `membership` naming the condition indices that must remain true
    /// while the role is active.
    ///
    /// # Errors
    ///
    /// [`OasisError::UnknownRole`] if the role is undefined;
    /// [`OasisError::BadMembershipIndex`] for a bad membership index.
    pub fn add_activation_rule(
        &self,
        role: impl Into<RoleName>,
        head_args: Vec<Term>,
        conditions: Vec<Atom>,
        membership: Vec<usize>,
    ) -> Result<RuleId, OasisError> {
        let role = role.into();
        let id = RuleId(self.next_rule.fetch_add(1, Ordering::Relaxed));
        let rule = ActivationRule {
            id,
            role: role.clone(),
            head_args,
            conditions,
            membership,
        };
        rule.validate()?;
        let plan = RulePlan::compile(&self.id, &rule.head_args, &rule.conditions);
        let mut policy = self.policy.write();
        if !policy.roles.contains_key(&role) {
            return Err(OasisError::UnknownRole(role));
        }
        // Prerequisite DAG: local prereq → this role. (Foreign prereqs
        // are tracked per-certificate by the dependency index, not here.)
        for cond in &rule.conditions {
            if let Atom::Prereq {
                service,
                role: prereq,
                ..
            } = cond
            {
                if service.as_ref().is_none_or(|s| *s == self.id) {
                    policy
                        .prereq_children
                        .entry(prereq.clone())
                        .or_default()
                        .insert(role.clone());
                }
            }
        }
        self.plans.count(&plan);
        Arc::make_mut(policy.activation_rules.entry(role).or_default())
            .push(CompiledRule { rule, plan });
        Ok(id)
    }

    /// Adds a service-use rule for `method(head_args)`.
    pub fn add_invocation_rule(
        &self,
        method: impl Into<String>,
        head_args: Vec<Term>,
        conditions: Vec<Atom>,
    ) -> RuleId {
        let method = method.into();
        let id = RuleId(self.next_rule.fetch_add(1, Ordering::Relaxed));
        let rule = InvocationRule {
            id,
            method: method.clone(),
            head_args,
            conditions,
        };
        let plan = RulePlan::compile(&self.id, &rule.head_args, &rule.conditions);
        self.plans.count(&plan);
        let mut policy = self.policy.write();
        Arc::make_mut(policy.invocation_rules.entry(method).or_default())
            .push(CompiledRule { rule, plan });
        id
    }

    /// Grants `role` the privilege of issuing appointment certificates of
    /// kind `appointment`.
    ///
    /// # Errors
    ///
    /// [`OasisError::UnknownRole`] if the role is undefined.
    pub fn grant_appointer(
        &self,
        role: impl Into<RoleName>,
        appointment: impl Into<String>,
    ) -> Result<(), OasisError> {
        let role = role.into();
        let mut policy = self.policy.write();
        if !policy.roles.contains_key(&role) {
            return Err(OasisError::UnknownRole(role));
        }
        policy
            .appointers
            .entry(appointment.into())
            .or_default()
            .insert(role);
        Ok(())
    }

    /// Roles that transitively depend on `role` through this service's
    /// prerequisite-role DAG (excluding `role` itself unless it appears
    /// in a cycle), sorted by name. These are the roles whose activation
    /// rules can be affected when `role`'s memberships collapse.
    pub fn role_dependents(&self, role: &RoleName) -> Vec<RoleName> {
        let policy = self.policy.read();
        let mut seen: HashSet<RoleName> = HashSet::new();
        let mut queue: Vec<&RoleName> = policy
            .prereq_children
            .get(role)
            .map(|c| c.iter().collect())
            .unwrap_or_default();
        while let Some(next) = queue.pop() {
            if seen.insert(next.clone()) {
                if let Some(children) = policy.prereq_children.get(next) {
                    queue.extend(children.iter());
                }
            }
        }
        let mut out: Vec<RoleName> = seen.into_iter().collect();
        out.sort();
        out
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// The credential record for a certificate, if this service issued it.
    pub fn record(&self, cert_id: CertId) -> Option<CredRecord> {
        self.record_shard(cert_id)
            .lock()
            .records
            .get(&cert_id)
            .map(|r| r.record.clone())
    }

    /// The credentials a certificate's membership rule retains — i.e. the
    /// supporting credentials whose revocation will collapse it (Fig 5's
    /// event-channel edges, viewed from the dependent side).
    pub fn dependencies(&self, cert_id: CertId) -> Option<Vec<Crr>> {
        self.record_shard(cert_id)
            .lock()
            .records
            .get(&cert_id)
            .map(|r| r.depends_on.clone())
    }

    /// Number of records in each status: `(active, revoked, expired)`.
    pub fn record_stats(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        // Counts as it visits, so it collects nothing.
        self.scan(|r| {
            match r.record.status {
                CredStatus::Active => counts.0 += 1,
                CredStatus::Revoked { .. } => counts.1 += 1,
                CredStatus::Expired { .. } => counts.2 += 1,
            }
            None::<()>
        });
        counts
    }

    /// All roles defined at this service, sorted by name.
    pub fn roles(&self) -> Vec<RoleDef> {
        let policy = self.policy.read();
        let mut roles: Vec<RoleDef> = policy.roles.values().cloned().collect();
        roles.sort_by(|a, b| a.name().cmp(b.name()));
        roles
    }

    /// The activation rules installed for a role, in trial order.
    pub fn activation_rules(&self, role: &RoleName) -> Vec<ActivationRule> {
        self.policy
            .read()
            .activation_rules
            .get(role)
            .map(|rules| rules.iter().map(|r| r.rule.clone()).collect())
            .unwrap_or_default()
    }

    /// The invocation rules installed for a method, in trial order.
    pub fn invocation_rules(&self, method: &str) -> Vec<InvocationRule> {
        self.policy
            .read()
            .invocation_rules
            .get(method)
            .map(|rules| rules.iter().map(|r| r.rule.clone()).collect())
            .unwrap_or_default()
    }

    /// Counters over the compiled decision plans (activation and
    /// invocation), for diagnostics: a nonzero `always_fail` usually
    /// indicates a rule with a typo'd variable that can never bind.
    pub fn plan_stats(&self) -> PlanStats {
        self.plans.read()
    }

    /// Consistency warnings between role flags and installed rules.
    ///
    /// The paper defines an *initial role* as one whose activation rule
    /// includes no prerequisite roles (Sect. 2) — activating it starts a
    /// session. This check reports descriptive mismatches:
    ///
    /// * a role not flagged `initial` but having a rule with no
    ///   prerequisite atoms (it can in fact start a session);
    /// * a role flagged `initial` all of whose rules require
    ///   prerequisites (it can never start one);
    /// * a defined role with no activation rules at all (unactivatable).
    ///
    /// These are warnings, not errors: the flag is descriptive metadata
    /// and services may stage policy installation.
    pub fn policy_warnings(&self) -> Vec<String> {
        let policy = self.policy.read();
        let mut warnings = Vec::new();
        let mut names: Vec<&RoleName> = policy.roles.keys().collect();
        names.sort();
        for name in names {
            let def = &policy.roles[name];
            let rules = policy.activation_rules.get(name);
            match rules {
                None => warnings.push(format!(
                    "role `{name}` has no activation rules and can never be activated"
                )),
                Some(rules) => {
                    let has_prereq_free_rule = rules
                        .iter()
                        .any(|r| !r.rule.conditions.iter().any(Atom::is_credential_prereq));
                    if has_prereq_free_rule && !def.is_initial() {
                        warnings.push(format!(
                            "role `{name}` is not flagged initial but has a rule without \
                             prerequisite roles; activating it starts a session"
                        ));
                    }
                    if !has_prereq_free_rule && def.is_initial() {
                        warnings.push(format!(
                            "role `{name}` is flagged initial but every rule requires a \
                             prerequisite role; it cannot start a session"
                        ));
                    }
                }
            }
        }
        warnings
    }

    /// All active credential records (for operator tooling).
    pub fn active_records(&self) -> Vec<CredRecord> {
        let mut records = self.scan(|r| r.record.status.is_active().then(|| r.record.clone()));
        records.sort_by_key(|r| r.crr.cert_id);
        records
    }
}
