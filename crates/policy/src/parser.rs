//! Recursive-descent parser for the policy language.

use oasis_core::{CmpOp, Term, Value, ValueType};

use crate::ast::*;
use crate::error::{PolicyError, Pos};
use crate::lexer::{lex, Spanned, Tok};

pub(crate) fn parse(source: &str) -> Result<PolicyAst, PolicyError> {
    let tokens = lex(source)?;
    let mut p = Parser { tokens, idx: 0 };
    p.policy()
}

struct Parser {
    tokens: Vec<Spanned>,
    idx: usize,
}

impl Parser {
    fn peek(&self) -> &Spanned {
        &self.tokens[self.idx]
    }

    fn next(&mut self) -> Spanned {
        let t = self.tokens[self.idx].clone();
        if self.idx + 1 < self.tokens.len() {
            self.idx += 1;
        }
        t
    }

    fn pos(&self) -> Pos {
        self.peek().pos
    }

    fn unexpected<T>(&self, expected: &str) -> Result<T, PolicyError> {
        Err(PolicyError::Unexpected {
            pos: self.peek().pos,
            expected: expected.to_string(),
            found: self.peek().tok.to_string(),
        })
    }

    fn expect(&mut self, tok: &Tok, what: &str) -> Result<Pos, PolicyError> {
        if &self.peek().tok == tok {
            Ok(self.next().pos)
        } else {
            self.unexpected(what)
        }
    }

    /// Accepts an identifier token, returning its text.
    fn ident(&mut self, what: &str) -> Result<(String, Pos), PolicyError> {
        match &self.peek().tok {
            Tok::Ident(s) => {
                let s = s.clone();
                let pos = self.next().pos;
                Ok((s, pos))
            }
            _ => self.unexpected(what),
        }
    }

    /// Accepts a specific keyword (an identifier with fixed text).
    fn keyword(&mut self, kw: &str) -> Result<Pos, PolicyError> {
        match &self.peek().tok {
            Tok::Ident(s) if s == kw => Ok(self.next().pos),
            _ => self.unexpected(&format!("`{kw}`")),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(&self.peek().tok, Tok::Ident(s) if s == kw)
    }

    /// A possibly dotted name: `a`, `a.b.c`.
    fn dotted_name(&mut self, what: &str) -> Result<(String, Pos), PolicyError> {
        let (mut name, pos) = self.ident(what)?;
        while self.peek().tok == Tok::Dot {
            self.next();
            let (part, _) = self.ident("name segment after `.`")?;
            name.push('.');
            name.push_str(&part);
        }
        Ok((name, pos))
    }

    fn policy(&mut self) -> Result<PolicyAst, PolicyError> {
        let mut services = Vec::new();
        while self.peek().tok != Tok::Eof {
            services.push(self.service_block()?);
        }
        Ok(PolicyAst { services })
    }

    fn service_block(&mut self) -> Result<ServiceBlock, PolicyError> {
        let pos = self.keyword("service")?;
        let (name, _) = self.dotted_name("service name")?;
        self.expect(&Tok::LBrace, "`{`")?;
        let mut block = ServiceBlock {
            name,
            pos,
            roles: Vec::new(),
            appointments: Vec::new(),
            appointers: Vec::new(),
            rules: Vec::new(),
            invocations: Vec::new(),
        };
        loop {
            match &self.peek().tok {
                Tok::RBrace => {
                    self.next();
                    break;
                }
                Tok::Ident(kw) => match kw.as_str() {
                    "role" | "initial" => block.roles.push(self.role_decl()?),
                    "appointment" => block.appointments.push(self.appointment_decl()?),
                    "appointer" => block.appointers.push(self.appointer_decl()?),
                    "rule" => block.rules.push(self.rule_decl()?),
                    "invoke" => block.invocations.push(self.invoke_decl()?),
                    _ => return self.unexpected(
                        "`role`, `initial`, `appointment`, `appointer`, `rule`, `invoke`, or `}`",
                    ),
                },
                _ => {
                    return self.unexpected(
                        "`role`, `initial`, `appointment`, `appointer`, `rule`, `invoke`, or `}`",
                    )
                }
            }
        }
        Ok(block)
    }

    fn role_decl(&mut self) -> Result<RoleDecl, PolicyError> {
        let initial = if self.at_keyword("initial") {
            self.next();
            true
        } else {
            false
        };
        let pos = self.keyword("role")?;
        let (name, _) = self.ident("role name")?;
        let params = self.param_list()?;
        self.expect(&Tok::Semi, "`;`")?;
        Ok(RoleDecl {
            name,
            params,
            initial,
            pos,
        })
    }

    fn appointment_decl(&mut self) -> Result<AppointmentDecl, PolicyError> {
        let pos = self.keyword("appointment")?;
        let (name, _) = self.ident("appointment name")?;
        let params = self.param_list()?;
        self.expect(&Tok::Semi, "`;`")?;
        Ok(AppointmentDecl { name, params, pos })
    }

    fn appointer_decl(&mut self) -> Result<AppointerDecl, PolicyError> {
        let pos = self.keyword("appointer")?;
        let (role, _) = self.ident("role name")?;
        self.keyword("may")?;
        self.keyword("issue")?;
        let (appointment, _) = self.ident("appointment name")?;
        self.expect(&Tok::Semi, "`;`")?;
        Ok(AppointerDecl {
            role,
            appointment,
            pos,
        })
    }

    /// `(name: type, …)` — possibly empty.
    fn param_list(&mut self) -> Result<Vec<(String, ValueType)>, PolicyError> {
        self.expect(&Tok::LParen, "`(`")?;
        let mut params = Vec::new();
        if self.peek().tok != Tok::RParen {
            loop {
                let (pname, _) = self.ident("parameter name")?;
                self.expect(&Tok::Colon, "`:`")?;
                let (tname, tpos) = self.ident("parameter type")?;
                let ptype: ValueType = tname.parse().map_err(|_| PolicyError::Unexpected {
                    pos: tpos,
                    expected: "a type (id, str, int, bool, time)".into(),
                    found: tname.clone(),
                })?;
                params.push((pname, ptype));
                if self.peek().tok == Tok::Comma {
                    self.next();
                } else {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen, "`)`")?;
        Ok(params)
    }

    fn rule_decl(&mut self) -> Result<RuleDecl, PolicyError> {
        let pos = self.keyword("rule")?;
        let (role, _) = self.ident("role name")?;
        let head_args = self.term_list()?;
        self.expect(&Tok::Arrow, "`<-`")?;
        let conditions = self.conditions()?;
        let membership = if self.at_keyword("membership") {
            self.next();
            Some(self.index_list()?)
        } else {
            None
        };
        self.expect(&Tok::Semi, "`;`")?;
        Ok(RuleDecl {
            role,
            head_args,
            conditions,
            membership,
            pos,
        })
    }

    fn invoke_decl(&mut self) -> Result<InvokeDecl, PolicyError> {
        let pos = self.keyword("invoke")?;
        let (method, _) = self.ident("method name")?;
        let head_args = self.term_list()?;
        self.expect(&Tok::Arrow, "`<-`")?;
        let conditions = self.conditions()?;
        self.expect(&Tok::Semi, "`;`")?;
        Ok(InvokeDecl {
            method,
            head_args,
            conditions,
            pos,
        })
    }

    /// Zero or more comma-separated conditions, ending before
    /// `membership` or `;`.
    fn conditions(&mut self) -> Result<Vec<Condition>, PolicyError> {
        let mut out = Vec::new();
        if self.peek().tok == Tok::Semi || self.at_keyword("membership") {
            return Ok(out);
        }
        loop {
            out.push(self.condition()?);
            if self.peek().tok == Tok::Comma {
                self.next();
            } else {
                break;
            }
        }
        Ok(out)
    }

    fn condition(&mut self) -> Result<Condition, PolicyError> {
        let pos = self.pos();
        if self.at_keyword("prereq") {
            self.next();
            let (service, role) = self.qualified_name("role name")?;
            let args = self.term_list()?;
            return Ok(Condition {
                kind: ConditionKind::Prereq {
                    service,
                    role,
                    args,
                },
                pos,
            });
        }
        if self.at_keyword("appointment") {
            self.next();
            let (service, name) = self.qualified_name("appointment name")?;
            let args = self.term_list()?;
            return Ok(Condition {
                kind: ConditionKind::Appointment {
                    service,
                    name,
                    args,
                },
                pos,
            });
        }
        if self.at_keyword("env") {
            self.next();
            // `env not rel(args)`
            if self.at_keyword("not") {
                self.next();
                let (relation, _) = self.ident("relation name")?;
                let args = self.term_list()?;
                return Ok(Condition {
                    kind: ConditionKind::Fact {
                        relation,
                        args,
                        negated: true,
                    },
                    pos,
                });
            }
            // `env ?pred(args)`
            if self.peek().tok == Tok::Question {
                self.next();
                let (name, _) = self.ident("predicate name")?;
                let args = self.term_list()?;
                return Ok(Condition {
                    kind: ConditionKind::Predicate { name, args },
                    pos,
                });
            }
            // Either `env rel(args)` or `env term op term`. Disambiguate:
            // an identifier followed by `(` is a relation.
            if matches!(&self.peek().tok, Tok::Ident(_))
                && self.tokens.get(self.idx + 1).map(|s| &s.tok) == Some(&Tok::LParen)
            {
                let (relation, _) = self.ident("relation name")?;
                let args = self.term_list()?;
                return Ok(Condition {
                    kind: ConditionKind::Fact {
                        relation,
                        args,
                        negated: false,
                    },
                    pos,
                });
            }
            let left = self.term()?;
            let op = self.cmp_op()?;
            let right = self.term()?;
            return Ok(Condition {
                kind: ConditionKind::Compare { left, op, right },
                pos,
            });
        }
        self.unexpected("`prereq`, `appointment`, or `env`")
    }

    /// `name` or `svc::name` (service part may be dotted).
    fn qualified_name(&mut self, what: &str) -> Result<(Option<String>, String), PolicyError> {
        let (first, _) = self.dotted_name(what)?;
        if self.peek().tok == Tok::ColonColon {
            self.next();
            let (name, _) = self.ident(what)?;
            Ok((Some(first), name))
        } else {
            Ok((None, first))
        }
    }

    /// `(term, …)` — possibly empty.
    fn term_list(&mut self) -> Result<Vec<Term>, PolicyError> {
        self.expect(&Tok::LParen, "`(`")?;
        let mut terms = Vec::new();
        if self.peek().tok != Tok::RParen {
            loop {
                terms.push(self.term()?);
                if self.peek().tok == Tok::Comma {
                    self.next();
                } else {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen, "`)`")?;
        Ok(terms)
    }

    fn term(&mut self) -> Result<Term, PolicyError> {
        match self.peek().tok.clone() {
            Tok::Variable(v) => {
                self.next();
                Ok(Term::var(v))
            }
            Tok::Underscore => {
                self.next();
                Ok(Term::Wildcard)
            }
            Tok::Int(i) => {
                self.next();
                Ok(Term::Const(Value::Int(i)))
            }
            Tok::Time(t) => {
                self.next();
                Ok(Term::Const(Value::Time(t)))
            }
            Tok::Str(s) => {
                self.next();
                Ok(Term::Const(Value::Str(s.into())))
            }
            Tok::Ident(s) if s == "true" => {
                self.next();
                Ok(Term::Const(Value::Bool(true)))
            }
            Tok::Ident(s) if s == "false" => {
                self.next();
                Ok(Term::Const(Value::Bool(false)))
            }
            Tok::Ident(s) => {
                self.next();
                Ok(Term::Const(Value::Id(s.into())))
            }
            _ => self.unexpected("a term (variable, `_`, or literal)"),
        }
    }

    fn cmp_op(&mut self) -> Result<CmpOp, PolicyError> {
        let op = match self.peek().tok {
            Tok::EqEq => CmpOp::Eq,
            Tok::NotEq => CmpOp::Ne,
            Tok::Lt => CmpOp::Lt,
            Tok::Le => CmpOp::Le,
            Tok::Gt => CmpOp::Gt,
            Tok::Ge => CmpOp::Ge,
            _ => return self.unexpected("a comparison operator"),
        };
        self.next();
        Ok(op)
    }

    /// `[0, 2, …]` — possibly empty.
    fn index_list(&mut self) -> Result<Vec<usize>, PolicyError> {
        self.expect(&Tok::LBracket, "`[`")?;
        let mut out = Vec::new();
        if self.peek().tok != Tok::RBracket {
            loop {
                match self.peek().tok {
                    Tok::Int(i) if i >= 0 => {
                        out.push(i as usize);
                        self.next();
                    }
                    _ => return self.unexpected("a non-negative index"),
                }
                if self.peek().tok == Tok::Comma {
                    self.next();
                } else {
                    break;
                }
            }
        }
        self.expect(&Tok::RBracket, "`]`")?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> PolicyAst {
        parse(src).unwrap()
    }

    #[test]
    fn empty_service_block() {
        let ast = parse_ok("service s { }");
        assert_eq!(ast.services.len(), 1);
        assert_eq!(ast.services[0].name, "s");
    }

    #[test]
    fn dotted_service_name() {
        let ast = parse_ok("service hospital.records { }");
        assert_eq!(ast.services[0].name, "hospital.records");
    }

    #[test]
    fn role_declarations() {
        let ast = parse_ok(
            "service s {
               initial role logged_in(user: id);
               role doctor(d: id, level: int);
             }",
        );
        let roles = &ast.services[0].roles;
        assert_eq!(roles.len(), 2);
        assert!(roles[0].initial);
        assert_eq!(roles[0].params, vec![("user".to_string(), ValueType::Id)]);
        assert!(!roles[1].initial);
        assert_eq!(roles[1].params.len(), 2);
    }

    #[test]
    fn full_rule_with_membership() {
        let ast = parse_ok(
            "service hospital {
               role treating_doctor(d: id, p: id);
               role doctor_on_duty(d: id);
               appointment assigned(d: id, p: id);
               rule treating_doctor(D, P) <-
                   prereq doctor_on_duty(D),
                   appointment assigned(D, P),
                   env registered(D, P),
                   env not excluded(P, D)
                   membership [0, 2, 3];
             }",
        );
        let rule = &ast.services[0].rules[0];
        assert_eq!(rule.role, "treating_doctor");
        assert_eq!(rule.conditions.len(), 4);
        assert_eq!(rule.membership, Some(vec![0, 2, 3]));
        assert!(matches!(
            rule.conditions[3].kind,
            ConditionKind::Fact { negated: true, .. }
        ));
    }

    #[test]
    fn default_membership_is_all() {
        let ast = parse_ok(
            "service s {
               role r(x: id);
               rule r(X) <- env f(X), env g(X);
             }",
        );
        assert_eq!(ast.services[0].rules[0].membership, None);
        assert_eq!(ast.services[0].rules[0].effective_membership(), vec![0, 1]);
    }

    #[test]
    fn cross_service_prereq_and_appointment() {
        let ast = parse_ok(
            "service research {
               role visiting_doctor(d: id);
               rule visiting_doctor(D) <-
                   appointment hospital.admin::employed_as_doctor(D, _);
             }",
        );
        match &ast.services[0].rules[0].conditions[0].kind {
            ConditionKind::Appointment {
                service,
                name,
                args,
            } => {
                assert_eq!(service.as_deref(), Some("hospital.admin"));
                assert_eq!(name, "employed_as_doctor");
                assert_eq!(args.len(), 2);
                assert_eq!(args[1], Term::Wildcard);
            }
            other => panic!("wrong condition: {other:?}"),
        }
    }

    #[test]
    fn compare_and_predicate_conditions() {
        let ast = parse_ok(
            "service clinic {
               role paid_up_patient(m: id);
               rule paid_up_patient(M) <-
                   appointment membership_card(M, Expiry),
                   env $now <= Expiry,
                   env ?on_site();
             }",
        );
        let conds = &ast.services[0].rules[0].conditions;
        assert!(matches!(
            conds[1].kind,
            ConditionKind::Compare { op: CmpOp::Le, .. }
        ));
        assert!(
            matches!(&conds[2].kind, ConditionKind::Predicate { name, .. } if name == "on_site")
        );
    }

    #[test]
    fn invoke_rules() {
        let ast = parse_ok(
            "service s {
               role r(p: id);
               rule r(P) <- ;
               invoke read_record(P) <- prereq r(P), env not excluded(P);
             }",
        );
        let inv = &ast.services[0].invocations[0];
        assert_eq!(inv.method, "read_record");
        assert_eq!(inv.conditions.len(), 2);
    }

    #[test]
    fn appointer_grants() {
        let ast = parse_ok(
            "service s {
               role nurse(n: id);
               appointment standin(d: id);
               appointer nurse may issue standin;
             }",
        );
        let grant = &ast.services[0].appointers[0];
        assert_eq!(grant.role, "nurse");
        assert_eq!(grant.appointment, "standin");
    }

    #[test]
    fn literals_in_terms() {
        let ast = parse_ok(
            "service s {
               role r(a: id, b: int, c: bool, d: time, e: str);
               rule r(fred, -3, true, @99, \"note\") <- ;
             }",
        );
        let head = &ast.services[0].rules[0].head_args;
        assert_eq!(head[0], Term::Const(Value::id("fred")));
        assert_eq!(head[1], Term::Const(Value::Int(-3)));
        assert_eq!(head[2], Term::Const(Value::Bool(true)));
        assert_eq!(head[3], Term::Const(Value::Time(99)));
        assert_eq!(head[4], Term::Const(Value::Str("note".into())));
    }

    #[test]
    fn error_positions_are_reported() {
        let err = parse("service s {\n  bogus thing;\n}").unwrap_err();
        match err {
            PolicyError::Unexpected { pos, .. } => {
                assert_eq!(pos.line, 2);
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn missing_semicolon_reported() {
        assert!(matches!(
            parse("service s { role r() }"),
            Err(PolicyError::Unexpected { .. })
        ));
    }

    #[test]
    fn multiple_services() {
        let ast = parse_ok("service a { } service b { }");
        assert_eq!(ast.services.len(), 2);
    }
}
