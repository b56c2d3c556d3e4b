//! Observable audit rules — the Section 8 workload.
//!
//! Auditing rules *retrieve* data while rule processing runs (observable
//! `SELECT` actions) and a guard can roll the transaction back. As written,
//! the two audit rules are unordered, so the audit stream's order depends
//! on scheduling: the rule set is confluent but **not** observably
//! deterministic — the paper's orthogonality example. Ordering the audit
//! rules (see [`RESOLUTIONS`]) restores determinism.

use crate::Workload;

/// The audit workload.
pub fn workload() -> Workload {
    Workload {
        name: "audit",
        setup: SETUP.to_owned(),
        rules: RULES.to_owned(),
        user_transition: USER.to_owned(),
    }
}

const SETUP: &str = "
create table account (aid int, balance int);
create table transfer (tid int, src int, dst int, amount int);

insert into account values (1, 1000);
insert into account values (2, 50);
";

const RULES: &str = "
-- Audit: report accounts drained below the floor by the new transfers.
create rule audit_low on transfer
when inserted
then select aid, balance from account where balance < 100
end;

-- Audit: report large transfers as they arrive.
create rule audit_large on transfer
when inserted
then select tid, amount from inserted where amount > 500
end;

-- Apply the transfer amounts.
create rule apply_transfer on transfer
when inserted
then update account set balance = balance -
       (select sum(amount) from transfer where src = account.aid
          and tid in (select tid from inserted))
     where aid in (select src from inserted)
precedes audit_low, audit_large
end;

-- Guard: overdrafts abort.
create rule guard_overdraft on account
when updated(balance)
if exists (select * from account where balance < 0)
then rollback
end;
";

const USER: &str = "
insert into transfer values (1, 1, 2, 600);
";

/// Ordering that makes the audit stream deterministic.
pub const RESOLUTIONS: &str = "
-- audit_low precedes audit_large  (apply by re-defining audit_low), or via
-- the interactive session's order(\"audit_low\", \"audit_large\").
";

#[cfg(test)]
mod tests {
    use starling_engine::{explore, ExploreConfig};

    use super::*;

    #[test]
    fn oracle_shows_observable_nondeterminism() {
        let w = workload();
        let (db, rs) = w.compile().unwrap();
        let cfg = ExploreConfig::default();
        let g = explore(&rs, &db, &w.user_actions().unwrap(), &cfg).unwrap();
        assert_eq!(g.terminates(), Some(true));
        // Confluent: the final balances do not depend on audit order.
        assert_eq!(g.confluent(), Some(true));
        // But the audit stream does.
        assert_eq!(g.observably_deterministic(&cfg), Some(false));
        let streams = g.observable_streams(&cfg).unwrap();
        assert!(streams.len() >= 2, "streams: {}", streams.len());
    }
}
