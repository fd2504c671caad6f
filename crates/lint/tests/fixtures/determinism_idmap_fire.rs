// Fixture: iteration over the id-hashed aliases feeding estimator arithmetic.
use microblog_platform::{IdMap, IdSet, UserId};

struct Estimator {
    exact_up: IdMap<UserId, f64>,
}

impl Estimator {
    fn total(&self) -> f64 {
        let mut total = 0.0;
        for p in self.exact_up.values() {
            total += p;
        }
        total
    }

    fn first_visited(&self) -> Option<UserId> {
        let visited: IdSet<UserId> = IdSet::default();
        for u in visited {
            return Some(u);
        }
        None
    }

    fn lookups_are_fine(&self, u: UserId) -> Option<f64> {
        // Point lookups don't depend on order: must NOT be flagged.
        self.exact_up.get(&u).copied()
    }
}
