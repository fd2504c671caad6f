// Fixture: id-hashed iteration whose order provably cannot reach an output.
use microblog_platform::{IdSet, UserId};

struct Crawl {
    visited: IdSet<UserId>,
}

impl Crawl {
    fn snapshot(&self) -> Vec<UserId> {
        // ma-lint: allow(determinism) reason="collected then sorted on the next line"
        let mut visited: Vec<UserId> = self.visited.iter().copied().collect();
        visited.sort_unstable_by_key(|u| u.0);
        visited
    }
}
