//! Output checks: every op and invariant counts as attempted, and any
//! error or wrong result counts as failed instead of aborting the run.

/// Messages kept for the report; later failures are only counted.
const KEPT: usize = 20;

#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Checks {
    /// Counts one checked op or invariant.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Counts one op's outcome; an error is a failure.
    pub fn ok<T, E: std::fmt::Display>(&mut self, r: Result<T, E>, what: &str) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.problems.len() < KEPT {
            self.problems.push(msg);
        }
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        for p in other.problems {
            if self.problems.len() < KEPT {
                self.problems.push(p);
            }
        }
        self.failed += other.failed;
    }
}
