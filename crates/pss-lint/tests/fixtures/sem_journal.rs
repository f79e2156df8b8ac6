//! Fixture: journal-completeness. One uncovered exit in an infallible and
//! one in a fallible mutator; delegation through `try_insert` keeps
//! `insert` clean, proving the closure works, and `try_delete`'s
//! stale-handle `Ok(false)` is a no-op exit.

pub struct S {
    journal: Journal,
    live: u64,
}

impl S {
    pub fn try_insert(&mut self, w: u64) -> Result<u64, OpError> {
        self.live += 1;
        self.journal.record(Delta::Inserted { w });
        Ok(self.live)
    }
}

impl PssBackend for S {
    fn insert(&mut self, w: u64) -> u64 {
        match self.try_insert(w) {
            Ok(h) => h,
            Err(_) => 0,
        }
    }

    fn delete(&mut self, h: u64) -> bool {
        if self.live == h {
            self.live -= 1;
            return true; // exits a journaled mutator without recording
        }
        false
    }

    fn try_delete(&mut self, h: u64) -> Result<bool, OpError> {
        if self.live != h {
            return Ok(false);
        }
        self.live -= 1;
        Ok(true) // a fallible mutator's exit without a record
    }
}
