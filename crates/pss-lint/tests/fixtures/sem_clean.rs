//! Fixture: the false-positive guard. Everything here walks right up to a
//! semantic rule without crossing it — no-op exits, a load-bearing waiver,
//! delegated journaling, a certifier body, a mirrored codec pair, and a
//! correctly armed fault window. Must lint clean.

pub struct S {
    journal: Journal,
    poisoned: bool,
    n: u64,
}

impl S {
    pub fn try_insert(&mut self, w: u64) -> Result<u64, OpError> {
        fail_point(Site::InsertEntry).map_err(OpError::Fault)?;
        self.poisoned = true;
        self.n += 1;
        fail_point(Site::InsertCascade).map_err(OpError::Fault)?;
        self.journal.record(Delta::Inserted { w });
        self.poisoned = false;
        Ok(self.n)
    }

    pub fn set_weight(&mut self, h: u64, w: u64) -> Option<u64> {
        if h > self.n {
            return None; // provable no-op: stale handle
        }
        if w == 0 {
            // pss-lint: allow(journal-completeness) — zero-weight sets are refused upstream; nothing mutated
            return Some(h);
        }
        self.journal.record(Delta::Reweighted { h });
        Some(h)
    }

    pub fn write_snap(&self, w: &mut SnapshotWriter) {
        let mut enc = Enc::new();
        enc.put_u64(self.n);
        write_slab(&mut enc, self.n);
        for _ in 0..self.n {
            enc.put_raw(1);
        }
        w.section(TAG_CORE, enc);
    }

    pub fn read_snap(r: &mut SnapshotReader) -> S {
        let mut dec = r.section(TAG_CORE);
        let n = dec.get_u64();
        let slab = read_slab(&mut dec);
        let mut acc = 0;
        while acc < n {
            acc += dec.get_raw();
        }
        S { journal: Journal::new(), poisoned: false, n: slab }
    }
}

impl PssBackend for S {
    fn insert(&mut self, w: u64) -> u64 {
        match self.try_insert(w) {
            Ok(h) => h,
            Err(_) => 0,
        }
    }
}

fn write_slab(enc: &mut Enc, n: u64) {
    enc.put_u64(n);
}

fn read_slab(dec: &mut Dec) -> u64 {
    dec.get_u64()
}

pub fn spread(x: f64, y: f64) -> (f64, f64) {
    let q = x / y; // raw, but it reaches no decision
    (q.next_down(), q.next_up())
}

pub fn coin(rng: &mut SmallRng, bits: &Bits64) -> bool {
    ber_bits_with(rng, bits, |_, _| false)
}
