//! Fixture: CFG/dataflow stress. Labeled loops, `continue`, `break 'label`,
//! `while let`, `?`, early `return Err`, nested match — all paths to the ok
//! exit still record, and the float lattice survives the loop meets. Must
//! lint clean.

pub struct S {
    journal: Journal,
    n: u64,
}

impl S {
    pub fn mutate(&mut self, xs: &[u64]) -> Result<u64, OpError> {
        let mut acc = 0;
        'outer: for &x in xs {
            if x == 0 {
                continue;
            }
            let mut k = x;
            while k > 1 {
                k -= 1;
                if k == 7 {
                    break 'outer;
                }
            }
            acc += k;
        }
        let mut stack = vec![acc];
        while let Some(top) = stack.pop() {
            if top > self.n {
                return Err(OpError::TooBig);
            }
        }
        let v = match acc {
            0 => return Err(OpError::Empty),
            1 => self.checked(acc)?,
            other => other,
        };
        self.journal.record(Delta::Reweighted { v });
        Ok(v)
    }

    pub fn plan(&self, ws: &[f64]) -> f64 {
        let mut best = 0.0;
        for &w in ws {
            let score = w.min(0.5);
            if score > best {
                best = score;
            }
        }
        best
    }
}
