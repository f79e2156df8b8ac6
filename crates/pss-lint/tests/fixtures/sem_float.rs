//! Fixture: float-taint. A raw f64 quotient reaches a coin; the twin on an
//! f64 parameter stays clean, and a `*_f64_bounds` name exempts no body.

pub fn biased_coin(rng: &mut SmallRng, w: f64) -> bool {
    let p = w / 2.0;
    rng.gen_bool(p) // tainted probability feeds a coin
}

pub fn certified_coin(rng: &mut SmallRng, p: f64) -> bool {
    rng.gen_bool(p)
}

pub fn ratio_f64_bounds(x: f64, y: f64) -> (f64, f64) {
    let q = x / y;
    if q > 1.0 {
        return (1.0, 1.0); // the comparison above is raw, whatever the name
    }
    (q.next_down(), q.next_up())
}
