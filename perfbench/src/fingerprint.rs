//! Result fingerprints and the golden table recorded with the benchmark.
//!
//! A fingerprint is FNV-1a (64-bit) over the `Debug` rendering of a
//! simulated result. `Debug` prints every `f64` in its shortest
//! round-trip form, so two results hash equal only if every float is
//! bitwise equal (up to NaN payloads), which is the repository's
//! determinism contract.

use std::fmt::{self, Debug, Write};

/// Streaming FNV-1a hasher that is also a `fmt::Write` sink, so a value's
/// `Debug` output is hashed without materialising the string.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn debug<T: Debug + ?Sized>(&mut self, v: &T) {
        write!(self, "{v:?}").expect("hashing never fails");
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// Golden fingerprints recorded at the commit that introduced the
/// benchmark, one `<workload> <seed> <hex>` line each. A `*` seed stands
/// for every seed not listed: the workload's result does not depend on
/// its seed.
const GOLDEN: &str = include_str!("../golden.txt");

/// The recorded fingerprint for `(workload, seed)`, if the table has one.
pub fn golden(workload: &str, seed: u64) -> Option<u64> {
    let lookup = |want: &str| {
        GOLDEN.lines().find_map(|line| {
            let mut it = line.split_whitespace();
            let (w, s, fp) = (it.next()?, it.next()?, it.next()?);
            (w == workload && s == want).then(|| u64::from_str_radix(fp, 16).ok())?
        })
    };
    lookup(&seed.to_string()).or_else(|| lookup("*"))
}
