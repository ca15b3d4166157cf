//! The host-speed reference: a fixed computation of the benchmark's own,
//! timed just before every measured operation.
//!
//! The benchmark runs on a few cores of a shared host whose speed wanders
//! by a fifth within seconds and by more over minutes, so the wall time of
//! the same work moves between runs for reasons outside the program. The
//! reference moves with the host and not with the program: it calls no
//! code of the repository, allocates nothing while timed, and hashes and
//! combines bit rows much as the search does. Each operation keeps the
//! fastest of its runs and the fastest reference timed before them, and a
//! run's times are scaled by [`NOMINAL_S`] over the mean of those fastest
//! references: the times the run would have shown on a host running the
//! reference in [`NOMINAL_S`].

use std::hint::black_box;
use std::time::Instant;

/// The reference's fastest time on an otherwise idle 2-vCPU Xeon KVM guest,
/// in seconds: the host speed that normalised times are expressed at.
pub const NOMINAL_S: f64 = 80e-6;

/// Distinct rows one run of the reference builds.
const ROWS: usize = 3000;

/// Slots of its open-addressing table (a power of two).
const SLOTS: usize = 8192;

/// The reference computation with its memory, allocated once.
pub struct Reference {
    rows: Vec<[u64; 4]>,
    /// Row index + 1 per slot, 0 when empty.
    slots: Vec<u32>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            rows: Vec::with_capacity(ROWS),
            slots: vec![0; SLOTS],
        }
    }
}

impl Reference {
    /// Runs the reference once and returns its wall time in seconds. It
    /// grows a set of distinct 256-bit rows from two seeds by combining
    /// seeded pairs of earlier rows, deduplicated through a hash table.
    pub fn time(&mut self) -> f64 {
        let started = Instant::now();
        self.rows.clear();
        self.slots.fill(0);
        for seed in [
            [0x5555_5555_5555_5555, 0x3333, 0x0f0f, 1],
            [!0 << 1, 0xcccc, 0xf0f0, 2],
        ] {
            self.insert(seed);
        }
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        while self.rows.len() < ROWS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let a = self.rows[(x as usize) % self.rows.len()];
            let b = self.rows[((x >> 32) as usize) % self.rows.len()];
            let mut row = [0u64; 4];
            for (k, word) in row.iter_mut().enumerate() {
                *word = match x >> 62 {
                    0 => a[k] | b[k],
                    1 => a[k] & !b[k] | (b[k] << 1),
                    2 => a[k] ^ b[k].rotate_left(k as u32 + 1),
                    _ => (a[k] | b[k] >> 3) ^ x,
                };
            }
            self.insert(row);
        }
        black_box(&self.rows);
        started.elapsed().as_secs_f64()
    }

    /// Adds `row` unless it is already present.
    fn insert(&mut self, row: [u64; 4]) {
        let hash = row.iter().fold(0u64, |h, w| {
            (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95)
        });
        let mut slot = (hash >> 40) as usize & (SLOTS - 1);
        loop {
            match self.slots[slot] {
                0 => {
                    self.rows.push(row);
                    self.slots[slot] = self.rows.len() as u32;
                    return;
                }
                taken if self.rows[taken as usize - 1] == row => return,
                _ => slot = (slot + 1) & (SLOTS - 1),
            }
        }
    }
}

/// The factor that expresses a run's times at the nominal host speed:
/// [`NOMINAL_S`] over the mean of `fastest`, each operation's fastest
/// reference time in seconds. Above 1 on a host faster than nominal.
pub fn host_factor(fastest: &[f64]) -> f64 {
    let mean = fastest.iter().sum::<f64>() / fastest.len().max(1) as f64;
    if mean > 0.0 {
        NOMINAL_S / mean
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_builds_its_rows_every_time() {
        let mut reference = Reference::default();
        for _ in 0..3 {
            assert!(reference.time() > 0.0);
            assert_eq!(reference.rows.len(), ROWS);
            let mut sorted = reference.rows.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), ROWS, "rows are distinct");
        }
    }

    #[test]
    fn a_slower_host_scales_times_down() {
        assert_eq!(host_factor(&[NOMINAL_S, NOMINAL_S]), 1.0);
        assert!((host_factor(&[2.0 * NOMINAL_S]) - 0.5).abs() < 1e-12);
        assert_eq!(host_factor(&[]), 1.0);
    }
}
