//! Consistent-hash placement: a virtual-node ring over worker ids.
//!
//! Design keys are already 128-bit content hashes (the `DesignCache`
//! fingerprint), so placement needs no coordination: every router
//! instance with the same worker list computes the same owner for a key.
//! Virtual nodes (64 per worker) smooth the load split, and the ring
//! order doubles as the retry order — when a worker is down or sheds
//! load, the next distinct worker clockwise is the natural second home
//! for the key, and it is the *same* second home every time, so retried
//! work still concentrates its cache footprint.

/// Virtual nodes per worker. 64 keeps the per-worker share within a few
/// percent of fair for fleets up to dozens of workers while the ring
/// stays small enough to binary-search in nanoseconds.
const VNODES: usize = 64;

/// FNV-1a, 64-bit: the ring's point hash. Matches the spirit of the
/// cache fingerprint (also FNV-family) without depending on its exact
/// constants — ring placement is router-internal, not a wire contract.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

/// Hash an inline-source submission to a stable 128-bit placement key,
/// so repeat submissions of the same text land on the same warm cache.
/// This is *not* the design's content fingerprint (that would require
/// parsing the module, which the router never does); the router learns
/// the real fingerprint from the worker's response and memoizes it.
pub fn source_key(source: &str, top: &str) -> u128 {
    let mut seed = Vec::with_capacity(top.len() + 1 + source.len());
    seed.extend_from_slice(top.as_bytes());
    seed.push(0);
    seed.extend_from_slice(source.as_bytes());
    let lo = fnv64(&seed);
    seed.push(1);
    let hi = fnv64(&seed);
    ((hi as u128) << 64) | lo as u128
}

/// The ring: sorted virtual-node points, each owned by a worker index.
pub struct Ring {
    /// `(point, worker)` sorted by point; ties broken by worker index at
    /// build time so iteration order is deterministic.
    points: Vec<(u64, usize)>,
    workers: usize,
}

impl Ring {
    /// Build the ring over `worker_ids.len()` workers. The points hash
    /// the worker *ids*, not their addresses, so a worker restarted on a
    /// new port keeps its ring share.
    pub fn new(worker_ids: &[String]) -> Ring {
        let mut points = Vec::with_capacity(worker_ids.len() * VNODES);
        for (index, id) in worker_ids.iter().enumerate() {
            for vnode in 0..VNODES {
                let point = fnv64(format!("{}#{}", id, vnode).as_bytes());
                points.push((point, index));
            }
        }
        points.sort_unstable();
        Ring {
            points,
            workers: worker_ids.len(),
        }
    }

    /// The number of workers on the ring.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Worker indexes in placement order for `key`: the owner first, then
    /// each next *distinct* worker clockwise. Every worker appears exactly
    /// once, so the caller can skip unhealthy candidates and keep going.
    pub fn candidates(&self, key: u128) -> Vec<usize> {
        if self.points.is_empty() {
            return Vec::new();
        }
        let point = fnv64(&key.to_be_bytes());
        let start = self.points.partition_point(|&(p, _)| p < point) % self.points.len();
        let mut seen = vec![false; self.workers];
        let mut order = Vec::with_capacity(self.workers);
        for offset in 0..self.points.len() {
            let (_, worker) = self.points[(start + offset) % self.points.len()];
            if !seen[worker] {
                seen[worker] = true;
                order.push(worker);
                if order.len() == self.workers {
                    break;
                }
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("w{}", i)).collect()
    }

    #[test]
    fn placement_is_deterministic_and_covers_every_worker() {
        let ring = Ring::new(&ids(5));
        for key in [0u128, 1, u128::MAX, 0xdead_beef] {
            let order = ring.candidates(key);
            assert_eq!(order.len(), 5);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
            assert_eq!(order, ring.candidates(key), "same key, same order");
        }
    }

    #[test]
    fn load_splits_roughly_evenly() {
        let ring = Ring::new(&ids(4));
        let mut counts = [0usize; 4];
        for i in 0..10_000u128 {
            counts[ring.candidates(i * 0x9e37_79b9_7f4a_7c15)[0]] += 1;
        }
        for &count in &counts {
            // Fair share is 2500; virtual nodes keep every worker within
            // a factor-of-two band (the property that matters — no worker
            // starves, none takes the bulk).
            assert!(
                (1_000..=5_000).contains(&count),
                "skewed split: {:?}",
                counts
            );
        }
    }

    #[test]
    fn removing_a_worker_only_moves_its_own_keys() {
        let five = Ring::new(&ids(5));
        // Simulate worker 4 going down: the caller skips it and takes the
        // next candidate. Keys owned by 0..=3 must not move.
        for i in 0..1_000u128 {
            let key = i * 0x1234_5678_9abc_def1;
            let order = five.candidates(key);
            if order[0] != 4 {
                let fallback: Vec<usize> = order.iter().copied().filter(|&w| w != 4).collect();
                assert_eq!(order[0], fallback[0], "stable keys moved");
            }
        }
    }

    #[test]
    fn source_keys_are_stable_and_distinct() {
        let a = source_key("proc @p ...", "p");
        assert_eq!(a, source_key("proc @p ...", "p"));
        assert_ne!(a, source_key("proc @p ...", "q"));
        assert_ne!(a, source_key("proc @q ...", "p"));
    }
}
