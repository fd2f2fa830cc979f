//! Fixed fibonacci-hash key routing for the sharded KV backend.
//!
//! The sharded store splits one hot lock pair into N independent
//! pairs, which only helps if keys spread across shards no matter how
//! the client picks them — sequential IDs, strided IDs, and xorshift
//! streams must all fan out. Routing is **fibonacci hashing**
//! (Knuth's multiplicative method): multiply the key by
//! 2⁶⁴/φ rounded to odd ([`FIB_HASH_MULT`]), which diffuses
//! low-entropy input bits into the high bits, then map the full hash
//! onto `0..shards` with a multiply-shift (no modulo bias, works for
//! any shard count, not just powers of two).
//!
//! The routing is **fixed**: a key's shard depends only on the key
//! and the shard count. There is no rebalancing and no directory —
//! changing the shard count reshuffles almost every key, so a store's
//! shard count is chosen at construction and never changes.

/// 2⁶⁴ divided by the golden ratio, rounded to the nearest odd
/// integer — the classic fibonacci-hashing multiplier.
pub const FIB_HASH_MULT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Maps keys onto a fixed number of shards.
///
/// # Examples
///
/// ```
/// use malthus_storage::ShardRouter;
///
/// let router = ShardRouter::new(4);
/// // Sequential keys do not pile onto one shard.
/// let shards: Vec<usize> = (0..8u64).map(|k| router.route(k)).collect();
/// assert!(shards.iter().any(|&s| s != shards[0]));
/// // Routing is a pure function of (key, shard count).
/// assert_eq!(router.route(42), ShardRouter::new(4).route(42));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shards: usize,
}

impl ShardRouter {
    /// A router over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "a sharded store needs at least one shard");
        ShardRouter { shards }
    }

    /// The shard count this router was built for.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard index of `key`, in `0..shards`.
    #[inline]
    pub fn route(&self, key: u64) -> usize {
        let h = key.wrapping_mul(FIB_HASH_MULT);
        // Multiply-shift range reduction: the high 64 bits of
        // h * shards are uniform over 0..shards for uniform h.
        ((u128::from(h) * self.shards as u128) >> 64) as usize
    }

    /// Groups the *indices* of `keys` by destination shard: entry `s`
    /// holds the positions in `keys` routed to shard `s`, in input
    /// order.
    ///
    /// The *reference* partition: nothing in the store calls it —
    /// [`ShardedKv`](crate::ShardedKv)'s one executor groups with a
    /// counting sort into reused scratch — but that sort is tested
    /// against this, and the benchmark's router probe times it.
    pub fn group_indices(&self, keys: impl IntoIterator<Item = u64>) -> Vec<Vec<usize>> {
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.shards];
        for (i, key) in keys.into_iter().enumerate() {
            groups[self.route(key)].push(i);
        }
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_are_in_range_and_deterministic() {
        for shards in [1usize, 2, 3, 4, 7, 16] {
            let r = ShardRouter::new(shards);
            for key in (0..1_000u64).chain([u64::MAX, u64::MAX / 2]) {
                let s = r.route(key);
                assert!(s < shards, "key {key} -> {s} of {shards}");
                assert_eq!(s, r.route(key), "routing must be stable");
            }
        }
    }

    #[test]
    fn single_shard_routes_everything_to_zero() {
        let r = ShardRouter::new(1);
        for key in [0u64, 1, 99, u64::MAX] {
            assert_eq!(r.route(key), 0);
        }
    }

    #[test]
    fn sequential_keys_spread_evenly() {
        // The distribution bound the integration tests rely on:
        // under uniform (here: sequential, the worst low-entropy
        // case) keys, no shard receives more than 2x the mean.
        for shards in [2usize, 4, 8] {
            let r = ShardRouter::new(shards);
            let mut counts = vec![0u64; shards];
            let n = 10_000u64;
            for key in 0..n {
                counts[r.route(key)] += 1;
            }
            let mean = n as f64 / shards as f64;
            for (s, &c) in counts.iter().enumerate() {
                assert!(
                    (c as f64) < 2.0 * mean,
                    "shard {s} got {c} of {n} ({shards} shards)"
                );
                assert!(c > 0, "shard {s} starved");
            }
        }
    }

    #[test]
    fn strided_keys_spread_too() {
        // Strides defeat naive modulo routing (stride 4 mod 4 pins
        // one shard); the fibonacci multiplier must break them up.
        let r = ShardRouter::new(4);
        let mut counts = [0u64; 4];
        for i in 0..4_000u64 {
            counts[r.route(i * 4)] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(c > 400, "shard {s} got {c} of 4000 under stride 4");
        }
    }

    #[test]
    fn group_indices_partitions_in_input_order() {
        let r = ShardRouter::new(3);
        let keys = [5u64, 17, 5, 900, 42];
        let groups = r.group_indices(keys.iter().copied());
        assert_eq!(groups.len(), 3);
        let mut seen: Vec<usize> = groups.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4], "every index exactly once");
        for (shard, group) in groups.iter().enumerate() {
            for &i in group {
                assert_eq!(r.route(keys[i]), shard);
            }
            assert!(group.windows(2).all(|w| w[0] < w[1]), "input order kept");
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        ShardRouter::new(0);
    }
}
