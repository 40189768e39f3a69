//! A consistent-hash ring over named cluster members.
//!
//! The coordinator partitions a sweep's duty points across workers by
//! hashing each point's key onto the ring and walking clockwise to the
//! first virtual node. Virtual nodes (many hash points per member)
//! smooth the distribution: with the default [`DEFAULT_VNODES`] per
//! member, every member owns close to its fair share of the key space,
//! and adding or removing one member only remaps the keys that member
//! owned (roughly `K/n` of `K` keys over `n` members) — every other
//! key keeps its owner, which is what keeps shard reassignment after a
//! worker death from reshuffling the shards of the survivors.
//!
//! The hash is FNV-1a 64-bit ([`ecripse_stats::fnv1a`], the hash the rest
//! of the workspace uses for fingerprints) pushed through a 64-bit
//! avalanche finaliser — raw FNV-1a has weak high-bit diffusion, and
//! vnode labels differ in only a character or two, which clusters the
//! ring badly without the mix. No RNG anywhere: the ring is a pure
//! function of the member names, so two coordinators (or the same
//! coordinator across restarts) agree on every assignment.

use ecripse_stats::{fnv1a, FNV_OFFSET};

/// Virtual nodes per member. 128 keeps the worst member within ~2× of
/// the ideal share for realistic cluster sizes (see the property
/// tests) while ring construction stays trivially cheap.
pub const DEFAULT_VNODES: usize = 128;

/// FNV-1a 64-bit over raw bytes, finished with a murmur-style 64-bit
/// avalanche mix. The mix matters: neighbouring labels (`w|17` vs
/// `w|18`) must land far apart on the ring, and plain FNV-1a leaves
/// them correlated.
fn ring_hash(bytes: &[u8]) -> u64 {
    let mut hash = fnv1a(FNV_OFFSET, bytes);
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xff51_afd7_ed55_8ccd);
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    hash ^ (hash >> 33)
}

/// A consistent-hash ring: sorted virtual-node hash points, each
/// mapping back to the member that owns it.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(hash, member index)` sorted by hash.
    points: Vec<(u64, usize)>,
    /// Member names, in the order given to [`HashRing::new`].
    members: Vec<String>,
}

impl HashRing {
    /// Builds a ring over `members` with [`DEFAULT_VNODES`] virtual
    /// nodes each. Duplicate names collapse onto the same hash points,
    /// so they behave as one member.
    pub fn new<S: AsRef<str>>(members: &[S]) -> Self {
        Self::with_vnodes(members, DEFAULT_VNODES)
    }

    /// Builds a ring with an explicit virtual-node count (≥ 1).
    pub fn with_vnodes<S: AsRef<str>>(members: &[S], vnodes: usize) -> Self {
        let vnodes = vnodes.max(1);
        let members: Vec<String> = members.iter().map(|m| m.as_ref().to_string()).collect();
        let mut points = Vec::with_capacity(members.len() * vnodes);
        for (index, member) in members.iter().enumerate() {
            for vnode in 0..vnodes {
                let label = format!("{member}|{vnode}");
                points.push((ring_hash(label.as_bytes()), index));
            }
        }
        // Ties (astronomically unlikely with 64-bit FNV, but cheap to
        // pin down) break towards the earlier member, deterministically.
        points.sort_unstable();
        Self { points, members }
    }

    /// Whether the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// The member names the ring was built over.
    pub fn members(&self) -> &[String] {
        &self.members
    }

    /// The member owning `key`: the first virtual node at or clockwise
    /// after the key's hash, wrapping around the ring. `None` on an
    /// empty ring.
    pub fn owner(&self, key: &str) -> Option<&str> {
        if self.points.is_empty() {
            return None;
        }
        let hash = ring_hash(key.as_bytes());
        let position = self.points.partition_point(|&(point, _)| point < hash);
        let (_, index) = self.points[position % self.points.len()];
        Some(&self.members[index])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ownership_is_deterministic_and_total() {
        let ring = HashRing::new(&["a", "b", "c"]);
        for key in ["job-1/point-0", "job-1/point-1", "x", ""] {
            let first = ring.owner(key).expect("non-empty ring owns every key");
            let second = ring.owner(key).expect("owner");
            assert_eq!(first, second);
            assert!(ring.members().iter().any(|m| m == first));
        }
        assert!(HashRing::new::<&str>(&[]).owner("anything").is_none());
    }

    #[test]
    fn single_member_owns_everything() {
        let ring = HashRing::new(&["only"]);
        for i in 0..64 {
            assert_eq!(ring.owner(&format!("key-{i}")), Some("only"));
        }
    }

    #[test]
    fn removal_only_remaps_the_removed_members_keys() {
        let full = HashRing::new(&["a", "b", "c", "d"]);
        let without_c = HashRing::new(&["a", "b", "d"]);
        for i in 0..512 {
            let key = format!("key-{i}");
            let before = full.owner(&key).expect("owner");
            if before != "c" {
                assert_eq!(
                    without_c.owner(&key),
                    Some(before),
                    "key {key} moved although its owner survived"
                );
            }
        }
    }
}
