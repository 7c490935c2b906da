//! The one eviction rule under every bounded cache: [`trim_to_capacity`].

use std::collections::HashMap;
use std::hash::Hash;

/// Remove the highest-scoring entries of `map` until at most `capacity`
/// remain, and return them in eviction order. A cache states its
/// eviction policy as `score`, a per-entry victim score.
///
/// `score` returns `None` for an entry that must not be evicted (for
/// example the key a caller just inserted); such entries stay even when
/// the map is left over `capacity`. Ties between equal scores go to an
/// arbitrary entry, so a caller that needs a deterministic choice ends
/// its score with the key.
///
/// The call is a no-op at or under capacity. Over it, each victim costs
/// one scan of the map, so callers trim right after the insert that
/// overflowed and the loop usually runs once.
pub fn trim_to_capacity<K, V, S, F>(
    map: &mut HashMap<K, V>,
    capacity: usize,
    mut score: F,
) -> Vec<(K, V)>
where
    K: Eq + Hash + Clone,
    S: Ord,
    F: FnMut(&K, &V) -> Option<S>,
{
    let mut victims = Vec::new();
    while map.len() > capacity {
        let victim = map
            .iter()
            .filter_map(|(k, v)| score(k, v).map(|s| (s, k)))
            .max_by(|a, b| a.0.cmp(&b.0))
            .map(|(_, k)| k.clone());
        let Some(key) = victim else { break };
        victims.extend(map.remove_entry(&key));
    }
    victims
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map_of(n: u32) -> HashMap<u32, u32> {
        (0..n).map(|k| (k, k * 10)).collect()
    }

    #[test]
    fn at_or_under_capacity_is_a_no_op() {
        for n in [0, 3, 4] {
            let mut map = map_of(n);
            let mut scored = 0;
            let victims = trim_to_capacity(&mut map, 4, |_, _| {
                scored += 1;
                Some(0)
            });
            assert!(victims.is_empty());
            assert_eq!(map.len() as u32, n);
            assert_eq!(scored, 0, "no entry is scored when the map fits");
        }
    }

    #[test]
    fn highest_score_goes_first_and_every_victim_is_returned() {
        let mut map = map_of(8);
        let victims = trim_to_capacity(&mut map, 5, |&k, _| Some(k));
        assert_eq!(victims, vec![(7, 70), (6, 60), (5, 50)]);
        let mut left: Vec<u32> = map.into_keys().collect();
        left.sort_unstable();
        assert_eq!(left, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn unevictable_entries_stay_even_past_capacity() {
        let mut map = map_of(6);
        // Only the even keys may go, highest first.
        let victims = trim_to_capacity(&mut map, 4, |&k, _| (k % 2 == 0).then_some(k));
        assert_eq!(victims, vec![(4, 40), (2, 20)]);
        // Past the last evictable entry the map stays over capacity.
        let victims = trim_to_capacity(&mut map, 1, |&k, _| (k % 2 == 0).then_some(k));
        assert_eq!(victims, vec![(0, 0)]);
        let mut left: Vec<u32> = map.into_keys().collect();
        left.sort_unstable();
        assert_eq!(left, vec![1, 3, 5]);
    }
}
