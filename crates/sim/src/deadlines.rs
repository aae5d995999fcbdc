//! One per-instance timer index: the earliest of a set of keyed
//! deadlines, and which keys are due. A CAB keeps one for its threads'
//! sleeps and timeouts and one per family of protocol instances (TCP
//! sockets, RMP channels, request-response clients); DESIGN.md §9.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// The armed deadlines of a set of keys. Deletion is lazy: re-arming a
/// key pushes a fresh `(deadline, key)` entry, and an entry counts only
/// while it equals its key's current deadline.
#[derive(Debug, Default)]
pub struct Deadlines<K> {
    /// Each armed key's current deadline, in key order: a CAB arms tens
    /// of keys at most, where a sorted `Vec` beats a tree.
    due: Vec<(K, SimTime)>,
    /// Never stale on top, so the top is the earliest deadline.
    heap: BinaryHeap<Reverse<(SimTime, K)>>,
}

impl<K: Ord + Copy> Deadlines<K> {
    /// An empty index; allocates nothing until a key is armed.
    pub fn new() -> Self {
        Deadlines { due: Vec::new(), heap: BinaryHeap::new() }
    }

    /// Arm `key` for `at`, or disarm it with `None`. Re-setting the
    /// deadline a key already has costs one search.
    pub fn set(&mut self, key: K, at: Option<SimTime>) {
        let old = match (self.find(key), at) {
            (Ok(i), Some(at)) => Some(std::mem::replace(&mut self.due[i].1, at)),
            (Ok(i), None) => Some(self.due.remove(i).1),
            (Err(i), Some(at)) => {
                self.due.insert(i, (key, at));
                None
            }
            (Err(_), None) => None,
        };
        if old == at {
            return;
        }
        if let Some(at) = at {
            self.heap.push(Reverse((at, key)));
        }
        // at most `2·live + 16` entries, so the heap stays O(keys): the
        // live entries are exactly the armed deadlines
        if self.heap.len() > 2 * self.due.len() + 16 {
            let mut entries = std::mem::take(&mut self.heap).into_vec();
            entries.clear();
            entries.extend(self.due.iter().map(|&(key, at)| Reverse((at, key))));
            self.heap = entries.into();
        }
        // and never a stale entry on top
        while let Some(&Reverse((at, key))) = self.heap.peek() {
            if self.find(key).is_ok_and(|i| self.due[i].1 == at) {
                break;
            }
            self.heap.pop();
        }
    }

    /// The earliest armed deadline.
    pub fn peek(&self) -> Option<SimTime> {
        self.heap.peek().map(|&Reverse((at, _))| at)
    }

    /// Disarm and return the key with the earliest deadline at or
    /// before `now`; ties go to the smallest key.
    pub fn pop_due(&mut self, now: SimTime) -> Option<K> {
        let &Reverse((_, key)) = self.heap.peek().filter(|&&Reverse((at, _))| at <= now)?;
        self.set(key, None);
        Some(key)
    }

    /// True when no key is armed.
    pub fn is_empty(&self) -> bool {
        self.due.is_empty()
    }

    fn find(&self, key: K) -> Result<usize, usize> {
        self.due.binary_search_by(|&(k, _)| k.cmp(&key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::cases;
    use std::collections::BTreeMap;

    /// Random operations on up to 40 keys against a map of each key's
    /// deadline: every answer matches the model, due keys pop in
    /// `(deadline, key)` order, and the heap stays within its bound —
    /// including on the pushes that met it and had to compact.
    #[test]
    fn matches_a_map_model() {
        let ns = SimTime::from_nanos;
        let mut compactions = 0;
        cases(48, |g| {
            let keys = g.usize_in(1, 41) as u16;
            let mut d = Deadlines::new();
            let mut model: BTreeMap<u16, u64> = BTreeMap::new();
            let mut now = 0;
            for _ in 0..2000 {
                let op = g.usize_in(0, 8);
                if op == 7 {
                    now += g.usize_in(0, 16) as u64;
                    let mut due: Vec<(u64, u16)> =
                        model.iter().filter(|&(_, &t)| t <= now).map(|(&k, &t)| (t, k)).collect();
                    due.sort_unstable();
                    for (t, k) in due {
                        assert_eq!(d.peek(), Some(ns(t)));
                        assert_eq!(d.pop_due(ns(now)), Some(k));
                        model.remove(&k);
                    }
                    assert_eq!(d.pop_due(ns(now)), None);
                } else {
                    let key = g.usize_in(0, keys as usize) as u16;
                    let old = model.get(&key).copied();
                    let at = match (op, old) {
                        // the same, an earlier or a later deadline
                        (0, Some(old)) => Some(old),
                        (1, Some(old)) => Some(old.saturating_sub(1).max(now)),
                        (2, Some(old)) => Some(old + 1),
                        (3, _) => None,
                        // a first arm, or a re-arm after a pop
                        _ => Some(now + g.usize_in(0, 64) as u64),
                    };
                    let before = d.heap.len();
                    d.set(key, at.map(ns));
                    match at {
                        Some(t) => model.insert(key, t),
                        None => model.remove(&key),
                    };
                    let pushed = at.is_some() && at != old;
                    compactions += usize::from(pushed && before + 1 > 2 * model.len() + 16);
                }
                assert_eq!(d.peek(), model.values().min().copied().map(ns));
                assert_eq!(d.is_empty(), model.is_empty());
                let bound = 2 * model.len() + 16;
                assert!(d.heap.len() <= bound, "{} entries for {} keys", d.heap.len(), model.len());
            }
        });
        assert!(compactions > 0, "no case reached the compaction bound");
    }

    #[test]
    fn new_allocates_nothing() {
        let d: Deadlines<u32> = Deadlines::new();
        assert_eq!((d.heap.capacity(), d.due.capacity()), (0, 0));
        assert!(d.is_empty() && d.peek().is_none());
    }
}
