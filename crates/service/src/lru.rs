// ma-lint: allow-file(panic-safety) reason="intrusive LRU slots are validated indices into its own arena"
//! A bounded LRU map.
//!
//! Safe-code doubly-linked list over a slab of nodes (indices instead of
//! pointers), with a `HashMap` for key lookup. Used by each shard of the
//! shared API cache; not thread-safe on its own — shards wrap it in a
//! mutex.

use std::collections::HashMap;
use std::hash::Hash;

const NONE: usize = usize::MAX;

struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A map that holds at most `capacity` entries, evicting the least
/// recently used (read or written) entry on overflow.
pub struct LruCache<K, V> {
    map: HashMap<K, usize>,
    nodes: Vec<Node<K, V>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// A cache evicting beyond `capacity` entries (capacity 0 stores
    /// nothing and every `get` misses).
    pub fn new(capacity: usize) -> Self {
        LruCache {
            map: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NONE,
            tail: NONE,
            capacity,
        }
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether `key` is live, without marking it used: the LRU order is
    /// left as it was.
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Looks up `key`, marking the entry most recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let idx = *self.map.get(key)?;
        self.detach(idx);
        self.attach_front(idx);
        Some(&self.nodes[idx].value)
    }

    /// Inserts or replaces `key`, marking it most recently used. Returns
    /// `true` when an older entry was evicted to make room.
    pub fn insert(&mut self, key: K, value: V) -> bool {
        if self.capacity == 0 {
            return false;
        }
        if let Some(&idx) = self.map.get(&key) {
            self.nodes[idx].value = value;
            self.detach(idx);
            self.attach_front(idx);
            return false;
        }
        let mut evicted = false;
        if self.map.len() == self.capacity {
            let lru = self.tail;
            debug_assert_ne!(lru, NONE, "full cache has a tail");
            self.detach(lru);
            self.map.remove(&self.nodes[lru].key);
            self.free.push(lru);
            evicted = true;
        }
        let idx = match self.free.pop() {
            Some(idx) => {
                self.nodes[idx] = Node {
                    key: key.clone(),
                    value,
                    prev: NONE,
                    next: NONE,
                };
                idx
            }
            None => {
                self.nodes.push(Node {
                    key: key.clone(),
                    value,
                    prev: NONE,
                    next: NONE,
                });
                self.nodes.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.attach_front(idx);
        evicted
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NONE {
            self.nodes[prev].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NONE {
            self.nodes[next].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        self.nodes[idx].prev = NONE;
        self.nodes[idx].next = NONE;
    }

    fn attach_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NONE;
        self.nodes[idx].next = self.head;
        if self.head != NONE {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NONE {
            self.tail = idx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        assert!(!c.insert("a", 1));
        assert!(!c.insert("b", 2));
        assert_eq!(c.get(&"a"), Some(&1)); // "a" is now most recent
        assert!(c.insert("c", 3), "capacity 2 evicts");
        assert_eq!(c.get(&"b"), None, "b was the LRU");
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"c"), Some(&3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn replace_does_not_evict() {
        let mut c = LruCache::new(2);
        c.insert(1u32, "x");
        c.insert(2u32, "y");
        assert!(!c.insert(1u32, "z"), "replacement needs no eviction");
        assert_eq!(c.get(&1), Some(&"z"));
        assert_eq!(c.get(&2), Some(&"y"));
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let mut c = LruCache::new(0);
        assert!(!c.insert(1u8, 1u8));
        assert_eq!(c.get(&1), None);
        assert!(c.is_empty());
    }

    #[test]
    fn single_slot_cycles() {
        let mut c = LruCache::new(1);
        for i in 0..10u32 {
            c.insert(i, i * 2);
            assert_eq!(c.len(), 1);
            assert_eq!(c.get(&i), Some(&(i * 2)));
            if i > 0 {
                assert_eq!(c.get(&(i - 1)), None);
            }
        }
    }

    #[test]
    fn slab_reuses_freed_slots() {
        let mut c = LruCache::new(3);
        for i in 0..100u32 {
            c.insert(i, i);
        }
        assert_eq!(c.len(), 3);
        // Evicted slots are recycled, so the slab never outgrows capacity.
        assert_eq!(c.nodes.len(), 3);
        for i in 97..100u32 {
            assert_eq!(c.get(&i), Some(&i));
        }
    }
}
