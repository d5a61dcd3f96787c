//! A memo table bounded by a byte budget.
//!
//! [`BoundedMap`] holds entries whose charges (bytes, as the caller counts
//! them) sum to at most a budget fixed at construction.  While an insert's
//! charge fits beside those held, the map admits it.  At the budget it
//! admits a key only on its second touch: a key's first insert there is
//! refused and recorded in a doorkeeper bitset over the key's 64-bit
//! [`Fingerprint`], and the key is admitted when it comes again.  So a
//! sweep whose keys never repeat stops growing the map at the budget, and
//! never displaces the entries its callers hit.
//!
//! An admitted key makes room by CLOCK.  Entries sit on a ring in
//! admission order, and a hit sets an entry's reference bit.  The hand, at
//! the ring's front, clears a set bit (moving that entry to the back,
//! where the hand reaches it last) and evicts an unreferenced entry, until
//! the new charge fits.
//!
//! Nothing is allocated at budget size up front: a map that never fills
//! costs what a `HashMap` of its entries does, and the doorkeeper's 8 KiB
//! are allocated on the first refusal.  A hit allocates nothing.  The map
//! takes no lock; each caller keeps its own `Mutex` around it.
//!
//! The map's index, like the model memos', hashes with [`WordHash`],
//! which takes a quarter to a third of SipHash's time on these keys.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, Hash, Hasher, RandomState};
use std::sync::OnceLock;

/// A key with a platform-stable 64-bit hash, which the doorkeeper records.
pub trait Fingerprint {
    /// The key's 64-bit fingerprint: equal keys give equal fingerprints.
    fn fingerprint(&self) -> u64;
}

/// The hasher of the in-process memo maps, whose keys are a few integer
/// words.  Each word is rotated in, XORed and multiplied, as FxHash does,
/// and [`Hasher::finish`] ends with a final mix, so every bit of the hash
/// depends on every word.  [`WordHash::default`] takes a seed drawn once
/// per process from [`RandomState`], so a client cannot aim its keys at
/// one bucket; [`WordHash::with_seed`] gives a hash that is the same from
/// run to run.  Not a fingerprint: the hash of a value is free to change
/// between builds.
#[derive(Debug, Clone, Copy)]
pub struct WordHash {
    seed: u64,
}

impl WordHash {
    /// A builder whose hashes depend only on the values hashed and `seed`.
    #[must_use]
    pub const fn with_seed(seed: u64) -> Self {
        Self { seed }
    }
}

impl Default for WordHash {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        Self::with_seed(*SEED.get_or_init(|| RandomState::new().hash_one(0u64)))
    }
}

impl BuildHasher for WordHash {
    type Hasher = WordHasher;

    fn build_hasher(&self) -> WordHasher {
        WordHasher(self.seed)
    }
}

/// The [`Hasher`] a [`WordHash`] builds.
#[derive(Debug, Clone)]
pub struct WordHasher(u64);

impl WordHasher {
    fn word(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.word(i.into());
    }

    fn write_u32(&mut self, i: u32) {
        self.word(i.into());
    }

    fn write_u64(&mut self, i: u64) {
        self.word(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.word(i as u64);
    }

    fn finish(&self) -> u64 {
        // MurmurHash3's 64-bit finalizer.
        let mut hash = self.0;
        hash = (hash ^ hash >> 33).wrapping_mul(0xff51_afd7_ed55_8ccd);
        hash = (hash ^ hash >> 33).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        hash ^ hash >> 33
    }
}

/// A map that holds at most a byte budget of entries; see the module docs.
#[derive(Debug)]
pub struct BoundedMap<K, V> {
    /// Each held key's ring position, counted from the first slot ever
    /// pushed: its slot is `ring[position - front]`.
    index: HashMap<K, usize, WordHash>,
    /// Held entries in CLOCK order; the front is under the hand.
    ring: VecDeque<Slot<K, V>>,
    /// The position of `ring`'s front slot.
    front: usize,
    /// Sum of the held entries' charges, at most `budget`.
    held: usize,
    budget: usize,
    doorkeeper: Doorkeeper,
}

#[derive(Debug)]
struct Slot<K, V> {
    key: K,
    value: V,
    charge: usize,
    referenced: bool,
}

/// What [`BoundedMap::insert`] did.
#[derive(Debug, PartialEq, Eq)]
pub enum Insert<V> {
    /// The key was new, and is now held.
    Admitted,
    /// The key was held; its old value is returned.
    Replaced(V),
    /// The map is at its budget and this was the key's first touch there,
    /// or the charge alone exceeds the budget.  The map is unchanged.
    Refused,
}

impl<K, V> BoundedMap<K, V> {
    /// Bytes one entry takes in the map itself: its slot on the ring and
    /// its index bucket.  A caller's charge for an entry is this plus the
    /// heap bytes its key and value own.
    pub const ENTRY_BYTES: usize =
        std::mem::size_of::<Slot<K, V>>() + std::mem::size_of::<(K, usize)>();

    /// An empty map that will hold at most `budget` bytes of charges.
    #[must_use]
    pub fn new(budget: usize) -> Self {
        Self {
            index: HashMap::default(),
            ring: VecDeque::new(),
            front: 0,
            held: 0,
            budget,
            doorkeeper: Doorkeeper::default(),
        }
    }

    /// Number of held entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Returns `true` when no entry is held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

impl<K: Eq + Hash + Clone + Fingerprint, V> BoundedMap<K, V> {
    /// Looks up `key`; a hit sets the entry's reference bit.
    pub fn get(&mut self, key: &K) -> Option<&mut V> {
        let position = *self.index.get(key)?;
        let slot = &mut self.ring[position.wrapping_sub(self.front)];
        // A hot entry's bit is already set: leave its cache line clean, so
        // hits on other cores keep reading it from their own caches.
        if !slot.referenced {
            slot.referenced = true;
        }
        Some(&mut slot.value)
    }

    /// Inserts `value` under `key`, charged `charge` bytes; see the module
    /// docs for when it is admitted.  Each entry the hand evicts to make
    /// room is passed to `evicted`.  Replacing a held key's value counts as
    /// a hit on it, and keeps the held charges exact.
    pub fn insert(
        &mut self,
        key: K,
        value: V,
        charge: usize,
        mut evicted: impl FnMut(V),
    ) -> Insert<V> {
        if charge > self.budget {
            return Insert::Refused;
        }
        if let Some(&position) = self.index.get(&key) {
            let slot = &mut self.ring[position.wrapping_sub(self.front)];
            self.held = self.held - slot.charge + charge;
            slot.charge = charge;
            slot.referenced = true;
            let old = std::mem::replace(&mut slot.value, value);
            self.make_room(0, &mut evicted);
            return Insert::Replaced(old);
        }
        if self.held + charge > self.budget {
            if !self.doorkeeper.seen(key.fingerprint()) {
                return Insert::Refused;
            }
            self.make_room(charge, &mut evicted);
        }
        self.index
            .insert(key.clone(), self.front.wrapping_add(self.ring.len()));
        self.ring.push_back(Slot {
            key,
            value,
            charge,
            referenced: false,
        });
        self.held += charge;
        Insert::Admitted
    }

    /// Moves the hand until `charge` more bytes fit in the budget.
    fn make_room(&mut self, charge: usize, evicted: &mut impl FnMut(V)) {
        while self.held + charge > self.budget {
            let mut slot = self.ring.pop_front().expect("held charges sit on the ring");
            self.front = self.front.wrapping_add(1);
            if std::mem::take(&mut slot.referenced) {
                let back = self.front.wrapping_add(self.ring.len());
                *self
                    .index
                    .get_mut(&slot.key)
                    .expect("every ring slot is indexed") = back;
                self.ring.push_back(slot);
            } else {
                self.index.remove(&slot.key);
                self.held -= slot.charge;
                evicted(slot.value);
            }
        }
    }
}

/// Bits a probe of the doorkeeper reads.
const PROBE_BITS: u32 = 16;
/// Bits in a doorkeeper: 8 KiB.
const DOORKEEPER_BITS: usize = 1 << PROBE_BITS;

/// The fingerprints of keys a full map refused, as two bits each in a
/// bitset, cleared once half its bits are set.  A false positive admits a
/// first touch; it costs one admission.
#[derive(Debug, Default)]
struct Doorkeeper {
    /// Empty until the first refusal.
    words: Vec<u64>,
    set: usize,
}

impl Doorkeeper {
    /// Records `fingerprint`, and says whether it was recorded before.
    fn seen(&mut self, fingerprint: u64) -> bool {
        if self.words.is_empty() {
            self.words = vec![0; DOORKEEPER_BITS / 64];
        }
        let mixed = (fingerprint ^ (fingerprint >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut seen = true;
        for probe in [mixed >> (64 - PROBE_BITS), mixed >> (64 - 2 * PROBE_BITS)] {
            let probe = probe as usize & (DOORKEEPER_BITS - 1);
            let (word, bit) = (probe / 64, 1u64 << (probe % 64));
            if self.words[word] & bit == 0 {
                self.words[word] |= bit;
                self.set += 1;
                seen = false;
            }
        }
        if self.set >= DOORKEEPER_BITS / 2 {
            self.words.fill(0);
            self.set = 0;
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A key whose fingerprint is a hash of its number, as real keys' are.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    struct Key(u64);

    impl Fingerprint for Key {
        fn fingerprint(&self) -> u64 {
            crosslight_neural::fingerprint::fingerprint(&self.0)
        }
    }

    const CHARGE: usize = 100;
    /// Room for ten entries of `CHARGE`.
    const BUDGET: usize = 10 * CHARGE;

    fn filled() -> BoundedMap<Key, u64> {
        let mut map = BoundedMap::new(BUDGET);
        for n in 0..10 {
            assert_eq!(map.insert(Key(n), n, CHARGE, |_| {}), Insert::Admitted);
        }
        map
    }

    #[test]
    fn below_the_budget_everything_is_admitted() {
        let map = filled();
        assert_eq!((map.len(), map.held), (10, BUDGET));
        assert!(map.doorkeeper.words.is_empty(), "nothing was refused");
    }

    #[test]
    fn at_the_budget_a_first_touch_is_refused_and_a_second_admitted() {
        let mut map = filled();
        let mut evicted = Vec::new();
        assert_eq!(
            map.insert(Key(10), 10, CHARGE, |v| evicted.push(v)),
            Insert::Refused
        );
        assert_eq!(map.len(), 10);
        assert!(!map.index.contains_key(&Key(10)));
        assert_eq!(
            map.insert(Key(10), 10, CHARGE, |v| evicted.push(v)),
            Insert::Admitted
        );
        assert_eq!(map.get(&Key(10)), Some(&mut 10));
        // The hand evicted the oldest entry to make room.
        assert_eq!(evicted, [0]);
        assert_eq!((map.len(), map.held), (10, BUDGET));
    }

    #[test]
    fn a_referenced_entry_survives_a_stream_of_second_touches() {
        let mut map = filled();
        let mut evicted = Vec::new();
        // Ten budgets' worth of keys, each touched twice, with the hot key
        // hit between every admission.
        for n in 100..200 {
            assert_eq!(map.get(&Key(3)), Some(&mut 3));
            assert_eq!(map.insert(Key(n), n, CHARGE, |_| {}), Insert::Refused);
            assert_eq!(
                map.insert(Key(n), n, CHARGE, |v| evicted.push(v)),
                Insert::Admitted
            );
            assert!(map.held <= BUDGET);
        }
        assert!(map.index.contains_key(&Key(3)));
        // Every other first-fill entry, and all but the nine newest of the
        // stream, were evicted, each once.
        for n in (0..10).filter(|&n| n != 3) {
            assert!(!map.index.contains_key(&Key(n)), "{n} is unreferenced");
        }
        assert_eq!(evicted.len(), 100);
        let held: Vec<u64> = map
            .ring
            .iter()
            .map(|slot| slot.value)
            .filter(|&v| v != 3)
            .collect();
        assert_eq!(held, (191..200).collect::<Vec<_>>());
        assert_eq!((map.len(), map.held), (10, BUDGET));
    }

    #[test]
    fn unequal_charges_never_overrun_the_budget() {
        let mut map = BoundedMap::new(BUDGET);
        let mut evicted = 0;
        for n in 0..500u64 {
            let charge = 1 + (n as usize * 37) % (BUDGET / 3);
            for _ in 0..2 {
                map.insert(Key(n), n, charge, |_| evicted += 1);
                assert!(map.held <= BUDGET);
            }
            let charges: usize = map.ring.iter().map(|slot| slot.charge).sum();
            assert_eq!(charges, map.held);
            assert_eq!(map.index.len(), map.len());
        }
        assert!(evicted > 0);
    }

    #[test]
    fn an_entry_larger_than_the_budget_is_never_admitted() {
        let mut map = BoundedMap::new(BUDGET);
        for _ in 0..3 {
            assert_eq!(map.insert(Key(1), 1, BUDGET + 1, |_| {}), Insert::Refused);
        }
        assert!(map.is_empty());
        assert_eq!(map.insert(Key(1), 1, BUDGET, |_| {}), Insert::Admitted);
        assert_eq!(map.held, BUDGET);
    }

    #[test]
    fn replacing_a_key_keeps_the_charge_exact() {
        let mut map = filled();
        let mut evicted = Vec::new();
        assert_eq!(
            map.insert(Key(4), 40, CHARGE / 2, |v| evicted.push(v)),
            Insert::Replaced(4)
        );
        assert_eq!((map.len(), map.held), (10, BUDGET - CHARGE / 2));
        // Growing it back past the budget evicts the oldest other entry.
        assert_eq!(
            map.insert(Key(4), 41, 2 * CHARGE, |v| evicted.push(v)),
            Insert::Replaced(40)
        );
        assert_eq!(evicted, [0]);
        assert_eq!((map.len(), map.held), (9, BUDGET));
        assert_eq!(map.get(&Key(4)), Some(&mut 41));
    }
}
