//! A content-addressed memo of [`parse_source`](crate::parse_source).
//!
//! Dovado drives the tool once per design point, and every run re-reads
//! the whole source tree: only the generated box file differs between
//! points. Parsing that tree dominates the per-run host cost, yet its
//! text never changes. [`ParseCache`] maps `(Language, full source text)`
//! to a shared [`SourceFile`], so each distinct text is parsed once per
//! cache instead of once per read.
//!
//! The rules that keep a hit a bitwise substitute for a parse:
//!
//! * **Equality, not hashes.** The key is hashed to find a bucket, but a
//!   hit requires the stored language and the *full* stored text to equal
//!   the lookup's. Two texts that collide on the hash are two entries.
//! * **Only clean parses are kept.** A text that fails to parse, or that
//!   parses with error diagnostics, is never stored: every read of it
//!   parses again and returns the same error.
//! * **Only texts worth keeping are kept.** A text shorter than
//!   [`MIN_STORED_LEN`] is parsed on every read. It parses in tens of
//!   microseconds, yet its declarations weigh about ten times its text.
//!   The per-point box files, read about once each, are this short:
//!   storing them raised a 60-file tree exploration's peak resident set
//!   by 0.4–0.7 MB and saved no measurable time.
//! * **Bounded.** Each entry is charged what it holds, counted from the
//!   stored value itself: the text, every string, vector and boxed
//!   expression node of its declarations and diagnostics at their
//!   allocated capacity, a per-allocation allowance for the allocator,
//!   and a fixed share for the cache's own maps. The charges stay under
//!   [`BUDGET_BYTES`]; the least recently used entries are evicted first.
//!   Eviction only turns a would-be hit into a parse, never into a
//!   different answer. The charge follows the declarations rather than
//!   the text length because their weight per text byte varies a
//!   hundredfold: about 0.1–0.6 for packages and bodies, but about 50 for
//!   a dense header list, where every three-byte name becomes a port and
//!   a warning.
//!
//! Clones share one cache: a tool backend hands its cache to every
//! session it opens, and a worker process hands one cache to every
//! backend it builds.

use crate::ast::{
    ConfigurationDecl, ContextClause, Expr, Instantiation, Language, ModuleInterface, PackageDecl,
    Parameter, Port, Range, SourceFile, TypeSpec,
};
use crate::error::{Diagnostic, Diagnostics, ParseResult};
use std::collections::hash_map::Entry::{Occupied, Vacant};
use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::BuildHasher;
use std::mem::size_of;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Byte budget of every [`ParseCache`]. A 150 KB, 60-file RTL tree is
/// charged 2.5 MB of it; a long-lived worker that keeps seeing new texts
/// stays under it by evicting the least recently used.
pub const BUDGET_BYTES: usize = 32 << 20;

/// Shortest text the cache stores (see the module docs).
pub const MIN_STORED_LEN: usize = 1024;

/// Bytes charged per heap allocation on top of its payload: the
/// allocator's chunk header and size-class rounding.
const ALLOC_SLACK: usize = 16;
/// Bytes charged per entry for the cache's own bookkeeping: the entry's
/// slot in its hash bucket, the bucket's map slot and its recency-order
/// node.
const BOOKKEEPING_BYTES: usize = 512;

/// Counters of one cache, for tests and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Entries currently held.
    pub entries: usize,
    /// Bytes currently charged against [`BUDGET_BYTES`].
    pub bytes: usize,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Reads that ran the parser: misses, failing texts and texts too
    /// short to store.
    pub parses: u64,
}

/// A shared, bounded, content-addressed parse memo (see the module docs).
#[derive(Clone)]
pub struct ParseCache {
    shared: Arc<Shared>,
}

struct Shared {
    hasher: RandomState,
    budget: usize,
    state: Mutex<State>,
}

struct Entry {
    language: Language,
    text: Box<str>,
    file: Arc<SourceFile>,
    diagnostics: Diagnostics,
    /// Bytes charged for this entry (see [`entry_cost`]).
    cost: usize,
    /// Recency stamp; the key of this entry in [`State::lru`].
    stamp: u64,
}

/// Bytes an entry holding `text` and its parse is charged: everything it
/// keeps alive (see the module docs).
fn entry_cost(text: &str, file: &SourceFile, diagnostics: &Diagnostics) -> usize {
    // The shared tree lives in an `Arc` allocation beside its counts.
    let arc = size_of::<SourceFile>() + 2 * size_of::<usize>();
    BOOKKEEPING_BYTES
        + size_of::<Entry>()
        + alloc(text.len())
        + alloc(arc)
        + file.heap_size()
        + diagnostics.items.heap_size()
}

/// Bytes charged for one heap allocation of `payload` bytes.
fn alloc(payload: usize) -> usize {
    if payload == 0 {
        0
    } else {
        payload + ALLOC_SLACK
    }
}

/// Heap bytes a value owns: every allocation it reaches, at its capacity,
/// each with [`ALLOC_SLACK`].
trait HeapSize {
    fn heap_size(&self) -> usize;
}

impl HeapSize for String {
    fn heap_size(&self) -> usize {
        alloc(self.capacity())
    }
}

impl<T: HeapSize> HeapSize for Vec<T> {
    fn heap_size(&self) -> usize {
        alloc(self.capacity() * size_of::<T>())
            + self.iter().map(HeapSize::heap_size).sum::<usize>()
    }
}

impl<T: HeapSize> HeapSize for Box<T> {
    fn heap_size(&self) -> usize {
        alloc(size_of::<T>()) + (**self).heap_size()
    }
}

impl<T: HeapSize> HeapSize for Option<T> {
    fn heap_size(&self) -> usize {
        self.as_ref().map_or(0, HeapSize::heap_size)
    }
}

impl<A: HeapSize, B: HeapSize> HeapSize for (A, B) {
    fn heap_size(&self) -> usize {
        self.0.heap_size() + self.1.heap_size()
    }
}

impl HeapSize for Expr {
    fn heap_size(&self) -> usize {
        match self {
            Expr::Int(_) => 0,
            Expr::Ident(s) | Expr::Str(s) => s.heap_size(),
            Expr::Bin(_, l, r) => l.heap_size() + r.heap_size(),
            Expr::Neg(e) => e.heap_size(),
            Expr::Call(name, args) => name.heap_size() + args.heap_size(),
        }
    }
}

impl HeapSize for Range {
    fn heap_size(&self) -> usize {
        self.left.heap_size() + self.right.heap_size()
    }
}

impl HeapSize for TypeSpec {
    fn heap_size(&self) -> usize {
        self.name.heap_size() + self.ranges.heap_size()
    }
}

impl HeapSize for Port {
    fn heap_size(&self) -> usize {
        self.name.heap_size() + self.ty.heap_size()
    }
}

impl HeapSize for Parameter {
    fn heap_size(&self) -> usize {
        self.name.heap_size() + self.ty.heap_size() + self.default.heap_size()
    }
}

impl HeapSize for ModuleInterface {
    fn heap_size(&self) -> usize {
        self.name.heap_size() + self.parameters.heap_size() + self.ports.heap_size()
    }
}

impl HeapSize for ContextClause {
    fn heap_size(&self) -> usize {
        match self {
            ContextClause::Library(s)
            | ContextClause::Use(s)
            | ContextClause::Import(s)
            | ContextClause::Include(s) => s.heap_size(),
        }
    }
}

impl HeapSize for PackageDecl {
    fn heap_size(&self) -> usize {
        self.name.heap_size()
    }
}

impl HeapSize for ConfigurationDecl {
    fn heap_size(&self) -> usize {
        self.name.heap_size() + self.entity.heap_size()
    }
}

impl HeapSize for Instantiation {
    fn heap_size(&self) -> usize {
        self.label.heap_size()
            + self.target.heap_size()
            + self.generics.heap_size()
            + self.parent.heap_size()
    }
}

impl HeapSize for SourceFile {
    fn heap_size(&self) -> usize {
        self.context.heap_size()
            + self.packages.heap_size()
            + self.modules.heap_size()
            + self.architectures.heap_size()
            + self.package_bodies.heap_size()
            + self.configurations.heap_size()
            + self.instantiations.heap_size()
    }
}

impl HeapSize for Diagnostic {
    fn heap_size(&self) -> usize {
        self.message.heap_size() + self.file.heap_size()
    }
}

#[derive(Default)]
struct State {
    /// Entries by key hash; a bucket holds every entry whose key hashes
    /// alike, told apart by full equality.
    buckets: HashMap<u64, Vec<Entry>>,
    /// Recency order: stamp → key hash, oldest first.
    lru: BTreeMap<u64, u64>,
    next_stamp: u64,
    stats: CacheStats,
}

impl State {
    /// Index of the `(language, text)` entry in its hash bucket.
    fn position(&self, hash: u64, language: Language, text: &str) -> Option<usize> {
        self.buckets
            .get(&hash)?
            .iter()
            .position(|e| e.language == language && *e.text == *text)
    }

    /// Marks `hash`'s entry as the most recently used; returns its stamp.
    fn stamp(&mut self, hash: u64) -> u64 {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.lru.insert(stamp, hash);
        stamp
    }

    fn evict_to(&mut self, budget: usize) {
        while self.stats.bytes > budget {
            let Some((stamp, hash)) = self.lru.pop_first() else {
                break;
            };
            let Some(bucket) = self.buckets.get_mut(&hash) else {
                continue;
            };
            if let Some(i) = bucket.iter().position(|e| e.stamp == stamp) {
                let entry = bucket.swap_remove(i);
                self.stats.bytes -= entry.cost;
                self.stats.entries -= 1;
            }
            if bucket.is_empty() {
                self.buckets.remove(&hash);
            }
        }
    }
}

impl Default for ParseCache {
    fn default() -> Self {
        ParseCache::new()
    }
}

impl ParseCache {
    /// An empty cache bounded by [`BUDGET_BYTES`].
    pub fn new() -> ParseCache {
        ParseCache::with_budget(BUDGET_BYTES)
    }

    pub(crate) fn with_budget(budget: usize) -> ParseCache {
        ParseCache {
            shared: Arc::new(Shared {
                hasher: RandomState::new(),
                budget,
                state: Mutex::new(State::default()),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // Every update leaves the maps and counters consistent before it
        // can panic, and a memo can always be re-derived: recover the
        // state rather than failing every later parse.
        self.shared
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// [`parse_source`](crate::parse_source) through the cache: the
    /// stored parse when `(language, text)` was parsed cleanly before,
    /// otherwise a fresh parse (stored if it has no error diagnostics and
    /// the text is at least [`MIN_STORED_LEN`] long).
    ///
    /// The answer is always the one `parse_source` gives for the same
    /// input; only who pays for it differs.
    pub fn parse(
        &self,
        language: Language,
        text: &str,
    ) -> ParseResult<(Arc<SourceFile>, Diagnostics)> {
        if text.len() < MIN_STORED_LEN {
            self.lock().stats.parses += 1;
            return crate::parse_source(language, text).map(|(f, d)| (Arc::new(f), d));
        }
        let hash = self.shared.hasher.hash_one((language, text));
        {
            let mut state = self.lock();
            if let Some(i) = state.position(hash, language, text) {
                let stamp = state.stamp(hash);
                state.stats.hits += 1;
                let entry = &mut state.buckets.get_mut(&hash).expect("entry found above")[i];
                let old = std::mem::replace(&mut entry.stamp, stamp);
                let answer = (Arc::clone(&entry.file), entry.diagnostics.clone());
                state.lru.remove(&old);
                return Ok(answer);
            }
            state.stats.parses += 1;
        }

        // Parse outside the lock: sessions reading different texts must
        // not serialize on one another.
        let (file, diagnostics) = crate::parse_source(language, text)?;
        let cost = entry_cost(text, &file, &diagnostics);
        let file = Arc::new(file);
        if diagnostics.has_errors() || cost > self.shared.budget {
            return Ok((file, diagnostics));
        }
        let mut state = self.lock();
        // Another session may have stored the same text meanwhile; both
        // parses are the same answer, so the first one stays.
        if state.position(hash, language, text).is_none() {
            let stamp = state.stamp(hash);
            let entry = Entry {
                language,
                text: text.into(),
                file: Arc::clone(&file),
                diagnostics: diagnostics.clone(),
                cost,
                stamp,
            };
            state.stats.bytes += cost;
            state.stats.entries += 1;
            // A bucket almost always holds one entry: allocate just that.
            match state.buckets.entry(hash) {
                Occupied(mut bucket) => bucket.get_mut().push(entry),
                Vacant(slot) => {
                    slot.insert(vec![entry]);
                }
            }
            state.evict_to(self.shared.budget);
        }
        Ok((file, diagnostics))
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }
}

impl fmt::Debug for ParseCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ParseCache")
            .field("budget", &self.shared.budget)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `text` followed by a comment that lifts it to the stored length.
    fn padded(text: &str, comment: &str) -> String {
        format!("{text}\n{comment} {}\n", "x".repeat(MIN_STORED_LEN))
    }

    fn fifo() -> String {
        padded(
            "module fifo #(parameter DEPTH = 8)(input wire clk); endmodule",
            "//",
        )
    }

    fn broken() -> String {
        padded("module m(input wire c);", "//")
    }

    /// What an entry for a cleanly parsing `text` is charged.
    fn cost_of(language: Language, text: &str) -> usize {
        let (file, diagnostics) = crate::parse_source(language, text).unwrap();
        entry_cost(text, &file, &diagnostics)
    }

    fn messages(d: &Diagnostics) -> Vec<String> {
        d.iter().map(|x| x.to_string()).collect()
    }

    /// The cache's answer in a comparable form.
    fn answer(
        r: ParseResult<(Arc<SourceFile>, Diagnostics)>,
    ) -> Result<(SourceFile, Vec<String>), String> {
        r.map(|(f, d)| ((*f).clone(), messages(&d)))
            .map_err(|e| e.to_string())
    }

    fn direct(language: Language, text: &str) -> Result<(SourceFile, Vec<String>), String> {
        crate::parse_source(language, text)
            .map(|(f, d)| (f, messages(&d)))
            .map_err(|e| e.to_string())
    }

    #[test]
    fn a_repeated_text_parses_once_and_shares_the_tree() {
        let cache = ParseCache::new();
        let (a, _) = cache.parse(Language::Verilog, &fifo()).unwrap();
        let (b, _) = cache.clone().parse(Language::Verilog, &fifo()).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "a hit hands out the stored tree");
        let stats = cache.stats();
        assert_eq!((stats.parses, stats.hits, stats.entries), (1, 1, 1));
        assert_eq!(stats.bytes, cost_of(Language::Verilog, &fifo()));
    }

    #[test]
    fn the_same_text_under_another_language_misses() {
        let cache = ParseCache::new();
        cache.parse(Language::Verilog, &fifo()).unwrap();
        cache.parse(Language::SystemVerilog, &fifo()).unwrap();
        let stats = cache.stats();
        assert_eq!((stats.parses, stats.hits, stats.entries), (2, 0, 2));
    }

    #[test]
    fn short_texts_are_parsed_every_time() {
        let cache = ParseCache::new();
        let short = "module m(input wire clk); endmodule";
        for _ in 0..2 {
            assert_eq!(
                answer(cache.parse(Language::Verilog, short)),
                direct(Language::Verilog, short)
            );
        }
        let stats = cache.stats();
        assert_eq!((stats.parses, stats.hits, stats.entries), (2, 0, 0));
    }

    #[test]
    fn failing_texts_are_never_stored_and_fail_alike() {
        let cache = ParseCache::new();
        let expected = direct(Language::Verilog, &broken());
        for _ in 0..3 {
            let got = answer(cache.parse(Language::Verilog, &broken()));
            assert_eq!(got, expected);
            let failed = match &got {
                Err(_) => true,
                Ok((_, diags)) => !diags.is_empty(),
            };
            assert!(failed, "the fixture must fail to parse: {got:?}");
        }
        let stats = cache.stats();
        assert_eq!((stats.parses, stats.hits, stats.entries), (3, 0, 0));
        // An entity missing its `is` reports through diagnostics or an
        // error; either way it is not stored.
        let vhdl = padded("entity e port (a : in bit); end e;", "--");
        let expected = direct(Language::Vhdl, &vhdl);
        assert_eq!(answer(cache.parse(Language::Vhdl, &vhdl)), expected);
        assert_eq!(answer(cache.parse(Language::Vhdl, &vhdl)), expected);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn a_text_over_the_budget_is_answered_but_not_stored() {
        let cache = ParseCache::with_budget(cost_of(Language::Verilog, &fifo()) - 1);
        assert_eq!(
            answer(cache.parse(Language::Verilog, &fifo())),
            direct(Language::Verilog, &fifo())
        );
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn eviction_drops_the_least_recently_used_entry() {
        let texts: Vec<String> = (0..3)
            .map(|i| padded(&format!("module m{i}(input wire clk); endmodule"), "//"))
            .collect();
        let cost = cost_of(Language::Verilog, &texts[0]);
        let cache = ParseCache::with_budget(2 * cost);
        cache.parse(Language::Verilog, &texts[0]).unwrap();
        cache.parse(Language::Verilog, &texts[1]).unwrap();
        // Touch m0, so m1 is now the oldest and the third text evicts it.
        cache.parse(Language::Verilog, &texts[0]).unwrap();
        cache.parse(Language::Verilog, &texts[2]).unwrap();
        let before = cache.stats();
        assert_eq!((before.entries, before.bytes), (2, 2 * cost));
        cache.parse(Language::Verilog, &texts[0]).unwrap();
        assert_eq!(cache.stats().parses, before.parses, "m0 survived");
        cache.parse(Language::Verilog, &texts[1]).unwrap();
        assert_eq!(cache.stats().parses, before.parses + 1, "m1 was evicted");
    }

    /// A pool of texts across the languages, some failing, some short.
    fn pool_text(i: usize) -> (Language, String) {
        match i % 6 {
            0 => (
                Language::Verilog,
                padded(&format!("module m{i}(input wire clk); endmodule"), "//"),
            ),
            1 => (
                Language::SystemVerilog,
                padded(
                    &format!("module m{}(input logic clk); endmodule", i / 2),
                    "//",
                ),
            ),
            2 => (
                Language::Vhdl,
                padded(
                    &format!("entity e{i} is port (clk : in bit); end e{i};"),
                    "--",
                ),
            ),
            3 => (Language::Verilog, broken()),
            4 => (
                Language::Vhdl,
                format!("package p{i} is constant C : integer := {i}; end p{i};"),
            ),
            _ => (
                Language::Vhdl,
                padded(
                    &format!("package p{i} is constant C : integer := {i}; end p{i};"),
                    "--",
                ),
            ),
        }
    }

    proptest! {
        /// Whatever the budget and access order, every answer equals a
        /// direct parse and the charged bytes never exceed the budget. A
        /// failing case prints its seed, which replays it exactly.
        #[test]
        fn eviction_never_changes_an_answer(
            budget_entries in 1usize..6,
            reads in proptest::collection::vec(0usize..24, 1..80),
        ) {
            let (language, text) = pool_text(0);
            let budget = budget_entries * cost_of(language, &text);
            let cache = ParseCache::with_budget(budget);
            for i in reads {
                let (language, text) = pool_text(i);
                prop_assert_eq!(answer(cache.parse(language, &text)), direct(language, &text));
                prop_assert!(cache.stats().bytes <= budget);
            }
        }
    }
}
