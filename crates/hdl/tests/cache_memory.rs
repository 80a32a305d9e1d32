//! The parse cache's charge covers the memory its entries really hold.
//!
//! A counting global allocator tracks the live heap bytes of this test
//! binary; what a cache still holds after its answers are dropped is
//! compared with what it was charged. The file has a single test so no
//! other test allocates while it measures.

use dovado_hdl::cache::{ParseCache, BUDGET_BYTES};
use dovado_hdl::Language;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live() -> isize {
    LIVE.load(Ordering::Relaxed)
}

/// Texts whose declarations weigh far more than their text: every short
/// name becomes a port, a warning, a constant or an expression node.
fn dense_texts(k: usize, n: usize) -> Vec<(Language, String)> {
    let names: Vec<String> = (0..n).map(|i| format!("a{i}")).collect();
    vec![
        // Non-ANSI header names without body declarations: a port and a
        // warning each.
        (
            Language::Verilog,
            format!("module h{k}({});\nendmodule\n", names.join(",")),
        ),
        // A parameter default that is one long expression tree (walked
        // recursively, so kept a few hundred levels deep).
        (
            Language::Verilog,
            format!(
                "module e{k} #(parameter P = {})(input wire clk);\nendmodule\n",
                names[..names.len().min(500)].join("+")
            ),
        ),
        // A VHDL entity with one port per name.
        (
            Language::Vhdl,
            format!(
                "entity v{k} is port ({}); end v{k};\n",
                names
                    .iter()
                    .map(|n| format!("{n} : in bit"))
                    .collect::<Vec<_>>()
                    .join("; ")
            ),
        ),
        // Instantiations with a generic map each.
        (
            Language::Verilog,
            format!(
                "module t{k}(input wire clk);\n{}endmodule\n",
                names
                    .iter()
                    .map(|n| format!("c #(.W({n})) {n}(.clk(clk));\n"))
                    .collect::<String>()
            ),
        ),
    ]
}

#[test]
fn the_charge_covers_what_the_cache_holds() {
    // One entry at a time: the bytes a fresh cache keeps for a text are
    // at most what it was charged for it.
    for (language, text) in dense_texts(0, 2000) {
        let cache = ParseCache::new();
        let before = live();
        let (_, diagnostics) = cache.parse(language, &text).expect("the text parses");
        assert!(!diagnostics.has_errors(), "{language}: {diagnostics:?}");
        drop(diagnostics);
        let held = live() - before;
        let stats = cache.stats();
        assert_eq!(stats.entries, 1, "{language} text is stored");
        assert!(
            held <= stats.bytes as isize,
            "{language} entry holds {held} B but is charged {}",
            stats.bytes
        );
        drop(cache);
    }

    // A cache filled with dense texts past its budget evicts, and what it
    // still holds stays under the budget.
    let cache = ParseCache::new();
    let before = live();
    let mut k = 1;
    while cache.stats().bytes < BUDGET_BYTES / 2 || cache.stats().entries >= k * 4 - 4 {
        for (language, text) in dense_texts(k, 10_000) {
            drop(cache.parse(language, &text).expect("the text parses"));
        }
        k += 1;
        assert!(k < 200, "the cache never evicted: {:?}", cache.stats());
    }
    let held = live() - before;
    let stats = cache.stats();
    assert!(stats.bytes <= BUDGET_BYTES, "{stats:?}");
    assert!(
        held <= BUDGET_BYTES as isize,
        "a full cache holds {held} B over its {BUDGET_BYTES} B budget: {stats:?}"
    );
}
