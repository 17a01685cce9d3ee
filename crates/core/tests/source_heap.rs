//! What a source session costs on the heap, counted by a thread-local
//! counting allocator over [`System`]: the live bytes one session holds
//! must not grow with the number of raw messages it has sent, and one
//! `send_message` may make no more allocations than the ceiling below.
//!
//! The counters are thread-local, so tests running in parallel on other
//! threads do not disturb each other's figures.
//!
//! The shape is `engine_small`'s: L = 3, d = d′ = 2, `Map`, 64-byte
//! messages.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use slicing_core::{DataMode, DestPlacement, GraphParams, OverlayAddr, SourceSession};

struct Counting;

thread_local! {
    /// Bytes allocated and not yet freed on this thread.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// Allocations made on this thread (reallocations included).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: isize, allocs: u64) {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down, when there is nothing left to count into.
    let _ = LIVE.try_with(|l| l.set(l.get() + bytes));
    let _ = ALLOCS.try_with(|a| a.set(a.get() + allocs));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters are plain thread-local `Cell`s that never
// allocate, so the wrapper adds no requirement of its own.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: forwards the caller's `layout` (non-zero size, per the
    // `GlobalAlloc` contract) to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout`, passed through unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            note(layout.size() as isize, 1);
        }
        ptr
    }

    // SAFETY: `ptr` and `layout` come from a matching `alloc` (the
    // default `realloc` and `alloc_zeroed` go through it too), which
    // `System` served.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's `ptr` and `layout`, passed through unchanged.
        unsafe { System.dealloc(ptr, layout) };
        note(-(layout.size() as isize), 0);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live() -> isize {
    LIVE.with(Cell::get)
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Allocations one 64-byte `send_message` makes at L = 3, d = d′ = 2,
/// the returned packets included: the coded blocks and slices, the
/// `SendInstr` vector and the packets' buffers. Measured, not budgeted:
/// it may only go down.
const SEND_ALLOCS_CEILING: u64 = 23;

/// An established session whose setup packets are already dropped.
fn session(seed: u64) -> SourceSession {
    let params = GraphParams::new(3, 2)
        .with_paths(2)
        .with_data_mode(DataMode::Map)
        .with_dest_placement(DestPlacement::LastStage);
    let pseudo: Vec<OverlayAddr> = (0..2).map(OverlayAddr).collect();
    let relays: Vec<OverlayAddr> = (100..124).map(OverlayAddr).collect();
    let (source, setup) =
        SourceSession::establish(params, &pseudo, &relays, OverlayAddr(999), seed).unwrap();
    drop(setup);
    source
}

#[test]
fn session_heap_does_not_grow_with_messages_sent() {
    let base = live();
    let mut source = session(3);
    let idle = live() - base;
    let msg = [0x5Au8; 64];
    let send = |source: &mut SourceSession| {
        let (_, sends) = source.send_message(&msg).unwrap();
        drop(sends);
    };
    send(&mut source);
    let after_one = live() - base;
    for _ in 1..200 {
        send(&mut source);
    }
    let after_200 = live() - base;
    drop(source);
    let after_drop = live() - base;
    // Printed last: captured output grows a buffer another thread frees.
    eprintln!("source session heap: {idle} B idle, {after_one} B after 1 message, {after_200} B after 200");
    assert_eq!(
        after_one, after_200,
        "a source session's heap must not grow with the messages it sent"
    );
    assert_eq!(
        after_drop, 0,
        "dropping the session frees everything it held"
    );
}

#[test]
fn send_message_allocations_stay_under_ceiling() {
    let mut source = session(5);
    let msg = [0xC3u8; 64];
    // The first send sizes the reusable seal buffer; count a steady one.
    drop(source.send_message(&msg).unwrap());
    let before = allocs();
    let (_, sends) = source.send_message(&msg).unwrap();
    let made = allocs() - before;
    drop(sends);
    eprintln!("send_message: {made} allocations");
    assert!(
        made <= SEND_ALLOCS_CEILING,
        "send_message made {made} allocations, ceiling {SEND_ALLOCS_CEILING}"
    );
}
