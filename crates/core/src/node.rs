//! Queue nodes shared by the MCS-family locks, with a per-thread arena.
//!
//! MCS and MCSCR both enqueue one node per acquisition, and RW-CR
//! parks each culled reader on one. Because
//! [`RawLock`](crate::RawLock) carries no guard token, nodes live on
//! the heap rather than the waiter's stack; a thread-local arena
//! amortizes the allocation to nearly nothing on the hot path. A node's
//! embedded [`WaitCell`] is bound to its creating thread, which is why
//! the arena must be (and is) thread-local.
//!
//! # Hot-path discipline
//!
//! The arena is designed so `lock()` costs exactly **one** TLS access:
//! the free list lives in one thread-local [`NodeArena`], and nodes are
//! **sanitized on `free`** (wait cell rearmed, links nulled) rather
//! than on `alloc`, so [`alloc_node`] is a bare pop.
//! Initializing the TLS slot on first use also registers the arena's
//! destructor, so thread exit reclaims every cached node.

use std::cell::{Cell, RefCell};
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};

use malthus_park::WaitCell;

/// A queue node for the MCS family.
///
/// `next` is the MCS chain link (written by the successor's arrival).
/// `pprev`/`pnext` link the node into a [`PassiveList`](crate::queue::PassiveList) (MCSCR's,
/// or RW-CR's reader list) and are only ever touched under the lock
/// that guards it. `slot_granted` is set by an RW-CR grant that took
/// the culled reader's read slot for it, before the signal. `culled_at`
/// is a span-tracing stamp: the lock holder
/// stores the monotonic time it moved this node to the passive list
/// (0 = never culled), and the waiter reads it back on wake to split
/// its total wait into admission time vs passive-list residency.
///
/// The node is aligned (hence padded) to 128 bytes so that two nodes
/// never share a cache line or a prefetch pair: a waiter spins on its
/// own node's `cell` while its predecessor's arrival-time `next` store
/// and the owner's unlock-time reads land on *other* nodes, and
/// unpadded adjacent nodes would turn that private spin into coherence
/// ping-pong (§3's collapse mechanism in miniature).
#[repr(align(128))]
pub(crate) struct QNode {
    pub(crate) cell: WaitCell,
    pub(crate) next: AtomicPtr<QNode>,
    pub(crate) pprev: Cell<*mut QNode>,
    pub(crate) pnext: Cell<*mut QNode>,
    pub(crate) slot_granted: AtomicBool,
    pub(crate) culled_at: AtomicU64,
}

impl QNode {
    fn new() -> Self {
        QNode {
            cell: WaitCell::new(),
            next: AtomicPtr::new(ptr::null_mut()),
            pprev: Cell::new(ptr::null_mut()),
            pnext: Cell::new(ptr::null_mut()),
            slot_granted: AtomicBool::new(false),
            culled_at: AtomicU64::new(0),
        }
    }
}

/// How many quiescent nodes a thread retains before overflowing to the
/// global allocator.
const CACHE_CAP: usize = 32;

/// Per-thread node arena; one TLS access yields a sanitized node.
/// Reclaims its contents at thread exit.
struct NodeArena {
    free: RefCell<Vec<*mut QNode>>,
}

impl NodeArena {
    /// Pops a pre-sanitized cached node, or allocates a fresh one.
    fn acquire(&self) -> *mut QNode {
        // Nodes are sanitized when freed, so a cached one is ready.
        self.free
            .borrow_mut()
            .pop()
            .unwrap_or_else(|| Box::into_raw(Box::new(QNode::new())))
    }

    /// Caches a sanitized node; returns it back if the arena is full.
    fn release(&self, node: *mut QNode) -> Option<*mut QNode> {
        let mut free = self.free.borrow_mut();
        if free.len() < CACHE_CAP {
            free.push(node);
            None
        } else {
            Some(node)
        }
    }
}

impl Drop for NodeArena {
    fn drop(&mut self) {
        for node in self.free.borrow_mut().drain(..) {
            // SAFETY: cached nodes are quiescent and owned by this
            // thread; they were created by `Box::into_raw`.
            drop(unsafe { Box::from_raw(node) });
        }
    }
}

thread_local! {
    static NODE_ARENA: NodeArena = const {
        NodeArena {
            free: RefCell::new(Vec::new()),
        }
    };
}

/// Allocates (or reuses) a node owned by the calling thread.
///
/// The returned node has a fresh (unsignalled) wait cell, a null
/// `next` and clear list links. Exactly one thread-local access.
pub(crate) fn alloc_node() -> *mut QNode {
    NODE_ARENA
        .try_with(NodeArena::acquire)
        // TLS already destroyed (thread exiting): fresh heap node.
        .unwrap_or_else(|_| Box::into_raw(Box::new(QNode::new())))
}

/// Sanitizes a quiescent node and returns it to the calling thread's
/// arena (or the allocator if the arena is full or gone).
///
/// # Safety
///
/// The caller must guarantee that no other thread can still reach the
/// node (the MCS release protocol establishes this), and that the
/// calling thread is the one that allocated it (the wait cell is bound
/// to it).
pub(crate) unsafe fn free_node(node: *mut QNode) {
    // Sanitize now so the next `alloc_node` is a bare pop.
    // SAFETY: per the contract, we have exclusive access.
    unsafe {
        (*node).cell.reset();
        (*node).next.store(ptr::null_mut(), Ordering::Relaxed);
        (*node).pprev.set(ptr::null_mut());
        (*node).pnext.set(ptr::null_mut());
        (*node).slot_granted.store(false, Ordering::Relaxed);
        (*node).culled_at.store(0, Ordering::Relaxed);
    }
    let overflow = NODE_ARENA
        .try_with(|a| a.release(node))
        // TLS already destroyed (thread exiting): free directly.
        .unwrap_or(Some(node));
    if let Some(node) = overflow {
        // SAFETY: exclusive access; the node was created by Box::into_raw.
        drop(unsafe { Box::from_raw(node) });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn alloc_gives_clean_node() {
        let n = alloc_node();
        // SAFETY: freshly allocated, owned by this thread.
        unsafe {
            assert!((*n).next.load(Ordering::Relaxed).is_null());
            assert!((*n).pprev.get().is_null());
            assert!((*n).pnext.get().is_null());
            free_node(n);
        }
    }

    #[test]
    fn qnode_is_cache_line_padded() {
        assert!(std::mem::align_of::<QNode>() >= 128);
        assert_eq!(std::mem::size_of::<QNode>() % 128, 0);
    }

    #[test]
    fn cache_reuses_nodes() {
        let a = alloc_node();
        // SAFETY: owned by this thread, quiescent.
        unsafe { free_node(a) };
        let b = alloc_node();
        assert_eq!(a, b, "expected the cached node back");
        // SAFETY: owned by this thread, quiescent.
        unsafe { free_node(b) };
    }

    #[test]
    fn cache_reuse_across_reentrant_alloc() {
        // Two live nodes at once (as in a lock()-within-signal window),
        // freed in FIFO order, must both round-trip through the arena.
        let a = alloc_node();
        let b = alloc_node();
        assert_ne!(a, b);
        // SAFETY: both owned by this thread, quiescent.
        unsafe {
            free_node(a);
            free_node(b);
        }
        let c = alloc_node();
        let d = alloc_node();
        assert!(c == a || c == b);
        assert!(d == a || d == b);
        assert_ne!(c, d);
        // SAFETY: owned by this thread, quiescent.
        unsafe {
            free_node(c);
            free_node(d);
        }
    }

    #[test]
    fn reused_node_is_sanitized() {
        let a = alloc_node();
        // SAFETY: we own the node.
        unsafe {
            (*a).next.store(a, Ordering::Relaxed);
            (*a).pnext.set(a);
            free_node(a);
        }
        let b = alloc_node();
        assert_eq!(a, b);
        // SAFETY: we own the node.
        unsafe {
            assert!((*b).next.load(Ordering::Relaxed).is_null());
            assert!((*b).pnext.get().is_null());
            free_node(b);
        }
    }

    #[test]
    fn cache_cap_overflow_falls_back_to_box_drop() {
        // Hold CACHE_CAP + 8 live nodes, then free them all: the first
        // CACHE_CAP land in the arena, the rest take the Box-drop path.
        // (Leaks would be caught by Miri / LeakSanitizer.)
        let nodes: Vec<_> = (0..CACHE_CAP + 8).map(|_| alloc_node()).collect();
        for &n in &nodes {
            // SAFETY: owned by this thread, quiescent.
            unsafe { free_node(n) };
        }
        // The arena is now exactly full; another round trip still works.
        let n = alloc_node();
        // SAFETY: owned by this thread, quiescent.
        unsafe { free_node(n) };
    }

    #[test]
    fn thread_exit_reclaims_cached_nodes() {
        // A thread that caches nodes and exits must not leak them: the
        // arena destructor runs at thread exit (verified under Miri,
        // which reports leaks; see README "Miri" section).
        std::thread::spawn(|| {
            let nodes: Vec<_> = (0..8).map(|_| alloc_node()).collect();
            for &n in &nodes {
                // SAFETY: owned by this thread, quiescent.
                unsafe { free_node(n) };
            }
        })
        .join()
        .unwrap();
    }
}
