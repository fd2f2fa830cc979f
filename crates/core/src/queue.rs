//! One MCS queue and one passive list. [`McsLock`](crate::McsLock)
//! and [`McsCrLock`](crate::McsCrLock) share the queue's arrival,
//! hand-off or release, reprovisioning, culling and grafting; a lock's
//! `unlock` only performs the edit that
//! [`policy::release`](crate::policy::release) picks (MCS makes none),
//! all while holding the lock, which therefore protects the passive
//! list. [`PassiveList`] also holds RW-CR's culled readers, there
//! behind the reader gate.

use std::cell::{Cell, UnsafeCell};
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

use malthus_obs::span;
use malthus_park::{SpinThenYield, WaitPolicy};

use crate::node::{alloc_node, free_node, QNode};
use crate::pad::CachePadded;

/// Spins until `node.next` has been linked by an in-flight arrival.
///
/// The arrival is mid-publication, so the wait is normally a handful
/// of pauses; the yield fallback covers the arrival being descheduled
/// on an oversubscribed host.
///
/// # Safety
///
/// `node` must be a live queue node for which an arrival is known to
/// be in progress (tail no longer equals `node`).
unsafe fn wait_link(node: *mut QNode) -> *mut QNode {
    let mut spin = SpinThenYield::new();
    loop {
        // SAFETY: caller guarantees `node` is live.
        let next = unsafe { (*node).next.load(Ordering::Acquire) };
        if !next.is_null() {
            return next;
        }
        spin.pause();
    }
}

/// A lock's name under its waiting policy: `[spin, stp, park]`.
pub(crate) fn policy_name(
    policy: WaitPolicy,
    [spin, stp, park]: [&'static str; 3],
) -> &'static str {
    match policy {
        WaitPolicy::Spin => spin,
        WaitPolicy::SpinThenPark { .. } => stp,
        WaitPolicy::Park => park,
    }
}

/// An MCS queue plus the holder-only state `S` of the policy that
/// edits it.
pub(crate) struct McsQueue<S> {
    /// The arrival-contended word: every `lock()` RMWs it. Isolated on
    /// its own cache line so holder-side edits never ping-pong with
    /// arrivals.
    tail: CachePadded<AtomicPtr<QNode>>,
    /// All lock-protected state, grouped on a separate line from
    /// `tail`: only the current holder touches any of it.
    holder: CachePadded<Holder<S>>,
    policy: WaitPolicy,
}

struct Holder<S> {
    /// Owner's node.
    owner: UnsafeCell<*mut QNode>,
    /// The passive set (empty under MCS).
    passive: PassiveList,
    /// The policy's state (trigger, counters).
    state: S,
}

// SAFETY: `tail` is an atomic and `policy` is never written. `owner`,
// the passive list and the policy state's `UnsafeCell`s are accessed
// only by the lock holder, so the lock serializes them; the rest of the
// state is atomic counters, read racily.
unsafe impl<S> Send for McsQueue<S> {}
// SAFETY: see above.
unsafe impl<S> Sync for McsQueue<S> {}

impl<S> McsQueue<S> {
    pub(crate) fn new(state: S, policy: WaitPolicy) -> Self {
        McsQueue {
            tail: CachePadded::new(AtomicPtr::new(ptr::null_mut())),
            holder: CachePadded::new(Holder {
                owner: UnsafeCell::new(ptr::null_mut()),
                passive: PassiveList::new(),
                state,
            }),
            policy,
        }
    }

    /// The policy's state; its `UnsafeCell`s are the lock holder's.
    pub(crate) fn state(&self) -> &S {
        &self.holder.state
    }

    /// The passive set.
    ///
    /// # Safety
    ///
    /// Caller must hold the lock (others read [`passive_len`](Self::passive_len)).
    pub(crate) unsafe fn passive(&self) -> &PassiveList {
        &self.holder.passive
    }

    /// Number of passivated waiters (racy unless read by the holder).
    pub(crate) fn passive_len(&self) -> usize {
        self.holder.passive.len()
    }

    /// The lock's name under its waiting policy: `[spin, stp, park]`.
    pub(crate) fn name(&self, names: [&'static str; 3]) -> &'static str {
        policy_name(self.policy, names)
    }

    /// Returns `true` if no thread holds or waits for the lock.
    pub(crate) fn is_idle(&self) -> bool {
        self.tail.load(Ordering::Acquire).is_null()
    }

    /// Swaps a node onto the tail, links it and waits for the lock.
    #[inline]
    pub(crate) fn lock(&self) {
        let node = alloc_node();
        let prev = self.tail.swap(node, Ordering::AcqRel);
        if !prev.is_null() {
            // Span tracing: the uncontended path above never reads the
            // clock; this already-blocking slow path stamps its wait so
            // the service can attribute lock admission cost per batch.
            let t0 = if span::enabled() { span::now_ns() } else { 0 };
            // SAFETY: `prev` is live: its owner cannot release and free
            // it before observing our link (the MCS protocol waits for
            // `next` once the tail has moved past it).
            unsafe {
                (*prev).next.store(node, Ordering::Release);
                (*node).cell.wait(self.policy);
            }
            if t0 != 0 {
                let total = span::now_ns().saturating_sub(t0);
                // If a holder culled us to the passive list it stamped
                // the moment into our node (the wake signal orders the
                // stamp before this read); split the wait there —
                // before the stamp was ordinary MCS admission, after it
                // was Malthusian passive-list residency.
                // SAFETY: we hold the lock; the node is ours again.
                let culled_at = unsafe { (*node).culled_at.swap(0, Ordering::Relaxed) };
                if culled_at > t0 {
                    let admission = culled_at - t0;
                    span::add_lock_wait(admission);
                    span::add_cull_wait(total.saturating_sub(admission));
                } else {
                    span::add_lock_wait(total);
                }
            }
        }
        // SAFETY: we hold the lock; `owner` is ours.
        unsafe { *self.holder.owner.get() = node };
    }

    /// Arrives only if the queue is empty.
    #[inline]
    pub(crate) fn try_lock(&self) -> bool {
        let node = alloc_node();
        // Success: Acquire pairs with the releasing CAS of the previous
        // owner, and Release publishes `node`'s sanitized `next = null`
        // store — an arrival that swaps the tail will *write* through
        // that field, and without the release edge its link store and
        // our stale null store would be unordered (lost-waiter risk on
        // weakly-ordered hardware). Failure: the observed pointer is
        // unused.
        if self
            .tail
            .compare_exchange(ptr::null_mut(), node, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
        {
            // SAFETY: we hold the lock.
            unsafe { *self.holder.owner.get() = node };
            true
        } else {
            // SAFETY: the node was never published.
            unsafe { free_node(node) };
            false
        }
    }

    /// The owner's node.
    ///
    /// # Safety
    ///
    /// Caller must hold the lock.
    #[inline]
    pub(crate) unsafe fn owner(&self) -> *mut QNode {
        // SAFETY: caller holds the lock; `owner` is ours.
        let me = unsafe { *self.holder.owner.get() };
        debug_assert!(!me.is_null());
        me
    }

    /// Returns the successor linked behind the owner `me`, still to be
    /// granted. With nobody linked, closes the queue instead and returns
    /// None: the passive head (the warmest culled waiter) becomes the
    /// tail in `me`'s place, for the caller to pop and grant — or, with
    /// the passive list empty, the lock is released and `me` freed. An
    /// arrival that beats the close is returned as the successor, and
    /// the passive list is left as it was.
    ///
    /// # Safety
    ///
    /// Caller must hold the lock, and `me` must be the owner's node.
    #[inline]
    pub(crate) unsafe fn successor(&self, me: *mut QNode) -> Option<*mut QNode> {
        // SAFETY: caller contract; see each step.
        unsafe {
            let succ = (*me).next.load(Ordering::Acquire);
            if !succ.is_null() {
                return Some(succ);
            }
            // The chain is (apparently) just us. Work conservation:
            // close onto the passive head before the lock can go idle.
            let warm = self.holder.passive.head.get();
            let succ = self.replace_tail(me, warm);
            if succ.is_null() {
                if warm.is_null() {
                    // No successor; the queue is empty. Nobody else can
                    // reach `me` after the CAS.
                    free_node(me);
                }
                return None;
            }
            // A real arrival appeared first: it is the successor.
            Some(succ)
        }
    }

    /// Makes `new_tail` (null: nobody) the tail in place of the owner
    /// `me` and returns null, or returns the arrival that got in first.
    ///
    /// # Safety
    ///
    /// Caller must hold the lock and have seen no node linked behind
    /// `me`, its node; `new_tail` must be live and in no list.
    unsafe fn replace_tail(&self, me: *mut QNode, new_tail: *mut QNode) -> *mut QNode {
        // SAFETY: caller contract; see each step.
        unsafe {
            if !new_tail.is_null() {
                // `new_tail.next` must be null *before* the CAS can
                // publish it as the tail: the instant it is tail,
                // arrivals may link through it.
                (*new_tail).next.store(ptr::null_mut(), Ordering::Relaxed);
            }
            // Success needs only Release: it hands the critical section
            // to the next acquirer and publishes `new_tail`'s links;
            // nothing is read through the swapped-out value. Failure
            // needs nothing at all: the returned pointer is unused and
            // `wait_link` supplies the Acquire edge for the successor
            // dereference.
            if self
                .tail
                .compare_exchange(me, new_tail, Ordering::Release, Ordering::Relaxed)
                .is_ok()
            {
                return ptr::null_mut();
            }
            // An arrival swapped the tail but has not linked yet.
            wait_link(me)
        }
    }

    /// Whether a node is queued behind `succ`, the owner's successor
    /// (the queue holds surplus).
    pub(crate) fn queued_beyond(&self, succ: *mut QNode) -> bool {
        // Relaxed suffices: the Acquire load that produced `succ`
        // synchronized with its arrival, whose tail swap therefore
        // happened-before this load — we cannot observe a tail older
        // than `succ`, and observing `succ` or newer only ever skips a
        // cull (conservative, safe).
        succ != self.tail.load(Ordering::Relaxed)
    }

    /// Culls `succ` onto the passive head and returns the node behind
    /// it, the new successor.
    ///
    /// # Safety
    ///
    /// Caller must hold the lock; `succ` must be the owner's successor
    /// with a node queued behind it ([`queued_beyond`](Self::queued_beyond)).
    pub(crate) unsafe fn cull(&self, succ: *mut QNode) -> *mut QNode {
        // SAFETY: a node is linked or linking behind `succ`, and the
        // lock protects the passive list.
        unsafe {
            let next = wait_link(succ);
            // Span tracing: stamp the cull moment into the victim's
            // node so it can split its wait into admission vs passive
            // residency on wake (the eventual signal orders this store
            // before the victim's read).
            if span::enabled() {
                (*succ).culled_at.store(span::now_ns(), Ordering::Relaxed);
            }
            self.holder.passive.push_head(succ);
            next
        }
    }

    /// Grafts `node` immediately after the owner `me`, inheriting the
    /// rest of the queue, and grants the lock to it.
    ///
    /// # Safety
    ///
    /// Caller must hold the lock, `me` must be the owner's node, and
    /// `node` must be a live waiter in no list.
    pub(crate) unsafe fn graft(&self, me: *mut QNode, node: *mut QNode) {
        // SAFETY: caller contract; see each step.
        unsafe {
            let mut succ = (*me).next.load(Ordering::Acquire);
            if succ.is_null() {
                succ = self.replace_tail(me, node);
            }
            if !succ.is_null() {
                (*node).next.store(succ, Ordering::Release);
            }
            self.grant(me, node);
        }
    }

    /// Grants the lock to `next` and frees the owner's node `me`.
    ///
    /// # Safety
    ///
    /// Caller must hold the lock, `me` must be the owner's node, and
    /// `next` the waiter the queue now puts after it.
    #[inline]
    pub(crate) unsafe fn grant(&self, me: *mut QNode, next: *mut QNode) {
        // SAFETY: `next` is a live waiting node; signalling releases it
        // and we never touch it afterwards. Once it is linked or made
        // the tail, no thread references `me` (arrivals only touch the
        // current tail's `next`).
        unsafe {
            (*next).cell.signal();
            free_node(me);
        }
    }
}

impl<S> Drop for McsQueue<S> {
    fn drop(&mut self) {
        debug_assert!(
            self.tail.get_mut().is_null(),
            "MCS-family lock dropped while held or contended"
        );
        debug_assert!(
            self.holder.passive.is_empty(),
            "MCS-family lock dropped with passivated waiters"
        );
    }
}

/// A doubly-linked list of passivated nodes, edited only under the
/// lock that owns it (MCSCR's own, RW-CR's reader gate).
///
/// Head = most recently passivated ("warm" end, used to reprovision);
/// tail = least recently arrived ("cold" end, used for fairness).
/// Members are live: [`push_head`](Self::push_head) asks it of its
/// caller, and a node leaves only by being popped or unlinked. The
/// length is atomic so that threads not holding the lock may peek at
/// it (a racy hint).
pub(crate) struct PassiveList {
    head: Cell<*mut QNode>,
    tail: Cell<*mut QNode>,
    len: AtomicUsize,
}

impl PassiveList {
    pub(crate) const fn new() -> Self {
        PassiveList {
            head: Cell::new(ptr::null_mut()),
            tail: Cell::new(ptr::null_mut()),
            len: AtomicUsize::new(0),
        }
    }

    // Inline: RW-CR's reader fast path peeks here, from whichever crate
    // instantiates it.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pushes `node` at the head.
    ///
    /// # Safety
    ///
    /// `node` must be live until it leaves the list, and in no list.
    pub(crate) unsafe fn push_head(&self, node: *mut QNode) {
        let head = self.head.get();
        // SAFETY: caller guarantees exclusive, live access.
        unsafe {
            (*node).pprev.set(ptr::null_mut());
            (*node).pnext.set(head);
            // Sanitize the chain link so a later graft starts clean.
            (*node).next.store(ptr::null_mut(), Ordering::Relaxed);
            if head.is_null() {
                self.tail.set(node);
            } else {
                (*head).pprev.set(node);
            }
        }
        self.head.set(node);
        self.len.store(self.len() + 1, Ordering::Relaxed);
    }

    /// Pops the head (most recently passivated), or null if empty.
    pub(crate) fn pop_head(&self) -> *mut QNode {
        let node = self.head.get();
        if !node.is_null() {
            // SAFETY: the head is a member.
            unsafe { self.unlink(node) };
        }
        node
    }

    /// Pops the tail (least recently arrived), or null if empty.
    pub(crate) fn pop_tail(&self) -> *mut QNode {
        let node = self.tail.get();
        if !node.is_null() {
            // SAFETY: the tail is a member.
            unsafe { self.unlink(node) };
        }
        node
    }

    /// Removes a member node.
    ///
    /// # Safety
    ///
    /// `node` must currently be a member of this list.
    unsafe fn unlink(&self, node: *mut QNode) {
        // SAFETY: membership guaranteed by caller.
        unsafe {
            let prev = (*node).pprev.get();
            let next = (*node).pnext.get();
            if prev.is_null() {
                self.head.set(next);
            } else {
                (*prev).pnext.set(next);
            }
            if next.is_null() {
                self.tail.set(prev);
            } else {
                (*next).pprev.set(prev);
            }
            (*node).pprev.set(ptr::null_mut());
            (*node).pnext.set(ptr::null_mut());
        }
        self.len.store(self.len() - 1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passive_list_push_pop_head() {
        let l = PassiveList::new();
        let a = alloc_node();
        let b = alloc_node();
        // SAFETY: test owns the nodes and the (conceptual) lock.
        unsafe {
            l.push_head(a);
            l.push_head(b);
            assert_eq!(l.len(), 2);
            assert_eq!(l.pop_head(), b);
            assert_eq!(l.pop_head(), a);
            assert!(l.pop_head().is_null());
            free_node(a);
            free_node(b);
        }
    }

    #[test]
    fn passive_list_pop_tail_is_eldest() {
        let l = PassiveList::new();
        let a = alloc_node();
        let b = alloc_node();
        let c = alloc_node();
        // SAFETY: test owns everything.
        unsafe {
            l.push_head(a); // a is eldest (pushed first = culled first)
            l.push_head(b);
            l.push_head(c);
            assert_eq!(l.pop_tail(), a);
            assert_eq!(l.pop_tail(), b);
            assert_eq!(l.pop_tail(), c);
            assert!(l.is_empty());
            free_node(a);
            free_node(b);
            free_node(c);
        }
    }

    #[test]
    fn passive_list_unlink_interior() {
        let l = PassiveList::new();
        let a = alloc_node();
        let b = alloc_node();
        let c = alloc_node();
        // SAFETY: test owns everything.
        unsafe {
            l.push_head(a);
            l.push_head(b);
            l.push_head(c);
            l.unlink(b);
            assert_eq!(l.len(), 2);
            assert_eq!(l.pop_head(), c);
            assert_eq!(l.pop_head(), a);
            free_node(a);
            free_node(b);
            free_node(c);
        }
    }
}
