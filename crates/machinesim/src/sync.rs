//! Simulated condition variables with CR disciplines.
//!
//! These model the paper's §6.10 construct: explicit wait lists
//! whose insertion side is a Bernoulli append/prepend mix. Probability
//! 0 = strict FIFO (the baseline); 999/1000 = the paper's mostly-LIFO
//! CR form; 1 = strict LIFO.

use std::collections::VecDeque;

use malthus::policy::AdmissionDiscipline;

use crate::locks::ThreadId;

/// A simulated condition variable.
#[derive(Debug)]
pub struct SimCondvar {
    waiters: VecDeque<ThreadId>,
    discipline: AdmissionDiscipline,
    /// Total waits (diagnostic).
    pub waits: u64,
    /// Total notifications that woke somebody.
    pub wakes: u64,
}

impl SimCondvar {
    /// Creates a condvar with the given prepend probability.
    pub fn new(prepend_probability: f64, seed: u64) -> Self {
        SimCondvar {
            waiters: VecDeque::new(),
            discipline: AdmissionDiscipline::new(prepend_probability, seed),
            waits: 0,
            wakes: 0,
        }
    }

    /// Adds a waiter per the admission discipline.
    pub fn wait(&mut self, t: ThreadId) {
        self.waits += 1;
        if self.discipline.prepend() {
            self.waiters.push_front(t);
        } else {
            self.waiters.push_back(t);
        }
    }

    /// Removes and returns the next waiter to wake, if any.
    pub fn notify_one(&mut self) -> Option<ThreadId> {
        let t = self.waiters.pop_front();
        if t.is_some() {
            self.wakes += 1;
        }
        t
    }

    /// Removes and returns all waiters.
    pub fn notify_all(&mut self) -> Vec<ThreadId> {
        self.wakes += self.waiters.len() as u64;
        self.waiters.drain(..).collect()
    }

    /// Current number of waiters.
    pub fn len(&self) -> usize {
        self.waiters.len()
    }

    /// Whether nobody is waiting.
    pub fn is_empty(&self) -> bool {
        self.waiters.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_condvar_wakes_in_order() {
        let mut cv = SimCondvar::new(0.0, 1);
        cv.wait(1);
        cv.wait(2);
        cv.wait(3);
        assert_eq!(cv.notify_one(), Some(1));
        assert_eq!(cv.notify_one(), Some(2));
        assert_eq!(cv.notify_one(), Some(3));
        assert_eq!(cv.notify_one(), None);
    }

    #[test]
    fn lifo_condvar_wakes_most_recent() {
        let mut cv = SimCondvar::new(1.0, 1);
        cv.wait(1);
        cv.wait(2);
        cv.wait(3);
        assert_eq!(cv.notify_one(), Some(3));
        assert_eq!(cv.notify_one(), Some(2));
    }

    #[test]
    fn notify_all_drains() {
        let mut cv = SimCondvar::new(0.0, 1);
        cv.wait(1);
        cv.wait(2);
        assert_eq!(cv.notify_all(), vec![1, 2]);
        assert!(cv.is_empty());
        assert_eq!(cv.wakes, 2);
    }
}
