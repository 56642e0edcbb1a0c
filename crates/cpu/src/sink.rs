//! Retirement event hooks used by basic-block-vector trackers.

/// Observes instruction retirement events from a running [`crate::Machine`].
///
/// Both the paper's hashed BBV (which records taken branches and the number
/// of retired operations since the last taken branch) and SimPoint-style full
/// BBVs (which count retired instructions per static basic block) are driven
/// from this trait. Methods have empty default bodies, and
/// [`crate::Machine::run_with`] is generic over the sink, so an unused hook
/// costs nothing after monomorphization.
pub trait RetireSink {
    /// Called after every retired instruction with its address.
    #[inline]
    fn retire(&mut self, pc: u32) {
        let _ = pc;
    }

    /// Called when a taken control transfer retires (conditional branch that
    /// was taken, or any jump), with the transfer's address and the number of
    /// retired instructions since the previous taken transfer — the quantity
    /// the paper's hashed-BBV hardware accumulates. The count includes the
    /// transfer instruction itself.
    #[inline]
    fn taken_branch(&mut self, pc: u32, ops_since_last: u64) {
        let _ = (pc, ops_since_last);
    }

    /// Called when a straight-line run of `len` instructions starting at
    /// `start_pc` retires as one superblock, equivalent to `len`
    /// consecutive [`RetireSink::retire`] calls (the default body *is*
    /// that loop). Sinks that can absorb a whole run at once — or ignore
    /// per-op retirement entirely, like the hashed-BBV tracker — override
    /// this so the decoded core pays one call per run instead of one per
    /// op.
    #[inline]
    fn retire_run(&mut self, start_pc: u32, len: u32) {
        for k in 0..len {
            self.retire(start_pc + k);
        }
    }

    /// Called when a data-memory access (load or store, integer or FP)
    /// retires, with its *word* address — post effective-address wrap, so
    /// always within the machine's memory. Memory-Access-Vector trackers
    /// bin these addresses into coarse regions to form an alternative
    /// phase signature; every other sink leaves the default no-op body.
    #[inline]
    fn data_access(&mut self, addr: u64) {
        let _ = addr;
    }
}

/// A sink that ignores every event; the default for [`crate::Machine::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopSink;

impl RetireSink for NoopSink {
    #[inline]
    fn retire_run(&mut self, _start_pc: u32, _len: u32) {}
}

impl<S: RetireSink + ?Sized> RetireSink for &mut S {
    #[inline]
    fn retire(&mut self, pc: u32) {
        (**self).retire(pc);
    }

    #[inline]
    fn taken_branch(&mut self, pc: u32, ops_since_last: u64) {
        (**self).taken_branch(pc, ops_since_last);
    }

    #[inline]
    fn retire_run(&mut self, start_pc: u32, len: u32) {
        (**self).retire_run(start_pc, len);
    }

    #[inline]
    fn data_access(&mut self, addr: u64) {
        (**self).data_access(addr);
    }
}

/// Sinks compose: a pair delivers every event to both members, so BBV
/// tracking and run-trace counters can stack on a single
/// [`crate::Machine::run_with`] call instead of needing separate paths.
/// Pairs nest — `(a, (b, c))` fans out to three sinks.
impl<A: RetireSink, B: RetireSink> RetireSink for (A, B) {
    #[inline]
    fn retire(&mut self, pc: u32) {
        self.0.retire(pc);
        self.1.retire(pc);
    }

    #[inline]
    fn taken_branch(&mut self, pc: u32, ops_since_last: u64) {
        self.0.taken_branch(pc, ops_since_last);
        self.1.taken_branch(pc, ops_since_last);
    }

    #[inline]
    fn retire_run(&mut self, start_pc: u32, len: u32) {
        self.0.retire_run(start_pc, len);
        self.1.retire_run(start_pc, len);
    }

    #[inline]
    fn data_access(&mut self, addr: u64) {
        self.0.data_access(addr);
        self.1.data_access(addr);
    }
}

/// Triples compose the same way pairs do; the driver's track sink is one
/// (hashed-BBV, full-BBV, MAV trackers, each optional).
impl<A: RetireSink, B: RetireSink, C: RetireSink> RetireSink for (A, B, C) {
    #[inline]
    fn retire(&mut self, pc: u32) {
        self.0.retire(pc);
        self.1.retire(pc);
        self.2.retire(pc);
    }

    #[inline]
    fn taken_branch(&mut self, pc: u32, ops_since_last: u64) {
        self.0.taken_branch(pc, ops_since_last);
        self.1.taken_branch(pc, ops_since_last);
        self.2.taken_branch(pc, ops_since_last);
    }

    #[inline]
    fn retire_run(&mut self, start_pc: u32, len: u32) {
        self.0.retire_run(start_pc, len);
        self.1.retire_run(start_pc, len);
        self.2.retire_run(start_pc, len);
    }

    #[inline]
    fn data_access(&mut self, addr: u64) {
        self.0.data_access(addr);
        self.1.data_access(addr);
        self.2.data_access(addr);
    }
}

/// A vector of sinks fans every event out to each element, for callers
/// that need a *dynamic* number of trackers on one run — e.g. a
/// checkpoint capture pass accumulating hashed BBVs for several seeds
/// at once.
impl<S: RetireSink> RetireSink for Vec<S> {
    #[inline]
    fn retire(&mut self, pc: u32) {
        for s in self.iter_mut() {
            s.retire(pc);
        }
    }

    #[inline]
    fn taken_branch(&mut self, pc: u32, ops_since_last: u64) {
        for s in self.iter_mut() {
            s.taken_branch(pc, ops_since_last);
        }
    }

    #[inline]
    fn retire_run(&mut self, start_pc: u32, len: u32) {
        for s in self.iter_mut() {
            s.retire_run(start_pc, len);
        }
    }

    #[inline]
    fn data_access(&mut self, addr: u64) {
        for s in self.iter_mut() {
            s.data_access(addr);
        }
    }
}

/// An absent sink is a no-op, so "maybe track BBVs" is `Option<Tracker>`
/// rather than a second run path; after monomorphization the `None` branch
/// is a predictable no-op.
impl<S: RetireSink> RetireSink for Option<S> {
    #[inline]
    fn retire(&mut self, pc: u32) {
        if let Some(s) = self {
            s.retire(pc);
        }
    }

    #[inline]
    fn taken_branch(&mut self, pc: u32, ops_since_last: u64) {
        if let Some(s) = self {
            s.taken_branch(pc, ops_since_last);
        }
    }

    #[inline]
    fn retire_run(&mut self, start_pc: u32, len: u32) {
        if let Some(s) = self {
            s.retire_run(start_pc, len);
        }
    }

    #[inline]
    fn data_access(&mut self, addr: u64) {
        if let Some(s) = self {
            s.data_access(addr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Counting {
        retired: u64,
        takens: Vec<(u32, u64)>,
        accesses: Vec<u64>,
    }

    impl RetireSink for Counting {
        fn retire(&mut self, _pc: u32) {
            self.retired += 1;
        }
        fn taken_branch(&mut self, pc: u32, ops: u64) {
            self.takens.push((pc, ops));
        }
        fn data_access(&mut self, addr: u64) {
            self.accesses.push(addr);
        }
    }

    #[test]
    fn defaults_are_noops() {
        let mut s = NoopSink;
        s.retire(1);
        s.taken_branch(2, 3);
    }

    #[test]
    fn reference_forwarding_works() {
        let mut c = Counting::default();
        {
            let r: &mut Counting = &mut c;
            r.retire(0);
            r.taken_branch(5, 10);
        }
        assert_eq!(c.retired, 1);
        assert_eq!(c.takens, vec![(5, 10)]);
    }

    #[test]
    fn pairs_deliver_to_both_members() {
        let mut pair = (Counting::default(), Counting::default());
        pair.retire(1);
        pair.retire(2);
        pair.taken_branch(7, 3);
        assert_eq!(pair.0.retired, 2);
        assert_eq!(pair.1.retired, 2);
        assert_eq!(pair.0.takens, vec![(7, 3)]);
        assert_eq!(pair.1.takens, vec![(7, 3)]);
    }

    #[test]
    fn pairs_nest() {
        let mut nested = (Counting::default(), (Counting::default(), NoopSink));
        nested.taken_branch(9, 4);
        assert_eq!(nested.0.takens, vec![(9, 4)]);
        assert_eq!(nested.1 .0.takens, vec![(9, 4)]);
    }

    #[test]
    fn vec_sinks_deliver_to_every_element() {
        let mut v = vec![Counting::default(), Counting::default()];
        v.retire(3);
        v.taken_branch(4, 2);
        for c in &v {
            assert_eq!(c.retired, 1);
            assert_eq!(c.takens, vec![(4, 2)]);
        }
        let mut empty: Vec<Counting> = Vec::new();
        empty.retire(1); // harmless
    }

    #[test]
    fn retire_run_default_equals_per_op_retires() {
        let mut a = Counting::default();
        a.retire_run(10, 4);
        let mut b = Counting::default();
        for pc in 10..14 {
            b.retire(pc);
        }
        assert_eq!(a.retired, b.retired);

        // Forwarding impls deliver runs too.
        let mut pair = (Counting::default(), Some(Counting::default()));
        pair.retire_run(0, 3);
        assert_eq!(pair.0.retired, 3);
        assert_eq!(pair.1.as_ref().unwrap().retired, 3);
        let mut v = vec![Counting::default()];
        v.retire_run(5, 2);
        assert_eq!(v[0].retired, 2);
        NoopSink.retire_run(0, 100);
    }

    #[test]
    fn data_access_fans_out_like_other_events() {
        NoopSink.data_access(7); // default body: no-op

        let mut r = Counting::default();
        #[allow(
            clippy::needless_borrow,
            reason = "the explicit borrow exercises the `&mut S` forwarding impl"
        )]
        (&mut r).data_access(1);
        assert_eq!(r.accesses, vec![1]);

        let mut pair = (Counting::default(), Counting::default());
        pair.data_access(9);
        assert_eq!(pair.0.accesses, vec![9]);
        assert_eq!(pair.1.accesses, vec![9]);

        let mut triple = (Counting::default(), NoopSink, Some(Counting::default()));
        triple.data_access(4);
        triple.data_access(5);
        assert_eq!(triple.0.accesses, vec![4, 5]);
        assert_eq!(triple.2.as_ref().unwrap().accesses, vec![4, 5]);

        let mut v = vec![Counting::default(), Counting::default()];
        v.data_access(2);
        assert_eq!(v[0].accesses, vec![2]);
        assert_eq!(v[1].accesses, vec![2]);

        let mut none: Option<Counting> = None;
        none.data_access(3); // harmless
    }

    #[test]
    fn optional_sinks_noop_when_absent() {
        let mut none: Option<Counting> = None;
        none.retire(1);
        none.taken_branch(2, 3);
        let mut some = Some(Counting::default());
        some.retire(1);
        some.taken_branch(2, 3);
        let c = some.unwrap();
        assert_eq!(c.retired, 1);
        assert_eq!(c.takens, vec![(2, 3)]);
    }
}
