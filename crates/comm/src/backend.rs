//! The [`CommBackend`] trait: the communication surface every solver in
//! this workspace is written against.
//!
//! A backend provides point-to-point messaging, panel transport (a
//! panel travels as an owned [`Mat`]), accounting hooks (`compute`,
//! `stats`, a per-rank clock), and — as provided methods layered on the
//! raw point-to-point layer — the full collective suite. The one
//! implementation in-tree is the runtime's [`crate::Comm`]: rank threads
//! over SPSC channels, charging a modeled clock under a [`CostModel`]
//! (`compute` advances it without burning cycles, so world sizes far
//! beyond the host's cores still produce faithful modeled runtimes). Its
//! world decides whether `virtual_time` reports that modeled clock
//! ([`crate::SimBackend`]) or wall time ([`crate::ShmBackend`]).
//!
//! The collective algorithms live here as provided methods so every
//! implementation exhibits the same message pattern, tag sequence and
//! (rank-ordered, non-commutative-safe) reduction semantics. They are
//! expressed over [`CommBackend::send_raw`]/[`CommBackend::recv_raw`] —
//! the un-asserted point-to-point layer that is allowed to use the
//! reserved collective tag space above [`USER_TAG_LIMIT`].

use bt_dense::{Mat, MatMut, MatRef};

use crate::model::CostModel;
use crate::payload::Payload;
use crate::stats::RankStats;

/// First tag value reserved for collectives; user tags must be below this.
pub const USER_TAG_LIMIT: u64 = 1 << 48;

/// Per-rank communicator surface of one SPMD backend.
///
/// Every collective must be called by **all ranks in the same order**
/// (the usual SPMD contract). A per-communicator sequence number keyed
/// into a reserved tag space keeps successive collectives from
/// interfering, even when user point-to-point traffic is in flight.
///
/// Non-commutative operators are supported everywhere they make sense:
/// reductions and scans always combine partial results in rank order
/// (`op(lower_ranks_result, higher_ranks_result)`), which is what the
/// matrix-product scans of recursive doubling require.
pub trait CommBackend {
    /// This rank's id, `0 <= rank() < size()`.
    fn rank(&self) -> usize;

    /// Number of ranks in the world.
    fn size(&self) -> usize;

    /// The cost model attached to this world: it defines the modeled
    /// clock, which wall-clock worlds keep too but do not report.
    fn model(&self) -> CostModel;

    /// This rank's counters so far.
    fn stats(&self) -> RankStats;

    /// Seconds elapsed on this world's clock since the program (or
    /// job) started: modeled time, or wall time on wall-clock worlds.
    fn virtual_time(&self) -> f64;

    /// Records `flops` floating point operations of local computation,
    /// charging their modeled time to the modeled clock.
    fn compute(&mut self, flops: u64);

    /// Advances the modeled clock by `seconds` without counting flops
    /// (for modeling non-flop work such as data movement).
    fn advance_time(&mut self, seconds: f64);

    /// Sends `value` to `dest` with `tag`, without the user-tag range
    /// check — the building block collectives use for tags above
    /// [`USER_TAG_LIMIT`]. Non-blocking (buffered-eager): never waits
    /// for the receiver, so crossed sends cannot deadlock. A send to a
    /// rank that already terminated is dropped, not reported.
    ///
    /// # Panics
    ///
    /// Panics if `dest >= size()`.
    fn send_raw<T: Payload>(&mut self, dest: usize, tag: u64, value: T);

    /// Receives a `T` from `src` with matching `tag`, blocking until it
    /// arrives; no user-tag range check. Messages with other tags from
    /// the same source are buffered for later matching receives, so
    /// out-of-order tag matching behaves like MPI.
    ///
    /// # Panics
    ///
    /// Panics if `src >= size()`, if the matching message's payload is
    /// not a `T`, or if `src` terminated without sending one.
    fn recv_raw<T: Payload>(&mut self, src: usize, tag: u64) -> T;

    /// Allocates a fresh collective tag (same value on every rank
    /// because collectives are called in the same order on every rank).
    /// Must return `USER_TAG_LIMIT + seq` for a per-communicator
    /// sequence `seq` starting at 0 — the reserved per-round offsets the
    /// provided collectives add (multiples of `1 << 56`) rely on it.
    fn next_collective_tag(&mut self) -> u64;

    /// Sends `value` to `dest` with `tag`. Non-blocking.
    ///
    /// # Panics
    ///
    /// Panics if `dest >= size()` or if `tag >= USER_TAG_LIMIT`
    /// (reserved for collectives).
    fn send<T: Payload>(&mut self, dest: usize, tag: u64, value: T) {
        assert!(
            tag < USER_TAG_LIMIT,
            "tag {tag} is reserved for collectives"
        );
        self.send_raw(dest, tag, value);
    }

    /// Receives a `T` from `src` with matching `tag`, blocking until it
    /// arrives.
    ///
    /// # Panics
    ///
    /// Panics if `src >= size()`, if `tag >= USER_TAG_LIMIT`, if the
    /// matching message's payload is not a `T`, or if `src` terminated
    /// without sending a matching message.
    fn recv<T: Payload>(&mut self, src: usize, tag: u64) -> T {
        assert!(
            tag < USER_TAG_LIMIT,
            "tag {tag} is reserved for collectives"
        );
        self.recv_raw(src, tag)
    }

    /// Combined send-then-receive with the same peer (safe because sends
    /// never block). The standard building block of doubling exchanges.
    fn sendrecv<T: Payload>(&mut self, peer: usize, tag: u64, value: T) -> T {
        self.send(peer, tag, value);
        self.recv(peer, tag)
    }

    /// Sends a copy of a (possibly strided) matrix view to `dest` with
    /// `tag`. The message is an owned [`Mat`] of the view's shape, so it
    /// counts `rows * cols * 8` bytes. Pairs with
    /// [`CommBackend::recv_panel_into`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`CommBackend::send`].
    fn send_panel(&mut self, dest: usize, tag: u64, panel: MatRef<'_>) {
        self.send(dest, tag, panel.to_mat());
    }

    /// Receives a panel from `src` with matching `tag` and copies it
    /// into caller-provided scratch (any window of a larger matrix).
    /// Pairs with [`CommBackend::send_panel`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`CommBackend::recv`], plus a shape mismatch
    /// between the sent panel and `out`.
    fn recv_panel_into(&mut self, src: usize, tag: u64, mut out: MatMut<'_>) {
        let panel: Mat = self.recv(src, tag);
        assert_eq!(out.shape(), panel.shape(), "recv_panel_into shape mismatch");
        out.copy_from(panel.as_ref());
    }

    /// MPI_Sendrecv-style paired exchange of panels under one tag:
    /// optionally sends to `send_to` and optionally receives from
    /// `recv_from`, in the send-first order that is unconditionally
    /// deadlock-free under buffered sends. The building block of
    /// doubling rounds and halo exchanges, replacing hand-rolled
    /// rank-parity orderings.
    ///
    /// # Panics
    ///
    /// Same conditions as [`CommBackend::send_panel`] /
    /// [`CommBackend::recv_panel_into`].
    fn exchange_panel(
        &mut self,
        tag: u64,
        send_to: Option<(usize, MatRef<'_>)>,
        recv_from: Option<(usize, MatMut<'_>)>,
    ) {
        if let Some((dst, panel)) = send_to {
            self.send_panel(dst, tag, panel);
        }
        if let Some((src, out)) = recv_from {
            self.recv_panel_into(src, tag, out);
        }
    }

    /// True on rank 0 — convenient for one-rank-only side effects.
    fn is_root(&self) -> bool {
        self.rank() == 0
    }

    /// Synchronizes all ranks (dissemination barrier, `ceil(log2 P)`
    /// rounds).
    fn barrier(&mut self) {
        let tag = self.next_collective_tag();
        let p = self.size();
        let r = self.rank();
        let mut k = 1;
        while k < p {
            let to = (r + k) % p;
            let from = (r + p - k) % p;
            self.send_raw(to, tag + (k as u64) * (1 << 56), ());
            let () = self.recv_raw(from, tag + (k as u64) * (1 << 56));
            k <<= 1;
        }
    }

    /// Broadcasts `value` from `root` to all ranks (binomial tree).
    ///
    /// On the root, pass `Some(value)`; on other ranks pass `None`.
    /// Returns the broadcast value on every rank.
    ///
    /// # Panics
    ///
    /// Panics if the root passes `None` or a non-root passes `Some`.
    fn broadcast<T: Payload + Clone>(&mut self, root: usize, value: Option<T>) -> T {
        let tag = self.next_collective_tag();
        let p = self.size();
        let vr = (self.rank() + p - root) % p;
        if vr == 0 {
            assert!(value.is_some(), "broadcast root must supply a value");
        } else {
            assert!(
                value.is_none(),
                "non-root rank {} passed a broadcast value",
                self.rank()
            );
        }

        let mut current = value;
        // Receive from the parent: the rank that differs in the lowest set
        // bit of our virtual rank.
        let mut mask = 1usize;
        while mask < p {
            if vr & mask != 0 {
                let parent = ((vr - mask) + root) % p;
                current = Some(self.recv_raw(parent, tag));
                break;
            }
            mask <<= 1;
        }
        // Forward to children under decreasing masks.
        mask >>= 1;
        let val = current.expect("broadcast value must exist after receive phase");
        while mask > 0 {
            if vr & mask == 0 && vr + mask < p {
                let child = ((vr + mask) + root) % p;
                self.send_raw(child, tag, val.clone());
            }
            mask >>= 1;
        }
        val
    }

    /// Reduces values from all ranks onto `root` with an associative (not
    /// necessarily commutative) `op`; partial results are combined in rank
    /// order. Returns `Some(total)` on root, `None` elsewhere.
    fn reduce<T: Payload + Clone>(
        &mut self,
        root: usize,
        value: T,
        op: impl Fn(&T, &T) -> T,
    ) -> Option<T> {
        let tag = self.next_collective_tag();
        let p = self.size();
        let vr = (self.rank() + p - root) % p;
        let mut acc = value;
        let mut mask = 1usize;
        while mask < p {
            if vr & mask == 0 {
                let peer_vr = vr | mask;
                if peer_vr < p {
                    let peer = (peer_vr + root) % p;
                    let other: T = self.recv_raw(peer, tag);
                    // `acc` covers virtual ranks [vr, vr+mask), `other`
                    // covers [vr+mask, ...): combine in rank order.
                    acc = op(&acc, &other);
                }
            } else {
                let peer = ((vr & !mask) + root) % p;
                self.send_raw(peer, tag, acc.clone());
                return None;
            }
            mask <<= 1;
        }
        debug_assert_eq!(vr, 0);
        Some(acc)
    }

    /// Reduce-to-all: every rank gets the rank-ordered combination of all
    /// contributions (reduce to rank 0, then broadcast).
    fn allreduce<T: Payload + Clone>(&mut self, value: T, op: impl Fn(&T, &T) -> T) -> T {
        let reduced = self.reduce(0, value, op);
        self.broadcast(0, reduced)
    }

    /// Gathers one value from each rank onto `root`, in rank order.
    /// Returns `Some(vec)` (indexed by rank) on root, `None` elsewhere.
    fn gather<T: Payload>(&mut self, root: usize, value: T) -> Option<Vec<T>> {
        let tag = self.next_collective_tag();
        if self.rank() == root {
            let mut out: Vec<Option<T>> = (0..self.size()).map(|_| None).collect();
            out[root] = Some(value);
            for src in (0..self.size()).filter(|&s| s != root) {
                let received = self.recv_raw(src, tag);
                out[src] = Some(received);
            }
            Some(
                out.into_iter()
                    .map(|v| v.expect("gather slot filled"))
                    .collect(),
            )
        } else {
            self.send_raw(root, tag, value);
            None
        }
    }

    /// All-gather: every rank receives the vector of all contributions in
    /// rank order (gather to rank 0 + broadcast).
    fn allgather<T: Payload + Clone>(&mut self, value: T) -> Vec<T> {
        let gathered = self.gather(0, value);
        self.broadcast(0, gathered)
    }

    /// Scatters `values` (indexed by rank) from `root`: rank `i` receives
    /// `values[i]`. On the root pass `Some(values)` (length `P`); on
    /// other ranks pass `None`.
    ///
    /// # Panics
    ///
    /// Panics if the root's vector length differs from the world size, if
    /// the root passes `None`, or a non-root passes `Some`.
    fn scatter<T: Payload>(&mut self, root: usize, values: Option<Vec<T>>) -> T {
        let tag = self.next_collective_tag();
        if self.rank() == root {
            let values = values.expect("scatter root must supply values");
            assert_eq!(values.len(), self.size(), "scatter length mismatch");
            let mut mine = None;
            for (dst, v) in values.into_iter().enumerate() {
                if dst == root {
                    mine = Some(v);
                } else {
                    self.send_raw(dst, tag, v);
                }
            }
            mine.expect("root keeps its own slot")
        } else {
            assert!(
                values.is_none(),
                "non-root rank {} passed scatter values",
                self.rank()
            );
            self.recv_raw(root, tag)
        }
    }

    /// All-to-all personalized exchange: `values[dst]` goes to rank
    /// `dst`; returns the vector of contributions received, indexed by
    /// source rank.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != size()`.
    fn alltoall<T: Payload>(&mut self, values: Vec<T>) -> Vec<T> {
        let tag = self.next_collective_tag();
        assert_eq!(values.len(), self.size(), "alltoall length mismatch");
        let mut slots: Vec<Option<T>> = (0..self.size()).map(|_| None).collect();
        for (dst, v) in values.into_iter().enumerate() {
            if dst == self.rank() {
                slots[dst] = Some(v);
            } else {
                self.send_raw(dst, tag, v);
            }
        }
        let (p, me) = (self.size(), self.rank());
        for src in (0..p).filter(|&s| s != me) {
            let received = self.recv_raw(src, tag);
            slots[src] = Some(received);
        }
        slots.into_iter().map(|v| v.expect("slot filled")).collect()
    }

    /// Inclusive scan (Kogge-Stone recursive doubling, `ceil(log2 P)`
    /// rounds): rank `r` obtains `op(x_0, op(x_1, ... x_r))` combined in
    /// rank order. This is the communication pattern whose cost is the
    /// `log P` term in the paper's `O(M^3 (N/P + log P))` bound.
    fn scan_inclusive<T: Payload + Clone>(&mut self, value: T, op: impl Fn(&T, &T) -> T) -> T {
        let tag = self.next_collective_tag();
        let p = self.size();
        let r = self.rank();
        let mut acc = value;
        let mut dist = 1usize;
        let mut round = 0u64;
        while dist < p {
            let round_tag = tag + round * (1 << 56);
            if r + dist < p {
                self.send_raw(r + dist, round_tag, acc.clone());
            }
            if r >= dist {
                let other: T = self.recv_raw(r - dist, round_tag);
                // `other` covers ranks [r - 2*dist + 1 .. r - dist], all
                // earlier than `acc`'s window: combine with it on the left.
                acc = op(&other, &acc);
            }
            dist <<= 1;
            round += 1;
        }
        acc
    }

    /// Exclusive scan: rank `r > 0` obtains the combination of ranks
    /// `0..r`; rank 0 obtains `None`. One shift round after an inclusive
    /// scan.
    fn scan_exclusive<T: Payload + Clone>(
        &mut self,
        value: T,
        op: impl Fn(&T, &T) -> T,
    ) -> Option<T> {
        let inclusive = self.scan_inclusive(value, op);
        let tag = self.next_collective_tag();
        let p = self.size();
        let r = self.rank();
        if r + 1 < p {
            self.send_raw(r + 1, tag, inclusive);
        }
        if r > 0 {
            Some(self.recv_raw(r - 1, tag))
        } else {
            None
        }
    }
}
