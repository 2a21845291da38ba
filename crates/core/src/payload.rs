//! Recycled buffers for bulk reply payloads.
//!
//! A home copies every object it serves into a fresh buffer, and the
//! requester drops that buffer a few turns later. Comm handlers run
//! inline on whichever application thread is at the engine's dispatch
//! point, so one handler turn's burst of replies (a single-home hot
//! object answers every reader in one turn: tens of megabytes) would
//! land in a different thread's malloc arena each time, and glibc keeps
//! each arena near its own high-water mark. A cluster's nodes share one
//! [`PayloadPool`] instead: the requester hands the spent payload back
//! and the next reply of that size is copied into the same allocation,
//! whichever threads the two turns ran on.

use bytes::{Bytes, BytesMut};
use parking_lot::Mutex;

/// Payloads smaller than this go through the allocator as before.
const MIN_POOLED: usize = 64 << 10;
/// Idle buffers the pool holds on to at most, in bytes of capacity.
const MAX_IDLE: usize = 32 << 20;

/// Idle payload buffers, shared by the nodes of one cluster.
#[derive(Default)]
pub struct PayloadPool {
    idle: Mutex<Vec<BytesMut>>,
}

impl PayloadPool {
    /// `src` as an owned payload, in a recycled buffer when one fits
    /// without wasting more than half of it.
    pub fn copy(&self, src: &[u8]) -> Bytes {
        if src.len() < MIN_POOLED {
            return Bytes::copy_from_slice(src);
        }
        let fits = |b: &BytesMut| (src.len()..=2 * src.len()).contains(&b.capacity());
        let recycled = {
            let mut idle = self.idle.lock();
            idle.iter().position(fits).map(|i| idle.swap_remove(i))
        };
        let mut buf = recycled.unwrap_or_else(|| BytesMut::with_capacity(src.len()));
        buf.clear();
        buf.extend_from_slice(src);
        buf.freeze()
    }

    /// Take back a payload its consumer is done with. Kept only when
    /// this was the last handle on the whole buffer and the pool is not
    /// full; dropped like any other value otherwise.
    pub fn recycle(&self, spent: Bytes) {
        if spent.len() < MIN_POOLED {
            return;
        }
        if let Ok(buf) = spent.try_into_mut() {
            let mut idle = self.idle.lock();
            let held: usize = idle.iter().map(BytesMut::capacity).sum();
            if held + buf.capacity() <= MAX_IDLE {
                idle.push(buf);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idle_buffers(pool: &PayloadPool) -> usize {
        pool.idle.lock().len()
    }

    #[test]
    fn a_recycled_payload_carries_the_next_copy_of_its_size() {
        let pool = PayloadPool::default();
        let first = pool.copy(&vec![1u8; MIN_POOLED + 100]);
        let at = first.as_ptr();
        pool.recycle(first);
        // A little smaller still fits; the contents are the new ones.
        let second = pool.copy(&vec![2u8; MIN_POOLED]);
        assert_eq!(second.as_ptr(), at);
        assert_eq!(second, Bytes::from(vec![2u8; MIN_POOLED]));
        // The buffer is out on loan: the next copy allocates.
        let third = pool.copy(&vec![3u8; MIN_POOLED]);
        assert_ne!(third.as_ptr(), at);
    }

    #[test]
    fn small_shared_and_partial_payloads_are_not_pooled() {
        let pool = PayloadPool::default();
        pool.recycle(pool.copy(&[7u8; 100]));
        assert_eq!(idle_buffers(&pool), 0, "small");
        let shared = pool.copy(&vec![7u8; MIN_POOLED]);
        let keep = shared.clone();
        pool.recycle(shared);
        assert_eq!(idle_buffers(&pool), 0, "another handle is alive");
        pool.recycle(keep.slice(1..));
        assert_eq!(idle_buffers(&pool), 0, "a partial view");
        pool.recycle(keep);
        assert_eq!(idle_buffers(&pool), 1, "the last handle, whole");
    }

    #[test]
    fn oversized_buffers_wait_for_a_payload_that_can_use_them() {
        let pool = PayloadPool::default();
        let big = pool.copy(&vec![8u8; 3 * MIN_POOLED]);
        let at = big.as_ptr();
        pool.recycle(big);
        assert_ne!(pool.copy(&vec![9u8; MIN_POOLED]).as_ptr(), at);
        assert_eq!(pool.copy(&vec![9u8; 2 * MIN_POOLED]).as_ptr(), at);
    }

    #[test]
    fn the_pool_stops_growing_at_its_byte_bound() {
        let pool = PayloadPool::default();
        for _ in 0..4 {
            pool.recycle(Bytes::from(vec![0u8; MAX_IDLE / 2]));
        }
        assert_eq!(idle_buffers(&pool), 2);
    }
}
