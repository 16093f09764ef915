//! Property-based tests for the queue substrate.
//!
//! The reasoning guarantees of SCOOP/Qs (§2.2) rest on two queue properties:
//! per-producer FIFO order and exactly-once delivery.  These properties are
//! exercised here with randomly generated operation sequences and thread
//! interleavings.

use proptest::prelude::*;
use qs_queues::{bounded_spsc_channel, spsc_channel, Closed, Dequeue, MutexQueue, QueueOfQueues};
use std::sync::Arc;
use std::thread;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The SPSC private queue is a FIFO under any interleaving of enqueues
    /// and dequeues performed by one producer and one consumer thread.
    #[test]
    fn spsc_is_fifo(items in proptest::collection::vec(any::<u32>(), 0..2_000)) {
        let (tx, rx) = spsc_channel();
        let expected = items.clone();
        let producer = thread::spawn(move || {
            for item in items {
                tx.enqueue(item);
            }
            tx.close();
        });
        let mut got = Vec::new();
        while let Dequeue::Item(v) = rx.dequeue() {
            got.push(v);
        }
        producer.join().unwrap();
        prop_assert_eq!(got, expected);
    }

    /// The MPSC queue-of-queues delivers every item exactly once and keeps
    /// each producer's items in their insertion order.
    #[test]
    fn mpsc_per_producer_fifo(
        per_producer in proptest::collection::vec(
            proptest::collection::vec(any::<u16>(), 0..500), 1..6)
    ) {
        let q = Arc::new(QueueOfQueues::new());
        let mut handles = Vec::new();
        for (p, items) in per_producer.iter().cloned().enumerate() {
            let q = Arc::clone(&q);
            handles.push(thread::spawn(move || {
                for (i, item) in items.into_iter().enumerate() {
                    q.enqueue((p, i, item));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        q.close();
        let mut next_index = vec![0usize; per_producer.len()];
        let mut received = vec![Vec::new(); per_producer.len()];
        while let Dequeue::Item((p, i, item)) = q.dequeue() {
            prop_assert_eq!(i, next_index[p], "producer {} reordered", p);
            next_index[p] += 1;
            received[p].push(item);
        }
        prop_assert_eq!(received, per_producer);
    }

    /// A sequential interleaving of operations on the lock-free MPSC queue
    /// matches the behaviour of the reference mutex queue.
    #[test]
    fn mpsc_matches_mutex_queue_sequentially(ops in proptest::collection::vec(any::<Option<u8>>(), 0..400)) {
        let fast = QueueOfQueues::new();
        let reference = MutexQueue::new();
        for op in ops {
            match op {
                Some(v) => {
                    fast.enqueue(v);
                    reference.enqueue(v);
                }
                None => {
                    let a = fast.try_dequeue();
                    let b = reference.try_dequeue();
                    prop_assert_eq!(a, b);
                }
            }
        }
        // Drain both; remaining contents must agree.
        loop {
            let a = fast.try_dequeue();
            let b = reference.try_dequeue();
            prop_assert_eq!(&a, &b);
            if a == Ok(None) {
                break;
            }
        }
    }

    /// The bounded ring delivers every item exactly once, in FIFO order,
    /// across a real producer/consumer thread pair, and its length never
    /// exceeds the capacity — for any capacity, including the degenerate 1.
    #[test]
    fn bounded_ring_is_fifo_and_respects_capacity(
        items in proptest::collection::vec(any::<u32>(), 0..2_000),
        capacity in 1usize..17,
    ) {
        let (tx, rx) = bounded_spsc_channel(capacity);
        let expected = items.clone();
        let producer = thread::spawn(move || {
            let mut stalls = 0usize;
            for item in items {
                if tx.push(item) {
                    stalls += 1;
                }
            }
            tx.close();
            (tx, stalls)
        });
        let mut got = Vec::new();
        loop {
            let len = rx.queue().len();
            prop_assert!(len <= capacity, "len {} exceeded capacity {}", len, capacity);
            match rx.dequeue() {
                Dequeue::Item(v) => got.push(v),
                Dequeue::Closed => break,
            }
        }
        let (tx, stalls) = producer.join().unwrap();
        // Exactly once, in order: the received sequence *is* the sent one.
        prop_assert_eq!(&got, &expected);
        prop_assert_eq!(tx.queue().total_enqueued(), expected.len());
        prop_assert_eq!(tx.queue().total_dequeued(), expected.len());
        prop_assert_eq!(tx.queue().total_stalls(), stalls);
    }

    /// Draining in batches is observably equivalent to repeated single
    /// dequeues: same items, same order, same close behaviour — for any
    /// batch limit, capacity and item count.  The batches come from the
    /// handler's drain path: non-blocking `try_drain_batch`, re-polled
    /// while the ring is empty but open.
    #[test]
    fn bounded_drain_batch_equals_repeated_dequeue(
        items in proptest::collection::vec(any::<u16>(), 0..600),
        capacity in 1usize..9,
        max_batch in 1usize..12,
    ) {
        // Feed both queues the same way: producer threads with identical
        // input, so backpressure interleavings are exercised on both.
        let run = |by_batch: bool| {
            let (tx, rx) = bounded_spsc_channel(capacity);
            let items = items.clone();
            let producer = thread::spawn(move || {
                for item in items {
                    tx.push(item);
                }
                tx.close();
            });
            let mut got = Vec::new();
            if by_batch {
                loop {
                    match rx.try_drain_batch(&mut got, max_batch) {
                        Err(Closed) => break,
                        Ok(0) => thread::yield_now(),
                        Ok(n) => assert!(n <= max_batch),
                    }
                }
            } else {
                while let Dequeue::Item(v) = rx.dequeue() {
                    got.push(v);
                }
            }
            producer.join().unwrap();
            got
        };
        prop_assert_eq!(run(true), run(false));
    }

    /// The bounded MutexQueue (the lock-based configuration's mailbox) keeps
    /// the same FIFO/exactly-once guarantees and honours its capacity bound,
    /// drained the way the handler drains it (`try_drain_batch` polls).
    #[test]
    fn bounded_mutex_queue_is_fifo_and_respects_capacity(
        items in proptest::collection::vec(any::<u32>(), 0..800),
        capacity in 1usize..9,
        max_batch in 1usize..12,
    ) {
        let q = Arc::new(MutexQueue::with_capacity(Some(capacity)));
        let expected = items.clone();
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                for item in items {
                    q.enqueue(item);
                }
                q.close();
            })
        };
        let mut got = Vec::new();
        loop {
            prop_assert!(q.len() <= capacity, "len exceeded capacity {}", capacity);
            match q.try_drain_batch(&mut got, max_batch) {
                Err(Closed) => break,
                Ok(0) => thread::yield_now(),
                Ok(n) => prop_assert!(n <= max_batch),
            }
        }
        producer.join().unwrap();
        prop_assert_eq!(&got, &expected);
        prop_assert_eq!(q.total_enqueued(), expected.len());
        prop_assert_eq!(q.total_dequeued(), expected.len());
    }

    /// Closing with items still queued never loses them.
    #[test]
    fn close_does_not_drop_pending_items(n in 0usize..500) {
        let (tx, rx) = spsc_channel();
        for i in 0..n {
            tx.enqueue(i);
        }
        tx.close();
        let mut count = 0;
        while let Dequeue::Item(v) = rx.dequeue() {
            assert_eq!(v, count);
            count += 1;
        }
        prop_assert_eq!(count, n);
    }
}
