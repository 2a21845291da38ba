//! Offline stand-in for [`crossbeam`](https://docs.rs/crossbeam): just
//! the `channel` module, as an unbounded MPMC queue over
//! `Mutex<VecDeque>` + `Condvar`. Semantics match crossbeam for the
//! subset used here: cloneable `Sender`/`Receiver` (both `Send + Sync`),
//! disconnection when the last peer on the other side drops, FIFO per
//! queue, and `recv_timeout` that distinguishes `Timeout` from
//! `Disconnected`.

#![forbid(unsafe_code)]

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct Shared<T> {
        queue: Mutex<State<T>>,
        ready: Condvar,
    }

    struct State<T> {
        items: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    /// Create an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(State {
                items: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            ready: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    #[derive(PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    // Like crossbeam: Debug without requiring `T: Debug`.
    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "SendError(..)")
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty and disconnected channel")
        }
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => write!(f, "timed out waiting on receive"),
                RecvTimeoutError::Disconnected => write!(f, "channel disconnected"),
            }
        }
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut st = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            if st.receivers == 0 {
                return Err(SendError(value));
            }
            st.items.push_back(value);
            drop(st);
            self.shared.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(v) = st.items.pop_front() {
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self
                    .shared
                    .ready
                    .wait(st)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(v) = st.items.pop_front() {
                Ok(v)
            } else if st.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.recv_deadline(Instant::now() + timeout)
        }

        pub fn recv_deadline(&self, deadline: Instant) -> Result<T, RecvTimeoutError> {
            let mut st = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(v) = st.items.pop_front() {
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (g, res) = self
                    .shared
                    .ready
                    .wait_timeout(st, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                st = g;
                if res.timed_out() && st.items.is_empty() {
                    return if st.senders == 0 {
                        Err(RecvTimeoutError::Disconnected)
                    } else {
                        Err(RecvTimeoutError::Timeout)
                    };
                }
            }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared
                .queue
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared
                .queue
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            st.senders -= 1;
            let wake = st.senders == 0;
            drop(st);
            if wake {
                // Wake blocked receivers so they observe disconnection.
                self.shared.ready.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared
                .queue
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .receivers -= 1;
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn fifo_and_disconnect() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            drop(tx);
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
            assert_eq!(rx.recv(), Err(RecvError));
        }

        #[test]
        fn timeout_vs_disconnected() {
            let (tx, rx) = unbounded::<i32>();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Timeout)
            );
            drop(tx);
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Disconnected)
            );
        }

        #[test]
        fn mpmc_across_threads() {
            let (tx, rx) = unbounded();
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let tx = tx.clone();
                    std::thread::spawn(move || tx.send(i).unwrap())
                })
                .collect();
            drop(tx);
            let mut got: Vec<i32> = (0..4).map(|_| rx.recv().unwrap()).collect();
            got.sort_unstable();
            assert_eq!(got, vec![0, 1, 2, 3]);
            for h in handles {
                h.join().unwrap();
            }
        }
    }
}
