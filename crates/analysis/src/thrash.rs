//! Cache-contention injection (§5.2.1's L3 experiments).
//!
//! The paper restricts the classifier's L3 share with Intel CAT ("CAIDA*",
//! and the 1.5MB-L3 contention experiment). CAT needs root + specific Xeon
//! SKUs; the portable equivalent is an antagonist thread that continuously
//! sweeps a buffer sized like the cache share being stolen, evicting the
//! classifier's lines. Both mechanisms shrink the effective L3 the
//! classifier sees.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Bytes the thrasher sweeps: enough to evict a server-class L3 share.
const SWEEP_BYTES: usize = 12 * 1024 * 1024;

/// A background cache-polluting thread. Dropping the handle stops it.
pub struct CacheThrasher {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl CacheThrasher {
    /// Starts a thrasher sweeping 12 MB of memory in cache-line strides.
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let handle = std::thread::Builder::new()
            .name("cache-thrasher".into())
            .spawn(move || {
                let words = SWEEP_BYTES / 8;
                let mut buf = vec![1u64; words];
                let mut acc = 0u64;
                let mut i = 0usize;
                while !stop2.load(Ordering::Relaxed) {
                    // Stride of 8 words = 64B = one cache line; write to
                    // force ownership, read to defeat store elision.
                    buf[i] = buf[i].wrapping_add(acc | 1);
                    acc = acc.wrapping_add(buf[i]);
                    i += 8;
                    if i >= words {
                        i = 0;
                        std::hint::black_box(acc);
                    }
                }
            })
            .expect("spawn thrasher");
        Self { stop, handle: Some(handle) }
    }

    /// Stops the thread and waits for it.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for CacheThrasher {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_works_stops() {
        let t = CacheThrasher::start();
        std::thread::sleep(std::time::Duration::from_millis(50));
        t.stop();
    }

    #[test]
    fn drop_stops_cleanly() {
        let t = CacheThrasher::start();
        std::thread::sleep(std::time::Duration::from_millis(10));
        drop(t);
    }
}
