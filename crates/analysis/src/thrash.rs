//! Cache-contention injection (§5.2.1's L3 experiments).
//!
//! The paper restricts the classifier's L3 share with Intel CAT ("CAIDA*",
//! and the 1.5MB-L3 contention experiment). CAT needs root + specific Xeon
//! SKUs; the portable equivalent is an antagonist thread that continuously
//! sweeps a buffer sized like the cache share being stolen, evicting the
//! classifier's lines. Both mechanisms shrink the effective L3 the
//! classifier sees.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A background cache-polluting thread. Dropping the handle stops it.
pub struct CacheThrasher {
    stop: Arc<AtomicBool>,
    sink: Arc<AtomicU64>,
    handle: Option<std::thread::JoinHandle<()>>,
    buffer_bytes: usize,
}

impl CacheThrasher {
    /// Starts a thrasher sweeping `megabytes` MB of memory in cache-line
    /// strides.
    pub fn start(megabytes: usize) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let sink = Arc::new(AtomicU64::new(0));
        let buffer_bytes = megabytes.max(1) * 1024 * 1024;
        let stop2 = stop.clone();
        let sink2 = sink.clone();
        let handle = std::thread::Builder::new()
            .name("cache-thrasher".into())
            .spawn(move || {
                let words = buffer_bytes / 8;
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
                        sink2.store(acc, Ordering::Relaxed);
                    }
                }
                sink2.store(acc, Ordering::Relaxed);
            })
            .expect("spawn thrasher");
        Self { stop, sink, handle: Some(handle), buffer_bytes }
    }

    /// Buffer size being swept.
    pub fn buffer_bytes(&self) -> usize {
        self.buffer_bytes
    }

    /// Proof-of-work value (also keeps the buffer observable).
    pub fn progress(&self) -> u64 {
        self.sink.load(Ordering::Relaxed)
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
        let t = CacheThrasher::start(4);
        assert_eq!(t.buffer_bytes(), 4 * 1024 * 1024);
        std::thread::sleep(std::time::Duration::from_millis(50));
        t.stop();
    }

    #[test]
    fn drop_stops_cleanly() {
        let t = CacheThrasher::start(1);
        std::thread::sleep(std::time::Duration::from_millis(10));
        drop(t);
    }
}
