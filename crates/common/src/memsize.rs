//! Memory-footprint accounting helpers.
//!
//! Figure 13 of the paper compares classifier *index* sizes (the structures
//! traversed during lookup), excluding the rule storage itself. These helpers
//! make the accounting uniform across engines so the comparison is honest.

/// Bytes held by a `Vec`'s heap buffer (capacity, not length — that is what
/// the allocator actually reserved).
#[inline]
pub fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// Pretty-prints a byte count the way the paper annotates Figure 11
/// ("19.5 KB", "2 MB").
pub fn human_bytes(bytes: usize) -> String {
    const KB: f64 = 1024.0;
    let b = bytes as f64;
    if b >= KB * KB * KB {
        format!("{:.1} GB", b / (KB * KB * KB))
    } else if b >= KB * KB {
        format!("{:.1} MB", b / (KB * KB))
    } else if b >= KB {
        format!("{:.1} KB", b / KB)
    } else {
        format!("{bytes} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_accounting_uses_capacity() {
        let mut v: Vec<u64> = Vec::with_capacity(100);
        v.push(1);
        assert_eq!(vec_bytes(&v), 100 * 8);
    }

    #[test]
    fn human_formats() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(2048), "2.0 KB");
        assert_eq!(human_bytes(3 * 1024 * 1024), "3.0 MB");
    }
}
