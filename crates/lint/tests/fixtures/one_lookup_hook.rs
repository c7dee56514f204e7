// Fixture: trips `one-lookup-hook` exactly once — a `Classifier` impl that
// defines the provided `classify` beside its `batch_lookup`.

pub struct Scan;

impl nm_common::Classifier for Scan {
    fn classify(&self, key: &[u64]) -> Option<MatchResult> {
        None
    }

    fn batch_lookup(
        &self,
        keys: &[u64],
        stride: usize,
        floors: Option<&[Priority]>,
        out: &mut [Option<MatchResult>],
    ) {
        out.fill(None);
    }
}

// Another trait's `classify_batch`, in an impl whose generics name
// `Classifier`, is not a `Classifier` impl.
impl<C: Classifier> PinnedPlane for &Sharded<C> {
    fn classify_batch(&self, keys: &[u64], stride: usize, out: &mut [Option<MatchResult>]) {
        out.fill(None);
    }
}

// A helper of the same name in an inherent impl is fine too.
impl Scan {
    fn classify(&self, key: &[u64]) -> bool {
        key.is_empty()
    }
}
