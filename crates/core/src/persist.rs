//! Binary persistence for trained models and whole classifier snapshots.
//!
//! Training a 500K-rule RQ-RMI takes seconds-to-minutes; classification
//! starts in microseconds if the trained weights can be loaded instead.
//! This module provides a small, versioned, checksummed binary codec — no
//! external serialisation format needed (the format is simple enough that a
//! schema language would cost more than it saves, and the workspace's
//! dependency policy is deliberately tight) — at two granularities:
//!
//! * [`save_rqrmi`] / [`load_rqrmi`] — one trained [`RqRmi`] model.
//! * [`save_snapshot`] / [`load_snapshot`] — a full `NuevoMatch` data
//!   plane: every iSet's model *and* lookup tables (projections, rule
//!   boxes, tombstones) plus the remainder engine's live rules, so a
//!   `ClassifierHandle` can warm-start from disk without retraining
//!   (`ClassifierHandle::from_snapshot`).
//!
//! RQ-RMI layout (all little-endian):
//!
//! ```text
//! magic  "NMRQRMI1"                      8 bytes
//! bits   u8, n_values u64, stages u8
//! per stage: width u32
//! per submodel: hidden u8, then w1/b1/w2 as f32 arrays, b2 f32
//! leaf error bounds: u32 per leaf
//! fnv64 checksum over everything above   8 bytes
//! ```
//!
//! Snapshot layout:
//!
//! ```text
//! magic  "NMSNAP02"                      8 bytes
//! generation u64, flags u8 (bit 0 = early termination)
//! total_rules u64 (the live count at save; load recounts it from the
//!   tables, so images written when it was the build-time count load right),
//! moved_updates u64
//! spec: nfields u32, per field (name_len u32 + utf8, bits u8)
//! isets: count u32, per iset, as laid out in memory (`system::Packed`;
//!        words are u32 when every field of the spec is ≤ 32 bits, else u64):
//!   dim u32, n u64
//!   records           n × stride words ([lo, hi] per field, id, priority, padding;
//!                     the search array is word 2·dim+1 of each, so it is not stored)
//!   tombstone bitmap  ceil(n/64) × u64
//!   embedded RQ-RMI blob (u32 length prefix, save_rqrmi format)
//! remainder: count u64, per rule (id u32, priority u32, nfields × lo/hi u64)
//! fnv64 checksum over everything above   8 bytes
//! ```
//!
//! The checksum catches truncation and bit rot; the magic catches format
//! confusion. The format version is the magic's suffix: an image of format
//! 1 (`NMSNAP01`, separate `los`/`his`/`boxes` arrays) is refused by name,
//! never parsed.

use crate::rqrmi::RqRmi;
use crate::system::{slot_bytes, wide, with_table, NuevoMatch, Table, TrainedISet, Word};
use nm_common::update::{BatchUpdatable, Generation};
use nm_common::{Classifier, Error, FieldSpec, FieldsSpec, Rule, RuleSet};
use nm_nn::Mlp;

const MAGIC: &[u8; 8] = b"NMRQRMI1";
const SNAP_MAGIC: &[u8; 8] = b"NMSNAP02";

fn fnv64(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The next `N` bytes off `buf`; the caller has checked they are there.
fn take<const N: usize>(buf: &mut &[u8]) -> [u8; N] {
    let (head, rest) = buf.split_at(N);
    *buf = rest;
    head.try_into().expect("split_at(N) yields N bytes")
}

/// Serialises a trained model to bytes.
pub fn save_rqrmi(model: &RqRmi) -> Vec<u8> {
    let mut out = Vec::with_capacity(model.memory_bytes() + 64);
    out.extend_from_slice(MAGIC);
    out.push(model.bits);
    out.extend_from_slice(&(model.n_values as u64).to_le_bytes());
    out.push(model.widths.len() as u8);
    for &w in &model.widths {
        out.extend_from_slice(&(w as u32).to_le_bytes());
    }
    for stage in &model.nets {
        for net in stage {
            out.push(net.hidden() as u8);
            for &v in net.w1.iter().chain(&net.b1).chain(&net.w2).chain([&net.b2]) {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
    for &e in &model.leaf_err {
        out.extend_from_slice(&e.to_le_bytes());
    }
    let sum = fnv64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Deserialises a model produced by [`save_rqrmi`], verifying the magic and
/// checksum.
pub fn load_rqrmi(data: &[u8]) -> Result<RqRmi, Error> {
    let fail = |msg: &str| Error::Build { msg: format!("load_rqrmi: {msg}") };
    if data.len() < MAGIC.len() + 8 {
        return Err(fail("too short"));
    }
    let (body, tail) = data.split_at(data.len() - 8);
    let want = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
    if fnv64(body) != want {
        return Err(fail("checksum mismatch"));
    }
    let mut buf = body;
    if take::<8>(&mut buf) != *MAGIC {
        return Err(fail("bad magic"));
    }
    let need = |buf: &[u8], n: usize, what: &str| -> Result<(), Error> {
        if buf.len() < n {
            Err(fail(&format!("truncated {what}")))
        } else {
            Ok(())
        }
    };
    need(buf, 10, "header")?;
    let bits = u8::from_le_bytes(take(&mut buf));
    if !(1..=52).contains(&bits) {
        return Err(fail("bits out of range"));
    }
    // The bounds below are what compiling the model asserts
    // (`CompiledRqRmi::with_isa`, `Kernel::from_mlp`): a checksummed image
    // that breaks them is refused here, not by a panic in the caller.
    let n_values = u64::from_le_bytes(take(&mut buf)) as usize;
    if n_values == 0 {
        return Err(fail("empty model"));
    }
    if i32::try_from(n_values).is_err() {
        return Err(fail("range count out of range"));
    }
    let stages = u8::from_le_bytes(take(&mut buf)) as usize;
    if stages == 0 || stages > 8 {
        return Err(fail("stage count out of range"));
    }
    need(buf, stages * 4, "widths")?;
    let widths: Vec<usize> =
        (0..stages).map(|_| u32::from_le_bytes(take(&mut buf)) as usize).collect();
    if widths[0] != 1 || widths.iter().any(|&w| w == 0 || w > 1 << 20) {
        return Err(fail("bad stage widths"));
    }
    let mut nets = Vec::with_capacity(stages);
    for &w in &widths {
        let mut stage = Vec::with_capacity(w);
        for _ in 0..w {
            need(buf, 1, "submodel header")?;
            let hidden = u8::from_le_bytes(take(&mut buf)) as usize;
            if hidden > Mlp::PAPER_HIDDEN {
                return Err(fail("hidden width out of range"));
            }
            need(buf, (3 * hidden + 1) * 4, "weights")?;
            let mut net = Mlp::zeros(hidden);
            for v in net.w1.iter_mut().chain(&mut net.b1).chain(&mut net.w2).chain([&mut net.b2]) {
                *v = f32::from_le_bytes(take(&mut buf));
            }
            stage.push(net);
        }
        nets.push(stage);
    }
    let leaves = *widths.last().expect("stages >= 1");
    need(buf, leaves * 4, "leaf bounds")?;
    let leaf_err: Vec<u32> = (0..leaves).map(|_| u32::from_le_bytes(take(&mut buf))).collect();
    if !buf.is_empty() {
        return Err(fail("trailing bytes"));
    }
    Ok(RqRmi { widths, nets, leaf_err, n_values, bits })
}

/// Serialises a full `NuevoMatch` data plane — every iSet's trained model
/// and lookup tables plus the remainder's live rules — under `generation`
/// (pass the handle's published generation, or 0 for a bare classifier).
///
/// Requires `R: BatchUpdatable` for the remainder rule export.
pub fn save_snapshot<R: BatchUpdatable>(nm: &NuevoMatch<R>, generation: Generation) -> Vec<u8> {
    let mut out = Vec::with_capacity(nm.memory_bytes() + 4096);
    out.extend_from_slice(SNAP_MAGIC);
    out.extend_from_slice(&generation.to_le_bytes());
    out.push(nm.early_termination() as u8);
    out.extend_from_slice(&(nm.num_rules() as u64).to_le_bytes());
    out.extend_from_slice(&(nm.moved_to_remainder() as u64).to_le_bytes());
    let spec = nm.spec();
    out.extend_from_slice(&(spec.len() as u32).to_le_bytes());
    for field in spec.iter() {
        out.extend_from_slice(&(field.name.len() as u32).to_le_bytes());
        out.extend_from_slice(field.name.as_bytes());
        out.push(field.bits);
    }
    out.extend_from_slice(&(nm.isets().len() as u32).to_le_bytes());
    for iset in nm.isets() {
        let (model, table, deleted) = iset.parts();
        out.extend_from_slice(&(iset.dim() as u32).to_le_bytes());
        out.extend_from_slice(&(iset.len() as u64).to_le_bytes());
        with_table!(table, t => put_words(&mut out, t.records()));
        for &w in deleted {
            out.extend_from_slice(&w.to_le_bytes());
        }
        let blob = save_rqrmi(model);
        out.extend_from_slice(&(blob.len() as u32).to_le_bytes());
        out.extend_from_slice(&blob);
    }
    let remainder_rules = nm.remainder().export_rules();
    out.extend_from_slice(&(remainder_rules.len() as u64).to_le_bytes());
    for rule in &remainder_rules {
        out.extend_from_slice(&rule.id.to_le_bytes());
        out.extend_from_slice(&rule.priority.to_le_bytes());
        for f in &rule.fields {
            out.extend_from_slice(&f.lo.to_le_bytes());
            out.extend_from_slice(&f.hi.to_le_bytes());
        }
    }
    let sum = fnv64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

fn put_words<W: Word>(out: &mut Vec<u8>, words: &[W]) {
    for &w in words {
        out.extend_from_slice(&wide(w).to_le_bytes()[..std::mem::size_of::<W>()]);
    }
}

/// One little-endian word off `buf`; the caller has checked it is there.
fn get_word<W: Word>(buf: &mut &[u8]) -> W {
    let (word, rest) = buf.split_at(std::mem::size_of::<W>());
    *buf = rest;
    let mut le = [0u8; 8];
    le[..word.len()].copy_from_slice(word);
    W::try_from(u64::from_le_bytes(le)).unwrap_or_else(|_| unreachable!("a word's bytes fit it"))
}

/// Deserialises a [`save_snapshot`] image, rebuilding the remainder engine
/// with `builder` over the persisted remainder rules. Returns the restored
/// classifier and the generation it was saved under. No retraining happens:
/// the iSet models load as trained.
pub fn load_snapshot<R: Classifier>(
    data: &[u8],
    builder: &(impl Fn(&RuleSet) -> R + ?Sized),
) -> Result<(NuevoMatch<R>, Generation), Error> {
    let fail = |msg: &str| Error::Build { msg: format!("load_snapshot: {msg}") };
    if data.len() < SNAP_MAGIC.len() + 8 {
        return Err(fail("too short"));
    }
    let (body, tail) = data.split_at(data.len() - 8);
    let want = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
    if fnv64(body) != want {
        return Err(fail("checksum mismatch"));
    }
    let mut buf = body;
    let magic: [u8; 8] = take(&mut buf);
    if &magic == b"NMSNAP01" {
        return Err(fail("snapshot format 1, rebuild"));
    }
    if magic != *SNAP_MAGIC {
        return Err(fail("bad magic"));
    }
    let need = |buf: &[u8], n: usize, what: &str| -> Result<(), Error> {
        if buf.len() < n {
            Err(fail(&format!("truncated {what}")))
        } else {
            Ok(())
        }
    };
    need(buf, 8 + 1 + 8 + 8 + 4, "header")?;
    let generation = u64::from_le_bytes(take(&mut buf));
    let early_termination = u8::from_le_bytes(take(&mut buf)) != 0;
    // Recounted by `assemble`: an image written before the count was live
    // carries the build-time figure here.
    let _stored_rule_count = u64::from_le_bytes(take(&mut buf));
    let moved_updates = u64::from_le_bytes(take(&mut buf)) as usize;
    let nfields = u32::from_le_bytes(take(&mut buf)) as usize;
    if nfields == 0 || nfields > 256 {
        return Err(fail("field count out of range"));
    }
    let mut fields = Vec::with_capacity(nfields);
    for _ in 0..nfields {
        need(buf, 4, "field name length")?;
        let len = u32::from_le_bytes(take(&mut buf)) as usize;
        if len > 4096 {
            return Err(fail("field name too long"));
        }
        need(buf, len + 1, "field descriptor")?;
        let (name, rest) = buf.split_at(len);
        buf = rest;
        let name = String::from_utf8(name.to_vec()).map_err(|_| fail("field name not utf-8"))?;
        let bits = u8::from_le_bytes(take(&mut buf));
        if !(1..=64).contains(&bits) {
            return Err(fail("field width out of range"));
        }
        fields.push(FieldSpec::new(name, bits));
    }
    let spec = FieldsSpec::new(fields);
    need(buf, 4, "iset count")?;
    let n_isets = u32::from_le_bytes(take(&mut buf)) as usize;
    if n_isets > 1 << 16 {
        return Err(fail("iset count out of range"));
    }
    let mut isets = Vec::with_capacity(n_isets);
    for _ in 0..n_isets {
        need(buf, 4 + 8, "iset header")?;
        let dim = u32::from_le_bytes(take(&mut buf)) as usize;
        if dim >= nfields {
            return Err(fail("iset dim outside schema"));
        }
        let n = u64::from_le_bytes(take(&mut buf)) as usize;
        let bytes = n
            .checked_mul(slot_bytes(nfields, Table::word_bytes(&spec)))
            .and_then(|b| b.checked_add(n.div_ceil(64) * 8))
            .ok_or_else(|| fail("iset size overflow"))?;
        need(buf, bytes, "iset arrays")?;
        let mut table = Table::new(&spec, dim, n);
        with_table!(&mut table, t => t.read_records(n, || get_word(&mut buf)));
        // Retrains and saves rebuild `FieldRange`s from the records.
        let inverted = with_table!(&table, t => (0..n).any(|pos| {
            let rec = t.record(pos);
            (0..nfields).any(|d| wide(rec[2 * d]) > wide(rec[2 * d + 1]))
        }));
        if inverted {
            return Err(fail("iset record range inverted"));
        }
        let deleted: Vec<u64> =
            (0..n.div_ceil(64)).map(|_| u64::from_le_bytes(take(&mut buf))).collect();
        if n % 64 != 0 && deleted[n / 64] >> (n % 64) != 0 {
            return Err(fail("tombstone bits past the last rule"));
        }
        need(buf, 4, "model blob length")?;
        let blob_len = u32::from_le_bytes(take(&mut buf)) as usize;
        need(buf, blob_len, "model blob")?;
        let (blob, rest) = buf.split_at(blob_len);
        buf = rest;
        let model = load_rqrmi(blob)?;
        // The search windows are cut from the model's predictions.
        if model.len() != n {
            return Err(fail("iset model indexes another rule count"));
        }
        isets.push(TrainedISet::from_parts(model, table, deleted));
    }
    need(buf, 8, "remainder count")?;
    let n_remainder = u64::from_le_bytes(take(&mut buf)) as usize;
    let mut remainder_rules = Vec::with_capacity(n_remainder.min(1 << 20));
    for _ in 0..n_remainder {
        need(buf, 8 + nfields * 16, "remainder rule")?;
        let id = u32::from_le_bytes(take(&mut buf));
        let priority = u32::from_le_bytes(take(&mut buf));
        let mut fields = Vec::with_capacity(nfields);
        for _ in 0..nfields {
            let (lo, hi) = (u64::from_le_bytes(take(&mut buf)), u64::from_le_bytes(take(&mut buf)));
            if lo > hi {
                return Err(fail("remainder rule range inverted"));
            }
            fields.push(nm_common::FieldRange::new(lo, hi));
        }
        remainder_rules.push(Rule::new(id, priority, fields));
    }
    if !buf.is_empty() {
        return Err(fail("trailing bytes"));
    }
    let remainder_set = RuleSet::new(spec.clone(), remainder_rules)?;
    let remainder = builder(&remainder_set);
    let mut nm = NuevoMatch::assemble(isets, remainder, early_termination, spec);
    // One live rule per id: the routing map `assemble` just built sends an
    // id to one iSet position, and a full rebuild refuses a rule-set that
    // repeats one. A tombstoned iSet copy beside a remainder version is
    // what a modify leaves, and loads.
    if nm.loc.len() < nm.isets().iter().map(TrainedISet::len).sum() {
        return Err(fail("rule id at two iset positions"));
    }
    let live_in_iset = |id| {
        nm.loc.get(&id).is_some_and(|&(i, pos)| !nm.isets()[i as usize].is_deleted(pos as usize))
    };
    if remainder_set.rules().iter().any(|r| live_in_iset(r.id)) {
        return Err(fail("rule id live in an iset and the remainder"));
    }
    nm.moved_updates = moved_updates;
    Ok((nm, generation))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RqRmiParams;
    use crate::rqrmi::train_rqrmi;
    use nm_common::FieldRange;

    fn model() -> RqRmi {
        let ranges: Vec<FieldRange> =
            (0..300).map(|i| FieldRange::new(i * 200, i * 200 + 99)).collect();
        train_rqrmi(&ranges, 16, &RqRmiParams { samples_init: 256, ..Default::default() }).unwrap()
    }

    #[test]
    fn roundtrip_preserves_predictions() {
        let m = model();
        let bytes = save_rqrmi(&m);
        let back = load_rqrmi(&bytes).unwrap();
        assert_eq!(back.widths(), m.widths());
        assert_eq!(back.len(), m.len());
        for key in (0..65_536u64).step_by(37) {
            assert_eq!(back.predict(key), m.predict(key), "key {key}");
        }
    }

    #[test]
    fn checksum_catches_corruption() {
        let m = model();
        let bytes = save_rqrmi(&m);
        for pos in [8usize, bytes.len() / 2, bytes.len() - 9] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            assert!(load_rqrmi(&bad).is_err(), "corruption at {pos} accepted");
        }
    }

    #[test]
    fn truncation_rejected_at_every_length() {
        let bytes = save_rqrmi(&model());
        for len in 0..bytes.len() {
            assert!(load_rqrmi(&bytes[..len]).is_err(), "accepted {len}-byte prefix");
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = save_rqrmi(&model());
        bytes[0] = b'X';
        assert!(load_rqrmi(&bytes).is_err());
    }

    /// Well-formed, checksummed images of models the inference kernels
    /// cannot compile (`CompiledRqRmi::with_isa` would panic on them) are
    /// refused by the loader.
    #[test]
    fn uncompilable_models_are_refused_with_an_error() {
        let wide = RqRmi {
            widths: vec![1],
            nets: vec![vec![Mlp::zeros(16)]],
            leaf_err: vec![0],
            n_values: 10,
            bits: 16,
        };
        let huge = RqRmi { nets: vec![vec![Mlp::zeros(8)]], n_values: 1 << 31, ..wide.clone() };
        for (model, what) in [(wide, "hidden width"), (huge, "range count")] {
            let err = load_rqrmi(&save_rqrmi(&model)).expect_err(what);
            assert!(err.to_string().contains(what), "{err}");
        }
    }

    #[test]
    fn size_is_close_to_model_memory() {
        let m = model();
        let bytes = save_rqrmi(&m);
        // Serialised form should be within 2x of the in-memory weight bytes.
        assert!(bytes.len() < m.memory_bytes() * 2 + 128);
    }

    /// The `NMRQRMI1` bytes of a hand-built two-stage model, pinned. The
    /// round trips above cannot see an encoder and decoder that change
    /// together; this literal can. No training, so no trainer change moves it.
    #[test]
    fn rqrmi_image_bytes_are_stable() {
        let net = |w1: &[f32], b1: &[f32], w2: &[f32], b2: f32| Mlp {
            w1: w1.to_vec(),
            b1: b1.to_vec(),
            w2: w2.to_vec(),
            b2,
        };
        let m = RqRmi {
            widths: vec![1, 2],
            nets: vec![
                vec![net(&[0.5, -1.25], &[0.0, 1.0], &[0.75, 2.0], 0.125)],
                vec![net(&[1.0], &[-0.5], &[0.25], 0.5), net(&[3.0], &[0.0], &[-1.0], 1.0)],
            ],
            leaf_err: vec![1, 2],
            n_values: 5,
            bits: 16,
        };
        #[rustfmt::skip]
        let image: [u8; 105] = [
            0x4e, 0x4d, 0x52, 0x51, 0x52, 0x4d, 0x49, 0x31, 0x10, 0x05, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00,
            0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x3f, 0x00, 0x00, 0xa0, 0xbf, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0x40, 0x3f, 0x00,
            0x00, 0x00, 0x40, 0x00, 0x00, 0x00, 0x3e, 0x01, 0x00, 0x00, 0x80, 0x3f,
            0x00, 0x00, 0x00, 0xbf, 0x00, 0x00, 0x80, 0x3e, 0x00, 0x00, 0x00, 0x3f,
            0x01, 0x00, 0x00, 0x40, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80,
            0xbf, 0x00, 0x00, 0x80, 0x3f, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00,
            0x00, 0xa4, 0x1f, 0xad, 0x62, 0x25, 0xe6, 0xed, 0x1d,
        ];
        assert_eq!(save_rqrmi(&m), image);
        let back = load_rqrmi(&image).unwrap();
        assert_eq!((&back.widths, &back.nets, &back.leaf_err), (&m.widths, &m.nets, &m.leaf_err));
        assert_eq!((back.n_values, back.bits), (m.n_values, m.bits));
    }

    mod snapshot {
        use super::super::*;
        use crate::config::{NuevoMatchConfig, RqRmiParams};
        use crate::system::ClassifierHandle;
        use nm_common::{FieldsSpec, FiveTuple, LinearSearch, UpdateBatch};

        fn cfg() -> NuevoMatchConfig {
            NuevoMatchConfig {
                rqrmi: RqRmiParams { samples_init: 256, ..Default::default() },
                ..Default::default()
            }
        }

        fn updated_nm() -> NuevoMatch<LinearSearch> {
            let rules: Vec<_> = (0..250u16)
                .map(|i| {
                    FiveTuple::new()
                        .dst_port_range(i * 100, i * 100 + 99)
                        .into_rule(i as u32, i as u32)
                })
                .collect();
            let set = RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap();
            let mut nm = NuevoMatch::build(&set, &cfg(), LinearSearch::build).unwrap();
            // Leave history in every structure: tombstones, remainder
            // inserts, a modify.
            nm.apply(
                &UpdateBatch::new()
                    .remove(17)
                    .remove(200)
                    .insert(FiveTuple::new().dst_port_exact(61_234).into_rule(900, 3))
                    .modify(FiveTuple::new().dst_port_range(45_000, 45_050).into_rule(30, 30)),
            );
            nm
        }

        #[test]
        fn roundtrip_preserves_all_verdicts() {
            let nm = updated_nm();
            let bytes = save_snapshot(&nm, 7);
            let (back, generation) = load_snapshot(&bytes, &LinearSearch::build).unwrap();
            assert_eq!(generation, 7);
            assert_eq!(back.num_rules(), nm.num_rules());
            assert_eq!(back.isets().len(), nm.isets().len());
            assert_eq!(back.moved_to_remainder(), nm.moved_to_remainder());
            assert_eq!(back.early_termination(), nm.early_termination());
            assert_eq!(back.remainder().num_rules(), nm.remainder().num_rules());
            for port in (0u64..65_536).step_by(31) {
                let key = [1, 2, 3, port, 6];
                assert_eq!(back.classify(&key), nm.classify(&key), "port {port}");
            }
            // Tombstones and the modify must have survived.
            assert_eq!(back.classify(&[0, 0, 0, 1_750, 0]), None, "tombstone lost");
            assert_eq!(back.classify(&[0, 0, 0, 45_025, 0]).unwrap().rule, 30);
            assert_eq!(back.classify(&[0, 0, 0, 61_234, 0]).unwrap().rule, 900);
        }

        #[test]
        fn corruption_and_truncation_rejected() {
            let bytes = save_snapshot(&updated_nm(), 1);
            for pos in [0usize, 9, bytes.len() / 2, bytes.len() - 9] {
                let mut bad = bytes.clone();
                bad[pos] ^= 0x20;
                assert!(
                    load_snapshot(&bad, &LinearSearch::build).is_err(),
                    "corruption at {pos} accepted"
                );
            }
            for len in (0..bytes.len()).step_by(97) {
                assert!(
                    load_snapshot(&bytes[..len], &LinearSearch::build).is_err(),
                    "accepted {len}-byte prefix"
                );
            }
            // An RQ-RMI blob is not a snapshot.
            let m = super::model();
            assert!(load_snapshot(&save_rqrmi(&m), &LinearSearch::build).is_err());
        }

        /// Recomputes the trailing checksum of an image (or of a model blob
        /// inside one) after a test patched it.
        fn reseal(image: &mut [u8]) {
            let body = image.len() - 8;
            let sum = super::super::fnv64(&image[..body]);
            image[body..].copy_from_slice(&sum.to_le_bytes());
        }

        /// The error a patched, resealed image is refused with — by the
        /// loader and by the handle's warm start alike.
        fn refusal(image: &[u8]) -> String {
            let err = load_snapshot(image, &LinearSearch::build).err().expect("image accepted");
            assert!(ClassifierHandle::from_snapshot(image, &cfg(), LinearSearch::build).is_err());
            err.to_string()
        }

        #[test]
        fn format_1_image_is_refused_by_name() {
            // A well-formed image of the previous format (valid checksum,
            // old magic) must be turned away before any field is parsed.
            let mut bytes = save_snapshot(&updated_nm(), 1);
            bytes[..8].copy_from_slice(b"NMSNAP01");
            reseal(&mut bytes);
            assert!(refusal(&bytes).contains("snapshot format 1, rebuild"));
        }

        // A checksum is not a signature: the images below are well formed
        // and sealed, and each used to reach an assert — in the loader, in
        // the next retrain, or in whichever reader first looked a key up.

        #[test]
        fn field_width_outside_1_to_64_is_refused() {
            let good = save_snapshot(&updated_nm(), 1);
            // Header (8 + 8 + 1 + 8 + 8), field count, first name's length.
            let name_len = u32::from_le_bytes(good[37..41].try_into().unwrap()) as usize;
            for bits in [0u8, 65] {
                let mut bad = good.clone();
                bad[41 + name_len] = bits;
                reseal(&mut bad);
                assert!(refusal(&bad).contains("field width out of range"), "bits {bits}");
            }
        }

        #[test]
        fn inverted_remainder_range_is_refused() {
            let nm = updated_nm();
            assert!(nm.remainder().num_rules() > 0);
            let mut bad = save_snapshot(&nm, 1);
            // The image ends: last rule's five [lo, hi] pairs, checksum.
            let last_pair = bad.len() - 8 - 16;
            bad[last_pair..last_pair + 8].copy_from_slice(&7u64.to_le_bytes());
            bad[last_pair + 8..last_pair + 16].copy_from_slice(&6u64.to_le_bytes());
            reseal(&mut bad);
            assert!(refusal(&bad).contains("remainder rule range inverted"));
        }

        #[test]
        fn inverted_iset_record_range_is_refused() {
            let nm = updated_nm();
            let mut bad = save_snapshot(&nm, 1);
            // Header and field count, the field descriptors, the iSet count,
            // the first iSet's dim and rule count: its first record.
            let names: usize = nm.spec().iter().map(|f| 4 + f.name.len() + 1).sum();
            let lo = 37 + names + 4 + 12 + 2 * nm.isets()[0].dim() * 4;
            bad[lo..lo + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            reseal(&mut bad);
            assert!(refusal(&bad).contains("iset record range inverted"));
        }

        #[test]
        fn duplicate_live_rule_id_is_refused() {
            let nm = updated_nm();
            let good = save_snapshot(&nm, 1);
            // The image ends: last remainder rule (id, priority, five
            // [lo, hi] pairs), checksum. That rule is the modify's new
            // version of 30, whose iSet copy is tombstoned: the image loads.
            let id = good.len() - 8 - (8 + 5 * 16);
            assert_eq!(good[id..id + 4], 30u32.to_le_bytes());
            assert!(load_snapshot(&good, &LinearSearch::build).is_ok());
            // Renamed to 5, it is live in an iSet as well.
            let mut bad = good.clone();
            bad[id..id + 4].copy_from_slice(&5u32.to_le_bytes());
            reseal(&mut bad);
            assert!(refusal(&bad).contains("rule id live in an iset and the remainder"));
            // The first iSet's second record takes its first record's id.
            let names: usize = nm.spec().iter().map(|f| 4 + f.name.len() + 1).sum();
            let first = 37 + names + 4 + 12;
            let slot = slot_bytes(nm.spec().len(), Table::word_bytes(nm.spec()));
            let at = first + 2 * nm.spec().len() * Table::word_bytes(nm.spec());
            let mut bad = good;
            bad.copy_within(at..at + 4, at + slot);
            reseal(&mut bad);
            assert!(refusal(&bad).contains("rule id at two iset positions"));
        }

        #[test]
        fn model_indexing_another_rule_count_is_refused() {
            let mut bad = save_snapshot(&updated_nm(), 1);
            let blob = bad.windows(8).position(|w| w == MAGIC).expect("an iSet model");
            let len = u32::from_le_bytes(bad[blob - 4..blob].try_into().unwrap()) as usize;
            // Magic, bits, then the range count: claim one range more.
            let n_values = u64::from_le_bytes(bad[blob + 9..blob + 17].try_into().unwrap());
            bad[blob + 9..blob + 17].copy_from_slice(&(n_values + 1).to_le_bytes());
            reseal(&mut bad[blob..blob + len]);
            reseal(&mut bad);
            assert!(refusal(&bad).contains("iset model indexes another rule count"));
        }

        /// Seeded fuzz over 4 000 corrupted images of a good snapshot, each
        /// truncated or with 1–4 bits flipped and then resealed, so the
        /// checksum passes and the parser meets the damage. The loader must
        /// answer `Ok` or `Err`, never panic; every image it accepts must
        /// then survive what a served snapshot meets: per-key and batched
        /// lookups, a partial retrain and a re-save.
        #[test]
        fn corrupted_resealed_images_load_or_refuse_without_panicking() {
            use crate::config::PartialRetrainPolicy;
            use std::panic::{catch_unwind, AssertUnwindSafe};
            let good = save_snapshot(&updated_nm(), 1);
            let body = (good.len() - 8) as u64;
            let cfg = NuevoMatchConfig { partial_retrain: PartialRetrainPolicy::always(), ..cfg() };
            let mut rng = nm_common::SplitMix64::new(0x5eed_f022);
            let (mut accepted, mut panicked) = (0, Vec::new());
            for case in 0..4_000 {
                let mut image = good.clone();
                if rng.below(2) == 0 {
                    image.truncate(8 + rng.below(body) as usize);
                } else {
                    for _ in 0..1 + rng.below(4) {
                        let bit = rng.below(8 * body);
                        image[(bit / 8) as usize] ^= 1 << (bit % 8);
                    }
                }
                reseal(&mut image);
                let served = catch_unwind(AssertUnwindSafe(|| {
                    let Ok((nm, generation)) = load_snapshot(&image, &LinearSearch::build) else {
                        return false;
                    };
                    let stride = nm.spec().len();
                    let keys: Vec<u64> =
                        (0..64 * stride as u64).map(|i| i * 1_031 % 65_536).collect();
                    let mut out = vec![None; 64];
                    nm.classify_batch(&keys, stride, &mut out);
                    for key in keys.chunks_exact(stride) {
                        nm.classify(key);
                    }
                    let _ = nm.partial_retrain(&cfg);
                    save_snapshot(&nm, generation);
                    true
                }));
                match served {
                    Ok(ok) => accepted += ok as usize,
                    Err(_) => panicked.push(case),
                }
            }
            assert!(
                panicked.is_empty(),
                "{} images panicked, first {:?}",
                panicked.len(),
                panicked.first()
            );
            assert!((500..3_500).contains(&accepted), "{accepted} of 4 000 accepted");
        }

        #[test]
        fn partially_retrained_snapshot_roundtrips_bit_identically() {
            // A partial retrain patches leaf submodels in place (rescaled
            // w2/b2, refit nets, changed n_values); the codec must
            // round-trip the patched model exactly — no retraining, same
            // verdicts, and a revived handle keeps partial-retraining.
            use crate::config::PartialRetrainPolicy;
            let cfg = NuevoMatchConfig { partial_retrain: PartialRetrainPolicy::always(), ..cfg() };
            let mut nm = updated_nm();
            let (patched, report) = nm.partial_retrain(&cfg).unwrap();
            assert!(report.isets_patched >= 1, "{report:?}");
            nm = patched;
            let bytes = save_snapshot(&nm, 9);
            let (back, generation) = load_snapshot(&bytes, &LinearSearch::build).unwrap();
            assert_eq!(generation, 9);
            assert_eq!(back.isets().len(), nm.isets().len());
            for (a, b) in back.isets().iter().zip(nm.isets()) {
                assert_eq!(a.len(), b.len());
                assert_eq!(a.model().leaf_error_bounds(), b.model().leaf_error_bounds());
                // Bit-identical predictions from the reloaded patched model.
                for key in (0u64..65_536).step_by(101) {
                    assert_eq!(a.model().predict(key), b.model().predict(key), "key {key}");
                }
            }
            for port in (0u64..65_536).step_by(43) {
                let key = [1, 2, 3, port, 6];
                assert_eq!(back.classify(&key), nm.classify(&key), "port {port}");
            }
            // The revived classifier can itself be partially retrained.
            let mut revived = back;
            revived.apply(&UpdateBatch::new().remove(40));
            let (again, _) = revived.partial_retrain(&cfg).unwrap();
            assert_eq!(again.classify(&[0, 0, 0, 4_050, 0]), None, "rule 40 resurrected");
        }

        #[test]
        fn handle_warm_start_resumes_lifecycle() {
            let rules: Vec<_> = (0..300u16)
                .map(|i| {
                    FiveTuple::new()
                        .dst_port_range(i * 100, i * 100 + 99)
                        .into_rule(i as u32, i as u32)
                })
                .collect();
            let set = RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap();
            let handle = ClassifierHandle::new(&set, &cfg(), LinearSearch::build).unwrap();
            handle.apply(&UpdateBatch::new().remove(5).remove(7));
            let image = handle.save();

            let revived =
                ClassifierHandle::from_snapshot(&image, &cfg(), LinearSearch::build).unwrap();
            assert_eq!(revived.generation(), handle.generation());
            assert_eq!(revived.classify(&[0, 0, 0, 550, 0]), None, "tombstone lost");
            assert_eq!(revived.classify(&[0, 0, 0, 850, 0]).unwrap().rule, 8);
            // The revived handle keeps updating and retraining.
            revived.apply(&UpdateBatch::new().remove(8));
            assert_eq!(revived.classify(&[0, 0, 0, 850, 0]), None);
            let g = revived.retrain().unwrap();
            assert_eq!(revived.generation(), g);
            assert_eq!(revived.classify(&[0, 0, 0, 550, 0]), None, "retrain resurrected rule 5");
            assert_eq!(revived.classify(&[0, 0, 0, 850, 0]), None, "retrain resurrected rule 8");
            assert_eq!(revived.classify(&[0, 0, 0, 950, 0]).unwrap().rule, 9);
        }
    }
}
