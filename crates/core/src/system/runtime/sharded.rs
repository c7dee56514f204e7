//! The sharded data plane: per-shard engine replicas behind one steering
//! stage.
//!
//! There is one plane, [`ShardedClassifier`]: a [`ShardPlan`], one engine
//! per home shard and the broadcast engine, steer → per-shard lookup →
//! priority merge. It is used two ways:
//!
//! * **Static** — engines built once from the plan's subsets. Any
//!   [`Classifier`] works (TupleMerge, CutSplit, NeuroCuts, NuevoMatch,
//!   boxed engines); this is the form `nmctl bench --shards` and the
//!   checksum-equivalence tests use.
//! * **Live** — [`ShardedHandle`] publishes the plane over per-shard
//!   NuevoMatch engines, one [`ShardEpoch`] per logical generation, through
//!   the same [`Published`](crate::system::publish::Published) cell and
//!   retrain skeleton a plain handle uses: one cell, one stamp, one replay
//!   queue per shard. `UpdateBatch` applies **fan
//!   out**: each op routes to the shard the plan steers its rule to (moving
//!   shards when a modify changes the steering field), only the touched
//!   shards' engines are cloned, and the next epoch publishes with the
//!   untouched ones shared. Readers pin the epoch with two atomic ops; a
//!   pinned epoch is immutable, so **no batch can ever mix generations
//!   across shards** — the coherence the runtime's checksum equivalence
//!   rests on. A retrain re-makes every shard (concurrently), then one
//!   epoch publishes the fresh models together — or, if any shard fails,
//!   none of them.
//!
//! The plane is a [`Classifier`], so it drops into every existing harness,
//! and both it and the handle are [`ShardedDataPlane`]s, so
//! [`Runtime::run`](super::Runtime::run) can spread their shards across
//! pinned workers. One `Arc` of a stamped epoch is the handle's pin for the
//! runtime and for the serve front-end alike; the static plane's pin is a
//! plain reference.

use std::collections::HashMap;
use std::sync::Arc;

use nm_common::classifier::{apply_floors, Classifier, MatchResult};
use nm_common::rule::{Priority, Rule, RuleId};
use nm_common::ruleset::RuleSet;
use nm_common::shard::{ShardPlan, ShardRoute};
use nm_common::update::{
    apply_ops, BatchUpdatable, Generation, Snapshot, UpdateBatch, UpdateOp, UpdateReport,
};
use nm_common::Error;

use super::ShardedDataPlane;
use crate::config::NuevoMatchConfig;
use crate::system::handle::{Replay, RetrainRecipe, Shared};
use crate::system::serve::plane::{PinnedPlane, ServePlane};
use crate::system::NuevoMatch;

/// Gathers the keys at `idx` into a flat buffer.
pub(super) fn gather_keys(keys: &[u64], stride: usize, idx: &[u32], buf: &mut Vec<u64>) {
    buf.clear();
    for &i in idx {
        let i = i as usize;
        buf.extend_from_slice(&keys[i * stride..(i + 1) * stride]);
    }
}

/// Per-shard engine replicas behind a [`ShardPlan`]'s steering stage.
///
/// Packets gather per home shard, each shard's engine sweeps its sub-batch
/// through its own batched pipeline, the broadcast engine sweeps the whole
/// batch, and verdicts merge by priority — verdict-equivalent to one
/// whole-set engine by the plan's construction invariant.
///
/// The engines sit behind `Arc`s so that a live epoch ([`ShardEpoch`])
/// shares every engine an update did not touch with the epoch before it; a
/// pinned plane is immutable either way.
#[derive(Clone)]
pub struct ShardedClassifier<C> {
    plan: Arc<ShardPlan>,
    home: Vec<Arc<C>>,
    /// Engine over the broadcast subset. `None` only on a static plane
    /// whose plan broadcasts nothing; a live epoch always carries its
    /// broadcast shard, because an update may route a rule there later.
    broadcast: Option<Arc<C>>,
}

/// One coherent cross-shard publication of a [`ShardedHandle`]: the plane
/// over one NuevoMatch per shard. Published as the payload of one stamped
/// [`Snapshot`] — the logical generation lives there, and nowhere else — and
/// immutable from then on: a reader holding an epoch can never observe two
/// shards from different generations, whatever the control plane does
/// meanwhile.
pub type ShardEpoch<R> = ShardedClassifier<NuevoMatch<R>>;

impl<C: Classifier> ShardedClassifier<C> {
    /// Builds a `shards`-way plan over `set` and one engine per subset.
    pub fn build(
        set: &RuleSet,
        shards: usize,
        builder: impl Fn(&RuleSet) -> C,
    ) -> Result<Self, Error> {
        let plan = ShardPlan::build(set, shards)?;
        let (home_sets, broadcast_set) = plan.subsets(set);
        let home = home_sets.iter().map(&builder).collect();
        let broadcast = (!broadcast_set.is_empty()).then(|| builder(&broadcast_set));
        Self::from_parts(plan, home, broadcast)
    }

    /// Assembles a sharded classifier from pre-built engines — one per home
    /// shard of `plan`, plus the broadcast engine (when the plan broadcasts
    /// anything). For callers whose engine construction can fail: build the
    /// engines over [`ShardPlan::subsets`] first, then assemble.
    pub fn from_parts(plan: ShardPlan, home: Vec<C>, broadcast: Option<C>) -> Result<Self, Error> {
        if home.len() != plan.shards() {
            return Err(Error::Build {
                msg: format!(
                    "ShardedClassifier::from_parts: {} engines for {} home shards",
                    home.len(),
                    plan.shards()
                ),
            });
        }
        if broadcast.is_none() && !plan.broadcast().is_empty() {
            return Err(Error::Build {
                msg: "ShardedClassifier::from_parts: the plan broadcasts rules but no \
                      broadcast engine was supplied"
                    .to_string(),
            });
        }
        Ok(Self::assemble(Arc::new(plan), home, broadcast))
    }

    fn assemble(plan: Arc<ShardPlan>, home: Vec<C>, broadcast: Option<C>) -> Self {
        Self {
            plan,
            home: home.into_iter().map(Arc::new).collect(),
            broadcast: broadcast.map(Arc::new),
        }
    }

    /// The partition this data plane steers by.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Every engine: the home shards', then the broadcast engine.
    fn engines(&self) -> impl Iterator<Item = &C> {
        self.home.iter().chain(&self.broadcast).map(|e| &**e)
    }

    /// The engine at `slot`: home shard `slot`, or the broadcast engine at
    /// slot [`ShardPlan::shards`].
    fn slot_mut(&mut self, slot: usize) -> Option<&mut Arc<C>> {
        self.home.get_mut(slot).or(self.broadcast.as_mut())
    }

    /// Sweeps the broadcast engine over `keys` and merges its verdicts into
    /// `out` by priority.
    fn merge_broadcast(&self, keys: &[u64], stride: usize, out: &mut [Option<MatchResult>]) {
        if let Some(broadcast) = &self.broadcast {
            let mut tmp = vec![None; out.len()];
            broadcast.classify_batch(keys, stride, &mut tmp);
            for (o, t) in out.iter_mut().zip(tmp) {
                *o = MatchResult::better(*o, t);
            }
        }
    }

    /// Classifies one shard's gathered sub-batch: home engine plus the
    /// broadcast engine, merged.
    fn classify_sub(
        &self,
        shard: usize,
        keys: &[u64],
        stride: usize,
        out: &mut [Option<MatchResult>],
    ) {
        self.home[shard].classify_batch(keys, stride, out);
        self.merge_broadcast(keys, stride, out);
    }
}

impl<C: Classifier> Classifier for ShardedClassifier<C> {
    /// The steering stage: steer per key, gather per home shard, sweep each
    /// sub-batch through its shard's engine, merge the broadcast engine over
    /// the whole batch, apply caller floors last.
    fn batch_lookup(
        &self,
        keys: &[u64],
        stride: usize,
        floors: Option<&[Priority]>,
        out: &mut [Option<MatchResult>],
    ) {
        if self.home.len() == 1 || out.len() == 1 {
            // One home shard or one key: nothing to gather.
            let home = if self.home.len() == 1 { 0 } else { self.plan.steer(keys) };
            self.home[home].batch_lookup(keys, stride, None, out);
        } else {
            out.fill(None);
            let mut idx: Vec<Vec<u32>> = vec![Vec::new(); self.home.len()];
            for (i, key) in keys.chunks_exact(stride).enumerate() {
                idx[self.plan.steer(key)].push(i as u32);
            }
            let mut buf = Vec::new();
            let mut sub = Vec::new();
            for (engine, ids) in self.home.iter().zip(&idx) {
                if ids.is_empty() {
                    continue;
                }
                gather_keys(keys, stride, ids, &mut buf);
                sub.clear();
                sub.resize(ids.len(), None);
                engine.classify_batch(&buf, stride, &mut sub);
                for (&i, &verdict) in ids.iter().zip(&sub) {
                    out[i as usize] = verdict;
                }
            }
        }
        self.merge_broadcast(keys, stride, out);
        apply_floors(floors, out);
    }

    fn memory_bytes(&self) -> usize {
        self.engines().map(Classifier::memory_bytes).sum()
    }

    fn name(&self) -> &'static str {
        "sharded"
    }

    fn num_rules(&self) -> usize {
        self.engines().map(Classifier::num_rules).sum()
    }
}

/// The engines of a pinned plane are immutable, so its pin is the reference
/// itself, at generation 0: a plane held by reference is never published.
impl<C: Classifier> PinnedPlane for &ShardedClassifier<C> {
    fn generation(&self) -> Generation {
        0
    }

    fn classify_batch(&self, keys: &[u64], stride: usize, out: &mut [Option<MatchResult>]) {
        Classifier::classify_batch(*self, keys, stride, out);
    }
}

impl<C: Classifier> ShardedDataPlane for ShardedClassifier<C> {
    type Pin<'p>
        = &'p Self
    where
        Self: 'p;

    fn shards(&self) -> usize {
        self.home.len()
    }

    fn steer(&self, key: &[u64], _batch: usize) -> usize {
        self.plan.steer(key)
    }

    fn pin(&self) -> Self::Pin<'_> {
        self
    }

    fn classify_shard<'p>(
        pin: &Self::Pin<'p>,
        shard: usize,
        keys: &[u64],
        stride: usize,
        out: &mut [Option<MatchResult>],
    ) where
        Self: 'p,
    {
        pin.classify_sub(shard, keys, stride, out);
    }
}

// ---------------------------------------------------------------------------
// The live control plane
// ---------------------------------------------------------------------------

/// What a reader of a [`ShardedHandle`] pins: one [`ShardEpoch`] under one
/// logical generation. The same `Arc` is the pin of the serve path
/// ([`ServePlane`]) and of the worker runtime ([`ShardedDataPlane`]).
pub type EpochSnapshot<R> = Snapshot<ShardEpoch<R>>;

/// The slot `rule` lives in: its home shard, or the broadcast slot after the
/// home shards.
fn slot_of(plan: &ShardPlan, rule: &Rule) -> usize {
    match plan.route_rule(rule) {
        ShardRoute::Home(s) => s,
        ShardRoute::Broadcast => plan.shards(),
    }
}

/// A sharded handle's ops are one sub-batch per slot, each applied to its
/// slot's engine; only the engines a non-empty sub-batch touches are cloned.
impl<R: BatchUpdatable + Clone> Replay<ShardEpoch<R>> for Vec<UpdateBatch> {
    fn apply_to(&self, epoch: &mut ShardEpoch<R>) {
        for (slot, sub) in self.iter().enumerate().filter(|(_, sub)| !sub.is_empty()) {
            if let Some(engine) = epoch.slot_mut(slot) {
                Arc::make_mut(engine).apply(sub);
            }
        }
    }
}

/// Per-shard NuevoMatch replicas under one logical generation — the sharded
/// runtime's live control plane. Clone freely; clones address the same
/// shards.
///
/// Writers serialise on the cell's writer lock — an apply for its whole
/// fan-out, a retrain only to pin and to publish — and publish a fresh
/// [`ShardEpoch`] per effective change; readers pin epochs lock-free and are
/// never blocked by either.
pub struct ShardedHandle<R: Classifier> {
    plan: Arc<ShardPlan>,
    shared: Arc<Shared<ShardEpoch<R>, Routes, Vec<UpdateBatch>, R>>,
}

/// The fan-out's routing truth: id → slot (home shard, or `shards()` for broadcast).
type Routes = HashMap<RuleId, usize>;

impl<R: Classifier> Clone for ShardedHandle<R> {
    fn clone(&self) -> Self {
        Self { plan: self.plan.clone(), shared: self.shared.clone() }
    }
}

impl<R: Classifier> ShardedHandle<R> {
    /// Builds a `shards`-way plan over `set` and one NuevoMatch per subset
    /// (the broadcast shard's is always built, possibly empty, so later
    /// updates can route wildcard rules to it).
    pub fn new<B>(
        set: &RuleSet,
        cfg: &NuevoMatchConfig,
        shards: usize,
        builder: B,
    ) -> Result<Self, Error>
    where
        B: Fn(&RuleSet) -> R + Send + Sync + 'static,
        R: 'static,
    {
        let plan = Arc::new(ShardPlan::build(set, shards)?);
        let recipe = RetrainRecipe { cfg: cfg.clone(), builder: Arc::new(builder) };
        let build = |s: &RuleSet| NuevoMatch::build(s, cfg, &*recipe.builder);
        let (home_sets, broadcast_set) = plan.subsets(set);
        let home = home_sets.iter().map(build).collect::<Result<_, _>>()?;
        let epoch = ShardedClassifier::assemble(plan.clone(), home, Some(build(&broadcast_set)?));
        let routes = set.rules().iter().map(|rule| (rule.id, slot_of(&plan, rule))).collect();
        Ok(Self { plan, shared: Arc::new(Shared::new(epoch, 1, routes, recipe)) })
    }

    /// The partition this handle steers by.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Pins the current epoch (two atomic ops, never blocks).
    #[inline]
    pub fn epoch(&self) -> Arc<EpochSnapshot<R>> {
        self.shared.cell.pin()
    }

    /// The published logical generation (bumps once per effective fan-out
    /// apply and once per retrain).
    pub fn generation(&self) -> Generation {
        self.shared.cell.generation()
    }

    /// Rule-weighted §3.9 remainder fraction across the shards — the drift
    /// the whole sharded data plane currently serves.
    pub fn remainder_fraction(&self) -> f64 {
        let pin = self.epoch();
        let (mut rules, mut drifted) = (0usize, 0usize);
        for nm in pin.engine().engines() {
            rules += nm.num_rules();
            drifted += nm.remainder().num_rules();
        }
        if rules == 0 {
            0.0
        } else {
            drifted as f64 / rules as f64
        }
    }
}

impl<R: BatchUpdatable + Clone> ShardedHandle<R> {
    /// Applies one transaction across the shards and publishes the result
    /// as one new epoch.
    ///
    /// Each op routes to the shard the plan steers its rule to; a modify
    /// whose new box steers elsewhere **moves** — a remove lands on the old
    /// shard and an insert on the new one, inside the same fan-out, so the
    /// placement invariant survives churn. Only the shards a batch touches
    /// are cloned (copy-on-write, like a plain handle's apply); the others
    /// carry over shared. Readers observe the whole batch or none of it:
    /// shards change only at the epoch swap; a batch whose engine apply
    /// panics publishes nothing and moves no route. The body is the plain
    /// handle's (`Shared::apply_with`); this handle adds only its routing.
    pub fn apply(&self, batch: &UpdateBatch) -> UpdateReport {
        self.shared.apply_with(batch, |routes, next, batch| {
            let mut per_slot = vec![UpdateBatch::new(); self.plan.shards() + 1];
            // The op accounting is `apply_ops`'s, over the routing truth
            // rather than the per-shard engine reports: a rule is wherever
            // `routes` says, removing it routes a `Remove` to that slot,
            // inserting it routes an `Insert` to the slot steering will look
            // in. A modify that steers elsewhere is thereby a move. The
            // batch's routing lands in an O(ops) overlay (`None`: removed)
            // that reaches `routes` only once every engine apply has
            // returned, so one that panics leaves the routes as live.
            let mut moved: HashMap<RuleId, Option<usize>> = HashMap::new();
            let report = apply_ops(
                &mut (&mut moved, &mut per_slot),
                batch,
                |(moved, per_slot), rule| {
                    let slot = slot_of(&self.plan, &rule);
                    moved.insert(rule.id, Some(slot));
                    per_slot[slot].push(UpdateOp::Insert(rule));
                },
                |(moved, per_slot), id| {
                    let slot = moved.insert(id, None).unwrap_or_else(|| routes.get(&id).copied());
                    if let Some(slot) = slot {
                        per_slot[slot].push(UpdateOp::Remove(id));
                    }
                    slot.is_some()
                },
            );
            per_slot.apply_to(next);
            for (id, slot) in moved {
                match slot {
                    Some(slot) => routes.insert(id, slot),
                    None => routes.remove(&id),
                };
            }
            (report, per_slot)
        })
    }

    /// Re-makes every shard — concurrently, each by the same partial-or-full
    /// make a plain handle's `retrain` runs — and publishes the fresh models
    /// together as one epoch. Training runs with the writer lock released:
    /// an [`apply`](Self::apply) issued meanwhile publishes at once and is
    /// queued per shard for replay onto the fresh models. Readers never
    /// block. All or nothing: if any shard fails (or its builder panics)
    /// nothing publishes. Errors if another retrain is already in flight.
    pub fn retrain(&self) -> Result<Generation, Error> {
        self.shared.retrain_with("ShardedHandle::retrain", |pinned, recipe| {
            let epoch = pinned.engine();
            let made: Vec<_> = std::thread::scope(|scope| {
                let joins: Vec<_> =
                    epoch.engines().map(|nm| scope.spawn(move || recipe.remake(nm))).collect();
                joins.into_iter().map(|join| join.join()).collect()
            });
            let mut fresh = Vec::with_capacity(made.len());
            let mut partial = true;
            for shard in made {
                let (nm, patched) = shard.unwrap_or_else(|_| {
                    Err(Error::Build { msg: "ShardedHandle::retrain: a shard panicked".into() })
                })?;
                partial &= patched;
                fresh.push(nm);
            }
            let broadcast = fresh.pop();
            Ok((ShardedClassifier::assemble(epoch.plan.clone(), fresh, broadcast), partial))
        })
    }
}

/// One epoch pin per call: every packet of a batch classifies against the
/// same logical generation on every shard.
impl<R: Classifier> Classifier for ShardedHandle<R> {
    fn batch_lookup(
        &self,
        keys: &[u64],
        stride: usize,
        floors: Option<&[Priority]>,
        out: &mut [Option<MatchResult>],
    ) {
        self.epoch().batch_lookup(keys, stride, floors, out);
    }

    fn memory_bytes(&self) -> usize {
        self.epoch().memory_bytes()
    }

    fn name(&self) -> &'static str {
        "sharded-nm"
    }

    fn num_rules(&self) -> usize {
        self.epoch().num_rules()
    }

    fn generation(&self) -> Generation {
        ShardedHandle::generation(self)
    }
}

impl<R: Classifier + 'static> ServePlane for ShardedHandle<R> {
    type Pin = Arc<EpochSnapshot<R>>;

    fn pin(&self) -> Self::Pin {
        self.epoch()
    }
}

impl<R: Classifier> ShardedDataPlane for ShardedHandle<R> {
    type Pin<'p>
        = Arc<EpochSnapshot<R>>
    where
        Self: 'p;

    fn shards(&self) -> usize {
        self.plan.shards()
    }

    fn steer(&self, key: &[u64], _batch: usize) -> usize {
        self.plan.steer(key)
    }

    fn pin(&self) -> Self::Pin<'_> {
        self.epoch()
    }

    fn classify_shard<'p>(
        pin: &Self::Pin<'p>,
        shard: usize,
        keys: &[u64],
        stride: usize,
        out: &mut [Option<MatchResult>],
    ) where
        Self: 'p,
    {
        pin.engine().classify_sub(shard, keys, stride, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RqRmiParams;
    use crate::system::ClassifierHandle;
    use nm_common::{FieldsSpec, FiveTuple, LinearSearch};

    fn port_set(n: u16) -> RuleSet {
        let rules: Vec<_> = (0..n)
            .map(|i| {
                FiveTuple::new().dst_port_range(i * 100, i * 100 + 99).into_rule(i as u32, i as u32)
            })
            .collect();
        RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap()
    }

    fn fast_cfg() -> NuevoMatchConfig {
        NuevoMatchConfig {
            rqrmi: RqRmiParams { samples_init: 256, ..Default::default() },
            ..Default::default()
        }
    }

    /// The steering/broadcast contract, for either instantiation of the
    /// plane: per key, batched (with and without floors) and shard by shard
    /// as a runtime worker asks the plan, `plane` answers like the whole-set
    /// engine.
    fn assert_plane_equals_whole_set<P: ShardedDataPlane + Classifier>(
        plane: &P,
        whole: &LinearSearch,
        what: &str,
    ) {
        assert_eq!(plane.num_rules(), whole.num_rules(), "{what}");
        let keys: Vec<u64> = (0..512u64).flat_map(|i| [1, 2, 3, (i * 157) % 40_000, 6]).collect();
        let want: Vec<_> = keys.chunks_exact(5).map(|key| whole.classify(key)).collect();
        let per_key: Vec<_> = keys.chunks_exact(5).map(|key| plane.classify(key)).collect();
        assert_eq!(per_key, want, "{what}: per key");
        let mut out = vec![None; want.len()];
        plane.classify_batch(&keys, 5, &mut out);
        assert_eq!(out, want, "{what}: batched");
        let floors: Vec<Priority> =
            (0..want.len() as u32).map(|i| if i % 3 == 0 { Priority::MAX } else { 150 }).collect();
        plane.classify_batch_with_floors(&keys, 5, &floors, &mut out);
        for (i, key) in keys.chunks_exact(5).enumerate() {
            let floored = match floors[i] {
                Priority::MAX => whole.classify(key),
                floor => whole.classify_with_floor(key, floor),
            };
            assert_eq!(out[i], floored, "{what}: floor {} on packet {i}", floors[i]);
        }
        // What a runtime worker of shard `s` computes for the keys steered
        // to it is already the final verdict (home merged with broadcast).
        let pin = plane.pin();
        for (i, key) in keys.chunks_exact(5).enumerate() {
            let mut one = [None];
            P::classify_shard(&pin, plane.steer(key, 0), key, 5, &mut one);
            assert_eq!(one[0], want[i], "{what}: shard lookup, packet {i}");
        }
    }

    /// Port rules without and with rules only the broadcast shard can hold:
    /// a wildcard that loses to most of the set, and a straddling range that
    /// beats all of it.
    fn narrow_and_wide_sets() -> [RuleSet; 2] {
        let narrow = port_set(300);
        let mut rules = narrow.rules().to_vec();
        rules.push(FiveTuple::new().into_rule(900, 200));
        rules.push(FiveTuple::new().dst_port_range(5_000, 25_000).into_rule(901, 0));
        [narrow, RuleSet::new(FieldsSpec::five_tuple(), rules).unwrap()]
    }

    #[test]
    fn static_sharded_equals_whole_set_engine() {
        for (set, broadcasts) in narrow_and_wide_sets().iter().zip([false, true]) {
            let whole = LinearSearch::build(set);
            for shards in [1usize, 2, 5] {
                let sc = ShardedClassifier::build(set, shards, LinearSearch::build).unwrap();
                assert_eq!(sc.plan().broadcast().is_empty(), !broadcasts || shards == 1);
                assert_plane_equals_whole_set(&sc, &whole, &format!("static, {shards} shard(s)"));
            }
        }
    }

    #[test]
    fn live_sharded_equals_whole_set_engine() {
        for set in &narrow_and_wide_sets() {
            let whole = LinearSearch::build(set);
            for shards in [1usize, 2, 5] {
                let live =
                    ShardedHandle::new(set, &fast_cfg(), shards, LinearSearch::build).unwrap();
                assert_plane_equals_whole_set(&live, &whole, &format!("live, {shards} shard(s)"));
            }
        }
    }

    #[test]
    fn sharded_handle_apply_fans_and_stays_coherent_with_reference() {
        let set = port_set(200);
        let reference = ClassifierHandle::new(&set, &fast_cfg(), LinearSearch::build).unwrap();
        let sharded = ShardedHandle::new(&set, &fast_cfg(), 3, LinearSearch::build).unwrap();
        let probe = |a: &dyn Classifier, b: &dyn Classifier| {
            for port in (0u64..30_000).step_by(23) {
                let key = [0, 0, 0, port, 0];
                assert_eq!(a.classify(&key), b.classify(&key), "port {port}");
            }
        };
        probe(&reference, &sharded);
        // A batch that inserts, removes, and moves a rule across shards.
        let batch = UpdateBatch::new()
            .insert(FiveTuple::new().dst_port_exact(50_000).into_rule(900, 0))
            .remove(5)
            .modify(FiveTuple::new().dst_port_range(19_000, 19_010).into_rule(7, 7));
        let ra = reference.apply(&batch);
        let rb = sharded.apply(&batch);
        assert_eq!(ra, rb, "fan-out accounting must match the whole-set handle");
        probe(&reference, &sharded);
        // A pure-miss batch publishes nothing.
        let g = sharded.generation();
        let r = sharded.apply(&UpdateBatch::new().remove(9_999));
        assert_eq!((r.missing, sharded.generation()), (1, g));
        // A seeded stream of every op shape the fan-out distinguishes; ids
        // below 50 only ever move inside their own 100-port band.
        let mut rng = nm_common::SplitMix64::new(0x5eed);
        let mut fresh_id = 1_000u32;
        for round in 0..40 {
            let mut batch = UpdateBatch::new();
            for _ in 0..6 {
                let id = 50 + rng.below(180) as u32;
                let port = rng.below(30_000) as u16;
                let at = |port: u16| FiveTuple::new().dst_port_exact(port);
                batch = match rng.below(6) {
                    // Upsert: a new id or a live one, wherever it steers.
                    0 => batch.insert(at(port).into_rule(id, id)),
                    // Upsert of a wildcard: the broadcast shard's.
                    1 => batch.insert(FiveTuple::new().into_rule(id, 10_000 + id)),
                    // Modify of an id nobody has: a miss and an insert.
                    2 => {
                        fresh_id += 1;
                        batch.modify(at(port).into_rule(fresh_id, fresh_id))
                    }
                    // Modify that stays on its shard.
                    3 => {
                        let id = rng.below(50) as u16;
                        batch.modify(at(id * 100 + port % 100).into_rule(id as u32, id as u32))
                    }
                    // Modify that may move shards.
                    4 => batch.modify(at(port).into_rule(id, id)),
                    // Double remove: the second is a miss.
                    _ => batch.remove(id).remove(id),
                };
            }
            assert_eq!(reference.apply(&batch), sharded.apply(&batch), "round {round}");
            if round % 8 == 7 {
                probe(&reference, &sharded);
            }
        }
    }

    #[test]
    fn sharded_retrain_republishes_one_epoch() {
        let set = port_set(240);
        let sharded = ShardedHandle::new(&set, &fast_cfg(), 2, LinearSearch::build).unwrap();
        // Drift a few rules (moves to other shards / broadcast included).
        for i in 0..10u32 {
            sharded.apply(
                &UpdateBatch::new()
                    .modify(FiveTuple::new().dst_port_exact(60_000 + i as u16).into_rule(i, i)),
            );
        }
        let oracle: Vec<_> =
            (0u64..65_536).step_by(61).map(|p| sharded.classify(&[0, 0, 0, p, 0])).collect();
        let g0 = sharded.generation();
        let g = sharded.retrain().unwrap();
        assert_eq!(g, g0 + 1, "retrain publishes exactly one logical generation");
        for (i, p) in (0u64..65_536).step_by(61).enumerate() {
            assert_eq!(sharded.classify(&[0, 0, 0, p, 0]), oracle[i], "port {p}");
        }
    }

    #[test]
    fn epoch_pin_is_immutable_under_updates() {
        let set = port_set(150);
        let sharded = ShardedHandle::new(&set, &fast_cfg(), 2, LinearSearch::build).unwrap();
        let pinned = sharded.epoch();
        let keys: Vec<u64> = (0..300u64).flat_map(|i| [0, 0, 0, i * 211 % 65_536, 0]).collect();
        let verdicts = |epoch: &EpochSnapshot<LinearSearch>| {
            let mut out = vec![None; keys.len() / 5];
            epoch.classify_batch(&keys, 5, &mut out);
            out
        };
        let before = verdicts(&pinned);
        // Every shard moves: an insert on each side of the cut, a removal,
        // a wildcard for the broadcast shard, then a retrain.
        sharded.apply(
            &UpdateBatch::new()
                .insert(FiveTuple::new().dst_port_exact(61_111).into_rule(700, 0))
                .insert(FiveTuple::new().dst_port_exact(150).into_rule(701, 0))
                .remove(120)
                .insert(FiveTuple::new().into_rule(702, 1)),
        );
        sharded.retrain().unwrap();
        assert_eq!(verdicts(&pinned), before, "a pinned epoch must never move");
        assert!(sharded.generation() > pinned.generation());
        // The pinned epoch still serves the old content.
        assert_eq!(pinned.classify(&[0, 0, 0, 61_111, 0]), None);
        assert_eq!(sharded.classify(&[0, 0, 0, 61_111, 0]).unwrap().rule, 700);
        assert_ne!(verdicts(&sharded.epoch()), before);
    }

    /// A retrain is all or nothing: a builder that panics for one shard
    /// fails the whole retrain, publishes nothing (its siblings' fresh
    /// models included), and leaves the handle applying and retraining
    /// normally afterwards.
    #[test]
    fn a_shard_whose_builder_panics_fails_the_retrain_and_publishes_nothing() {
        use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
        let set = port_set(240);
        let armed = Arc::new(AtomicBool::new(false));
        let builder = {
            let armed = armed.clone();
            move |s: &RuleSet| {
                // Armed, the first shard to reach its builder panics (and
                // disarms it: its siblings build normally).
                if armed.swap(false, SeqCst) {
                    panic!("builder fault injected into one shard's retrain");
                }
                LinearSearch::build(s)
            }
        };
        let full_only = NuevoMatchConfig {
            partial_retrain: crate::config::PartialRetrainPolicy::never(),
            ..fast_cfg()
        };
        let sharded = ShardedHandle::new(&set, &full_only, 2, builder).unwrap();
        let drift = UpdateBatch::new()
            .modify(FiveTuple::new().dst_port_range(3_000, 3_010).into_rule(30, 30))
            .insert(FiveTuple::new().dst_port_exact(60_000).into_rule(900, 0));
        sharded.apply(&drift);
        let before = sharded.epoch();
        let probe: Vec<_> = (0u64..65_536).step_by(61).collect();
        let want: Vec<_> = probe.iter().map(|&p| before.classify(&[0, 0, 0, p, 0])).collect();

        armed.store(true, SeqCst);
        let err = sharded.retrain().expect_err("a panicking shard must fail the retrain");
        assert!(err.to_string().contains("panicked"), "{err}");
        assert!(Arc::ptr_eq(&before, &sharded.epoch()), "a failed retrain published an epoch");
        assert_eq!(sharded.generation(), before.generation());

        // The same handle updates and retrains as usual.
        assert!(!armed.load(SeqCst), "exactly one shard's builder ran armed");
        let report = sharded.apply(&UpdateBatch::new().remove(900));
        assert_eq!(report.removed, 1);
        let g = sharded.retrain().expect("retrain after the fault");
        assert_eq!(g, before.generation() + 2);
        let oracle = LinearSearch::from_rules(
            set.rules()
                .iter()
                .filter(|r| r.id != 30)
                .cloned()
                .chain([FiveTuple::new().dst_port_range(3_000, 3_010).into_rule(30, 30)])
                .collect(),
        );
        for (i, &p) in probe.iter().enumerate() {
            let key = [0, 0, 0, p, 0];
            assert_eq!(sharded.classify(&key), oracle.classify(&key), "port {p}");
            if p != 60_000 {
                assert_eq!(want[i], oracle.classify(&key), "port {p}");
            }
        }
    }
}
