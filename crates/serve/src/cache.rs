//! The plan service: a concurrent, wisdom-backed plan cache in front of
//! the executor.
//!
//! Read path: plan lookup is a sharded read-mostly cache
//! (`RwLock<HashMap>` per shard, shard chosen by key hash), so warm
//! requests from many threads never contend on a single lock.
//!
//! Miss path: cold keys go through a **single-flight** slot — under
//! concurrent requests for the same uncached key, exactly one caller
//! (the leader) consults the wisdom store and, only if wisdom has
//! nothing, runs the tuner; every other caller blocks on the flight's
//! condvar and receives the leader's result. The
//! [`tuner_invocations`](PlanService::tuner_invocations) counter is
//! incremented only on the tuner path, so "warm wisdom serves with zero
//! tuner invocations" is an *observable* invariant, not a hope.
//!
//! Execution: the one pool of the service, behind [`Executor`], runs
//! one job at a time and serializes concurrent dispatches itself,
//! while planning stays concurrent. Every transform runs its sequential
//! plan; serving throughput comes from batching — one pool dispatch per
//! batch, partitioned by batch index — not from splitting a transform.

use crate::wisdom::{LoadReport, WisdomEntry, WisdomStore};
use spiral_codegen::plan::Plan;
use spiral_codegen::Executor;
use spiral_search::{CostModel, Tuner};
use spiral_smp::error::SpiralError;
use spiral_spl::cplx::Cplx;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

/// Where a served plan came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanSource {
    /// Recompiled from the wisdom store (no tuner run).
    Wisdom,
    /// Produced by a fresh tuner run this session.
    Tuned,
}

/// A cached, ready-to-execute plan plus its provenance.
pub struct ServedPlan {
    /// The compiled plan.
    pub plan: Arc<Plan>,
    /// ASCII SPL of the winning formula (round-trips through `parse`).
    pub formula: String,
    /// The tuner's choice description.
    pub choice: String,
    /// Cost under the tuner's model.
    pub cost: f64,
    /// Whether it came from wisdom or a fresh tuner run.
    pub source: PlanSource,
}

/// Single-flight slot: the leader publishes its result here and wakes
/// every follower waiting on the condvar.
#[derive(Default)]
struct Flight {
    done: Mutex<Option<Result<Arc<ServedPlan>, SpiralError>>>,
    cv: Condvar,
}

type Shard = RwLock<HashMap<usize, Arc<ServedPlan>>>;

/// Wisdom-backed plan service; see the module docs for the design.
pub struct PlanService {
    threads: usize,
    mu: usize,
    shards: Vec<Shard>,
    inflight: Mutex<HashMap<usize, Arc<Flight>>>,
    wisdom: Option<Mutex<WisdomStore>>,
    executor: Executor,
    tuner_invocations: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    wisdom_save_failures: AtomicU64,
}

/// Shard count: small power of two, plenty for read-mostly traffic.
const SHARDS: usize = 8;

impl PlanService {
    /// Service for `threads` workers and cache-line length `µ`, with no
    /// wisdom persistence.
    pub fn new(threads: usize, mu: usize) -> PlanService {
        PlanService::build(threads, mu, None)
    }

    /// Service backed by the wisdom file at `path` (loaded now, saved
    /// after every fresh tuning). Returns the load report alongside.
    pub fn with_wisdom(
        threads: usize,
        mu: usize,
        path: impl Into<PathBuf>,
    ) -> (PlanService, LoadReport) {
        let (store, report) = WisdomStore::open(path);
        (PlanService::build(threads, mu, Some(store)), report)
    }

    fn build(threads: usize, mu: usize, wisdom: Option<WisdomStore>) -> PlanService {
        let threads = threads.max(1);
        PlanService {
            threads,
            mu: mu.max(1),
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            inflight: Mutex::new(HashMap::new()),
            wisdom: wisdom.map(Mutex::new),
            executor: Executor::new(threads),
            tuner_invocations: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            wisdom_save_failures: AtomicU64::new(0),
        }
    }

    /// Worker thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Cache-line length in complex elements.
    pub fn mu(&self) -> usize {
        self.mu
    }

    /// How many times the tuner actually ran (the single-flight miss
    /// path with no wisdom hit). A warm service stays at zero.
    pub fn tuner_invocations(&self) -> u64 {
        self.tuner_invocations.load(Ordering::Relaxed)
    }

    /// Cache hits (requests answered from the in-memory cache).
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Cache misses (requests that entered the single-flight path).
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses.load(Ordering::Relaxed)
    }

    /// Failed wisdom writes (the service keeps serving through them).
    pub fn wisdom_save_failures(&self) -> u64 {
        self.wisdom_save_failures.load(Ordering::Relaxed)
    }

    /// Number of distinct plans currently cached.
    pub fn cached_plans(&self) -> usize {
        self.shards.iter().map(|s| s.read().unwrap().len()).sum()
    }

    /// Persist the wisdom store now. No-op without a wisdom path.
    pub fn save_wisdom(&self) -> Result<(), String> {
        match &self.wisdom {
            Some(w) => w.lock().unwrap().save(),
            None => Ok(()),
        }
    }

    /// The sequential plan used as the per-transform kernel of batched
    /// execution, cached under `n`; cold keys tune once.
    pub fn sequential_plan(&self, n: usize) -> Result<Arc<ServedPlan>, SpiralError> {
        let shard = &self.shards[shard_index(n, self.shards.len())];
        if let Some(p) = shard.read().unwrap().get(&n) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(p.clone());
        }
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        let flight = {
            let mut inflight = self.inflight.lock().unwrap();
            // Double-check under the inflight lock: a leader may have
            // published between our read miss and here.
            if let Some(p) = shard.read().unwrap().get(&n) {
                return Ok(p.clone());
            }
            match inflight.get(&n) {
                Some(f) => {
                    // Follower: wait for the leader's published result.
                    let f = f.clone();
                    drop(inflight);
                    let mut done = f.done.lock().unwrap();
                    while done.is_none() {
                        done = f.cv.wait(done).unwrap();
                    }
                    return done.clone().unwrap();
                }
                None => {
                    let f = Arc::new(Flight::default());
                    inflight.insert(n, f.clone());
                    f
                }
            }
        };
        // Leader: produce outside any lock, publish, then clear the slot.
        let result = self.produce(n);
        if let Ok(p) = &result {
            shard.write().unwrap().insert(n, p.clone());
        }
        *flight.done.lock().unwrap() = Some(result.clone());
        flight.cv.notify_all();
        self.inflight.lock().unwrap().remove(&n);
        result
    }

    /// Execute a batch of independent size-`n` transforms: sequential
    /// per-transform plans partitioned across the pool by batch index,
    /// one pool dispatch for the whole batch.
    pub fn serve_batch(
        &self,
        n: usize,
        inputs: &[Vec<Cplx>],
    ) -> Result<Vec<Vec<Cplx>>, SpiralError> {
        let served = self.sequential_plan(n)?;
        let mut outputs = vec![vec![Cplx::ZERO; n]; inputs.len()];
        self.executor
            .try_run(&served.plan, inputs, &mut outputs, &())?;
        Ok(outputs)
    }

    /// One row of a served (1-thread) plan on the calling thread:
    /// [`Executor::try_run`]'s one-row path, which never dispatches to the pool.
    pub fn run_row(&self, plan: &Plan, x: &[Cplx], y: &mut [Cplx]) -> Result<(), SpiralError> {
        self.executor.try_run(plan, &[x], &mut [y], &())
    }

    /// Wisdom lookup, else tune (counted), recording fresh results back
    /// into wisdom and saving eagerly.
    fn produce(&self, n: usize) -> Result<Arc<ServedPlan>, SpiralError> {
        if let Some(w) = &self.wisdom {
            if let Some(hit) = w.lock().unwrap().get(n, 1, self.mu) {
                return Ok(Arc::new(ServedPlan {
                    plan: hit.plan.clone(),
                    formula: hit.formula.clone(),
                    choice: hit.choice.clone(),
                    cost: hit.cost,
                    source: PlanSource::Wisdom,
                }));
            }
        }
        self.tuner_invocations.fetch_add(1, Ordering::Relaxed);
        #[cfg(feature = "faults")]
        if spiral_smp::faults::serve_at(spiral_smp::faults::ServeSite::TunerFail, n) {
            return Err(SpiralError::Search(format!(
                "injected tuner failure for n={n}"
            )));
        }
        let tuned = Tuner::new(1, self.mu, CostModel::Analytic).tune_sequential(n)?;
        let plan = Arc::new(tuned.plan);
        if let Some(w) = &self.wisdom {
            let mut store = w.lock().unwrap();
            store.record(
                WisdomEntry {
                    n: n as u64,
                    threads: 1,
                    mu: self.mu as u64,
                    plan_threads: plan.threads.max(1) as u64,
                    formula: tuned.formula.to_string(),
                    choice: tuned.choice.clone(),
                    cost: tuned.cost,
                    vec_width: plan.vec_width.max(1) as u64,
                },
                plan.clone(),
            );
            if let Err(_e) = store.save() {
                self.wisdom_save_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(Arc::new(ServedPlan {
            plan,
            formula: tuned.formula.to_string(),
            choice: tuned.choice,
            cost: tuned.cost,
            source: PlanSource::Tuned,
        }))
    }
}

fn shard_index(key: usize, shards: usize) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    usize::try_from(h.finish() % shards as u64).expect("shard index fits usize")
}

#[cfg(test)]
mod tests {
    use super::*;
    use spiral_spl::builder::dft;
    use spiral_spl::cplx::assert_slices_close;

    fn ramp(n: usize) -> Vec<Cplx> {
        (0..n)
            .map(|j| Cplx::new(1.0 + j as f64 * 0.5, -(j as f64) * 0.25))
            .collect()
    }

    #[test]
    fn serve_batch_computes_the_dft_on_one_and_two_workers() {
        for threads in [1usize, 2] {
            let svc = PlanService::new(threads, 4);
            for n in [32usize, 64, 256] {
                let x = ramp(n);
                let y = svc.serve_batch(n, std::slice::from_ref(&x)).unwrap();
                assert_slices_close(&y[0], &dft(n).eval(&x), 1e-8 * n as f64);
                assert_eq!(svc.sequential_plan(n).unwrap().plan.threads, 1);
            }
        }
    }

    #[test]
    fn serve_batch_matches_sequential_plans() {
        let svc = PlanService::new(3, 4);
        let n = 64;
        let xs: Vec<Vec<Cplx>> = (0..10)
            .map(|k| {
                (0..n)
                    .map(|j| Cplx::new(j as f64 - k as f64, k as f64 * 0.5))
                    .collect()
            })
            .collect();
        let got = svc.serve_batch(n, &xs).unwrap();
        let plan = svc.sequential_plan(n).unwrap();
        for (y, x) in got.iter().zip(&xs) {
            assert_eq!(y, &plan.plan.execute(x));
        }
    }

    #[test]
    fn repeat_requests_hit_the_cache_and_tune_once() {
        let svc = PlanService::new(2, 4);
        for _ in 0..5 {
            svc.sequential_plan(64).unwrap();
        }
        svc.serve_batch(64, &[ramp(64)]).unwrap();
        assert_eq!(svc.tuner_invocations(), 1);
        assert_eq!(svc.cached_plans(), 1);
        assert!(svc.cache_hits() >= 5);
    }

    #[test]
    fn concurrent_cold_requests_tune_exactly_once() {
        let svc = PlanService::new(2, 4);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| svc.sequential_plan(128).unwrap());
            }
        });
        assert_eq!(
            svc.tuner_invocations(),
            1,
            "single-flight must collapse concurrent cold misses"
        );
        assert_eq!(svc.cached_plans(), 1);
    }
}
