//! The coordinator: shard a Monte-Carlo sweep across workers and merge
//! the result bit-identically to a single-process run.
//!
//! Correctness rests on one fact: the engine's estimate is a pure fold of
//! per-block accumulators in block-index order, and each block's value
//! depends only on `(domain, trials, block)` — never on *where* or *how
//! many times* it executes. So the coordinator is free to re-dispatch a
//! dead worker's leases, hedge stragglers, retry after reconnects, and
//! even re-execute a block on two workers at once: the first result wins,
//! duplicates are bit-equal by construction, and the merged statistics
//! match [`rap_access::montecarlo::matrix_congestion`] exactly.
//!
//! Fault model, mechanism by mechanism:
//!
//! * **lease table** — a dispatched block is leased `(worker, issued)`;
//!   a lease older than [`ClusterConfig::lease`] is presumed orphaned
//!   (worker stalled or died without an error) and re-dispatched;
//! * **hedged re-dispatch** — an idle worker re-executes the stalest
//!   in-flight block past [`ClusterConfig::hedge_after`], so one
//!   straggler cannot gate the sweep; the dedup ledger makes the race
//!   harmless;
//! * **first-writer-wins dedup** — commits go through one critical
//!   section: the first result for a block is recorded to the
//!   checkpoint [`Ledger`] and merged; later duplicates are counted and
//!   dropped. The ledger doubles as `kill -9` insurance for the
//!   *coordinator*: a restarted sweep resumes from it byte-identically;
//! * **quorum degrade** — below [`ClusterConfig::quorum`] healthy
//!   workers the sweep runs in-process ([`matrix_block_stats`]), bit
//!   -identical in value but explicitly marked `degraded`, source
//!   `"cluster-local"`.

use crate::ring::HashRing;
use crate::worker::WorkerPool;
use rap_access::montecarlo::{blocks_for, matrix_block_stats};
use rap_access::{CancelToken, MatrixPattern};
use rap_core::Scheme;
use rap_resilience::{Ledger, RetryPolicy};
use rap_serve::handler::{self, Outcome};
use rap_serve::protocol::{Request, Response};
use rap_stats::{OnlineStats, RawOnlineStats, SeedDomain};
use serde::{Deserialize, Serialize, Value};
use std::collections::{HashMap, VecDeque};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Distinct failures a block may accumulate before the coordinator stops
/// blaming workers and resolves it in-process.
const MAX_ITEM_STRIKES: u32 = 3;

/// Coordinator tuning knobs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Minimum healthy workers for distributed execution; below this the
    /// sweep degrades to in-process execution (`source:"cluster-local"`).
    pub quorum: usize,
    /// Age after which a lease is presumed orphaned and re-dispatched.
    pub lease: Duration,
    /// Age after which an idle worker hedges an in-flight block.
    pub hedge_after: Duration,
    /// Per-request read timeout on worker connections.
    pub request_timeout: Duration,
    /// Seeded-backoff policy for reconnect attempts.
    pub retry: RetryPolicy,
    /// Reconnect attempts before a worker is declared dead.
    pub max_reconnects: u32,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            quorum: 1,
            lease: Duration::from_secs(2),
            hedge_after: Duration::from_millis(500),
            request_timeout: Duration::from_secs(5),
            retry: RetryPolicy::default(),
            max_reconnects: 2,
        }
    }
}

/// One cell of a sweep: a `(pattern, scheme, width, trials)` estimate
/// whose seed domain has already been derived by the caller.
///
/// The domain travels as raw state ([`SeedDomain::seed`]) because derived
/// domains cannot be transported through the mixing `SeedDomain::new`;
/// workers rebuild it with [`SeedDomain::from_state`] and reproduce the
/// exact sample streams of a local run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepCell {
    /// Checkpoint-ledger cell key (e.g. `"Stride/RAS/w=32"`).
    pub key: String,
    /// Access pattern.
    pub pattern: MatrixPattern,
    /// Mapping scheme (must be sampled: RAW, RAS, or RAP).
    pub scheme: Scheme,
    /// Matrix width.
    pub width: usize,
    /// Total Monte-Carlo trials.
    pub trials: u64,
    /// Raw state of the cell's seed domain.
    pub domain_state: u64,
}

impl SweepCell {
    /// Build a cell from an already-derived seed domain.
    ///
    /// # Panics
    /// On a deterministic scheme (xor/padded sample nothing per trial and
    /// have no block decomposition) or a zero trial count.
    #[must_use]
    pub fn new(
        key: impl Into<String>,
        pattern: MatrixPattern,
        scheme: Scheme,
        width: usize,
        trials: u64,
        domain: &SeedDomain,
    ) -> Self {
        assert!(
            matches!(scheme, Scheme::Raw | Scheme::Ras | Scheme::Rap),
            "scheme {scheme} is deterministic and has no Monte-Carlo block decomposition"
        );
        assert!(trials > 0, "need at least one trial");
        SweepCell {
            key: key.into(),
            pattern,
            scheme,
            width,
            trials,
            domain_state: domain.seed(),
        }
    }

    /// Blocks this cell decomposes into.
    #[must_use]
    pub fn blocks(&self) -> u64 {
        blocks_for(self.trials)
    }

    fn request_line(&self, block: u64) -> String {
        format!(
            r#"{{"cmd":"pattern_block","pattern":"{}","scheme":"{}","width":{},"trials":{},"block":{},"domain_state":{}}}"#,
            self.pattern.name(),
            self.scheme.name(),
            self.width,
            self.trials,
            block,
            self.domain_state
        )
    }

    fn block_stats_local(&self, block: u64) -> OnlineStats {
        matrix_block_stats(
            self.scheme,
            self.pattern,
            self.width,
            self.trials,
            block,
            &SeedDomain::from_state(self.domain_state),
        )
    }
}

/// What a sweep did, for result records and the chaos checks.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ClusterReport {
    /// Shards in the pool.
    pub workers: u64,
    /// Shards that answered the startup health probe.
    pub healthy_at_start: u64,
    /// Shards the coordinator declared dead during the sweep.
    pub workers_died: u64,
    /// Successful reconnects after dropped connections.
    pub reconnects: u64,
    /// Total blocks across all cells.
    pub blocks_total: u64,
    /// Blocks reused from the checkpoint ledger (coordinator resume).
    pub from_checkpoint: u64,
    /// Blocks executed on workers.
    pub executed: u64,
    /// Blocks executed in-process (quorum degrade or poisoned items).
    pub local_blocks: u64,
    /// Blocks re-dispatched after a lease expired.
    pub redispatched: u64,
    /// Blocks hedged on an idle worker while still leased elsewhere.
    pub hedged: u64,
    /// Duplicate results dropped by first-writer-wins dedup.
    pub hedge_wasted: u64,
    /// Blocks requeued after a worker failure.
    pub requeued: u64,
    /// Ledger appends that failed (results kept in memory regardless).
    pub append_failures: u64,
    /// True when any block ran in-process instead of on a worker.
    pub degraded: bool,
    /// `"cluster"`, or `"cluster-local"` when the sweep ran below quorum.
    pub source: String,
}

/// A routed-query failure.
#[derive(Debug)]
pub enum ClusterError {
    /// The request line itself is invalid; retrying elsewhere cannot help.
    BadRequest(String),
    /// Every shard failed and the in-process fallback could not serve it.
    Unavailable(String),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::BadRequest(m) => write!(f, "bad request: {m}"),
            ClusterError::Unavailable(m) => write!(f, "cluster unavailable: {m}"),
        }
    }
}

impl std::error::Error for ClusterError {}

#[derive(Clone, Copy)]
struct Lease {
    worker: usize,
    issued: Instant,
}

/// `(cell index, block index)` — the unit of dispatch.
type Item = (usize, u64);

#[derive(Default)]
struct Counters {
    executed: u64,
    local_blocks: u64,
    redispatched: u64,
    hedged: u64,
    hedge_wasted: u64,
    requeued: u64,
    append_failures: u64,
}

struct DispatchState {
    pending: VecDeque<Item>,
    leases: HashMap<Item, Lease>,
    done: HashMap<Item, RawOnlineStats>,
    failures: HashMap<Item, u32>,
    total: usize,
    counters: Counters,
}

enum Next {
    Item(Item),
    Wait,
    Done,
}

#[derive(PartialEq, Eq, Clone, Copy)]
enum Origin {
    Worker,
    Local,
}

/// A worker pool plus the policies to drive it (see the module docs).
pub struct Cluster {
    pool: WorkerPool,
    ring: HashRing,
    cfg: ClusterConfig,
}

impl Cluster {
    /// Wrap a pool with the given policies.
    #[must_use]
    pub fn new(pool: WorkerPool, cfg: ClusterConfig) -> Self {
        let ring = HashRing::new(pool.len());
        Cluster { pool, ring, cfg }
    }

    /// The underlying pool (chaos hooks, addresses).
    #[must_use]
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Probe every shard; the count that answered.
    #[must_use]
    pub fn healthy_workers(&self) -> usize {
        (0..self.pool.len())
            .filter(|&w| self.pool.probe(w, self.cfg.request_timeout))
            .count()
    }

    /// Route one request line to `key`'s warm shard, failing over along
    /// the ring and finally degrading to in-process execution.
    ///
    /// Repeated queries with the same `key` hit the same shard while it
    /// lives — that is the point of the consistent-hash ring. An
    /// `ok:false` answer with a `bad_request` kind is returned as-is
    /// (it is deterministic; no shard would answer differently); other
    /// failures try the next shard.
    ///
    /// Shards whose last probe saw an epoch swap in flight are
    /// *deprioritized*, not excluded: the walk first tries stable
    /// shards, then admits migrating ones (they still answer — from
    /// their old committed layout — so they beat the local fallback),
    /// and re-admits them fully once a probe sees the commit.
    ///
    /// # Errors
    /// [`ClusterError::BadRequest`] for a malformed line,
    /// [`ClusterError::Unavailable`] when no shard and no fallback could
    /// serve it.
    pub fn query(&self, key: &str, line: &str) -> Result<Response, ClusterError> {
        // Validate before touching the network: a malformed line fails
        // identically everywhere.
        let request = Request::parse(line).map_err(ClusterError::BadRequest)?;
        let walk = self.ring.walk(key);
        let (stable, migrating): (Vec<usize>, Vec<usize>) =
            walk.into_iter().partition(|&w| !self.pool.migrating(w));
        for w in stable.into_iter().chain(migrating) {
            if let Some(resp) = self.try_worker(w, line) {
                return Ok(resp);
            }
        }
        local_query(&request)
    }

    /// One routing attempt against shard `w`. `Some` only for an answer
    /// the walk should return (success or deterministic `bad_request`);
    /// `None` means fail over to the next shard.
    fn try_worker(&self, w: usize, line: &str) -> Option<Response> {
        let mut slot = self.pool.slot(w);
        if slot.dead {
            return None;
        }
        if slot.ensure_connected(self.cfg.request_timeout).is_err() {
            return None;
        }
        let client = slot.client.as_mut()?;
        match client.roundtrip(line) {
            Ok(resp) => {
                if resp.ok || resp.error_kind() == Some("bad_request") {
                    return Some(resp);
                }
                // shed / draining / timeout: fail over clockwise.
                None
            }
            Err(_) => {
                slot.client = None;
                None
            }
        }
    }

    /// Run a sweep distributed over the pool, merging to statistics
    /// bit-identical to a single-process run of the same cells.
    ///
    /// Previously-completed blocks in `ledger` are reused (coordinator
    /// crash resume); newly completed blocks are recorded as they land.
    #[must_use]
    pub fn run_sweep(
        &self,
        cells: &[SweepCell],
        ledger: &Ledger,
    ) -> (Vec<OnlineStats>, ClusterReport) {
        let blocks_total: u64 = cells.iter().map(SweepCell::blocks).sum();
        let mut done = HashMap::new();
        let mut from_checkpoint = 0u64;
        let mut pending = VecDeque::new();
        for (ci, cell) in cells.iter().enumerate() {
            for b in 0..cell.blocks() {
                if let Some(stats) = ledger.completed(&cell.key, b) {
                    done.insert((ci, b), stats.to_raw());
                    from_checkpoint += 1;
                } else {
                    pending.push_back((ci, b));
                }
            }
        }
        let total = done.len() + pending.len();
        let st = Mutex::new(DispatchState {
            pending,
            leases: HashMap::new(),
            done,
            failures: HashMap::new(),
            total,
            counters: Counters::default(),
        });

        let healthy = self.healthy_workers();
        let mut report = ClusterReport {
            workers: self.pool.len() as u64,
            healthy_at_start: healthy as u64,
            blocks_total,
            from_checkpoint,
            source: "cluster".to_string(),
            ..ClusterReport::default()
        };

        if healthy < self.cfg.quorum.max(1) {
            // Below quorum: serve the whole sweep in-process. The values
            // are bit-identical (same fold over the same blocks); only
            // the provenance changes.
            Self::drain_locally(cells, ledger, &st);
            report.degraded = true;
            report.source = "cluster-local".to_string();
        } else {
            let st_ref = &st;
            std::thread::scope(|scope| {
                for w in 0..self.pool.len() {
                    scope.spawn(move || self.runner(w, cells, ledger, st_ref));
                }
            });
            // Everything still unresolved means every worker died
            // mid-sweep; finish in-process rather than fail.
            if Self::drain_locally(cells, ledger, &st) > 0 {
                report.degraded = true;
            }
        }

        let s = st.into_inner().unwrap_or_else(PoisonError::into_inner);
        report.workers_died = self.pool.dead_workers() as u64;
        report.reconnects = self.pool.reconnects();
        report.executed = s.counters.executed;
        report.local_blocks = s.counters.local_blocks;
        report.redispatched = s.counters.redispatched;
        report.hedged = s.counters.hedged;
        report.hedge_wasted = s.counters.hedge_wasted;
        report.requeued = s.counters.requeued;
        report.append_failures = s.counters.append_failures;
        report.degraded = report.degraded || s.counters.local_blocks > 0;

        let mut merged = Vec::with_capacity(cells.len());
        for (ci, cell) in cells.iter().enumerate() {
            let mut acc = OnlineStats::new();
            for b in 0..cell.blocks() {
                let raw = s
                    .done
                    .get(&(ci, b))
                    .expect("every block resolves: worker, re-dispatch, or local");
                acc.merge(&OnlineStats::from_raw(raw));
            }
            merged.push(acc);
        }
        (merged, report)
    }

    /// One worker's dispatch loop: claim, execute, commit; requeue and
    /// reconnect on failure; exit when the sweep completes or the worker
    /// is declared dead.
    fn runner(&self, w: usize, cells: &[SweepCell], ledger: &Ledger, st: &Mutex<DispatchState>) {
        loop {
            let it = match self.next_item(w, st) {
                Next::Done => return,
                Next::Wait => {
                    std::thread::sleep(Duration::from_millis(2));
                    continue;
                }
                Next::Item(it) => it,
            };
            let line = cells[it.0].request_line(it.1);
            match self.execute_on(w, &line) {
                Ok(raw) => {
                    commit(
                        st,
                        ledger,
                        cells,
                        it,
                        &OnlineStats::from_raw(&raw),
                        Origin::Worker,
                    );
                }
                Err(_) => {
                    let strikes = note_failure(st, it);
                    if strikes >= MAX_ITEM_STRIKES {
                        // Three distinct failures look like a poisoned
                        // item, not a dead worker: resolve it in-process
                        // (bit-identical) so the sweep cannot livelock.
                        let stats = cells[it.0].block_stats_local(it.1);
                        commit(st, ledger, cells, it, &stats, Origin::Local);
                    }
                    if !self.reconnect(w) {
                        return;
                    }
                }
            }
        }
    }

    /// Claim the next unit of work for worker `w`: fresh work first, then
    /// expired leases (presumed-dead holders), then — only while idle —
    /// hedging the stalest in-flight block.
    fn next_item(&self, w: usize, st: &Mutex<DispatchState>) -> Next {
        let mut s = st.lock().unwrap_or_else(PoisonError::into_inner);
        if s.done.len() == s.total {
            return Next::Done;
        }
        let now = Instant::now();
        if let Some(it) = s.pending.pop_front() {
            s.leases.insert(
                it,
                Lease {
                    worker: w,
                    issued: now,
                },
            );
            return Next::Item(it);
        }
        let steal = |leases: &HashMap<Item, Lease>, age: Duration| {
            leases
                .iter()
                .filter(|&(_, l)| l.worker != w && now.duration_since(l.issued) >= age)
                .min_by_key(|&(_, l)| l.issued)
                .map(|(&it, _)| it)
        };
        if let Some(it) = steal(&s.leases, self.cfg.lease) {
            s.counters.redispatched += 1;
            s.leases.insert(
                it,
                Lease {
                    worker: w,
                    issued: now,
                },
            );
            return Next::Item(it);
        }
        if let Some(it) = steal(&s.leases, self.cfg.hedge_after) {
            s.counters.hedged += 1;
            s.leases.insert(
                it,
                Lease {
                    worker: w,
                    issued: now,
                },
            );
            return Next::Item(it);
        }
        Next::Wait
    }

    /// One wire round-trip on worker `w`. Any failure drops the cached
    /// connection so the next attempt reconnects from scratch.
    fn execute_on(&self, w: usize, line: &str) -> Result<RawOnlineStats, String> {
        let mut slot = self.pool.slot(w);
        if slot.dead {
            return Err("worker is dead".to_string());
        }
        slot.ensure_connected(self.cfg.request_timeout)
            .map_err(|e| e.to_string())?;
        let resp = match slot
            .client
            .as_mut()
            .expect("just connected")
            .roundtrip(line)
        {
            Ok(r) => r,
            Err(e) => {
                slot.client = None;
                return Err(e.to_string());
            }
        };
        if !resp.ok {
            let msg = resp.error.as_ref().map_or_else(
                || "error response without error body".to_string(),
                |e| format!("{}: {}", e.kind, e.message),
            );
            return Err(msg);
        }
        raw_from_response(&resp)
    }

    /// Seeded-backoff reconnect; marks the worker dead when the budget is
    /// spent. Health is judged by a full `health` round-trip reporting
    /// `status:"ok"` — a draining server still answers probes.
    fn reconnect(&self, w: usize) -> bool {
        for attempt in 1..=self.cfg.max_reconnects {
            std::thread::sleep(
                self.cfg
                    .retry
                    .backoff("cluster.reconnect", w as u64, attempt),
            );
            self.pool.slot(w).client = None;
            if self.pool.probe(w, self.cfg.request_timeout) {
                self.pool.slot(w).reconnects += 1;
                return true;
            }
        }
        self.pool.slot(w).dead = true;
        false
    }

    /// Execute every unresolved block in-process. Returns how many.
    fn drain_locally(cells: &[SweepCell], ledger: &Ledger, st: &Mutex<DispatchState>) -> u64 {
        let mut drained = 0u64;
        loop {
            let it = {
                let mut s = st.lock().unwrap_or_else(PoisonError::into_inner);
                if let Some(it) = s.pending.pop_front() {
                    Some(it)
                } else {
                    let orphan = s.leases.keys().copied().find(|it| !s.done.contains_key(it));
                    if let Some(it) = orphan {
                        s.leases.remove(&it);
                    }
                    orphan
                }
            };
            let Some(it) = it else { break };
            let stats = cells[it.0].block_stats_local(it.1);
            commit(st, ledger, cells, it, &stats, Origin::Local);
            drained += 1;
        }
        drained
    }
}

/// Commit one block result: first writer records to the ledger and the
/// merge map; duplicates (hedges, lease re-dispatch races) are counted
/// and dropped. This is the dedup point the whole fault model leans on.
fn commit(
    st: &Mutex<DispatchState>,
    ledger: &Ledger,
    cells: &[SweepCell],
    it: Item,
    stats: &OnlineStats,
    origin: Origin,
) {
    let mut s = st.lock().unwrap_or_else(PoisonError::into_inner);
    s.leases.remove(&it);
    if s.done.contains_key(&it) {
        s.counters.hedge_wasted += 1;
        return;
    }
    if ledger.record(&cells[it.0].key, it.1, stats).is_err() {
        s.counters.append_failures += 1;
    }
    s.done.insert(it, stats.to_raw());
    match origin {
        Origin::Worker => s.counters.executed += 1,
        Origin::Local => s.counters.local_blocks += 1,
    }
}

/// Record a failed attempt. Releases the lease and requeues the item
/// unless it has struck out (the caller then resolves it locally).
fn note_failure(st: &Mutex<DispatchState>, it: Item) -> u32 {
    let mut s = st.lock().unwrap_or_else(PoisonError::into_inner);
    s.leases.remove(&it);
    let strikes = {
        let e = s.failures.entry(it).or_insert(0);
        *e += 1;
        *e
    };
    if strikes < MAX_ITEM_STRIKES && !s.done.contains_key(&it) {
        s.pending.push_back(it);
        s.counters.requeued += 1;
    }
    strikes
}

/// In-process fallback for a routed query: execute the handler directly
/// and mark the answer `degraded`, source `"cluster-local"`.
fn local_query(request: &Request) -> Result<Response, ClusterError> {
    match handler::execute(&request.cmd, &CancelToken::never(), None) {
        Outcome::Ok(data) | Outcome::Degraded(data, _) => Ok(Response::degraded(
            request.id,
            "local",
            with_source(data, "cluster-local"),
        )),
        Outcome::BadRequest(m) => Err(ClusterError::BadRequest(m)),
        Outcome::TimedOut(m) | Outcome::Failed(m) => Err(ClusterError::Unavailable(m)),
    }
}

/// Replace (or add) the payload's `source` marker.
fn with_source(data: Value, source: &str) -> Value {
    let mut pairs = match data {
        Value::Object(pairs) => pairs,
        other => vec![("value".to_string(), other)],
    };
    pairs.retain(|(k, _)| k != "source");
    pairs.push(("source".to_string(), Value::String(source.to_string())));
    Value::Object(pairs)
}

fn raw_from_response(resp: &Response) -> Result<RawOnlineStats, String> {
    let raw = resp
        .data
        .as_ref()
        .ok_or("ok response carried no data")?
        .get("raw_stats")
        .ok_or("response data is missing 'raw_stats'")?;
    RawOnlineStats::from_value(raw).map_err(|_| "malformed 'raw_stats' payload".to_string())
}
