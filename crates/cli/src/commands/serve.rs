//! `ocelotl serve` — a long-lived analysis server speaking the query
//! protocol over line-delimited JSON.
//!
//! The server holds one warm [`QueryEngine`] per `(trace, session
//! parameters)` pair in an LRU-bounded pool: the first query against a
//! trace pays the read/slice/cube cost, every later query — from any
//! connection — is answered from memory (and from `.omicro`/`.ocube`/
//! `.opart` artifacts when a cache directory is configured). Because
//! replies are deterministic and the printers/serializers are shared with
//! the direct CLI path, a server answer is byte-identical to a local run.
//!
//! ## Concurrency model
//!
//! Three mechanisms keep N clients from serializing on one lock:
//!
//! * **Immutable session snapshots.** Each pool entry holds a session
//!   snapshot (two `Arc`s, see [`ocelotl::core::AnalysisSession`]); the
//!   pool mutex is held only to look one up and clone it, never during
//!   execution, and there is no engine lock. Every request answers through
//!   [`QueryEngine::answer`], which builds any stage it still lacks on
//!   first use (racing readers wait for that one build), so any number of
//!   clients query one session in parallel — even point DPs at new `p`
//!   values, which append to the session's lock-guarded memo table. A
//!   request at another resolution (a `--slices` change, a `Reslice`)
//!   answers on a sibling snapshot: a lookup in the session's cache of
//!   recent pipelines, with zero trace reads whenever the resident hi-res
//!   grid serves it. The pooled snapshot stays where it was. Live sessions
//!   and subscription refreshes answer the same way.
//! * **Bounded builds with admission control.** Cold session builds
//!   (ingest + cube) run outside every pool lock under a build
//!   budget of `--workers` permits. Concurrent requests for the *same*
//!   cold trace coalesce onto one in-flight build. A request for another
//!   cold trace beyond the budget waits when its own connection holds a
//!   permit (the pipeline window bounds that wait, and reply bytes never
//!   depend on the permit count); when other connections hold every
//!   permit it is refused with a typed `busy` error instead of queueing
//!   unboundedly — warm reads are never affected.
//! * **Connection pipelining.** [`serve_lines`] reads ahead (up to
//!   [`PIPELINE_DEPTH`] requests), executes independent requests
//!   concurrently, and emits replies strictly in request order, so the
//!   wire contract (i-th reply answers i-th request) is preserved.
//!
//! A live session's current snapshot sits next to its refresh counters:
//! a feed builds the next snapshot from it without blocking any reader
//! and then swaps one pointer, and a subscriber reads the snapshot, its
//! `seq` and its event count together. A stalled subscriber holds only
//! its own snapshot, so it cannot block the feeder.
//!
//! Eviction is drain-based: dropping a pool entry only drops the pool's
//! snapshot — connections still executing on the evicted session hold
//! their own `Arc`s and finish normally, and the memory is freed when the
//! last of them lets go.
//!
//! Wire format (one request, one reply, per line — see
//! `ocelotl-format::json`):
//!
//! ```text
//! → {"v":1,"trace":"/data/run.btf","config":{"slices":30,"metric":"states"},"request":{"kind":"aggregate",...}}
//! ← {"v":1,"reply":{...}}            (or {"v":1,"error":{...}})
//! ```

use crate::args::Args;
use crate::helpers::{build_session_with_workers, cache_dir, session_config};
use crate::CliError;
use ocelotl::core::query::{AnalysisReply, AnalysisRequest, QueryEngine, QueryError, WatchReply};
use ocelotl::core::{LiveEvent, SessionConfig};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

const HELP: &str = "\
ocelotl serve (--listen ADDR | --socket PATH) [options]

Run a long-lived analysis server answering query-protocol requests over
line-delimited JSON. Sessions stay warm across requests and connections,
so every query after a trace's first is instantaneous; warm sessions are
read-shared, so concurrent clients never queue behind each other.

OPTIONS:
    --listen ADDR    TCP address to bind, e.g. 127.0.0.1:7733
    --socket PATH    Unix domain socket to bind instead of TCP (a stale
                     socket at PATH is replaced; any other file there is
                     kept, and the bind fails)
    --sessions N     warm sessions kept (LRU-evicted beyond, default 8)
    --workers N      cold session builds allowed in flight (default
                     min(cores, sessions)); beyond the budget a request
                     waits for its own connection's builds, and gets a
                     typed `busy' error when other connections hold
                     every permit
    --cache DIR      persist session artifacts (.omicro/.ocube/.opart)
                     under DIR (default: OCELOTL_CACHE_DIR); --no-cache
                     disables
    --cache-keep N   artifacts kept per trace and kind before GC
                     (default 4; OCELOTL_CACHE_KEEP)

Query it with `ocelotl query ADDR TRACE KIND [options]`.
";

/// Lock a bookkeeping mutex, recovering from poisoning. The mutexes this
/// is used on (pool entry list, build set, pipeline counters, reply
/// ordering) guard plain data that a panicking peer leaves structurally
/// intact — a poisoned guard is safe to keep using, and panicking the
/// server thread over it would turn one lost request into a dead server.
fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait`] with the same poison recovery as [`lock_clean`].
fn wait_clean<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Default cold-build budget: one worker per core, capped by the pool
/// size (more concurrent cold builds than pooled sessions is pure churn).
pub fn default_workers(max_sessions: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(max_sessions)
        .max(1)
}

/// Server policy (everything except the per-request session parameters,
/// which each wire request carries).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Warm sessions kept before LRU eviction.
    pub max_sessions: usize,
    /// Cold session builds allowed in flight before `busy` refusals.
    pub workers: usize,
    /// Artifact cache directory, if any.
    pub cache: Option<PathBuf>,
    /// Artifact GC retention per trace and kind.
    pub cache_keep: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            max_sessions: 8,
            workers: default_workers(8),
            cache: None,
            cache_keep: ocelotl::core::DEFAULT_CACHE_KEEP,
        }
    }
}

/// Pool identity of one warm engine: trace identity and metric.
/// `n_slices` is deliberately **not** part of the key: a `--slices`
/// change re-slices the pooled session's resident hi-res model in memory
/// instead of admitting (and cold-ingesting) a separate session.
type PoolKey = (PathBuf, &'static str);

/// Identity of one client connection (its pipeline window); every bare
/// [`ServerState::handle_line`] call is a connection of its own.
type ConnId = u64;

/// Answer `request` at the full-grid resolution `n_slices` — the one
/// path every pooled, live and subscription request takes. When the
/// engine's snapshot sits there the request answers on it, concurrently
/// with every other reader; otherwise on a sibling at `n_slices`, re-sliced
/// from the resident hi-res model or warm artifacts. The engine itself
/// never moves, so any zoom window a `Reslice` asks for applies to that
/// request only and wire requests stay self-contained.
fn answer_at(
    engine: &QueryEngine,
    n_slices: usize,
    request: &AnalysisRequest,
) -> Result<AnalysisReply, QueryError> {
    let session = engine.session();
    if session.config().n_slices == n_slices {
        return engine.answer(request);
    }
    QueryEngine::new(session.resliced(n_slices, None)?).answer(request)
}

struct PoolEntry {
    key: PoolKey,
    /// `(mtime, len)` of the trace when the session was admitted: a
    /// cheap per-request staleness probe. An overwritten trace must not
    /// keep being served from the old in-memory model — that would break
    /// the CLI == server byte-parity guarantee.
    stamp: FileStamp,
    engine: QueryEngine,
    last_used: u64,
}

/// Modification time and size of a file (best-effort; `None` components
/// compare equal only to themselves, so an unreadable stat degrades to
/// "rebuild on next request" never to "serve stale").
type FileStamp = (Option<std::time::SystemTime>, Option<u64>);

fn file_stamp(path: &Path) -> FileStamp {
    if path.is_dir() {
        // A directory trace: fold the newest mtime and the total size of
        // its trace files, so adding, removing or touching any member
        // invalidates the pooled session.
        let Ok(files) = ocelotl::format::trace_files(path) else {
            return (None, None);
        };
        let mut newest: Option<std::time::SystemTime> = None;
        let mut total = 0u64;
        for f in files {
            if let Ok(m) = std::fs::metadata(&f) {
                if let Ok(t) = m.modified() {
                    newest = Some(newest.map_or(t, |n| n.max(t)));
                }
                total += m.len();
            }
        }
        return (newest, Some(total));
    }
    match std::fs::metadata(path) {
        Ok(m) => (m.modified().ok(), Some(m.len())),
        Err(_) => (None, None),
    }
}

/// The LRU-bounded session pool. The mutex guards only the entry list
/// (lookup, admission, eviction bookkeeping) — queries execute on the
/// `Arc`'d slots after the lock is released.
struct Pool {
    entries: Vec<PoolEntry>,
    clock: u64,
}

/// Shared state of one running server.
pub struct ServerState {
    pool: Mutex<Pool>,
    /// Keys with a cold build in flight, each with the connection that
    /// holds its permit (the admission budget). Guarded separately from
    /// the pool so warm lookups never wait on builders.
    builds: Mutex<BTreeMap<PoolKey, ConnId>>,
    /// Signaled whenever a build finishes (coalesced waiters re-check).
    builds_done: Condvar,
    builds_started: AtomicUsize,
    busy_rejections: AtomicUsize,
    build_waits: AtomicUsize,
    next_conn: AtomicU64,
    /// Published live sessions, addressable by the advertised name in a
    /// wire request's `trace` field. Held only for lookup/registration —
    /// never across model work.
    live: Mutex<Vec<LiveEntry>>,
    opts: ServeOptions,
}

/// Releases a key's build permit on every exit path (success or error)
/// and wakes coalesced waiters.
struct BuildPermit<'a> {
    state: &'a ServerState,
    key: PoolKey,
}

impl Drop for BuildPermit<'_> {
    fn drop(&mut self) {
        lock_clean(&self.state.builds).remove(&self.key);
        self.state.builds_done.notify_all();
    }
}

impl ServerState {
    /// Fresh state under the given policy.
    pub fn new(opts: ServeOptions) -> Self {
        Self {
            pool: Mutex::new(Pool {
                entries: Vec::new(),
                clock: 0,
            }),
            builds: Mutex::new(BTreeMap::new()),
            builds_done: Condvar::new(),
            builds_started: AtomicUsize::new(0),
            busy_rejections: AtomicUsize::new(0),
            build_waits: AtomicUsize::new(0),
            next_conn: AtomicU64::new(0),
            live: Mutex::new(Vec::new()),
            opts,
        }
    }

    /// Execute one wire-request line, producing exactly one reply line
    /// (errors included — this function never fails). The line counts as
    /// a connection of its own.
    pub fn handle_line(&self, line: &str) -> String {
        self.handle_on(line, self.open_connection())
    }

    /// A fresh connection identity.
    fn open_connection(&self) -> ConnId {
        self.next_conn.fetch_add(1, Ordering::Relaxed)
    }

    /// [`ServerState::handle_line`] for a request inside connection
    /// `conn`'s pipeline window.
    fn handle_on(&self, line: &str, conn: ConnId) -> String {
        let result = self.try_handle(line, conn);
        ocelotl::format::encode_reply(&result)
    }

    fn try_handle(&self, line: &str, conn: ConnId) -> Result<AnalysisReply, QueryError> {
        let (trace, mut config, request) = ocelotl::format::decode_wire_request(line)?;
        // Published live sessions shadow the filesystem: their advertised
        // names are served from the in-memory feed, never from disk.
        if let Some(live) = self.live_lookup(&trace) {
            return Self::handle_live(&live.current(), &config, &request);
        }
        let path = PathBuf::from(&trace);
        if !path.exists() {
            return Err(QueryError::Source(format!("no such file: {trace}")));
        }
        // Canonical identity: the same trace reached through different
        // spellings shares one warm session.
        let canonical = std::fs::canonicalize(&path).unwrap_or(path);
        config.cache_keep = self.opts.cache_keep;
        let key = (canonical, config.metric.tag());
        let stamp = file_stamp(&key.0);
        let engine = self.admit(&key, stamp, config, conn)?;
        answer_at(&engine, config.n_slices, &request)
    }

    /// Find the warm slot for `key`, or cold-build one under the
    /// admission budget. Requests racing on the same cold key coalesce
    /// onto the one in-flight build. A distinct cold key beyond the
    /// `--workers` budget waits while connection `conn` itself holds a
    /// permit, and is refused with [`QueryError::Busy`] when only other
    /// connections do.
    fn admit(
        &self,
        key: &PoolKey,
        stamp: FileStamp,
        config: SessionConfig,
        conn: ConnId,
    ) -> Result<QueryEngine, QueryError> {
        loop {
            {
                let mut pool = lock_clean(&self.pool);
                pool.clock += 1;
                let now = pool.clock;
                if let Some(i) = pool.entries.iter().position(|e| e.key == *key) {
                    if let Some(e) = pool.entries.get_mut(i) {
                        if e.stamp == stamp && stamp != (None, None) {
                            e.last_used = now;
                            return Ok(e.engine.clone());
                        }
                    }
                    // A pooled session whose trace file changed on disk
                    // (stamp mismatch, or unreadable stat) is replaced;
                    // in-flight readers drain on their own Arc.
                    pool.entries.swap_remove(i);
                }
            }
            let mut builds = lock_clean(&self.builds);
            // Wait and re-check the pool when the same key is already
            // building (no duplicate ingest), or when the budget is spent
            // and a permit is this connection's own: that build runs
            // within the connection's bounded pipeline window and frees a
            // permit when done, so the reply never depends on how many
            // permits the box has.
            let exhausted = builds.len() >= self.opts.workers.max(1);
            if builds.contains_key(key) || (exhausted && builds.values().any(|&c| c == conn)) {
                self.build_waits.fetch_add(1, Ordering::SeqCst);
                drop(wait_clean(&self.builds_done, builds));
                continue;
            }
            if exhausted {
                self.busy_rejections.fetch_add(1, Ordering::SeqCst);
                return Err(QueryError::Busy(format!(
                    "cold-build budget exhausted ({} of {} workers busy); retry shortly",
                    builds.len(),
                    self.opts.workers.max(1)
                )));
            }
            builds.insert(key.clone(), conn);
            break;
        }
        // Build outside every lock. The permit is released (and waiters
        // woken) on success *and* on error, via Drop.
        let _permit = BuildPermit {
            state: self,
            key: key.clone(),
        };
        self.builds_started.fetch_add(1, Ordering::SeqCst);
        let mut engine = QueryEngine::new(self.open(&key.0, config));
        // The expensive part — ingest and cube — happens here, under the
        // build permit, so the published slot is warm for readers.
        engine.warm_up()?;
        let mut pool = lock_clean(&self.pool);
        pool.clock += 1;
        let now = pool.clock;
        while pool.entries.len() >= self.opts.max_sessions.max(1) {
            // Evict the least recently used entry beyond the cap; anyone
            // mid-query on it drains on their own snapshot.
            let Some(lru) = pool
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
            else {
                break;
            };
            pool.entries.swap_remove(lru);
        }
        pool.entries.push(PoolEntry {
            key: key.clone(),
            stamp,
            engine: engine.clone(),
            last_used: now,
        });
        Ok(engine)
    }

    fn open(&self, path: &Path, config: SessionConfig) -> ocelotl::core::AnalysisSession {
        // Divide the global thread budget across the build permits: with
        // W concurrent cold builds allowed, each ingest gets its share of
        // the executor instead of `--workers` builds each spawning a full
        // complement of shard threads. The cap redistributes work only —
        // shard plans are content-derived, so output bits never change.
        let shard_workers = (rayon::max_threads() / self.opts.workers.max(1)).max(1);
        build_session_with_workers(path, config, self.opts.cache.as_deref(), shard_workers)
    }

    /// Number of warm sessions currently pooled.
    pub fn pooled_sessions(&self) -> usize {
        lock_clean(&self.pool).entries.len()
    }

    /// Cold session builds started since the server came up (coalesced
    /// requests share one build, so racing M identical cold requests
    /// bumps this once).
    pub fn builds_started(&self) -> usize {
        self.builds_started.load(Ordering::SeqCst)
    }

    /// Cold builds currently in flight.
    pub fn builds_in_flight(&self) -> usize {
        lock_clean(&self.builds).len()
    }

    /// Requests refused with `busy` because the build budget was
    /// exhausted.
    pub fn busy_rejections(&self) -> usize {
        self.busy_rejections.load(Ordering::SeqCst)
    }

    /// Times a request waited for an in-flight build: one of the same
    /// key, or, with the budget spent, one its own connection started.
    pub fn build_waits(&self) -> usize {
        self.build_waits.load(Ordering::SeqCst)
    }

    /// Publish a live session under `name`: wire requests whose `trace`
    /// field equals `name` are served from this engine (never from disk),
    /// and `subscribe` requests stream its refreshes. Returns the feeder
    /// half, which pushes event batches and announces refreshes.
    pub fn publish_live(&self, name: &str, engine: QueryEngine) -> LiveFeeder {
        let live = Arc::new(LiveState {
            gen: Mutex::new(LiveGen {
                engine,
                seq: 0,
                events: 0,
                done: false,
            }),
            feeding: Mutex::new(()),
            refreshed: Condvar::new(),
            subscribers: AtomicUsize::new(0),
            served: AtomicUsize::new(0),
        });
        lock_clean(&self.live).push(LiveEntry {
            name: name.to_string(),
            live: live.clone(),
        });
        LiveFeeder { live }
    }

    fn live_lookup(&self, name: &str) -> Option<Arc<LiveState>> {
        lock_clean(&self.live)
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.live.clone())
    }

    /// Number of published live sessions.
    pub fn live_sessions(&self) -> usize {
        lock_clean(&self.live).len()
    }

    /// Answer one non-subscribe request against a published live
    /// session's current snapshot: the pooled sessions' path, minus the
    /// disk-backed admission (a live model exists only in memory). A
    /// request at another resolution answers on a sibling and changes
    /// nothing the feeder or the subscribers see.
    fn handle_live(
        engine: &QueryEngine,
        config: &SessionConfig,
        request: &AnalysisRequest,
    ) -> Result<AnalysisReply, QueryError> {
        if matches!(request, AnalysisRequest::Subscribe { .. }) {
            return Err(QueryError::Protocol(
                "subscribe takes over its connection and must be the last request on it; \
                 pipelined subscribe is not supported"
                    .into(),
            ));
        }
        let served = engine.session().config().metric;
        if served != config.metric {
            return Err(QueryError::InvalidRequest(format!(
                "live session serves the `{}' metric; request asked for `{}'",
                served.tag(),
                config.metric.tag(),
            )));
        }
        answer_at(engine, config.n_slices, request)
    }

    /// Serve one `subscribe` wire line: stream a [`WatchReply`]-wrapped
    /// refresh per feeder generation over `out` until the feeder finishes
    /// or the client goes away. Protocol-level failures are written as a
    /// single typed error line and end the stream; only transport
    /// failures surface as `Err` (the connection is gone either way).
    pub fn serve_subscription(&self, line: &str, out: &mut dyn Write) -> std::io::Result<()> {
        fn emit(
            out: &mut dyn Write,
            result: &Result<AnalysisReply, QueryError>,
        ) -> std::io::Result<()> {
            out.write_all(ocelotl::format::encode_reply(result).as_bytes())?;
            out.write_all(b"\n")?;
            out.flush()
        }
        let parsed =
            ocelotl::format::decode_wire_request(line).and_then(|(trace, config, request)| {
                let AnalysisRequest::Subscribe { inner } = request else {
                    return Err(QueryError::Protocol(
                        "serve_subscription called on a non-subscribe request".into(),
                    ));
                };
                AnalysisRequest::validate_subscribe_inner(&inner)?;
                Ok((trace, config, *inner))
            });
        let (trace, config, inner) = match parsed {
            Ok(t) => t,
            Err(e) => return emit(out, &Err(e)),
        };
        let Some(live) = self.live_lookup(&trace) else {
            return emit(
                out,
                &Err(QueryError::Unsupported(format!(
                    "no live session named {trace:?} on this server; subscribe needs a \
                     server with a live feed (e.g. `ocelotl simulate --live`)"
                ))),
            );
        };
        // A live session is pinned to its publisher's resolution and
        // metric: refusing mismatched subscriptions up front keeps every
        // refresh on the published snapshot itself.
        let pinned = *live.current().session().config();
        if pinned.n_slices != config.n_slices || pinned.metric != config.metric {
            return emit(
                out,
                &Err(QueryError::InvalidRequest(format!(
                    "live session {trace:?} is pinned to --slices {} --metric {}; \
                     subscribe with matching session parameters",
                    pinned.n_slices,
                    pinned.metric.tag(),
                ))),
            );
        }
        let _guard = SubscriberGuard::new(&live);
        let mut last_seq = 0u64;
        loop {
            // The snapshot and its progress marker, read together: the
            // reply's `seq` and `events` describe the snapshot it answers
            // on. The socket write below holds nothing a feeder or a
            // reader needs.
            let (seq, events, done, engine) = {
                let mut gen = lock_clean(&live.gen);
                while gen.seq <= last_seq && !gen.done {
                    gen = wait_clean(&live.refreshed, gen);
                }
                (gen.seq, gen.events, gen.done, gen.engine.clone())
            };
            let result = engine.answer(&inner);
            let failed = result.is_err();
            let wrapped = result.map(|reply| {
                AnalysisReply::Watch(WatchReply {
                    seq,
                    done,
                    events,
                    reply: Box::new(reply),
                })
            });
            emit(out, &wrapped)?;
            last_seq = seq;
            if done || failed {
                return Ok(());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Live sessions: feeder and subscriber bookkeeping
// ---------------------------------------------------------------------------

/// The current snapshot of one live session and its progress marker,
/// shared by the feeder and every subscriber. The mutex guards one engine
/// handle and three words, never model work.
struct LiveGen {
    /// The snapshot that reflects every batch announced so far.
    engine: QueryEngine,
    /// Refresh generation, bumped on every `feed` and once on `finish`
    /// (so even a subscriber that arrives after the stream ended gets one
    /// final reply at a generation it has not seen). Starts at 0 = "no
    /// data yet"; subscribers never answer at generation 0.
    seq: u64,
    /// Events folded so far.
    events: u64,
    /// The feeder is done; the next refresh each subscriber emits is its
    /// last.
    done: bool,
}

/// Shared state of one published live session.
struct LiveState {
    gen: Mutex<LiveGen>,
    /// Serializes feeds, so a feed always builds on the snapshot the last
    /// one published. Readers never take it.
    feeding: Mutex<()>,
    /// Signaled on every refresh and on `finish`.
    refreshed: Condvar,
    /// Subscribers currently streaming (observable for tests and
    /// publisher shutdown pacing).
    subscribers: AtomicUsize,
    /// Subscriptions ever started (monotonic — lets a publisher detect
    /// "someone came and drained" without sampling races).
    served: AtomicUsize,
}

impl LiveState {
    /// A handle on the current snapshot.
    fn current(&self) -> QueryEngine {
        lock_clean(&self.gen).engine.clone()
    }
}

/// One published live session, addressable by its advertised name in the
/// wire request's `trace` field.
struct LiveEntry {
    name: String,
    live: Arc<LiveState>,
}

/// Decrements the subscriber count on every exit path — clean end of
/// stream *and* client disconnect — so a dropped connection can never
/// leak its broadcast entry.
struct SubscriberGuard<'a>(&'a LiveState);

impl<'a> SubscriberGuard<'a> {
    fn new(live: &'a LiveState) -> Self {
        live.subscribers.fetch_add(1, Ordering::SeqCst);
        live.served.fetch_add(1, Ordering::SeqCst);
        Self(live)
    }
}

impl Drop for SubscriberGuard<'_> {
    fn drop(&mut self) {
        self.0.subscribers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The producer half of a published live session: push event batches
/// into the model, then announce each refresh to every subscriber.
pub struct LiveFeeder {
    live: Arc<LiveState>,
}

impl LiveFeeder {
    /// Fold one event batch into the live model and publish the snapshot
    /// that reflects it, then wake every subscriber. The next snapshot is
    /// built and its cube warmed while readers keep answering on the
    /// current one; publishing it swaps one handle. A snapshot whose
    /// warm-up failed is still published, since the grid already holds
    /// its batch, and the failure is returned.
    pub fn feed(&self, events: &[LiveEvent]) -> Result<(), QueryError> {
        let _feeding = lock_clean(&self.live.feeding);
        let current = self.live.current();
        let (next, _) = current.session().advanced(events)?;
        let mut next = QueryEngine::new(next);
        let warmed = next.warm_up();
        let replaced = {
            let mut gen = lock_clean(&self.live.gen);
            gen.seq += 1;
            gen.events += events.len() as u64;
            std::mem::replace(&mut gen.engine, next)
        };
        // The replaced snapshot is freed here, outside the lock, unless a
        // reader still holds it.
        drop((replaced, current));
        self.live.refreshed.notify_all();
        warmed
    }

    /// Mark the stream complete: every subscriber gets one final refresh
    /// (`done: true`) and disconnects cleanly. Idempotent.
    pub fn finish(&self) {
        let mut gen = lock_clean(&self.live.gen);
        if !gen.done {
            gen.done = true;
            gen.seq += 1;
        }
        drop(gen);
        self.live.refreshed.notify_all();
    }

    /// Subscribers currently streaming.
    pub fn subscribers(&self) -> usize {
        self.live.subscribers.load(Ordering::SeqCst)
    }

    /// Subscriptions ever started (monotonic).
    pub fn served(&self) -> usize {
        self.live.served.load(Ordering::SeqCst)
    }

    /// Events folded so far.
    pub fn events(&self) -> u64 {
        lock_clean(&self.live.gen).events
    }

    /// Run `f` against the current snapshot, the one subscribers answer
    /// from; it stays what `f` sees however many feeds land meanwhile.
    /// Always `Some`: the `Option` is kept only because the benchmark
    /// reads it, until the next change to the benchmark.
    pub fn with_engine<T>(&self, f: impl FnOnce(&QueryEngine) -> T) -> Option<T> {
        Some(f(&self.live.current()))
    }
}

/// Where a running server listens.
enum Endpoint {
    Tcp(std::net::SocketAddr),
    #[cfg(unix)]
    Unix(PathBuf),
}

/// A running server (background accept thread), for tests, benches and
/// the `serve` command itself.
pub struct ServerHandle {
    endpoint: Endpoint,
    /// Shared state (pool introspection for tests).
    pub state: Arc<ServerState>,
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The client-facing address: `host:port` for TCP, `unix:PATH` for a
    /// Unix socket — exactly what `ocelotl query` accepts.
    pub fn address(&self) -> String {
        match &self.endpoint {
            Endpoint::Tcp(addr) => addr.to_string(),
            #[cfg(unix)]
            Endpoint::Unix(path) => format!("unix:{}", path.display()),
        }
    }

    /// Signal the accept loop to exit and wait for it. Connects over the
    /// handle's own transport (TCP or the Unix socket path) to unblock
    /// the blocking accept call, so `--socket` servers shut down as
    /// cleanly as TCP ones.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        match &self.endpoint {
            Endpoint::Tcp(addr) => {
                let _ = TcpStream::connect(addr);
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                let _ = std::os::unix::net::UnixStream::connect(path);
            }
        }
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

/// Bind `addr` (e.g. `127.0.0.1:0`) and serve in a background thread.
pub fn spawn_tcp(addr: &str, opts: ServeOptions) -> std::io::Result<ServerHandle> {
    spawn_tcp_with_state(addr, Arc::new(ServerState::new(opts)))
}

/// Bind `addr` and serve an existing state — live servers publish their
/// session into the state before opening the listener.
pub fn spawn_tcp_with_state(addr: &str, state: Arc<ServerState>) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let (state2, stop2) = (state.clone(), stop.clone());
    let join = std::thread::spawn(move || accept_loop(listener, state2, stop2));
    Ok(ServerHandle {
        endpoint: Endpoint::Tcp(local),
        state,
        stop,
        join: Some(join),
    })
}

/// Bind a Unix domain socket and serve in a background thread.
#[cfg(unix)]
pub fn spawn_unix(path: impl Into<PathBuf>, opts: ServeOptions) -> std::io::Result<ServerHandle> {
    spawn_unix_with_state(path, Arc::new(ServerState::new(opts)))
}

/// Unix-socket variant of [`spawn_tcp_with_state`].
#[cfg(unix)]
pub fn spawn_unix_with_state(
    path: impl Into<PathBuf>,
    state: Arc<ServerState>,
) -> std::io::Result<ServerHandle> {
    let path = path.into();
    let listener = bind_unix(&path)?;
    let stop = Arc::new(AtomicBool::new(false));
    let (state2, stop2) = (state.clone(), stop.clone());
    let join = std::thread::spawn(move || accept_loop_unix(listener, state2, stop2));
    Ok(ServerHandle {
        endpoint: Endpoint::Unix(path),
        state,
        stop,
        join: Some(join),
    })
}

/// Bind a Unix domain socket at `path`. A stale socket file a previous
/// run left there would make the bind fail, so it is removed first; any
/// other file at `path` is left alone, and the bind is refused with that
/// reason.
#[cfg(unix)]
fn bind_unix(path: &Path) -> std::io::Result<std::os::unix::net::UnixListener> {
    use std::os::unix::fs::FileTypeExt;
    match std::fs::symlink_metadata(path) {
        Ok(m) if m.file_type().is_socket() => std::fs::remove_file(path)?,
        Ok(_) => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                "the path exists and is not a socket, so it is not replaced",
            ))
        }
        Err(_) => {}
    }
    std::os::unix::net::UnixListener::bind(path)
}

/// Bind `addr` and serve a freshly published live session: returns the
/// handle and the feeder half. The session is visible under `name` from
/// the first accepted connection on.
pub fn spawn_live_tcp(
    addr: &str,
    opts: ServeOptions,
    name: &str,
    engine: QueryEngine,
) -> std::io::Result<(ServerHandle, LiveFeeder)> {
    let state = Arc::new(ServerState::new(opts));
    let feeder = state.publish_live(name, engine);
    let handle = spawn_tcp_with_state(addr, state)?;
    Ok((handle, feeder))
}

/// Unix-socket variant of [`spawn_live_tcp`].
#[cfg(unix)]
pub fn spawn_live_unix(
    path: impl Into<PathBuf>,
    opts: ServeOptions,
    name: &str,
    engine: QueryEngine,
) -> std::io::Result<(ServerHandle, LiveFeeder)> {
    let state = Arc::new(ServerState::new(opts));
    let feeder = state.publish_live(name, engine);
    let handle = spawn_unix_with_state(path, state)?;
    Ok((handle, feeder))
}

fn accept_loop(listener: TcpListener, state: Arc<ServerState>, stop: Arc<AtomicBool>) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Replies are single small writes; Nagle + delayed ACK would add
        // tens of ms of artificial latency to every one of them.
        let _ = stream.set_nodelay(true);
        let state = state.clone();
        std::thread::spawn(move || {
            let Ok(mut writer) = stream.try_clone() else {
                return;
            };
            let _ = serve_lines(&state, BufReader::new(stream), &mut writer);
        });
    }
}

#[cfg(unix)]
fn accept_loop_unix(
    listener: std::os::unix::net::UnixListener,
    state: Arc<ServerState>,
    stop: Arc<AtomicBool>,
) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let state = state.clone();
        std::thread::spawn(move || {
            let Ok(mut writer) = stream.try_clone() else {
                return;
            };
            let _ = serve_lines(&state, BufReader::new(stream), &mut writer);
        });
    }
}

/// Per-connection read-ahead window: how many requests may execute
/// concurrently before the reader stops pulling new lines.
pub const PIPELINE_DEPTH: usize = 8;

/// `true` when a wire line carries a `subscribe` request — `serve_lines`
/// must hand it to [`ServerState::serve_subscription`] (stream takeover)
/// instead of the one-line-one-reply path. Undecodable lines stay on the
/// normal path, which answers them with a typed error reply.
fn is_subscribe(line: &str) -> bool {
    matches!(
        ocelotl::format::decode_wire_request(line),
        Ok((_, _, AnalysisRequest::Subscribe { .. }))
    )
}

/// Reply sequencer: workers complete out of order, the wire emits in
/// request order (the protocol's i-th reply answers the i-th request).
struct OrderedWriter<'a> {
    next: usize,
    pending: BTreeMap<usize, String>,
    out: &'a mut (dyn Write + Send),
    err: Option<std::io::Error>,
}

impl OrderedWriter<'_> {
    fn complete(&mut self, seq: usize, reply: String) {
        self.pending.insert(seq, reply);
        while let Some(line) = self.pending.remove(&self.next) {
            if self.err.is_none() {
                let r = self
                    .out
                    .write_all(line.as_bytes())
                    .and_then(|()| self.out.write_all(b"\n"))
                    .and_then(|()| self.out.flush());
                if let Err(e) = r {
                    self.err = Some(e);
                }
            }
            self.next += 1;
        }
    }
}

/// The transport-agnostic request loop (TCP, Unix sockets and tests all
/// funnel through here), pipelined: up to [`PIPELINE_DEPTH`] request
/// lines execute concurrently, replies are written strictly in request
/// order. Blank lines are skipped, as before.
///
/// Request *effects* are not ordered within the window: two pipelined
/// requests may execute in either order (each wire request is
/// self-contained — it carries its own trace and config — so this is
/// observable only through server-side session state such as which
/// request pays a cold build). The window is one connection to the
/// build budget: a cold build it needs while its own builds hold every
/// permit waits for one instead of answering `busy`.
pub fn serve_lines(
    state: &ServerState,
    reader: impl BufRead,
    writer: &mut (dyn Write + Send),
) -> std::io::Result<()> {
    let ordered = Mutex::new(OrderedWriter {
        next: 0,
        pending: BTreeMap::new(),
        out: writer,
        err: None,
    });
    let in_flight = Mutex::new(0usize);
    let drained = Condvar::new();
    let conn = state.open_connection();
    let mut read_err = None;
    std::thread::scope(|scope| {
        let (ordered, in_flight, drained) = (&ordered, &in_flight, &drained);
        let mut seq = 0usize;
        for line in reader.lines() {
            let line = match line {
                Ok(l) => l,
                Err(e) => {
                    read_err = Some(e);
                    break;
                }
            };
            if line.trim().is_empty() {
                continue;
            }
            if is_subscribe(&line) {
                // A subscription takes over the connection: drain every
                // pipelined request ahead of it so prior replies flush in
                // order, then stream refreshes until done/disconnect, and
                // hang up — subscribe is its connection's last request.
                {
                    let mut n = lock_clean(in_flight);
                    while *n > 0 {
                        n = wait_clean(drained, n);
                    }
                }
                let w = &mut *lock_clean(ordered);
                if w.err.is_none() {
                    if let Err(e) = state.serve_subscription(&line, &mut *w.out) {
                        w.err = Some(e);
                    }
                }
                break;
            }
            // Backpressure: bound the read-ahead window.
            {
                let mut n = lock_clean(in_flight);
                while *n >= PIPELINE_DEPTH {
                    n = wait_clean(drained, n);
                }
                *n += 1;
            }
            if lock_clean(ordered).err.is_some() {
                break; // the connection is gone; stop reading
            }
            let my_seq = seq;
            seq += 1;
            scope.spawn(move || {
                let reply = state.handle_on(&line, conn);
                lock_clean(ordered).complete(my_seq, reply);
                *lock_clean(in_flight) -= 1;
                drained.notify_all();
            });
        }
        // Scope exit joins every in-flight worker, flushing all replies.
    });
    if let Some(e) = ordered
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .err
    {
        return Err(e);
    }
    if let Some(e) = read_err {
        return Err(e);
    }
    Ok(())
}

fn serve_options(args: &Args) -> Result<ServeOptions, CliError> {
    let config = session_config(args)?;
    let max_sessions = args.get_or("sessions", 8usize)?.max(1);
    Ok(ServeOptions {
        max_sessions,
        workers: args
            .get_or("workers", default_workers(max_sessions))?
            .max(1),
        cache: cache_dir(args)?,
        cache_keep: config.cache_keep,
    })
}

/// Entry point.
pub fn run(tokens: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(tokens)?;
    if args.has("help") {
        out.write_all(HELP.as_bytes())?;
        return Ok(());
    }
    args.expect_known(&[
        "help",
        "listen",
        "socket",
        "sessions",
        "workers",
        "cache",
        "no-cache",
        "cache-keep",
    ])?;
    let opts = serve_options(&args)?;

    if let Some(path) = args.get("socket")? {
        return serve_unix(path, opts, out);
    }
    let addr = args
        .get("listen")?
        .ok_or_else(|| CliError::Usage("serve needs --listen ADDR or --socket PATH".into()))?;
    let listener = TcpListener::bind(addr)
        .map_err(|e| CliError::Invalid(format!("cannot bind {addr}: {e}")))?;
    let local = listener.local_addr()?;
    writeln!(
        out,
        "listening on {local} (query protocol v1, line-delimited JSON)"
    )?;
    out.flush()?;
    let state = Arc::new(ServerState::new(opts));
    accept_loop(listener, state, Arc::new(AtomicBool::new(false)));
    Ok(())
}

/// Serve on a Unix domain socket (Unix only).
#[cfg(unix)]
fn serve_unix(path: &str, opts: ServeOptions, out: &mut dyn Write) -> Result<(), CliError> {
    let listener = bind_unix(Path::new(path))
        .map_err(|e| CliError::Invalid(format!("cannot bind {path}: {e}")))?;
    writeln!(
        out,
        "listening on {path} (query protocol v1, line-delimited JSON)"
    )?;
    out.flush()?;
    let state = Arc::new(ServerState::new(opts));
    accept_loop_unix(listener, state, Arc::new(AtomicBool::new(false)));
    Ok(())
}

#[cfg(not(unix))]
fn serve_unix(_path: &str, _opts: ServeOptions, _out: &mut dyn Write) -> Result<(), CliError> {
    Err(CliError::Usage(
        "--socket needs Unix domain sockets; use --listen ADDR".into(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::helpers::fixture_trace;
    use ocelotl::core::query::AnalysisRequest;
    use ocelotl::core::{Metric, SessionConfig};

    fn wire(trace: &std::path::Path, slices: usize, req: &AnalysisRequest) -> String {
        ocelotl::format::encode_wire_request(
            &trace.display().to_string(),
            &SessionConfig {
                n_slices: slices,
                ..SessionConfig::default()
            },
            req,
        )
    }

    #[test]
    fn handle_line_answers_and_pools() {
        let p = fixture_trace("serve-pool");
        let state = ServerState::new(ServeOptions::default());
        let req = AnalysisRequest::Aggregate {
            p: 0.4,
            coarse: false,
            compare: false,
            diff_p: None,
        };
        let first = state.handle_line(&wire(&p, 10, &req));
        let second = state.handle_line(&wire(&p, 10, &req));
        assert_eq!(first, second, "warm answer must be byte-identical");
        assert!(first.contains("\"reply\""), "{first}");
        assert_eq!(state.pooled_sessions(), 1, "same key shares one session");
        // Different slicing re-slices the SAME warm session in memory —
        // no second session, no re-ingest.
        let resliced = state.handle_line(&wire(&p, 20, &req));
        assert!(resliced.contains("\"n_slices\":20"), "{resliced}");
        assert_eq!(
            state.pooled_sessions(),
            1,
            "a --slices change must reuse the pooled session"
        );
        // …and switching back serves the cached pipeline byte-identically.
        assert_eq!(state.handle_line(&wire(&p, 10, &req)), first);
        assert_eq!(state.builds_started(), 1, "one cold build for all of it");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn pool_is_lru_bounded() {
        let traces = [fixture_trace("serve-lru-1"), fixture_trace("serve-lru-2")];
        let state = ServerState::new(ServeOptions {
            max_sessions: 2,
            ..ServeOptions::default()
        });
        let req = AnalysisRequest::Describe;
        // Slicing no longer keys the pool; trace × metric combinations do.
        for p in &traces {
            for metric in [Metric::States, Metric::Density] {
                let config = SessionConfig {
                    n_slices: 10,
                    metric,
                    ..SessionConfig::default()
                };
                let line =
                    ocelotl::format::encode_wire_request(&p.display().to_string(), &config, &req);
                state.handle_line(&line);
            }
        }
        assert_eq!(state.pooled_sessions(), 2, "evicted down to the cap");
        for p in &traces {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn evicted_session_drains_instead_of_dying_under_a_reader() {
        let p = fixture_trace("serve-drain");
        let state = ServerState::new(ServeOptions {
            max_sessions: 1,
            ..ServeOptions::default()
        });
        let req = AnalysisRequest::Aggregate {
            p: 0.4,
            coarse: false,
            compare: false,
            diff_p: None,
        };
        let config = SessionConfig {
            n_slices: 10,
            ..SessionConfig::default()
        };
        let line = ocelotl::format::encode_wire_request(&p.display().to_string(), &config, &req);
        let before = state.handle_line(&line);

        // Hold the snapshot the way an in-flight request would…
        let key = (std::fs::canonicalize(&p).unwrap(), config.metric.tag());
        let held = state
            .admit(&key, file_stamp(&key.0), config, state.open_connection())
            .unwrap();

        // …then force an eviction (capacity 1, different metric).
        let other = SessionConfig {
            n_slices: 10,
            metric: Metric::Density,
            ..SessionConfig::default()
        };
        state.handle_line(&ocelotl::format::encode_wire_request(
            &p.display().to_string(),
            &other,
            &req,
        ));
        assert_eq!(state.pooled_sessions(), 1, "old entry evicted");

        // The evicted snapshot still answers for its holder — and
        // byte-identically.
        let reply = held
            .answer(&AnalysisRequest::Aggregate {
                p: 0.4,
                coarse: false,
                compare: false,
                diff_p: None,
            })
            .unwrap();
        let drained = ocelotl::format::encode_reply(&Ok(reply));
        assert_eq!(drained, before);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn racing_identical_cold_requests_coalesce_into_one_build() {
        let p = fixture_trace("serve-coalesce");
        let state = ServerState::new(ServeOptions::default());
        let req = AnalysisRequest::Aggregate {
            p: 0.4,
            coarse: false,
            compare: false,
            diff_p: None,
        };
        let line = wire(&p, 12, &req);
        let replies: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| state.handle_line(&line)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for r in &replies {
            assert_eq!(r, &replies[0], "coalesced replies are byte-identical");
            assert!(r.contains("\"reply\""), "{r}");
        }
        assert_eq!(state.builds_started(), 1, "M racing requests, one ingest");
        assert_eq!(state.pooled_sessions(), 1);
        assert_eq!(state.busy_rejections(), 0, "same-key races never go busy");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn over_budget_cold_requests_get_busy() {
        let p1 = fixture_trace("serve-busy-1");
        let p2 = fixture_trace("serve-busy-2");
        let state = ServerState::new(ServeOptions {
            workers: 1,
            ..ServeOptions::default()
        });
        // Occupy the single build permit directly, as another connection
        // (deterministic: no timing dependence on how long a real build
        // takes).
        let key1 = (std::fs::canonicalize(&p1).unwrap(), Metric::States.tag());
        let other = state.open_connection();
        state.builds.lock().unwrap().insert(key1.clone(), other);
        assert_eq!(state.builds_in_flight(), 1);

        // A *different* cold key beyond the budget is refused, typed.
        let reply = state.handle_line(&wire(&p2, 10, &AnalysisRequest::Describe));
        assert!(reply.contains("\"error\""), "{reply}");
        assert!(reply.contains("\"busy\""), "{reply}");
        assert_eq!(state.busy_rejections(), 1);
        assert_eq!(state.pooled_sessions(), 0, "busy requests build nothing");

        // Releasing the permit lets the same request through.
        state.builds.lock().unwrap().remove(&key1);
        state.builds_done.notify_all();
        let reply = state.handle_line(&wire(&p2, 10, &AnalysisRequest::Describe));
        assert!(reply.contains("\"reply\""), "{reply}");
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }

    #[test]
    fn cold_build_inside_a_pipeline_window_waits_for_its_own_permit() {
        let p1 = fixture_trace("serve-own-1");
        let p2 = fixture_trace("serve-own-2");
        let state = ServerState::new(ServeOptions {
            workers: 1,
            ..ServeOptions::default()
        });
        // The single permit is held by a build of connection `conn`.
        let key1 = (std::fs::canonicalize(&p1).unwrap(), Metric::States.tag());
        let conn = state.open_connection();
        state.builds.lock().unwrap().insert(key1.clone(), conn);
        let line = wire(&p2, 10, &AnalysisRequest::Describe);
        let reply = std::thread::scope(|scope| {
            // A second cold build in the same window waits…
            let waiter = scope.spawn(|| state.handle_on(&line, conn));
            while state.build_waits() == 0 {
                std::thread::yield_now();
            }
            // …while another connection is refused.
            assert!(state.handle_line(&line).contains("\"busy\""));
            // The waiter counted its wait under the build lock, so it is
            // parked on the condvar by the time this lock is taken.
            state.builds.lock().unwrap().remove(&key1);
            state.builds_done.notify_all();
            waiter.join().unwrap()
        });
        assert!(reply.contains("\"reply\""), "{reply}");
        assert_eq!(state.busy_rejections(), 1, "only the other connection");
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }

    #[test]
    fn overwritten_trace_is_not_served_stale() {
        let p = fixture_trace("serve-stale");
        let state = ServerState::new(ServeOptions::default());
        let req = AnalysisRequest::Describe;
        let before = state.handle_line(&wire(&p, 10, &req));
        assert!(before.contains("\"n_leaves\":4"), "{before}");

        // Overwrite the trace with a different (larger) hierarchy; the
        // pooled session must be dropped, not answer from the old model.
        use ocelotl::prelude::*;
        let mut b = TraceBuilder::new(Hierarchy::balanced(&[2, 2, 2]));
        let run = b.state("Run");
        for leaf in 0..8u32 {
            b.push_state(LeafId(leaf), run, 0.0, 4.0);
        }
        ocelotl::format::write_trace(&b.build(), &p).unwrap();

        let after = state.handle_line(&wire(&p, 10, &req));
        assert!(after.contains("\"n_leaves\":8"), "stale reply: {after}");
        assert_eq!(state.pooled_sessions(), 1, "old session replaced");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn bad_lines_produce_error_replies_not_crashes() {
        let state = ServerState::new(ServeOptions::default());
        for line in ["", "not json", "{\"v\":1}", "{\"v\":7,\"trace\":\"x\"}"] {
            let reply = state.handle_line(line);
            assert!(reply.contains("\"error\""), "{line:?} -> {reply}");
        }
        // Missing trace file is a source error.
        let req = AnalysisRequest::Describe;
        let reply = state.handle_line(&wire(std::path::Path::new("/no/such.btf"), 10, &req));
        assert!(reply.contains("\"source\""), "{reply}");
    }

    #[test]
    fn serve_lines_speaks_the_wire_protocol() {
        let p = fixture_trace("serve-lines");
        let state = ServerState::new(ServeOptions::default());
        let input = format!(
            "{}\n\n{}\n",
            wire(&p, 10, &AnalysisRequest::Describe),
            wire(&p, 10, &AnalysisRequest::PValues { resolution: 1e-2 }),
        );
        let mut out = Vec::new();
        serve_lines(&state, input.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "blank lines are skipped: {text}");
        for line in lines {
            assert!(ocelotl::format::decode_reply(line).unwrap().is_ok());
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn pipelined_replies_come_back_in_request_order() {
        let p = fixture_trace("serve-pipeline");
        let state = ServerState::new(ServeOptions::default());
        // More requests than PIPELINE_DEPTH, with distinguishable
        // replies: p cycles through distinct values.
        let ps = [0.1, 0.3, 0.5, 0.7, 0.9];
        let mut input = String::new();
        for k in 0..20 {
            let req = AnalysisRequest::Aggregate {
                p: ps[k % ps.len()],
                coarse: false,
                compare: false,
                diff_p: None,
            };
            input.push_str(&wire(&p, 10, &req));
            input.push('\n');
        }
        let mut out = Vec::new();
        serve_lines(&state, input.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 20);
        for (k, line) in lines.iter().enumerate() {
            let expect = format!("\"p\":{}", ps[k % ps.len()]);
            assert!(
                line.contains(&expect),
                "reply {k} out of order: wanted {expect} in {line}"
            );
        }
        std::fs::remove_file(&p).ok();
    }

    // -- live sessions ------------------------------------------------------

    /// A small in-memory live engine: 2 leaves, 2 states, a dyadic grid
    /// over [0, 8) at 4096 hi-res periods, resolution `n_slices`.
    fn live_engine(n_slices: usize) -> QueryEngine {
        use ocelotl::core::{AnalysisSession, HiResModel, Metric};
        use ocelotl::trace::{Hierarchy, MicroModel, StateRegistry, TimeGrid};
        let raw = MicroModel::from_dense(
            Hierarchy::flat(2, "p"),
            StateRegistry::from_names(["A", "B"]),
            TimeGrid::new(0.0, 8.0, 4096),
            vec![0.0; 2 * 2 * 4096],
        );
        let config = SessionConfig {
            n_slices,
            ..SessionConfig::default()
        };
        let session = AnalysisSession::live(config, HiResModel::new(Metric::States, raw)).unwrap();
        QueryEngine::new(session)
    }

    fn wire_name(name: &str, slices: usize, req: &AnalysisRequest) -> String {
        ocelotl::format::encode_wire_request(
            name,
            &SessionConfig {
                n_slices: slices,
                ..SessionConfig::default()
            },
            req,
        )
    }

    fn subscribe_line(name: &str, slices: usize) -> String {
        wire_name(
            name,
            slices,
            &AnalysisRequest::Subscribe {
                inner: Box::new(AnalysisRequest::Describe),
            },
        )
    }

    /// Decode one reply line into the `WatchReply` it must carry.
    fn watch_of(line: &str) -> WatchReply {
        match ocelotl::format::decode_reply(line).unwrap().unwrap() {
            AnalysisReply::Watch(w) => w,
            other => panic!("expected a watch reply, got {other:?}"),
        }
    }

    #[test]
    fn live_sessions_answer_by_name_without_touching_disk() {
        use ocelotl::trace::{LeafId, StateId};
        let state = ServerState::new(ServeOptions::default());
        let feeder = state.publish_live("live", live_engine(4));
        assert_eq!(state.live_sessions(), 1);
        feeder
            .feed(&[
                (LeafId(0), StateId(0), 0.0, 2.0),
                (LeafId(1), StateId(1), 2.0, 4.0),
            ])
            .unwrap();

        // The name routes to the in-memory session even though no file
        // called `live` exists — and no pooled (disk) session appears.
        let reply = state.handle_line(&wire_name("live", 4, &AnalysisRequest::Describe));
        assert!(reply.contains("\"reply\""), "{reply}");
        assert!(reply.contains("\"n_leaves\":2"), "{reply}");
        assert_eq!(state.pooled_sessions(), 0, "live sessions never pool");
        assert_eq!(state.builds_started(), 0, "…and never ingest from disk");

        // A metric the live session does not serve is refused, typed.
        let line = ocelotl::format::encode_wire_request(
            "live",
            &SessionConfig {
                n_slices: 4,
                metric: ocelotl::core::Metric::Density,
                ..SessionConfig::default()
            },
            &AnalysisRequest::Describe,
        );
        let reply = ocelotl::format::decode_reply(&state.handle_line(&line)).unwrap();
        assert!(
            matches!(reply, Err(QueryError::InvalidRequest(_))),
            "{reply:?}"
        );

        // Pipelined subscribe (through the one-shot path) is a protocol
        // error: subscribe must take over its connection.
        let reply =
            ocelotl::format::decode_reply(&state.handle_line(&subscribe_line("live", 4))).unwrap();
        assert!(matches!(reply, Err(QueryError::Protocol(_))), "{reply:?}");
    }

    /// A `Write` sink that hands each completed line to a channel, so a
    /// test can lock-step a subscriber thread refresh by refresh.
    struct LineChannel {
        tx: std::sync::mpsc::Sender<String>,
        buf: Vec<u8>,
    }

    impl Write for LineChannel {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.buf.extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            while let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let rest = self.buf.split_off(pos + 1);
                let line = std::mem::replace(&mut self.buf, rest);
                let line = String::from_utf8(line).expect("utf-8 reply line");
                self.tx
                    .send(line.trim_end().to_string())
                    .map_err(|_| std::io::Error::new(std::io::ErrorKind::BrokenPipe, "gone"))?;
            }
            Ok(())
        }
    }

    #[test]
    fn subscriptions_stream_refreshes_in_order_until_done() {
        use ocelotl::trace::{LeafId, StateId};
        let state = Arc::new(ServerState::new(ServeOptions::default()));
        let feeder = state.publish_live("live", live_engine(4));
        feeder.feed(&[(LeafId(0), StateId(0), 0.0, 2.0)]).unwrap();

        let (tx, rx) = std::sync::mpsc::channel();
        let line = subscribe_line("live", 4);
        let st = state.clone();
        let sub = std::thread::spawn(move || {
            let mut out = LineChannel {
                tx,
                buf: Vec::new(),
            };
            st.serve_subscription(&line, &mut out).unwrap();
        });

        // Lock-step: one watch line per feeder generation, strictly
        // ordered, with the running event count.
        let first = watch_of(&rx.recv().unwrap());
        assert_eq!((first.seq, first.events, first.done), (1, 1, false));

        feeder.feed(&[(LeafId(1), StateId(1), 2.0, 4.0)]).unwrap();
        let second = watch_of(&rx.recv().unwrap());
        assert_eq!((second.seq, second.events, second.done), (2, 2, false));

        feeder.finish();
        let last = watch_of(&rx.recv().unwrap());
        assert_eq!((last.seq, last.events, last.done), (3, 2, true));

        sub.join().unwrap();
        assert!(rx.recv().is_err(), "the stream ends after the final line");
        assert_eq!(feeder.subscribers(), 0, "guard released on clean exit");
        assert_eq!(feeder.served(), 1);

        // A subscriber arriving after the end still gets exactly one
        // final (done) refresh at a generation it has not seen.
        let mut out = Vec::new();
        state
            .serve_subscription(&subscribe_line("live", 4), &mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1, "{text}");
        let late = watch_of(lines[0]);
        assert_eq!((late.seq, late.done), (3, true));
        assert_eq!(feeder.served(), 2);
    }

    #[test]
    fn subscriptions_reject_mismatched_pins_and_unknown_names() {
        let state = ServerState::new(ServeOptions::default());
        let feeder = state.publish_live("live", live_engine(4));

        let expect_err = |line: &str, check: fn(&QueryError) -> bool| {
            let mut out = Vec::new();
            state.serve_subscription(line, &mut out).unwrap();
            let text = String::from_utf8(out).unwrap();
            assert_eq!(text.lines().count(), 1, "{text}");
            let reply = ocelotl::format::decode_reply(text.lines().next().unwrap()).unwrap();
            match reply {
                Err(e) if check(&e) => {}
                other => panic!("wrong refusal: {other:?}"),
            }
        };

        // No live session under that name.
        expect_err(&subscribe_line("nope", 4), |e| {
            matches!(e, QueryError::Unsupported(_))
        });
        // Resolution pin: the live session serves 4 slices, not 8.
        expect_err(&subscribe_line("live", 8), |e| {
            matches!(e, QueryError::InvalidRequest(_))
        });
        // Reslice cannot ride inside a subscription (it would thrash the
        // pinned resolution on every refresh).
        expect_err(
            &wire_name(
                "live",
                4,
                &AnalysisRequest::Subscribe {
                    inner: Box::new(AnalysisRequest::Reslice {
                        n_slices: 8,
                        range: None,
                    }),
                },
            ),
            |e| matches!(e, QueryError::InvalidRequest(_)),
        );
        // None of those refusals ever registered as a subscriber.
        assert_eq!(feeder.served(), 0);
        assert_eq!(feeder.subscribers(), 0);
    }

    #[test]
    fn live_tcp_server_streams_a_subscription_end_to_end() {
        use ocelotl::trace::{LeafId, StateId};
        use std::io::{BufRead, BufReader};
        let (handle, feeder) = spawn_live_tcp(
            "127.0.0.1:0",
            ServeOptions::default(),
            "live",
            live_engine(4),
        )
        .unwrap();
        feeder.feed(&[(LeafId(0), StateId(0), 0.0, 2.0)]).unwrap();
        feeder.feed(&[(LeafId(1), StateId(1), 2.0, 4.0)]).unwrap();
        feeder.finish();

        // A plain (non-subscribe) query answers one-shot over TCP.
        let mut conn = std::net::TcpStream::connect(handle.address()).unwrap();
        conn.write_all(wire_name("live", 4, &AnalysisRequest::Describe).as_bytes())
            .unwrap();
        conn.write_all(b"\n").unwrap();
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        let mut reply = String::new();
        BufReader::new(&conn).read_line(&mut reply).unwrap();
        assert!(reply.contains("\"n_leaves\":2"), "{reply}");

        // A subscription on a fresh connection streams watch lines and
        // closes after the final one.
        let mut conn = std::net::TcpStream::connect(handle.address()).unwrap();
        conn.write_all(subscribe_line("live", 4).as_bytes())
            .unwrap();
        conn.write_all(b"\n").unwrap();
        let mut lines = Vec::new();
        for line in BufReader::new(&conn).lines() {
            lines.push(line.unwrap());
        }
        assert!(!lines.is_empty());
        let mut prev = 0;
        for (i, line) in lines.iter().enumerate() {
            let w = watch_of(line);
            assert!(w.seq > prev, "seq must strictly increase: {lines:?}");
            prev = w.seq;
            assert_eq!(w.done, i + 1 == lines.len(), "done only on the last line");
        }
        assert_eq!(watch_of(lines.last().unwrap()).events, 2);
        handle.stop();
    }
}
