//! # ofl-trace — deterministic tracing and metrics keyed by virtual time
//!
//! Every other observability surface in the workspace (`ProviderMetrics`,
//! `WireCounter`, `DaemonStats`) is a disjoint aggregate with no shared
//! timeline, and none of them reads the wall clock: where host time goes is
//! measured from outside the program, by `perfbench`'s layer profile. This crate gives them one: structured
//! trace events stamped with **virtual time** (the engine's `SimInstant`
//! microseconds), a stable **source id** (engine = 0, endpoint *i* = 1 + *i*)
//! and a per-source **sequence number**, so a trace is a pure function of the
//! seed — bit-reproducible across runs, backends, and serial/parallel
//! executors, under the same determinism contract as the digests.
//!
//! Three pillars:
//!
//! 1. **Span/event API** — [`trace_event!`] / [`trace_span!`] compile to a
//!    single relaxed atomic load when tracing is disabled; a [`Recorder`]
//!    trait (no-op by default — nothing installed) receives events when it
//!    is.
//! 2. **Off-thread collector** — [`Tracer`] hands workers per-source ring
//!    buffers; a collector thread drains them off the engine thread and
//!    [`Tracer::finish`] merges everything in deterministic
//!    `(timestamp, source, seq)` order into a [`Trace`] with JSONL and
//!    Chrome-trace (`chrome://tracing`) exporters.
//! 3. **Metrics registry** — [`metrics`]: counters, gauges, and
//!    fixed-bucket histograms iterated in name order, servable live over
//!    the wire (`Frame::Stats` in `ofl-rpc`).
//!
//! ## Determinism domain
//!
//! Categories split events into a backend-invariant core and opt-in
//! diagnostics. [`Category::Engine`], [`Category::World`],
//! [`Category::Provider`] and [`Category::Sign`] fire identically whether a
//! shard is in-process, piped, or behind a TCP socket, and are enabled by
//! default. [`Category::Codec`] and [`Category::Rpcd`] only fire when frames
//! actually cross a wire — enabling them trades cross-backend byte-identity
//! for wire-level detail. See `set_category_mask`.
//!
//! The crate is dependency-free and sits below `ofl-primitives` so every
//! layer of the stack can instrument itself.

#![forbid(unsafe_code)]

mod collector;
pub mod diff;
pub mod gzip;
pub mod metrics;
mod sink;

pub use collector::Tracer;
pub use sink::{ChromeSink, JsonlSink, Trace, TraceSink};

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// Event model
// ---------------------------------------------------------------------------

/// Event category: the determinism domain an event belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// Engine event-loop dispatch: deterministic on every backend.
    Engine,
    /// `World` slot mining and notification pumping.
    World,
    /// Provider decorators: injected faults, throttles, latency charges.
    Provider,
    /// Wallet signing.
    Sign,
    /// Frame encode/decode. Only fires when frames cross a wire —
    /// **opt-in**, breaks cross-backend trace identity.
    Codec,
    /// Daemon session handling. Backend-dependent — **opt-in**.
    Rpcd,
}

impl Category {
    /// Bit for category-mask filtering.
    pub const fn bit(self) -> u32 {
        1 << self as u32
    }

    /// Stable lowercase label used by the exporters.
    pub const fn label(self) -> &'static str {
        match self {
            Category::Engine => "engine",
            Category::World => "world",
            Category::Provider => "provider",
            Category::Sign => "sign",
            Category::Codec => "codec",
            Category::Rpcd => "rpcd",
        }
    }
}

/// The backend-invariant categories: traces restricted to these are
/// byte-identical across in-process, pipe, and TCP backends.
pub const DEFAULT_CATEGORIES: u32 = Category::Engine.bit()
    | Category::World.bit()
    | Category::Provider.bit()
    | Category::Sign.bit();

/// Every category, including the backend-dependent diagnostics.
pub const ALL_CATEGORIES: u32 = DEFAULT_CATEGORIES | Category::Codec.bit() | Category::Rpcd.bit();

/// Instant event, or one end of a span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A point event.
    Instant,
    /// Span open (paired with a later `End` of the same name/source).
    Begin,
    /// Span close.
    End,
}

impl EventKind {
    /// One-letter code used by the JSONL exporter (and Chrome's `ph`).
    pub const fn code(self) -> &'static str {
        match self {
            EventKind::Instant => "i",
            EventKind::Begin => "b",
            EventKind::End => "e",
        }
    }
}

/// A typed field value. Kept deliberately small: trace fields should be
/// numbers (slot, owner, shard, byte counts) — strings are for names the
/// call site already owns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FieldValue {
    /// Unsigned quantity.
    U64(u64),
    /// Signed quantity.
    I64(i64),
    /// Short label.
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> FieldValue {
        FieldValue::U64(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> FieldValue {
        FieldValue::U64(v as u64)
    }
}
impl From<u16> for FieldValue {
    fn from(v: u16) -> FieldValue {
        FieldValue::U64(v as u64)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> FieldValue {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> FieldValue {
        FieldValue::I64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> FieldValue {
        FieldValue::U64(v as u64)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Str(v)
    }
}

/// One structured trace event.
///
/// `(ts_us, source, seq)` totally orders a trace: `ts_us` is virtual time,
/// `source` is a stable small integer (0 = engine thread, 1 + *i* =
/// endpoint *i* — **not** an OS thread id, so serial and parallel executors
/// attribute identically), and `seq` is the per-source record order.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Virtual-time stamp in microseconds.
    pub ts_us: u64,
    /// Stable source id.
    pub source: u32,
    /// Per-source sequence number, assigned by the recorder.
    pub seq: u64,
    /// Determinism domain.
    pub cat: Category,
    /// Instant / span-begin / span-end.
    pub kind: EventKind,
    /// Static event name, dot-namespaced (`"engine.dispatch"`).
    pub name: &'static str,
    /// Call-site fields in declaration order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

// ---------------------------------------------------------------------------
// Global gate + recorder registry
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static CATEGORY_MASK: AtomicU32 = AtomicU32::new(DEFAULT_CATEGORIES);
static RECORDER: Mutex<Option<Arc<dyn Recorder>>> = Mutex::new(None);

/// Receives trace events. The default state is "nothing installed":
/// every instrumentation site reduces to one relaxed atomic load.
///
/// `record` is called with `seq == 0`; a recorder that persists events is
/// expected to assign the per-source sequence number itself (the [`Tracer`]
/// does), because only the recorder knows how many events a source has
/// already emitted.
pub trait Recorder: Send + Sync {
    /// Record one event. Must not panic; must not block on the caller's
    /// own locks (it is called from engine and worker threads).
    fn record(&self, ev: TraceEvent);
    /// Best-effort barrier: all events recorded before the call are
    /// durable once it returns.
    fn flush(&self) {}
}

/// True when a recorder is installed. The fast path of every macro.
#[inline]
pub fn tracing_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// True when `cat` passes the current category mask.
#[inline]
pub fn category_enabled(cat: Category) -> bool {
    CATEGORY_MASK.load(Ordering::Relaxed) & cat.bit() != 0
}

/// Replaces the category mask (see [`DEFAULT_CATEGORIES`] /
/// [`ALL_CATEGORIES`]). Takes effect immediately on all threads.
pub fn set_category_mask(mask: u32) {
    CATEGORY_MASK.store(mask, Ordering::Relaxed);
}

/// Current category mask.
pub fn category_mask() -> u32 {
    CATEGORY_MASK.load(Ordering::Relaxed)
}

fn recorder_slot() -> std::sync::MutexGuard<'static, Option<Arc<dyn Recorder>>> {
    match RECORDER.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Installs `rec` as the global recorder and enables tracing. Replaces any
/// previous recorder (runs are sequential; the last installer wins).
pub fn install(rec: Arc<dyn Recorder>) {
    *recorder_slot() = Some(rec);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Disables tracing and removes the recorder, returning it so the caller
/// can drain it. Safe to call when nothing is installed.
pub fn uninstall() -> Option<Arc<dyn Recorder>> {
    ENABLED.store(false, Ordering::SeqCst);
    recorder_slot().take()
}

/// Starts a [`Tracer`], installs its recorder globally, and returns the
/// tracer handle. Pair with [`stop_tracing`].
pub fn start_tracing() -> Tracer {
    let tracer = Tracer::start();
    install(tracer.recorder());
    tracer
}

/// Uninstalls the global recorder and finishes `tracer`, returning the
/// merged, deterministically ordered [`Trace`].
pub fn stop_tracing(tracer: Tracer) -> Trace {
    uninstall();
    tracer.finish()
}

// ---------------------------------------------------------------------------
// Thread-local virtual-time / source context
// ---------------------------------------------------------------------------

thread_local! {
    static CTX: Cell<(u64, u32)> = const { Cell::new((0, 0)) };
}

/// Sets this thread's virtual-time stamp (microseconds). The simulation
/// clock calls this on every advance; leaf sites (signing, decorators,
/// codec) then stamp events without plumbing a clock handle through.
#[inline]
pub fn set_vtime(us: u64) {
    CTX.with(|c| {
        let (_, src) = c.get();
        c.set((us, src));
    });
}

/// This thread's current virtual time in microseconds.
#[inline]
pub fn vtime() -> u64 {
    CTX.with(|c| c.get().0)
}

/// This thread's current source id.
#[inline]
pub fn source() -> u32 {
    CTX.with(|c| c.get().1)
}

/// Scopes this thread to `(source, vtime_us)` until the guard drops, then
/// restores the previous context. The shard executor wraps each
/// per-endpoint closure in one of these so events attribute to the
/// *endpoint*, not the worker thread — identical under serial and parallel
/// execution.
pub fn source_scope(source: u32, vtime_us: u64) -> SourceScope {
    let prev = CTX.with(|c| c.replace((vtime_us, source)));
    SourceScope { prev }
}

/// Restores the previous `(vtime, source)` context on drop.
#[must_use = "the scope ends when the guard drops"]
pub struct SourceScope {
    prev: (u64, u32),
}

impl Drop for SourceScope {
    fn drop(&mut self) {
        let prev = self.prev;
        CTX.with(|c| c.set(prev));
    }
}

/// FNV-1a over `bytes`: the workspace's standard cheap content digest, so
/// instrumentation sites can stamp *what* they produced (a signed
/// transaction, a payload) into a trace field without hauling the bytes
/// along. Two same-seed runs produce the same digests; a seed mismatch
/// surfaces at the first event whose content differs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf29ce484222325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

// ---------------------------------------------------------------------------
// Recording entry points (macro plumbing)
// ---------------------------------------------------------------------------

/// Records one event through the installed recorder, stamping it with the
/// calling thread's virtual time and source id. Prefer the macros.
pub fn record_event(
    cat: Category,
    kind: EventKind,
    name: &'static str,
    fields: Vec<(&'static str, FieldValue)>,
) {
    let rec = recorder_slot().clone();
    if let Some(rec) = rec {
        let (ts_us, source) = CTX.with(|c| c.get());
        rec.record(TraceEvent {
            ts_us,
            source,
            seq: 0,
            cat,
            kind,
            name,
            fields,
        });
    }
}

/// RAII span: emits `Begin` on creation (via [`span`]) and `End` — stamped
/// with the virtual time *at drop* — when it goes out of scope.
pub struct Span {
    cat: Category,
    name: &'static str,
    live: bool,
}

/// Opens a span; `fields` is `None` when tracing is off (the macro decides
/// so field expressions aren't even evaluated).
pub fn span(
    cat: Category,
    name: &'static str,
    fields: Option<Vec<(&'static str, FieldValue)>>,
) -> Span {
    let live = fields.is_some();
    if let Some(fields) = fields {
        record_event(cat, EventKind::Begin, name, fields);
    }
    Span { cat, name, live }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.live {
            record_event(self.cat, EventKind::End, self.name, Vec::new());
        }
    }
}

/// Records an instant event: `trace_event!(Category::World, "slot.mine",
/// "slot" => slot_secs, "blocks" => n)`. Field expressions are not
/// evaluated unless tracing is enabled *and* the category passes the mask.
#[macro_export]
macro_rules! trace_event {
    ($cat:expr, $name:expr $(, $k:literal => $v:expr)* $(,)?) => {
        if $crate::tracing_enabled() && $crate::category_enabled($cat) {
            $crate::record_event(
                $cat,
                $crate::EventKind::Instant,
                $name,
                vec![$(($k, $crate::FieldValue::from($v))),*],
            );
        }
    };
}

/// Opens a span guard: `let _span = trace_span!(Category::World,
/// "slot.mine", "slot" => slot_secs);`. The span closes (and stamps its
/// end time) when the guard drops. Zero field evaluation when disabled.
#[macro_export]
macro_rules! trace_span {
    ($cat:expr, $name:expr $(, $k:literal => $v:expr)* $(,)?) => {
        $crate::span(
            $cat,
            $name,
            if $crate::tracing_enabled() && $crate::category_enabled($cat) {
                Some(vec![$(($k, $crate::FieldValue::from($v))),*])
            } else {
                None
            },
        )
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CaptureRecorder {
        events: Mutex<Vec<TraceEvent>>,
    }

    impl Recorder for CaptureRecorder {
        fn record(&self, ev: TraceEvent) {
            self.events.lock().unwrap().push(ev);
        }
    }

    // The global recorder slot is shared process state; tests that install
    // into it serialize on this lock.
    static GLOBAL: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_macros_record_nothing_and_skip_field_eval() {
        let _g = GLOBAL.lock().unwrap();
        uninstall();
        let mut evaluated = false;
        trace_event!(Category::Engine, "never", "x" => {
            evaluated = true;
            1u64
        });
        let _span = trace_span!(Category::Engine, "never.span", "y" => {
            evaluated = true;
            2u64
        });
        assert!(!evaluated, "field expressions must not run when disabled");
    }

    #[test]
    fn events_carry_context_and_category_mask_filters() {
        let _g = GLOBAL.lock().unwrap();
        let rec = Arc::new(CaptureRecorder {
            events: Mutex::new(Vec::new()),
        });
        install(rec.clone());
        set_vtime(42);
        {
            let _scope = source_scope(7, 1000);
            trace_event!(Category::Provider, "flaky.drop", "which" => 3u64);
            trace_event!(Category::Codec, "codec.encode"); // masked out by default
        }
        trace_event!(Category::Engine, "after.scope");
        uninstall();
        set_category_mask(DEFAULT_CATEGORIES);

        let events = rec.events.lock().unwrap();
        assert_eq!(events.len(), 2, "codec event is masked by default");
        assert_eq!(events[0].name, "flaky.drop");
        assert_eq!(events[0].ts_us, 1000);
        assert_eq!(events[0].source, 7);
        assert_eq!(events[0].fields, vec![("which", FieldValue::U64(3))]);
        // The scope guard restored the pre-scope context.
        assert_eq!(events[1].ts_us, 42);
        assert_eq!(events[1].source, 0);
    }

    #[test]
    fn span_emits_begin_and_end() {
        let _g = GLOBAL.lock().unwrap();
        let rec = Arc::new(CaptureRecorder {
            events: Mutex::new(Vec::new()),
        });
        install(rec.clone());
        set_vtime(5);
        {
            let _span = trace_span!(Category::World, "slot.mine", "slot" => 9u64);
            set_vtime(8);
        }
        uninstall();
        let events = rec.events.lock().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::Begin);
        assert_eq!(events[0].ts_us, 5);
        assert_eq!(events[1].kind, EventKind::End);
        assert_eq!(events[1].ts_us, 8, "span end is stamped at drop time");
    }

    #[test]
    fn category_bits_are_distinct_and_labeled() {
        let cats = [
            Category::Engine,
            Category::World,
            Category::Provider,
            Category::Sign,
            Category::Codec,
            Category::Rpcd,
        ];
        let mut seen = 0u32;
        for c in cats {
            assert_eq!(seen & c.bit(), 0, "duplicate bit for {c:?}");
            seen |= c.bit();
            assert!(!c.label().is_empty());
        }
        assert_eq!(seen, ALL_CATEGORIES);
    }
}
