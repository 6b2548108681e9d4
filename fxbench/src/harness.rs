//! The measuring rules every number in `fxbench` is taken by.
//!
//! **Load shape.** Closed loop, one generator thread: the next document
//! is sent only after the previous one returned. A *pass* is one sweep
//! over a workload's corpus in fixed order; a *latency sample* is one
//! document.
//!
//! **The statistic.** This box is bimodal: a fast mode and a slow mode
//! (library code runs 1.4–1.8× slower; a dependent multiply chain keeps
//! its speed, so it is the neighbour on the physical core, not the
//! clock) alternate in stretches of seconds. Contention only ever adds
//! time, so the fast tail of the pass times is the program and the rest
//! is the neighbour. `Tfast` is the [`FAST_QUANTILE`] (2nd percentile) of
//! a workload's pass times; throughput is corpus size ÷ `Tfast`.
//! *Uncontended* passes are those within 10 % of `Tfast`; latency
//! percentiles are taken over the documents of uncontended passes only.
//!
//! The issue asked for the 10th percentile. Twelve same-seed 12 s runs of
//! `bank-1024` on a noisy afternoon put the inter-quartile range of the
//! run-to-run readings at 1.8 % for the 2nd percentile, 3.5 % for the
//! 5th, 5.4 % for the 10th, 8.1 % for the 25th and 12.7 % for the median;
//! two runs of a 60-run sweep had fewer than 12 % of their passes within
//! 10 % of the 10th percentile. The 2nd percentile of ≥ 200 passes still
//! has ≥ 4 passes at or below it.
//!
//! **CPUs.** The slow mode is per CPU: two probes pinned to this box's
//! two CPUs for 240 s were slow for 20 s and 21 s, together for 4 s, and
//! a slow stretch of one CPU can outlast a whole run. So the generator
//! thread moves to the next CPU at every round ([`pin_to_cpu`]): a slow
//! CPU then costs at most its share of the slices, and `Tfast` reads the
//! rest. `pubsub-churn` starts a fresh server each round so that its
//! worker shares the generator's CPU: with one document in flight the
//! two never run at once, and left to the scheduler the pair was bimodal
//! on its own (12.5 MB/s apart, 20 MB/s together, fixed for a whole run).
//!
//! **Extra rounds.** No statistic inside a run can repair a run that
//! never saw the fast mode (about one 12 s run in ten on a noisy day).
//! A run therefore leaves its fast-mode cost per byte in
//! [`FastMemo`]; a later run of the same checkout that reads more than
//! [`SLOW_FACTOR`] times that cost keeps measuring, round by round, for
//! up to [`MAX_EXTRA_ROUNDS`] more rounds. Extra rounds add samples;
//! they never remove or rescale one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Timed rounds per run. Each round gives every selected workload one
/// slice, so each workload samples the whole span of the run.
pub const ROUNDS: usize = 8;
/// Untimed passes before the first round.
pub const WARMUP_PASSES: usize = 2;
/// Set-up samples taken at the start of each round.
pub const SETUP_SAMPLES_PER_ROUND: usize = 3;
/// `Tfast` is this quantile of the pass times.
pub const FAST_QUANTILE: f64 = 0.02;
/// A pass is uncontended when its time is within this factor of `Tfast`.
pub const UNCONTENDED_FACTOR: f64 = 1.10;
/// With fewer latency samples than this over the uncontended passes the
/// 99th percentile has fewer than ten samples beyond it: the run was too
/// noisy (or too short) to read.
pub const MIN_LATENCY_SAMPLES: usize = 1000;
/// A run whose cost per byte is above this multiple of the checkout's
/// best has not seen the fast mode (the slow mode costs ≥ 1.3×; inputs
/// of different seeds differ by < 1.1×).
pub const SLOW_FACTOR: f64 = 1.2;
/// Rounds a run may add when it has not seen the fast mode.
pub const MAX_EXTRA_ROUNDS: usize = 8;

/// How long timed loops run. `--smoke` uses a zero slice: every loop
/// then makes its minimum number of passes and no timing is judged.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Measuring time of the whole run (`--seconds`).
    pub total: Duration,
    /// True under `--smoke`.
    pub smoke: bool,
}

impl Budget {
    /// One workload's timed slice in one round.
    pub fn slice(&self) -> Duration {
        self.total / ROUNDS as u32
    }

    /// The time one ladder row may take (rows share `--seconds` with
    /// the traced run).
    pub fn row(&self) -> Duration {
        self.total / 25
    }
}

// ----------------------------------------------------------------- cpus

/// Pins the calling thread to CPU `round % available_parallelism()`.
/// Threads started afterwards inherit the pin; threads already running
/// (a server worker) keep theirs. Returns false where the platform or
/// the container's CPU set refuses; the run then goes on wherever the
/// scheduler puts it.
pub fn pin_to_cpu(round: usize) -> bool {
    // Counted once: `available_parallelism` reads the affinity mask, so
    // after the first pin it would answer 1.
    static CPUS: OnceLock<usize> = OnceLock::new();
    let cpus = *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    set_affinity(round % cpus)
}

#[cfg(target_os = "linux")]
fn set_affinity(cpu: usize) -> bool {
    // glibc's `cpu_set_t`: 1024 bits.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; WORDS];
    let Some(word) = mask.get_mut(cpu / 64) else {
        return false;
    };
    *word = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised buffer of exactly the
    // `cpusetsize` bytes passed with it; pid 0 names the calling thread;
    // the call reads the mask and retains no pointer.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn set_affinity(_cpu: usize) -> bool {
    false
}

// ----------------------------------------------------------------- memo

/// The fast-mode cost per byte (ns/B) each workload has shown in this
/// checkout, kept in a small text file beside the result files: one
/// `workload ns_per_byte` line each. Only ever used to decide whether a
/// run keeps measuring; a missing or unreadable file means "unknown".
pub struct FastMemo {
    path: std::path::PathBuf,
    best: std::collections::BTreeMap<String, f64>,
}

impl FastMemo {
    /// Reads the memo kept in `dir`.
    pub fn load(dir: &std::path::Path) -> FastMemo {
        let path = dir.join("fast-mode.txt");
        let best = std::fs::read_to_string(&path)
            .unwrap_or_default()
            .lines()
            .filter_map(|line| {
                let (workload, cost) = line.split_once(' ')?;
                let cost: f64 = cost.parse().ok()?;
                (cost.is_finite() && cost > 0.0).then(|| (workload.to_string(), cost))
            })
            .collect();
        FastMemo { path, best }
    }

    /// True when `ns_per_byte` says the run has not seen the fast mode
    /// this checkout has seen before.
    pub fn looks_slow(&self, workload: &str, ns_per_byte: f64) -> bool {
        self.best
            .get(workload)
            .is_some_and(|best| ns_per_byte > best * SLOW_FACTOR)
    }

    /// Records `ns_per_byte` if it is the best seen.
    pub fn note(&mut self, workload: &str, ns_per_byte: f64) {
        let best = self.best.entry(workload.to_string()).or_insert(ns_per_byte);
        *best = best.min(ns_per_byte);
    }

    /// Writes the memo back.
    pub fn save(&self) -> std::io::Result<()> {
        let text: String = self
            .best
            .iter()
            .map(|(w, c)| format!("{w} {c}\n"))
            .collect();
        std::fs::write(&self.path, text)
    }
}

// ---------------------------------------------------------------- heap

/// A `#[global_allocator]` that counts only while a flag is set: timed
/// passes run with it clear and pay one relaxed load per allocation.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grew(by: usize) {
    CALLS.fetch_add(1, Relaxed);
    BYTES.fetch_add(by as u64, Relaxed);
}

fn live_changed(delta: i64) {
    let live = LIVE.fetch_add(delta, Relaxed) + delta;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments; the counters are statistics and touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            grew(layout.size());
            live_changed(layout.size() as i64);
        }
        // SAFETY: same layout the caller passed.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            grew(layout.size());
            live_changed(layout.size() as i64);
        }
        // SAFETY: same layout the caller passed.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            grew(new_size);
            live_changed(new_size as i64 - layout.size() as i64);
        }
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Relaxed) {
            live_changed(-(layout.size() as i64));
        }
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// What the allocator saw during one [`count_heap`] call.
#[derive(Clone, Copy, Debug, Default)]
pub struct HeapReading {
    /// `alloc` + `realloc` calls.
    pub calls: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Peak live bytes above the level at entry.
    pub peak_live: u64,
}

/// Runs `f` with heap counting on (all threads of the process count).
pub fn count_heap<T>(f: impl FnOnce() -> T) -> (T, HeapReading) {
    CALLS.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
    let out = f();
    COUNTING.store(false, Relaxed);
    let reading = HeapReading {
        calls: CALLS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak_live: PEAK.load(Relaxed).max(0) as u64,
    };
    (out, reading)
}

// --------------------------------------------------------------- stats

/// The `p`-quantile (`0.0..=1.0`) of `sorted`, by nearest rank.
pub fn quantile(sorted: &[u64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[rank] as f64
}

/// `Tfast`: the [`FAST_QUANTILE`] of a set of pass times.
pub fn fast(times_ns: &[u64]) -> f64 {
    let mut sorted = times_ns.to_vec();
    sorted.sort_unstable();
    quantile(&sorted, FAST_QUANTILE)
}

/// Times `pass` for `budget`, half on each of the first two CPUs (a slow
/// stretch of one CPU then spoils at most half the samples), after one
/// untimed call on each, at least `min_passes` times per half; returns
/// the `Tfast` of its times in ns.
pub fn time_fast(budget: Duration, min_passes: usize, mut pass: impl FnMut()) -> f64 {
    let mut times = Vec::new();
    for half in 0..2 {
        pin_to_cpu(half);
        pass();
        let begin = Instant::now();
        let taken = times.len();
        while times.len() - taken < min_passes || begin.elapsed() < budget / 2 {
            let t = Instant::now();
            pass();
            times.push(t.elapsed().as_nanos() as u64);
        }
    }
    fast(&times)
}

/// Cost of one `Instant::now()`, from back-to-back calls.
pub fn timer_ns() -> f64 {
    const CALLS: u32 = 10_000;
    let begin = Instant::now();
    let mut last = begin;
    for _ in 0..CALLS {
        last = std::hint::black_box(Instant::now());
    }
    (last - begin).as_nanos() as f64 / CALLS as f64
}

// -------------------------------------------------------------- passes

/// One workload's pipeline under test, driven a document at a time.
pub trait Runner {
    /// Documents per pass.
    fn docs(&self) -> usize;
    /// Sends document `i`, waits for its result and checks it against
    /// the reference. False when the call failed or the output differs.
    fn run_doc(&mut self, i: usize) -> bool;
    /// Work the workload does between documents (the churn pair of
    /// `pubsub-churn`), outside any latency sample. True if it did any.
    fn between_docs(&mut self, _i: usize) -> bool {
        false
    }
}

/// Pass times and per-document latencies of one workload's timed rounds.
#[derive(Debug, Default)]
pub struct Series {
    /// One entry per pass.
    pub pass_ns: Vec<u64>,
    /// Pass-major: `docs` entries per pass.
    pub lat_ns: Vec<u32>,
    /// Documents per pass.
    pub docs: usize,
    /// Documents sent.
    pub attempted: u64,
    /// Documents that failed or returned a wrong output.
    pub failed: u64,
}

/// What [`Series::read`] derives.
#[derive(Clone, Copy, Debug)]
pub struct Reading {
    /// `Tfast` of the pass times, ns.
    pub fast_ns: f64,
    /// Median document latency over uncontended passes, ns.
    pub p50_ns: f64,
    /// 99th-percentile document latency over uncontended passes, ns.
    pub p99_ns: f64,
    /// Latency samples the percentiles are taken over.
    pub samples: usize,
    /// Uncontended passes ÷ passes.
    pub uncontended_share: f64,
}

impl Series {
    /// An empty series for a corpus of `docs` documents.
    pub fn new(docs: usize) -> Series {
        Series {
            docs,
            ..Series::default()
        }
    }

    /// Makes room for about `passes` more passes, so growth does not
    /// land inside a timed pass.
    pub fn reserve(&mut self, passes: usize) {
        self.pass_ns.reserve(passes);
        self.lat_ns.reserve(passes * self.docs);
    }

    /// One pass of `runner`, recorded.
    pub fn pass<R: Runner>(&mut self, runner: &mut R) {
        let begin = Instant::now();
        let mut t = begin;
        for i in 0..self.docs {
            let ok = runner.run_doc(i);
            let done = Instant::now();
            self.lat_ns.push((done - t).as_nanos() as u32);
            self.failed += u64::from(!ok);
            t = if runner.between_docs(i) {
                Instant::now()
            } else {
                done
            };
        }
        self.pass_ns.push((t - begin).as_nanos() as u64);
        self.attempted += self.docs as u64;
    }

    /// Passes of `runner` until `slice` is spent (at least one).
    pub fn slice<R: Runner>(&mut self, runner: &mut R, slice: Duration) {
        let begin = Instant::now();
        loop {
            self.pass(runner);
            if begin.elapsed() >= slice {
                break;
            }
        }
    }

    /// `Tfast`, the uncontended passes, and the latency percentiles over them.
    pub fn read(&self) -> Reading {
        let fast_ns = fast(&self.pass_ns);
        let limit = fast_ns * UNCONTENDED_FACTOR;
        let mut lat: Vec<u64> = Vec::new();
        let mut uncontended = 0usize;
        for (k, &p) in self.pass_ns.iter().enumerate() {
            if p as f64 <= limit {
                uncontended += 1;
                lat.extend(
                    self.lat_ns[k * self.docs..(k + 1) * self.docs]
                        .iter()
                        .map(|&ns| u64::from(ns)),
                );
            }
        }
        lat.sort_unstable();
        Reading {
            fast_ns,
            p50_ns: quantile(&lat, 0.50),
            p99_ns: quantile(&lat, 0.99),
            samples: lat.len(),
            uncontended_share: uncontended as f64 / self.pass_ns.len() as f64,
        }
    }
}

/// One untimed pass; returns how many documents failed.
pub fn untimed_pass<R: Runner>(runner: &mut R) -> u64 {
    let mut failed = 0;
    for i in 0..runner.docs() {
        failed += u64::from(!runner.run_doc(i));
        runner.between_docs(i);
    }
    failed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tfast_is_the_fast_tail() {
        let times: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(fast(&times), 3.0);
        assert_eq!(fast(&[7]), 7.0);
    }

    #[test]
    fn latency_is_read_over_uncontended_passes_only() {
        // Ten passes of two documents: nine fast, one slow (contended).
        let mut series = Series::new(2);
        for k in 0..10u64 {
            let slow = k == 3;
            series.pass_ns.push(if slow { 1000 } else { 100 + k });
            series
                .lat_ns
                .extend(if slow { [500, 500] } else { [40, 60] });
        }
        let reading = series.read();
        assert_eq!(reading.fast_ns, 100.0);
        assert_eq!(
            reading.samples, 18,
            "the slow pass contributes no latency sample"
        );
        assert!(reading.p99_ns <= 60.0);
        assert!((reading.uncontended_share - 0.9).abs() < 1e-9);
    }

    #[test]
    fn memo_flags_only_runs_well_above_the_best() {
        let dir = std::env::temp_dir().join(format!("fxbench-memo-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let mut memo = FastMemo::load(&dir);
        assert!(
            !memo.looks_slow("w", 99.0),
            "nothing known, nothing flagged"
        );
        memo.note("w", 10.0);
        memo.note("w", 12.0);
        memo.save().expect("save");
        let memo = FastMemo::load(&dir);
        assert!(!memo.looks_slow("w", 11.9));
        assert!(memo.looks_slow("w", 12.1));
        assert!(!memo.looks_slow("other", 1e9));
        std::fs::remove_dir_all(&dir).expect("clean up");
    }

    #[test]
    fn heap_counting_is_off_unless_asked() {
        let ((), reading) = count_heap(|| drop(std::hint::black_box(vec![0u8; 4096])));
        // The test harness may allocate on other threads, so only lower bounds hold.
        assert!(reading.calls >= 1 && reading.bytes >= 4096 && reading.peak_live >= 4096);
    }
}
