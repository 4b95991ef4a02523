//! Process CPU time, and the host-speed reference the end-to-end metrics
//! are scaled by.
//!
//! On a shared host the wall clock also counts the time the process waits
//! for a core while other tenants run. CPU time counts only the time this
//! process's threads actually ran, but it still follows the speed of the
//! core, which swings by up to 1.5x for seconds to minutes as other tenants
//! come and go on its sibling hardware thread. So a fixed reference
//! computation is timed between the workload's cases throughout the run,
//! and every CPU time is scaled by its nominal time over its mean time
//! while that work ran: the time the work would have taken on a core
//! running the reference at its nominal speed.

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's clock of the CPU time used by every thread of the process.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds used so far by all threads of this process.
pub fn process_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and the clock id is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// The reference computation's nominal CPU seconds: about its time on a
/// shared 2-core Intel Xeon VM in a quiet stretch.
pub const REFERENCE_NOMINAL: f64 = 0.005;
/// Process CPU seconds between two timings of the reference, so that it
/// takes about 5% of the run.
const REFERENCE_EVERY: f64 = 0.1;
/// Keys the reference computation inserts.
const REFERENCE_KEYS: u64 = 10_000;

struct Reference {
    /// CPU seconds of each timing so far.
    samples: Vec<f64>,
    /// Process CPU time up to which timings are paid for.
    paid: f64,
}

static REFERENCE: Mutex<Reference> = Mutex::new(Reference {
    samples: Vec::new(),
    paid: 0.0,
});

/// A fixed computation of the kinds of work the compiler and simulators
/// do: hash-map and ordered-map inserts and lookups, string formatting and
/// a sort. Returns its CPU seconds.
fn reference_seconds() -> f64 {
    let started = process_seconds();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut hash = HashMap::new();
    let mut tree = BTreeMap::new();
    let mut values = Vec::with_capacity(REFERENCE_KEYS as usize);
    for i in 0..REFERENCE_KEYS {
        let k = next() % (REFERENCE_KEYS * 5 / 2);
        hash.insert(k, i);
        tree.insert(k, format!("n{k}"));
        values.push(next());
    }
    let mut sum = 0u64;
    for _ in 0..REFERENCE_KEYS {
        let k = next() % (REFERENCE_KEYS * 5 / 2);
        sum = sum.wrapping_add(hash.get(&k).copied().unwrap_or(0));
        sum = sum.wrapping_add(tree.get(&k).map_or(0, |s| s.len() as u64));
    }
    values.sort_unstable();
    sum = sum.wrapping_add(values[values.len() / 2]);
    std::hint::black_box(sum);
    process_seconds() - started
}

/// Times the reference as many times as the process CPU time spent since
/// the last call has paid for, at least once on the first call.
pub fn sample_reference() {
    let mut reference = REFERENCE.lock().expect("reference lock is never poisoned");
    let now = process_seconds();
    if reference.samples.is_empty() {
        reference.paid = now - REFERENCE_EVERY;
    }
    while reference.paid + REFERENCE_EVERY <= now {
        let seconds = reference_seconds();
        reference.samples.push(seconds);
        reference.paid += REFERENCE_EVERY;
    }
}

/// How many times the reference has been timed so far.
pub fn reference_timings() -> usize {
    REFERENCE
        .lock()
        .expect("reference lock is never poisoned")
        .samples
        .len()
}

/// The factor CPU times spent since the `from`-th reference timing are
/// scaled by, and how many timings it rests on.
pub fn speed_scale(from: usize) -> (f64, usize) {
    let reference = REFERENCE.lock().expect("reference lock is never poisoned");
    let samples = &reference.samples[from.min(reference.samples.len())..];
    if samples.is_empty() {
        return (1.0, 0);
    }
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    (REFERENCE_NOMINAL / mean, samples.len())
}
