//! The traced binary's instruments: a counting allocator and an in-memory
//! span recorder. Both live in the benchmark — nothing inside the library
//! crates is instrumented (that is ROADMAP item 4) — so every span wraps a
//! call the benchmark makes *into* a layer.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// Forwards to the system allocator; counts calls and bytes while
/// [`set_counting`] is on. Only `vgasbench-trace` installs it, so the
/// untraced binary runs the plain system allocator.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain statistics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr`/`layout` describe a live `System` allocation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[inline]
fn note(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// Turn allocation counting on or off (a no-op in the untraced binary,
/// whose allocator never looks at the flag).
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes)` counted so far.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// Individual `issue` spans kept per recorder; later calls only feed the
/// per-slice aggregate so a multi-million-op run stays a readable trace.
const ISSUE_SPAN_CAP: usize = 4096;

/// One recorded span. `count` > 1 marks an aggregate of that many calls
/// whose summed duration is `end_ns - start_ns`.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub count: u64,
}

/// In-memory span recorder for one workload run; written out as
/// Chrome/Perfetto trace JSON when the run ends.
pub struct Recorder {
    workload: &'static str,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    issue_spans: usize,
    /// Total nanoseconds spent inside pump `issue` calls.
    pub issue_ns: u64,
    /// Number of pump `issue` calls timed.
    pub issue_calls: u64,
    slice_issue_ns: u64,
    slice_issue_calls: u64,
}

impl Recorder {
    pub fn new(workload: &'static str) -> Recorder {
        Recorder {
            workload,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            issue_spans: 0,
            issue_ns: 0,
            issue_calls: 0,
            slice_issue_ns: 0,
            slice_issue_calls: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            count: 1,
        });
        self.stack.push(id);
        id
    }

    /// Close span `id` (must be the innermost open one).
    pub fn end(&mut self, id: u32) {
        assert_eq!(self.stack.pop(), Some(id), "span closed out of order");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Account one pump `issue` call that started at `start`.
    pub fn issue(&mut self, start: Instant) {
        let end_ns = self.now_ns();
        let dur = start.elapsed().as_nanos() as u64;
        self.issue_ns += dur;
        self.issue_calls += 1;
        self.slice_issue_ns += dur;
        self.slice_issue_calls += 1;
        if self.issue_spans < ISSUE_SPAN_CAP {
            self.issue_spans += 1;
            self.spans.push(Span {
                name: "issue",
                start_ns: end_ns.saturating_sub(dur),
                end_ns,
                parent: self.stack.last().copied(),
                count: 1,
            });
        }
    }

    /// Close a drain slice: emit the aggregate of the `issue` calls made
    /// inside it as one child span, then close the slice itself.
    pub fn end_slice(&mut self, id: u32) {
        if self.slice_issue_calls > 0 {
            let start_ns = self.spans[id as usize].start_ns;
            self.spans.push(Span {
                name: "issue (aggregate)",
                start_ns,
                end_ns: start_ns + self.slice_issue_ns,
                parent: Some(id),
                count: self.slice_issue_calls,
            });
        }
        self.slice_issue_ns = 0;
        self.slice_issue_calls = 0;
        self.end(id);
    }

    /// Summed duration of every top-level span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.count == 1)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Render as Chrome trace-event JSON (`ph: "X"` complete events; the
    /// parent index, call count and workload id ride in `args`).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            // Aggregates share their slice's track but are not real
            // intervals; put them on their own thread row.
            let tid = if s.count > 1 { 2 } else { 1 };
            let parent = s.parent.map_or(-1, i64::from);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"calls\":{},\"workload\":\"{}\"}}}}",
                s.name,
                tid,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                i,
                parent,
                s.count,
                self.workload
            );
        }
        let _ = write!(
            out,
            "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"workload\":\"{}\",\
             \"issue_calls\":{},\"issue_spans_kept\":{}}}}}\n",
            self.workload, self.issue_calls, self.issue_spans
        );
        out
    }
}
