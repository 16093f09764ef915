//! The benchmark's own spans around every call into a public function of
//! the stack.
//!
//! A span has a name (its [`Kind`]), a start, an end and a parent; the
//! spans of one op share the op's id. Spans nest through a stack: `begin`
//! opens a child of the innermost open span, `end` closes the innermost one
//! and charges its duration to its parent, so every span's self time (its
//! duration minus the part its children cover) is known when it closes.
//!
//! Disabled (the untraced runs), `begin`/`end` return at once and read no
//! clock.

use std::io::{self, Write};
use std::time::Instant;

/// The boundaries the benchmark records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// One whole op of the plan (the root of its spans).
    Op,
    /// `reserve(..).run`, `.read().run` or `.when(..).run`, call to return.
    Reserve,
    /// From the `reserve(..).run` call to body entry.
    Acquire,
    /// From the `.when(..).run` call to body entry.
    GuardWait,
    /// From the `.read().run` call to body entry.
    ReadAcquire,
    /// Around `Separate::call`.
    Call,
    /// Around `Separate::query` / `ReadSeparate::query`.
    Query,
    /// From body return to `run` return.
    Release,
    /// The ring client waiting for its token to come back.
    RingWait,
    /// Around `run_parallel_scoop`.
    Chain,
    /// `ClusterClient::separate`, call to return.
    RemoteBlock,
    /// From the `ClusterClient::separate` call to body entry.
    RemoteOpen,
    /// Around `RemoteSeparate::call`.
    RemoteCall,
    /// Around `RemoteSeparate::query`.
    RemoteQuery,
    /// Around `RemoteSeparate::end`.
    RemoteEnd,
    /// From body return to `ClusterClient::separate` return.
    RemoteRelease,
}

impl Kind {
    /// Every kind, in `repr` order.
    pub const ALL: [Kind; 16] = [
        Kind::Op,
        Kind::Reserve,
        Kind::Acquire,
        Kind::GuardWait,
        Kind::ReadAcquire,
        Kind::Call,
        Kind::Query,
        Kind::Release,
        Kind::RingWait,
        Kind::Chain,
        Kind::RemoteBlock,
        Kind::RemoteOpen,
        Kind::RemoteCall,
        Kind::RemoteQuery,
        Kind::RemoteEnd,
        Kind::RemoteRelease,
    ];

    /// Span name as written to the span log and used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Op => "op",
            Kind::Reserve => "reserve",
            Kind::Acquire => "acquire",
            Kind::GuardWait => "guard_wait",
            Kind::ReadAcquire => "read_acquire",
            Kind::Call => "call",
            Kind::Query => "query",
            Kind::Release => "release",
            Kind::RingWait => "ring_wait",
            Kind::Chain => "chain",
            Kind::RemoteBlock => "remote_block",
            Kind::RemoteOpen => "remote_open",
            Kind::RemoteCall => "remote_call",
            Kind::RemoteQuery => "remote_query",
            Kind::RemoteEnd => "remote_end",
            Kind::RemoteRelease => "remote_release",
        }
    }
}

const KINDS: usize = Kind::ALL.len();

/// How many spans one client keeps in memory for the span log; every span
/// still counts in the per-kind statistics.
pub const SPAN_LOG_CAPACITY: usize = 50_000;

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Id of the op the span belongs to (client in the high 32 bits).
    pub op: u64,
    /// Index of the span within its op (0 is the op itself).
    pub index: u16,
    /// Index of the parent span within the op (`u16::MAX` for the root).
    pub parent: u16,
    /// What the span measured.
    pub kind: Kind,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

struct Open {
    kind: Kind,
    index: u16,
    start_ns: u64,
    child_ns: u64,
}

/// One client's span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: u64,
    next_index: u16,
    stack: Vec<Open>,
    log: Vec<Span>,
    durations: Vec<Vec<u32>>,
    self_ns: [u64; KINDS],
}

impl Tracer {
    /// A recorder; with `enabled == false` every method is a no-op.
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            op: 0,
            next_index: 0,
            stack: Vec::with_capacity(8),
            log: Vec::new(),
            durations: vec![Vec::new(); KINDS],
            self_ns: [0; KINDS],
        }
    }

    /// Opens the root span of op `op`.
    pub fn begin_op(&mut self, op: u64) {
        if self.enabled {
            self.op = op;
            self.next_index = 0;
            self.stack.clear();
            self.begin(Kind::Op);
        }
    }

    /// Opens a child of the innermost open span.
    #[inline]
    pub fn begin(&mut self, kind: Kind) {
        if !self.enabled {
            return;
        }
        let index = self.next_index;
        self.next_index = self.next_index.saturating_add(1);
        self.stack.push(Open {
            kind,
            index,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            child_ns: 0,
        });
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let Some(open) = self.stack.pop() else {
            return;
        };
        let now = self.epoch.elapsed().as_nanos() as u64;
        let dur_ns = now.saturating_sub(open.start_ns);
        let parent = match self.stack.last_mut() {
            Some(parent) => {
                parent.child_ns += dur_ns;
                parent.index
            }
            None => u16::MAX,
        };
        let k = open.kind as usize;
        self.durations[k].push(dur_ns.min(u64::from(u32::MAX)) as u32);
        self.self_ns[k] += dur_ns.saturating_sub(open.child_ns);
        if self.log.len() < SPAN_LOG_CAPACITY {
            self.log.push(Span {
                op: self.op,
                index: open.index,
                parent,
                kind: open.kind,
                start_ns: open.start_ns,
                dur_ns,
            });
        }
    }

    /// Closes every span still open (an op that failed part-way).
    pub fn end_all(&mut self) {
        while !self.stack.is_empty() {
            self.end();
        }
    }

    /// Folds another recorder's statistics and log into this one.
    pub fn absorb(&mut self, other: Tracer) {
        for (mine, theirs) in self.durations.iter_mut().zip(other.durations) {
            mine.extend(theirs);
        }
        for (mine, theirs) in self.self_ns.iter_mut().zip(other.self_ns) {
            *mine += theirs;
        }
        self.log.extend(other.log);
    }

    /// Raw durations (ns) of every span of `kind`.
    pub fn durations(&mut self, kind: Kind) -> &mut Vec<u32> {
        &mut self.durations[kind as usize]
    }

    /// Total self time (ns) of the spans of `kind`.
    pub fn self_ns(&self, kind: Kind) -> u64 {
        self.self_ns[kind as usize]
    }

    /// Number of closed spans of `kind`.
    pub fn count(&self, kind: Kind) -> usize {
        self.durations[kind as usize].len()
    }

    /// Writes the span log as CSV: `op,index,parent,name,start_ns,dur_ns`.
    pub fn write_log(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "op,index,parent,name,start_ns,dur_ns")?;
        for s in &self.log {
            let parent = if s.parent == u16::MAX {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{},{},{},{},{},{}",
                s.op,
                s.index,
                parent,
                s.kind.name(),
                s.start_ns,
                s.dur_ns
            )?;
        }
        Ok(())
    }

    /// Spans kept for the log.
    pub fn logged(&self) -> usize {
        self.log.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_parents_are_linked() {
        let mut tr = Tracer::new(true, Instant::now());
        tr.begin_op(7);
        tr.begin(Kind::Reserve);
        tr.begin(Kind::Acquire);
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.end();
        tr.end();
        tr.end();
        assert_eq!(tr.count(Kind::Op), 1);
        let acquire = u64::from(tr.durations(Kind::Acquire)[0]);
        let reserve = u64::from(tr.durations(Kind::Reserve)[0]);
        assert!(acquire >= 2_000_000);
        assert_eq!(tr.self_ns(Kind::Reserve), reserve - acquire);
        let acquire_span = tr.log.iter().find(|s| s.kind == Kind::Acquire).unwrap();
        assert_eq!(acquire_span.op, 7);
        assert_eq!(acquire_span.parent, 1, "child of the reserve span");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false, Instant::now());
        tr.begin_op(1);
        tr.begin(Kind::Call);
        tr.end();
        tr.end();
        assert_eq!(tr.count(Kind::Call), 0);
        assert_eq!(tr.logged(), 0);
    }
}
