//! Optional I/O tracing, used by tests to assert exact call patterns
//! (e.g. that a boundary-mismatched big read really is a 3-step I/O).

use crate::AreaId;

/// Direction of a traced I/O call.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// A `SimDisk::read` call.
    Read,
    /// A `SimDisk::write` call.
    Write,
}

/// One disk access: `pages` contiguous pages starting at `start` in `area`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Read or write.
    pub kind: TraceKind,
    /// The area the call addressed.
    pub area: AreaId,
    /// First page of the call, within `area`.
    pub start: u32,
    /// Number of contiguous pages the call moved.
    pub pages: u32,
    /// Simulated cost of this single call, in µs.
    pub cost_us: u64,
}

/// A bounded in-memory trace of disk accesses.
///
/// Events past the capacity are **counted, not stored**: a test that
/// asserts on an exact call pattern must check [`Trace::dropped`] (via
/// `SimDisk::trace_dropped`) to be sure its buffer was big enough,
/// instead of passing vacuously against a silently truncated trace.
#[derive(Debug, Default)]
pub(crate) struct Trace {
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl Trace {
    pub(crate) fn new(capacity: usize) -> Self {
        Trace {
            events: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    pub(crate) fn record(&mut self, ev: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    /// Number of events discarded because the trace was full.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    pub(crate) fn take(&mut self) -> Vec<TraceEvent> {
        self.dropped = 0;
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_respects_capacity() {
        let mut t = Trace::new(2);
        for i in 0..5 {
            t.record(TraceEvent {
                kind: TraceKind::Read,
                area: AreaId::META,
                start: i,
                pages: 1,
                cost_us: 0,
            });
        }
        assert_eq!(t.dropped(), 3, "overflow is counted, not silent");
        let evs = t.take();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].start, 0);
        assert_eq!(evs[1].start, 1);
        // take() drains and resets the dropped count
        assert!(t.take().is_empty());
        assert_eq!(t.dropped(), 0);
    }
}
