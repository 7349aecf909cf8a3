//! Bench-local tracing: spans recorded from outside the system, around
//! the calls into each layer.
//!
//! A span has a name, a start, an end, the replica it ran on and the
//! span that caused it (the enclosing `run_until` slice or measured
//! phase). Spans stay in memory; at exit the aggregates and the slowest
//! spans are written out. Self time is a span's duration minus the part
//! its direct children cover. Spans *inside* the crates are a later
//! issue: here a handler span is a leaf.

use ladon_core::NodeMsg;
use ladon_obs::Json;
use ladon_sim::{Actor, ActorId, Context};
use std::any::Any;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Parent id of a root span.
pub const NO_PARENT: u32 = u32::MAX;
/// Replica id of a span that belongs to no replica.
pub const NO_REPLICA: u32 = u32::MAX;
/// Slowest spans kept in the trace file.
const SLOWEST_KEPT: usize = 200;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub replica: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The in-memory span store of one traced repetition.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    /// The open span new spans are children of.
    current_parent: u32,
}

thread_local! {
    /// The recorder of the thread driving the workload; `None` while
    /// tracing is off, which makes every hook a no-op.
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread.
pub fn start(capacity: usize) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            current_parent: NO_PARENT,
        })
    });
}

/// Stops recording and hands back the spans.
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| r.borrow_mut().take().map_or_else(Vec::new, |rec| rec.spans))
}

/// Nanoseconds since the recorder started; `None` while tracing is off.
#[inline]
fn now_ns() -> Option<u64> {
    RECORDER.with(|r| {
        r.borrow()
            .as_ref()
            .map(|rec| rec.origin.elapsed().as_nanos() as u64)
    })
}

#[inline]
fn push(name: &'static str, replica: u32, start_ns: u64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let end_ns = rec.origin.elapsed().as_nanos() as u64;
            let parent = rec.current_parent;
            rec.spans.push(Span {
                name,
                replica,
                parent,
                start_ns,
                end_ns,
            });
        }
    });
}

/// Runs `f` inside a leaf span (no-op wrapper while tracing is off).
#[inline]
pub fn leaf<T>(name: &'static str, replica: u32, f: impl FnOnce() -> T) -> T {
    let Some(start) = now_ns() else {
        return f();
    };
    let out = f();
    push(name, replica, start);
    out
}

/// Wall cost of recording one leaf span, measured on a throwaway
/// recorder: what tracing adds per span, free of the run-to-run noise a
/// traced-versus-untraced comparison carries.
pub fn span_cost_ns() -> f64 {
    const N: usize = 200_000;
    start(N);
    let t0 = Instant::now();
    for _ in 0..N {
        leaf("calibration", NO_REPLICA, || std::hint::black_box(()));
    }
    let ns = t0.elapsed().as_nanos() as f64 / N as f64;
    finish();
    ns
}

/// Runs `f` inside a span that becomes the parent of every span recorded
/// while it is open.
pub fn parent<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let opened = RECORDER.with(|r| {
        r.borrow_mut().as_mut().map(|rec| {
            let id = rec.spans.len() as u32;
            let start_ns = rec.origin.elapsed().as_nanos() as u64;
            rec.spans.push(Span {
                name,
                replica: NO_REPLICA,
                parent: rec.current_parent,
                start_ns,
                end_ns: start_ns,
            });
            let outer = std::mem::replace(&mut rec.current_parent, id);
            (id, outer)
        })
    });
    let out = f();
    if let Some((id, outer)) = opened {
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[id as usize].end_ns = rec.origin.elapsed().as_nanos() as u64;
                rec.current_parent = outer;
            }
        });
    }
    out
}

/// Wraps an actor so each of its callbacks is one span named
/// `<kind>.<NodeMsg variant | timer | start>`. Downcasts reach the
/// wrapped actor, so post-run extraction works unchanged.
pub struct Traced<A> {
    inner: A,
    replica: u32,
    names: &'static ActorNames,
}

/// Span names of one actor kind.
pub struct ActorNames {
    start: &'static str,
    timer: &'static str,
    pbft: &'static str,
    hs: &'static str,
    checkpoint: &'static str,
    sync: &'static str,
    client_txs: &'static str,
}

pub const NODE: ActorNames = ActorNames {
    start: "node.start",
    timer: "node.timer",
    pbft: "node.pbft",
    hs: "node.hs",
    checkpoint: "node.checkpoint",
    sync: "node.sync",
    client_txs: "node.client_txs",
};

pub const CLIENT: ActorNames = ActorNames {
    start: "client.start",
    timer: "client.timer",
    pbft: "client.pbft",
    hs: "client.hs",
    checkpoint: "client.checkpoint",
    sync: "client.sync",
    client_txs: "client.client_txs",
};

impl<A> Traced<A> {
    pub fn new(inner: A, replica: u32, names: &'static ActorNames) -> Self {
        Self {
            inner,
            replica,
            names,
        }
    }
}

impl<A: Actor<NodeMsg>> Actor<NodeMsg> for Traced<A> {
    fn on_start(&mut self, ctx: &mut dyn Context<NodeMsg>) {
        leaf(self.names.start, self.replica, || self.inner.on_start(ctx))
    }

    fn on_message(&mut self, from: ActorId, msg: NodeMsg, ctx: &mut dyn Context<NodeMsg>) {
        let name = match &msg {
            NodeMsg::Pbft { .. } => self.names.pbft,
            NodeMsg::Hs { .. } => self.names.hs,
            NodeMsg::Checkpoint(_) => self.names.checkpoint,
            NodeMsg::SyncReq(_) | NodeMsg::SyncResp(_) => self.names.sync,
            NodeMsg::ClientTxs(_) => self.names.client_txs,
        };
        leaf(name, self.replica, || self.inner.on_message(from, msg, ctx))
    }

    fn on_timer(&mut self, timer: u64, ctx: &mut dyn Context<NodeMsg>) {
        leaf(self.names.timer, self.replica, || {
            self.inner.on_timer(timer, ctx)
        })
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// Per-name totals over a span set.
pub struct Aggregate {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus direct children, summed.
    pub self_ns: u64,
    pub max_ns: u64,
}

/// Totals by span name, with self time.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, Aggregate> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Aggregate> = BTreeMap::new();
    for (s, &children) in spans.iter().zip(&child_ns) {
        let a = out.entry(s.name).or_insert(Aggregate {
            count: 0,
            total_ns: 0,
            self_ns: 0,
            max_ns: 0,
        });
        a.count += 1;
        a.total_ns += s.dur_ns();
        a.self_ns += s.dur_ns().saturating_sub(children);
        a.max_ns = a.max_ns.max(s.dur_ns());
    }
    out
}

/// The trace file: per-name aggregates plus the slowest spans.
pub fn to_json(workload: &str, spans: &[Span]) -> Json {
    let agg = aggregate(spans);
    let by_name = agg
        .iter()
        .map(|(name, a)| {
            (
                name.to_string(),
                Json::Obj(vec![
                    ("count".into(), Json::U64(a.count)),
                    ("total_ns".into(), Json::U64(a.total_ns)),
                    ("self_ns".into(), Json::U64(a.self_ns)),
                    ("max_ns".into(), Json::U64(a.max_ns)),
                ]),
            )
        })
        .collect();
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(spans[i].dur_ns()));
    let signed = |id: u32| {
        if id == u32::MAX {
            Json::I64(-1)
        } else {
            Json::U64(id.into())
        }
    };
    let slowest = order
        .iter()
        .take(SLOWEST_KEPT)
        .map(|&i| {
            let s = &spans[i];
            Json::Obj(vec![
                ("id".into(), Json::U64(i as u64)),
                ("name".into(), Json::Str(s.name.into())),
                ("replica".into(), signed(s.replica)),
                ("parent".into(), signed(s.parent)),
                ("start_ns".into(), Json::U64(s.start_ns)),
                ("end_ns".into(), Json::U64(s.end_ns)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("workload".into(), Json::Str(workload.into())),
        ("spans".into(), Json::U64(spans.len() as u64)),
        ("by_name".into(), Json::Obj(by_name)),
        ("slowest".into(), Json::Arr(slowest)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        start(8);
        parent("slice", || {
            leaf("work", 0, || std::hint::black_box(1 + 1));
            leaf("work", 1, || std::hint::black_box(2 + 2));
        });
        let spans = finish();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert!(spans[1..].iter().all(|s| s.parent == 0));
        let agg = aggregate(&spans);
        let slice = &agg["slice"];
        let work = &agg["work"];
        assert_eq!(work.count, 2);
        assert_eq!(work.self_ns, work.total_ns);
        assert_eq!(slice.self_ns, slice.total_ns - work.total_ns);
        assert!(to_json("w", &spans).render().contains("\"slowest\""));
    }

    #[test]
    fn hooks_are_inert_while_tracing_is_off() {
        assert_eq!(leaf("x", 0, || 7), 7);
        assert_eq!(parent("y", || 8), 8);
        assert!(finish().is_empty());
    }
}
