//! Coarse spans: kept in memory while tracing, written out when it ends.

use bft_sim_core::json::Json;

/// One timed interval: its name, host start and end in ns since the traced
/// region's epoch, the span that caused it, and the repetition / job it
/// belongs to.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: &'static str,
    pub rep: u32,
}

impl Span {
    pub fn new(
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: &'static str,
        rep: u32,
    ) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            rep,
        }
    }

    pub fn to_json(self) -> Json {
        Json::obj([
            ("name", Json::from(self.name)),
            ("start_ns", Json::from(self.start_ns)),
            ("end_ns", Json::from(self.end_ns)),
            ("parent", Json::from(self.parent)),
            ("rep", Json::from(self.rep)),
        ])
    }
}
