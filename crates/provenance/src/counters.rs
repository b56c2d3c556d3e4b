//! Provenance bookkeeping counters, reported by the server `stats` op.

use starling_engine::ExecGraph;
use starling_sql::json::Json;

use crate::witness::Witness;

/// Cumulative provenance counters for one session or process.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProvCounters {
    /// Explored graphs recorded.
    pub traces_recorded: usize,
    /// Choice points (ambiguous states) across the recorded graphs.
    pub choice_points: usize,
    /// Divergence witnesses extracted.
    pub witnesses_extracted: usize,
    /// Total steps shaved off baseline witnesses by minimization.
    pub minimization_steps: usize,
}

impl ProvCounters {
    /// Fresh counters.
    pub fn new() -> Self {
        ProvCounters::default()
    }

    /// Accounts one explored graph.
    pub fn record_explore(&mut self, graph: &ExecGraph) {
        self.traces_recorded += 1;
        self.choice_points += graph.choice_points();
    }

    /// Accounts one extracted witness.
    pub fn record_witness(&mut self, w: &Witness) {
        self.witnesses_extracted += 1;
        self.minimization_steps += w.minimization_steps;
    }

    /// The counters as a JSON object (nested under `"provenance"` in the
    /// server's `stats` response).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("traces_recorded", Json::from(self.traces_recorded)),
            ("choice_points", Json::from(self.choice_points)),
            ("witnesses_extracted", Json::from(self.witnesses_extracted)),
            ("minimization_steps", Json::from(self.minimization_steps)),
        ])
    }
}
