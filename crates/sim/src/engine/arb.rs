//! Arbitration among queued directory requests: which waiting request
//! is served next when a line frees up. This is where the fairness
//! policies of the paper's Section 5 live (FIFO, random, nearest-first).

use super::Engine;
use crate::config::ArbitrationPolicy;
use rand::Rng;

impl Engine {
    /// Arbitration: the queue index to serve next. Allocation-free: FIFO
    /// takes the front, Random indexes the queue with one draw, and
    /// nearest-first makes one pass keeping the first minimum.
    ///
    /// `pump` only starts a request while no GetM is queued behind a
    /// running GetS batch (writer priority), so every queued request is
    /// eligible here.
    pub(super) fn pick_request(&mut self, idx: u32) -> Option<usize> {
        let entry = self.dir.get_at(idx);
        debug_assert!(
            entry.shared_in_flight == 0 || entry.queued_excl == 0,
            "pick with a GetM queued behind a running GetS batch"
        );
        let len = entry.queue.len();
        if len == 0 {
            return None;
        }
        match self.cfg.params.arbitration {
            ArbitrationPolicy::Fifo => Some(0),
            ArbitrationPolicy::Random => Some(self.rng.gen_range(0..len)),
            ArbitrationPolicy::NearestFirst => {
                let anchor = entry
                    .owner
                    .map(|c| self.tile_of_core(c))
                    .unwrap_or_else(|| self.dir.home_of(idx));
                entry
                    .queue
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, r)| self.hops(anchor, self.tile_of_core(r.core)))
                    .map(|(i, _)| i)
            }
        }
    }
}
