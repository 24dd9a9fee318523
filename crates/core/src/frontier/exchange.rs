//! Superstep-boundary frontier exchange between partitions.
//!
//! After each partition's advance, the *halo tail* of its output frontier
//! holds the remote destinations this superstep activated. The exchange
//! harvests those bits with a **word-diff**: only non-zero halo words are
//! touched (the two-layer bitmap keeps unreached regions zero), each set
//! bit is decoded through the partition's [`HaloEntry`] table into
//! `(owner, owner_local, value)` mail, and the harvested words are zeroed
//! so halo bits never leak into the next local superstep (they would
//! re-fire halo rows forever and the global union count would never reach
//! zero).
//!
//! The value payload rides with the bit: the sender's *replica* of the
//! destination's algorithm state (BFS level, SSSP distance, CC label —
//! all merge at the owner with a `min`). Shipping the replica value keeps
//! the exchange one round per superstep; a bits-only protocol would need
//! a second round-trip to pull values back.
//!
//! Cost model: each channel pays `words·W/8 + msgs·(4 + value_bytes)`
//! bytes over a modelled interconnect; the multi-device engine advances
//! every queue's clock by the collective's transfer time at the superstep
//! barrier and records an `Exchange` trace event per non-empty channel.

use crate::frontier::word::Word;
use crate::frontier::BitmapLike;
use crate::graph::partition::DevicePartition;

/// Exchange tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ExchangeConfig {
    /// Modelled inter-device interconnect bandwidth, GB/s. The default is
    /// deliberately far below the profiles' HBM bandwidth (NVLink-class,
    /// not DRAM-class) so exchange cost is visible in the weak-scaling
    /// ablation.
    pub interconnect_gbps: f64,
    /// Bytes of algorithm state shipped per activation (4 for the u32/f32
    /// states of BFS/SSSP/CC).
    pub value_bytes: u32,
}

impl Default for ExchangeConfig {
    fn default() -> Self {
        ExchangeConfig {
            interconnect_gbps: 64.0,
            value_bytes: 4,
        }
    }
}

/// One delivered halo activation: the owner-local vertex and the sender's
/// replica value (u32/f32-bits widened to u64 for transport).
#[derive(Debug, Clone, Copy)]
pub struct HaloMsg {
    pub owner_local: u32,
    pub value: u64,
}

/// Per-superstep exchange tally (all channels summed).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExchangeTally {
    /// Non-zero halo words harvested.
    pub words: u64,
    /// Halo activations delivered.
    pub msgs: u64,
    /// Modelled interconnect bytes.
    pub bytes: u64,
}

/// Per-channel result of harvesting one partition's halo tail.
pub struct ChannelMail {
    pub dst_part: u32,
    pub words: u64,
    pub msgs: u64,
    pub bytes: u64,
}

/// The exchange: per-destination mailboxes plus running totals.
///
/// Protocol per global superstep (driven by the multi-device engine):
/// 1. [`harvest`](FrontierExchange::harvest) each partition's output
///    frontier — decode + zero the halo words, fill mailboxes;
/// 2. barrier (clock sync + collective transfer cost);
/// 3. [`drain`](FrontierExchange::drain) each partition's mailbox and
///    min-merge the values into its state, activating improved vertices
///    in its *input* frontier.
pub struct FrontierExchange {
    cfg: ExchangeConfig,
    mail: Vec<Vec<HaloMsg>>,
    total: ExchangeTally,
}

impl FrontierExchange {
    pub fn new(parts: usize, cfg: ExchangeConfig) -> Self {
        FrontierExchange {
            cfg,
            mail: (0..parts).map(|_| Vec::new()).collect(),
            total: ExchangeTally::default(),
        }
    }

    pub fn config(&self) -> &ExchangeConfig {
        &self.cfg
    }

    /// Running totals across every superstep so far.
    pub fn total(&self) -> ExchangeTally {
        self.total
    }

    /// Modelled transfer time for `bytes` on the interconnect, in ns.
    pub fn transfer_ns(&self, bytes: u64) -> f64 {
        bytes as f64 / self.cfg.interconnect_gbps
    }

    /// Harvests `part`'s halo activations out of its output frontier
    /// `fout`: scans only non-zero words of the halo tail, decodes each
    /// set bit through the halo table (reading the sender's replica value
    /// via `replica`), posts mail to the owners, and zeroes the harvested
    /// words. Returns the per-channel tallies of this harvest (empty
    /// channels omitted).
    ///
    /// The layer-2 summary still carries the zeroed words afterwards.
    /// That staleness is safe-by-direction: a stale bit can only make a
    /// later compaction visit a zero word, never hide a set one. Callers
    /// that need the summary exact (e.g. for `count`) follow up with
    /// `fout.rebuild_from_words(q)`; the multi-device engine deliberately
    /// does not, trading one near-empty drain superstep at convergence
    /// for skipping a full-bitmap sweep every boundary.
    pub fn harvest<W: Word>(
        &mut self,
        part: &DevicePartition,
        fout: &dyn BitmapLike<W>,
        replica: &dyn Fn(u32) -> u64,
    ) -> Vec<ChannelMail> {
        let k = part.owned as usize;
        let h = part.halo.len();
        if h == 0 {
            return Vec::new();
        }
        let words = fout.words();
        let lo_word = k / W::BITS as usize;
        let hi_word = (k + h).div_ceil(W::BITS as usize).min(fout.num_words());
        let mut per_dst: Vec<ChannelMail> = Vec::new();
        for wi in lo_word..hi_word {
            let w: W = words.load(wi);
            if w.is_zero() {
                continue;
            }
            // Mask out owned bits sharing the boundary word (and any slack
            // past the halo tail in the last word).
            let base = wi * W::BITS as usize;
            let mut masked = w;
            let mut keep = W::ZERO;
            let mut bits = masked;
            while !bits.is_zero() {
                let b = bits.trailing_zeros();
                bits = bits.and(W::one_bit(b).not());
                let lid = base + b as usize;
                if lid >= k && lid < k + h {
                    keep = keep.or(W::one_bit(b));
                }
            }
            masked = masked.and(keep);
            if masked.is_zero() {
                continue;
            }
            // Zero exactly the halo bits (owned bits in a boundary word
            // survive untouched).
            words.store(wi, w.and(masked.not()));
            let mut wtallied = vec![false; self.mail.len()];
            let mut bits = masked;
            while !bits.is_zero() {
                let b = bits.trailing_zeros();
                bits = bits.and(W::one_bit(b).not());
                let lid = base + b as usize;
                let entry = part.halo[lid - k];
                let value = replica((lid) as u32);
                let dst = entry.owner as usize;
                self.mail[dst].push(HaloMsg {
                    owner_local: entry.owner_local,
                    value,
                });
                let ch = match per_dst.iter_mut().find(|c| c.dst_part == entry.owner) {
                    Some(ch) => ch,
                    None => {
                        per_dst.push(ChannelMail {
                            dst_part: entry.owner,
                            words: 0,
                            msgs: 0,
                            bytes: 0,
                        });
                        per_dst.last_mut().unwrap()
                    }
                };
                ch.msgs += 1;
                ch.bytes += 4 + self.cfg.value_bytes as u64;
                if !wtallied[dst] {
                    wtallied[dst] = true;
                    ch.words += 1;
                    ch.bytes += (W::BITS / 8) as u64;
                }
            }
        }
        for ch in &per_dst {
            self.total.words += ch.words;
            self.total.msgs += ch.msgs;
            self.total.bytes += ch.bytes;
        }
        per_dst
    }

    /// Drains the mailbox of partition `p` (mail posted by every
    /// harvester this superstep).
    pub fn drain(&mut self, p: usize) -> Vec<HaloMsg> {
        std::mem::take(&mut self.mail[p])
    }

    /// Whether any mailbox still holds undelivered mail.
    pub fn pending(&self) -> bool {
        self.mail.iter().any(|m| !m.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontier::{Frontier, TwoLayerFrontier};
    use crate::graph::partition::{PartitionSpec, PartitionedGraph};
    use crate::graph::CsrHost;
    use sygraph_sim::{Device, DeviceProfile, Queue};

    fn queue() -> Queue {
        Queue::new(Device::new(DeviceProfile::host_test()))
    }

    #[test]
    fn harvest_moves_halo_bits_and_clears_them() {
        let q = queue();
        // 0 -> 2, 1 -> 3 with a 2-way range split: p0 owns {0,1}, halo {2,3}.
        let host = CsrHost::from_edges(4, &[(0, 2), (1, 3)]);
        let pg = PartitionedGraph::build(&host, PartitionSpec::Range, 2);
        let p0 = &pg.parts[0];
        assert_eq!(p0.halo.len(), 2);
        let f = TwoLayerFrontier::<u32>::new(&q, p0.local_len()).unwrap();
        // Activate one owned (stays) and both halo lids (harvested).
        f.insert_host(0);
        f.insert_host(p0.owned); // halo lid for global 2
        f.insert_host(p0.owned + 1); // halo lid for global 3
        let mut ex = FrontierExchange::new(2, ExchangeConfig::default());
        let channels = ex.harvest::<u32>(p0, &f, &|lid| lid as u64);
        assert_eq!(channels.len(), 1, "both halos owned by p1: one channel");
        assert_eq!(channels[0].dst_part, 1);
        assert_eq!(channels[0].msgs, 2);
        assert_eq!(channels[0].words, 1);
        // word (4 B) + 2 msgs × (4 B index + 4 B value)
        assert_eq!(channels[0].bytes, 4 + 2 * 8);
        f.rebuild_from_words(&q);
        assert!(f.contains_host(0), "owned bit survives the boundary word");
        assert!(!f.contains_host(p0.owned));
        assert_eq!(f.to_sorted_vec(), vec![0]);
        let mail = ex.drain(1);
        assert_eq!(mail.len(), 2);
        let mut owner_locals: Vec<u32> = mail.iter().map(|m| m.owner_local).collect();
        owner_locals.sort_unstable();
        assert_eq!(
            owner_locals,
            vec![pg.owner_local_of(2), pg.owner_local_of(3)]
        );
        assert!(ex.drain(0).is_empty());
        assert!(!ex.pending());
    }

    #[test]
    fn empty_halo_harvests_nothing() {
        let q = queue();
        let host = CsrHost::from_edges(4, &[(0, 1), (2, 3)]);
        let pg = PartitionedGraph::build(&host, PartitionSpec::Range, 2);
        let p0 = &pg.parts[0];
        assert!(p0.halo.is_empty());
        let f = TwoLayerFrontier::<u32>::new(&q, p0.local_len().max(1)).unwrap();
        f.insert_host(0);
        let mut ex = FrontierExchange::new(2, ExchangeConfig::default());
        assert!(ex.harvest::<u32>(p0, &f, &|_| 0).is_empty());
        assert_eq!(ex.total().bytes, 0);
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let ex = FrontierExchange::new(
            2,
            ExchangeConfig {
                interconnect_gbps: 64.0,
                value_bytes: 4,
            },
        );
        // 64 GB/s = 64 bytes/ns.
        assert!((ex.transfer_ns(6400) - 100.0).abs() < 1e-9);
    }
}
