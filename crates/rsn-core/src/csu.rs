//! Bit-accurate capture–shift–update (CSU) simulation.
//!
//! A read/write access to the selected segments of an RSN is implemented by
//! a CSU operation: a capture cycle, multiple shift cycles (typically as
//! many as the active scan path is long), and a final update cycle. This
//! module simulates CSU operations on a [`SimState`], tracking shift
//! register contents, shadow registers (the scan configuration) and the data
//! shifted out at the primary scan-out port.
//!
//! The shift convention is: index 0 of a segment's register is nearest the
//! scan-in port; each shift cycle moves data one position toward scan-out
//! and injects the next scan-in bit at position 0 of the first segment.

use crate::config::Config;
use crate::error::Result;
use crate::network::{NodeId, Rsn};
use crate::path::ScanPath;

/// Dynamic state of an RSN during simulation: shift register contents and
/// the scan configuration (shadow registers + primary inputs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimState {
    /// Shift register contents per node (empty vec for non-segments).
    shift: Vec<Vec<bool>>,
    /// Shadow registers and primary inputs.
    pub config: Config,
}

impl SimState {
    /// Creates the reset state of a network: shift registers zeroed, shadow
    /// registers at their reset values.
    pub fn reset(rsn: &Rsn) -> Self {
        let shift = rsn
            .node_ids()
            .map(|id| match rsn.node(id).as_segment() {
                Some(s) => vec![false; s.length as usize],
                None => Vec::new(),
            })
            .collect();
        SimState {
            shift,
            config: rsn.reset_config(),
        }
    }

    /// Shift register contents of a segment.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn shift_register(&self, id: NodeId) -> &[bool] {
        &self.shift[id.index()]
    }

    /// Sets the shift register contents of a segment (e.g. instrument data).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or the length mismatches.
    pub fn set_shift_register(&mut self, id: NodeId, bits: &[bool]) {
        assert_eq!(self.shift[id.index()].len(), bits.len(), "length mismatch");
        self.shift[id.index()].copy_from_slice(bits);
    }

    /// Shadow register contents of a segment as read from the
    /// configuration.
    pub fn shadow_register(&self, rsn: &Rsn, id: NodeId) -> Option<Vec<bool>> {
        let off = rsn.shadow_offset(id)? as usize;
        let len = rsn.shadow_len(id) as usize;
        Some((0..len).map(|i| self.config.bit(off + i)).collect())
    }
}

/// Result of one CSU operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsuOutcome {
    /// Bits observed at the primary scan-out port during the shift phase,
    /// in emission order.
    pub shifted_out: Vec<bool>,
    /// The active scan path the operation used.
    pub path: ScanPath,
}

impl Rsn {
    /// Performs one CSU operation.
    ///
    /// * Capture: active segments with capture enabled load `capture_data`
    ///   (if a value is provided for them).
    /// * Shift: `scan_in_data.len()` shift cycles through the concatenated
    ///   registers of the active scan path.
    /// * Update: active segments with a shadow register and update enabled
    ///   latch their shift register into the shadow register.
    ///
    /// # Errors
    ///
    /// Propagates path-tracing errors from
    /// [`Rsn::trace_path`](crate::Rsn::trace_path). Configuration validity
    /// (select/path agreement) is the caller's concern: generated networks
    /// are valid by construction, and fault-tolerant networks of more
    /// than 64 nodes carry placeholder selects (see `rsn-synth`'s
    /// `synthesize`).
    pub fn csu(
        &self,
        state: &mut SimState,
        scan_in_data: &[bool],
        capture_data: &dyn Fn(NodeId) -> Option<Vec<bool>>,
    ) -> Result<CsuOutcome> {
        let path = self.trace_path(&state.config)?;
        let segs: Vec<NodeId> = path.segments(self).collect();

        // Capture.
        for &seg in &segs {
            let s = self.node(seg).as_segment().expect("segment");
            let capdis = self.eval(&s.capture_disable, &state.config)?;
            if !capdis {
                if let Some(data) = capture_data(seg) {
                    state.set_shift_register(seg, &data);
                }
            }
        }

        // Shift: build the concatenated chain (index 0 nearest scan-in).
        let mut chain: Vec<bool> = Vec::new();
        for &seg in &segs {
            chain.extend_from_slice(&state.shift[seg.index()]);
        }
        let mut out = Vec::with_capacity(scan_in_data.len());
        for &in_bit in scan_in_data {
            if chain.is_empty() {
                // Degenerate path with zero scan bits: data flies through.
                out.push(in_bit);
                continue;
            }
            out.push(*chain.last().expect("nonempty"));
            for i in (1..chain.len()).rev() {
                chain[i] = chain[i - 1];
            }
            chain[0] = in_bit;
        }
        // Write the chain back into the per-segment registers.
        let mut pos = 0;
        for &seg in &segs {
            let len = state.shift[seg.index()].len();
            state.shift[seg.index()].copy_from_slice(&chain[pos..pos + len]);
            pos += len;
        }

        // Update.
        for &seg in &segs {
            let s = self.node(seg).as_segment().expect("segment");
            if !s.has_shadow {
                continue;
            }
            let updis = self.eval(&s.update_disable, &state.config)?;
            if updis {
                continue;
            }
            let off = self.shadow_offset(seg).expect("has shadow") as usize;
            // Copy the shift register first: the config is updated at the
            // very end of the CSU, after all shifting.
            let bits = state.shift[seg.index()].clone();
            for (i, b) in bits.iter().enumerate() {
                state.config.set_bit(off + i, *b);
            }
        }

        Ok(CsuOutcome {
            shifted_out: out,
            path,
        })
    }

    /// The scan-in stream that leaves `bit(seg, i)` in bit `i` of every
    /// segment on `path` after a full shift, one cycle per scan bit.
    ///
    /// After `total` shift cycles the bit injected at cycle `k` sits at
    /// chain position `total - 1 - k` (position 0 is nearest scan-in), so
    /// the stream is the path's concatenated register contents reversed.
    pub(crate) fn scan_in_stream(
        &self,
        path: &ScanPath,
        mut bit: impl FnMut(NodeId, usize) -> bool,
    ) -> Vec<bool> {
        let mut stream = Vec::new();
        for seg in path.segments(self) {
            let len = self.node(seg).as_segment().expect("segment").length as usize;
            stream.extend((0..len).map(|i| bit(seg, i)));
        }
        stream.reverse();
        stream
    }

    /// Convenience: performs a full-path CSU that shifts `value` into
    /// segment `target` and updates. Every other on-path register is
    /// re-streamed with its current contents, so the write does not tear
    /// down the scan configuration (control registers live on the same
    /// chain). The target must be on the current active path.
    ///
    /// # Errors
    ///
    /// Returns an error if the target is not on the active path (reported as
    /// [`Error::AccessPlanFailed`](crate::Error::AccessPlanFailed)) or if
    /// the CSU itself fails.
    pub fn csu_write(
        &self,
        state: &mut SimState,
        target: NodeId,
        value: &[bool],
    ) -> Result<CsuOutcome> {
        let path = self.active_target_path(state, target)?;
        assert_eq!(
            value.len(),
            self.node(target).as_segment().expect("segment").length as usize,
            "value length must match target register length"
        );
        let stream = self.scan_in_stream(&path, |s, i| {
            if s == target {
                value[i]
            } else {
                state.shift_register(s)[i]
            }
        });
        self.csu(state, &stream, &|_| None)
    }

    /// Convenience: performs a CSU that captures and shifts out the entire
    /// active path, returning the captured bits of segment `target`. Every
    /// on-path register is re-streamed with its current contents, so the
    /// read leaves the configuration as it was.
    ///
    /// `capture_data` provides the instrument data captured into each
    /// segment.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Rsn::csu_write`].
    pub fn csu_read(
        &self,
        state: &mut SimState,
        target: NodeId,
        capture_data: &dyn Fn(NodeId) -> Option<Vec<bool>>,
    ) -> Result<Vec<bool>> {
        let path = self.active_target_path(state, target)?;
        let len = |s: NodeId| self.node(s).as_segment().expect("segment").length as usize;
        let offset: usize = path
            .segments(self)
            .take_while(|&s| s != target)
            .map(len)
            .sum();
        let stream = self.scan_in_stream(&path, |s, i| state.shift_register(s)[i]);
        let total = stream.len();
        let outcome = self.csu(state, &stream, capture_data)?;
        // Chain position p is emitted at cycle total-1-p; target occupies
        // positions offset..offset+len.
        Ok((offset..offset + len(target))
            .map(|p| outcome.shifted_out[total - 1 - p])
            .collect())
    }

    /// The active scan path of `state`, which must contain `target`.
    fn active_target_path(&self, state: &SimState, target: NodeId) -> Result<ScanPath> {
        let path = self.trace_path(&state.config)?;
        if !path.contains(target) {
            return Err(crate::Error::AccessPlanFailed {
                target,
                reason: "target segment is not on the active scan path".into(),
            });
        }
        Ok(path)
    }
}

/// Clock cycles of one CSU over `path`: a capture cycle, one shift cycle
/// per scan bit and an update cycle.
pub(crate) fn csu_cycles(path: &ScanPath, rsn: &Rsn) -> u64 {
    path.shift_length(rsn) + 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ControlExpr;
    use crate::network::RsnBuilder;

    fn two_chain() -> (Rsn, NodeId, NodeId) {
        let mut b = RsnBuilder::new("c2");
        let s1 = b.add_segment("S1", 3);
        let s2 = b.add_segment("S2", 2);
        b.set_select(s1, ControlExpr::TRUE);
        b.set_select(s2, ControlExpr::TRUE);
        b.connect(b.scan_in(), s1);
        b.connect(s1, s2);
        b.connect(s2, b.scan_out());
        (b.finish().expect("valid"), s1, s2)
    }

    #[test]
    fn shift_moves_data_through_chain() {
        let (rsn, s1, s2) = two_chain();
        let mut st = SimState::reset(&rsn);
        // Shift in pattern 10110 (5 bits = chain length).
        let stream = [true, false, true, true, false];
        let outcome = rsn.csu(&mut st, &stream, &|_| None).expect("csu");
        // Everything shifted out was the initial zeros.
        assert_eq!(outcome.shifted_out, vec![false; 5]);
        // First bit injected (true) has travelled to the far end (s2 bit 1).
        assert_eq!(st.shift_register(s1), &[false, true, true]);
        assert_eq!(st.shift_register(s2), &[false, true]);
    }

    #[test]
    fn update_latches_into_shadow() {
        let (rsn, s1, _) = two_chain();
        let mut st = SimState::reset(&rsn);
        let stream = [true, true, true, false, false];
        rsn.csu(&mut st, &stream, &|_| None).expect("csu");
        let shadow = st.shadow_register(&rsn, s1).expect("shadow");
        assert_eq!(shadow, st.shift_register(s1).to_vec());
    }

    #[test]
    fn csu_write_places_value_in_target() {
        let (rsn, s1, s2) = two_chain();
        let mut st = SimState::reset(&rsn);
        rsn.csu_write(&mut st, s1, &[true, false, true])
            .expect("write");
        assert_eq!(st.shift_register(s1), &[true, false, true]);
        assert_eq!(
            st.shadow_register(&rsn, s1).expect("shadow"),
            vec![true, false, true]
        );
        // s2 untouched (zeros written).
        assert_eq!(st.shift_register(s2), &[false, false]);

        let mut st = SimState::reset(&rsn);
        rsn.csu_write(&mut st, s2, &[true, true]).expect("write");
        assert_eq!(st.shift_register(s2), &[true, true]);
    }

    #[test]
    fn csu_read_returns_captured_data() {
        let (rsn, s1, s2) = two_chain();
        let mut st = SimState::reset(&rsn);
        let data = |seg: NodeId| -> Option<Vec<bool>> {
            if seg == s2 {
                Some(vec![true, false])
            } else {
                None
            }
        };
        let bits = rsn.csu_read(&mut st, s2, &data).expect("read");
        assert_eq!(bits, vec![true, false]);
        let bits = rsn.csu_read(&mut st, s1, &|_| None).expect("read");
        assert_eq!(bits.len(), 3);
    }

    #[test]
    fn capture_disable_blocks_capture() {
        let mut b = RsnBuilder::new("cd");
        let s = b.add_segment("S", 2);
        b.set_select(s, ControlExpr::TRUE);
        b.connect(b.scan_in(), s);
        b.connect(s, b.scan_out());
        // capture disabled unconditionally
        if let crate::network::NodeKind::Segment(seg) = &mut b.node_mut(s).kind {
            seg.capture_disable = ControlExpr::TRUE;
        }
        let rsn = b.finish().expect("valid");
        let mut st = SimState::reset(&rsn);
        let bits = rsn
            .csu_read(&mut st, s, &|_| Some(vec![true, true]))
            .expect("read");
        assert_eq!(bits, vec![false, false], "capture must be suppressed");
    }

    #[test]
    fn update_disable_blocks_update() {
        let mut b = RsnBuilder::new("ud");
        let s = b.add_segment("S", 2);
        b.set_select(s, ControlExpr::TRUE);
        b.set_update_disable(s, ControlExpr::TRUE);
        b.connect(b.scan_in(), s);
        b.connect(s, b.scan_out());
        let rsn = b.finish().expect("valid");
        let mut st = SimState::reset(&rsn);
        rsn.csu(&mut st, &[true, true], &|_| None).expect("csu");
        assert_eq!(st.shift_register(s), &[true, true]);
        assert_eq!(
            st.shadow_register(&rsn, s).expect("shadow"),
            vec![false, false],
            "shadow must keep reset value under update disable"
        );
    }

    #[test]
    fn csu_write_rejects_off_path_target() {
        let mut b = RsnBuilder::new("sib");
        let sib = b.add_segment("SIB", 1);
        b.connect(b.scan_in(), sib);
        let seg = b.add_segment("S", 2);
        b.connect(sib, seg);
        let m = b.add_mux("M", vec![sib, seg], vec![ControlExpr::reg(sib, 0)]);
        b.connect(m, b.scan_out());
        b.set_select(sib, ControlExpr::TRUE);
        b.set_select(seg, ControlExpr::reg(sib, 0));
        let rsn = b.finish().expect("valid");
        let mut st = SimState::reset(&rsn);
        let err = rsn.csu_write(&mut st, seg, &[true, true]).unwrap_err();
        assert!(matches!(err, crate::Error::AccessPlanFailed { .. }));
    }

    #[test]
    fn writing_sib_register_reconfigures_path() {
        let mut b = RsnBuilder::new("sib");
        let sib = b.add_segment("SIB", 1);
        b.connect(b.scan_in(), sib);
        let seg = b.add_segment("S", 2);
        b.connect(sib, seg);
        let m = b.add_mux("M", vec![sib, seg], vec![ControlExpr::reg(sib, 0)]);
        b.connect(m, b.scan_out());
        b.set_select(sib, ControlExpr::TRUE);
        b.set_select(seg, ControlExpr::reg(sib, 0));
        let rsn = b.finish().expect("valid");
        let mut st = SimState::reset(&rsn);
        // CSU 1: write 1 into the SIB register -> opens the segment.
        rsn.csu_write(&mut st, sib, &[true]).expect("open");
        let path = rsn.active_path(&st.config).expect("valid");
        assert!(path.contains(seg));
        // CSU 2: now the segment is writable.
        rsn.csu_write(&mut st, seg, &[true, false])
            .expect("write seg");
        assert_eq!(st.shift_register(seg), &[true, false]);
    }
}
