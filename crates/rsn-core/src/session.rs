//! High-level instrument access sessions.
//!
//! An [`AccessSession`] owns the dynamic state of an RSN and exposes the
//! operations a user of the scan infrastructure actually performs: *write
//! this value into that instrument register* and *read that instrument*.
//! Each operation plans the CSU series from the session's current
//! configuration ([`Rsn::plan_access`]), executes it on the bit-accurate
//! simulator, and accounts the consumed clock cycles — so consecutive
//! accesses to nearby instruments benefit from the already-open hierarchy
//! exactly as on silicon.
//!
//! # Example
//!
//! ```
//! use rsn_core::examples::sib_tree;
//! use rsn_core::session::AccessSession;
//!
//! let rsn = sib_tree(1, 2, 4);
//! let leaf = rsn.find("t00.seg").expect("leaf");
//! let mut session = AccessSession::new(&rsn);
//! session.write(leaf, &[true, false, true, true])?;
//! let (value, _cycles) = session.read(leaf, &|_| None)?;
//! assert_eq!(value, vec![true, false, true, true]);
//! # Ok::<(), rsn_core::Error>(())
//! ```

use crate::config::Config;
use crate::csu::{csu_cycles, SimState};
use crate::error::Result;
use crate::expr::InputId;
use crate::network::{NodeId, Rsn};

/// A stateful access session over one RSN.
#[derive(Debug, Clone)]
pub struct AccessSession<'a> {
    rsn: &'a Rsn,
    state: SimState,
    cycles: u64,
    accesses: u64,
}

impl<'a> AccessSession<'a> {
    /// Opens a session in the network's reset state.
    pub fn new(rsn: &'a Rsn) -> Self {
        AccessSession {
            rsn,
            state: SimState::reset(rsn),
            cycles: 0,
            accesses: 0,
        }
    }

    /// The current scan configuration.
    pub fn config(&self) -> &Config {
        &self.state.config
    }

    /// Total clock cycles consumed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Number of completed read/write accesses.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Routes the scan path to `target`: plans from the current
    /// configuration and executes the plan's CSU series, each CSU writing
    /// the next configuration into the on-path registers. Returns the
    /// setup cycles spent.
    ///
    /// # Errors
    ///
    /// Propagates planning and CSU errors.
    pub fn navigate(&mut self, target: NodeId) -> Result<u64> {
        let rsn = self.rsn;
        let before = self.cycles;
        let plan = rsn.plan_access(target, &self.state.config)?;
        for step in &plan.steps {
            let path = rsn.trace_path(&self.state.config)?;
            let stream = rsn.scan_in_stream(&path, |s, i| {
                rsn.shadow_offset(s)
                    .is_some_and(|off| step.bit(off as usize + i))
            });
            rsn.csu(&mut self.state, &stream, &|_| None)?;
            // Propagate planned primary-input values.
            for i in 0..step.num_inputs() {
                let id = InputId(i as u32);
                self.state.config.set_input(id, step.input(id));
            }
            self.cycles += csu_cycles(&path, rsn);
        }
        Ok(self.cycles - before)
    }

    /// Writes `value` into the target segment's shift and shadow
    /// registers, navigating there first. Returns the cycles spent.
    ///
    /// # Errors
    ///
    /// [`Error::WrongNodeKind`](crate::Error::WrongNodeKind) for
    /// non-segments, planning errors, or a length mismatch reported by
    /// the simulator.
    pub fn write(&mut self, target: NodeId, value: &[bool]) -> Result<u64> {
        let before = self.cycles;
        self.navigate(target)?;
        let outcome = self.rsn.csu_write(&mut self.state, target, value)?;
        self.cycles += csu_cycles(&outcome.path, self.rsn);
        self.accesses += 1;
        Ok(self.cycles - before)
    }

    /// Reads the target segment, navigating there first: one CSU captures
    /// `capture_data(seg)` into every on-path segment with capture enabled
    /// (`None` leaves a register as it is, so `&|_| None` reads back the
    /// target's current value) and shifts the path out. Returns the
    /// target's bits and the cycles spent.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AccessSession::write`].
    pub fn read(
        &mut self,
        target: NodeId,
        capture_data: &dyn Fn(NodeId) -> Option<Vec<bool>>,
    ) -> Result<(Vec<bool>, u64)> {
        let before = self.cycles;
        self.navigate(target)?;
        let path = self.rsn.trace_path(&self.state.config)?;
        let bits = self.rsn.csu_read(&mut self.state, target, capture_data)?;
        self.cycles += csu_cycles(&path, self.rsn);
        self.accesses += 1;
        Ok((bits, self.cycles - before))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::{chain, sib_tree};

    #[test]
    fn write_then_read_roundtrip() {
        let rsn = sib_tree(1, 2, 4);
        let leaf = rsn.find("t00.seg").expect("leaf");
        let mut session = AccessSession::new(&rsn);
        let pattern = [true, true, false, true];
        session.write(leaf, &pattern).expect("write");
        let (value, _) = session.read(leaf, &|_| None).expect("read");
        assert_eq!(value, pattern.to_vec());
        assert_eq!(session.accesses(), 2);
    }

    #[test]
    fn locality_makes_second_access_cheaper() {
        // Two leaves under the same SIB: the second access skips the
        // hierarchy-opening CSU.
        let rsn = sib_tree(2, 2, 4);
        let l1 = rsn.find("t000.seg").expect("leaf 1");
        let l2 = rsn.find("t001.seg").expect("leaf 2");
        let far = rsn.find("t110.seg").expect("far leaf");

        let mut session = AccessSession::new(&rsn);
        let first = session.write(l1, &[true; 4]).expect("write 1");
        let neighbor = session.write(l2, &[true; 4]).expect("write 2");
        assert!(
            neighbor < first,
            "neighbor access ({neighbor}) must be cheaper than cold access ({first})"
        );
        // A far leaf needs new hierarchy opening again.
        let far_cost = session.write(far, &[true; 4]).expect("write far");
        assert!(far_cost > neighbor);
    }

    #[test]
    fn chain_session_has_no_setup_csus() {
        let rsn = chain(3, 4);
        let s1 = rsn.find("S1").expect("segment");
        let mut session = AccessSession::new(&rsn);
        let cycles = session
            .write(s1, &[true, false, false, true])
            .expect("write");
        // Single CSU over 12 bits + capture/update.
        assert_eq!(cycles, 14);
    }

    #[test]
    fn read_instrument_captures_external_data() {
        let rsn = sib_tree(1, 2, 3);
        let leaf = rsn.find("t10.seg").expect("leaf");
        let mut session = AccessSession::new(&rsn);
        let (bits, _) = session
            .read(leaf, &move |seg| {
                (seg == leaf).then(|| vec![true, false, true])
            })
            .expect("read");
        assert_eq!(bits, vec![true, false, true]);
    }

    #[test]
    fn session_cycles_accumulate() {
        let rsn = sib_tree(1, 2, 4);
        let mut session = AccessSession::new(&rsn);
        assert_eq!(session.cycles(), 0);
        let near = rsn.find("t00.seg").expect("leaf");
        session.write(near, &[false; 4]).expect("write");
        let after_write = session.cycles();
        assert!(after_write > 0);
        let far = rsn.find("t11.seg").expect("leaf");
        session.read(far, &|_| None).expect("read");
        assert!(session.cycles() > after_write);
    }
}
