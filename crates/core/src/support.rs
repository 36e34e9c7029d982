//! Shared helpers for the Protean protection mechanisms.

use protean_sim::DynInst;

/// Whether `u` is an *access transmitter* (ProtISA Definition 1): a
/// transmitter whose sensitive operand is protected.
///
/// Both halves are resolved at rename: whether the instruction is a
/// transmitter under the policy's transmitter set
/// (`u.is_transmitter`), and whether a sensitive operand is protected
/// (`u.sens_prot`; the physical-register protection tags are immutable
/// after rename, so no re-query is needed).
pub fn is_access_transmitter(u: &DynInst) -> bool {
    u.is_transmitter && u.sens_prot
}

#[cfg(test)]
mod tests {
    use protean_isa::TransmitterSet;

    #[test]
    fn definition_matches_paper() {
        // Sanity: the helper keys on the rename-time sensitive-operand
        // protection bit; non-transmitters are never access transmitters.
        // (Full pipeline-level behaviour is exercised by the integration
        // tests in `tests/`.)
        let xmit = TransmitterSet::paper();
        assert!(xmit.loads && xmit.stores && xmit.branches && xmit.divs);
    }
}
