//! Helpers shared by the protocol-level integration tests, which all run on
//! [`agas::SimWorld`].

use agas::{GasMode, SimWorld};
use netsim::{Engine, NetConfig};

#[allow(dead_code)] // not every integration-test binary calls it
pub fn engine(n: usize, mode: GasMode) -> Engine<SimWorld> {
    Engine::new(SimWorld::new(n, mode, NetConfig::ideal()), 42)
}

/// Assert cluster-wide GAS consistency (delegates to the library's
/// checker, `agas::check`).
#[allow(dead_code)] // not every integration-test binary calls it
pub fn assert_consistent(eng: &Engine<SimWorld>, blocks: &[agas::Gva]) {
    agas::check::assert_consistent(&eng.state.data, blocks);
}
