//! Quickstart: make a small RSN fault-tolerant and quantify the gain.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use ftrsn::core::examples::fig2;
use ftrsn::fault::{analyze, HardeningProfile};
use ftrsn::synth::area::{costs, AreaModel, Overhead};
use ftrsn::synth::{synthesize, SynthesisOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The original network: the paper's Fig. 2 example.
    let rsn = fig2();
    println!(
        "original network: {} segments, {} muxes, {} bits",
        rsn.segments().count(),
        rsn.muxes().count(),
        rsn.total_bits()
    );

    // 2. Quantify its fault tolerance: fraction of segments accessible in
    //    presence of each single stuck-at fault.
    let before = analyze(&rsn, HardeningProfile::unhardened());
    println!("before synthesis: {before}");

    // 3. Synthesize the fault-tolerant network (connectivity augmentation,
    //    select re-derivation, TMR addresses, secondary ports).
    let result = synthesize(&rsn, &SynthesisOptions::new())?;
    println!(
        "synthesis: {} edges added, {} muxes added, {} routing bits",
        result.report.added_edges, result.report.added_muxes, result.report.added_bits,
    );

    // 4. Quantify again.
    let after = analyze(&result.rsn, HardeningProfile::hardened());
    println!("after synthesis:  {after}");

    // 5. What did it cost?
    let model = AreaModel::default();
    let overhead = Overhead::between(&costs(&rsn, &model), &costs(&result.rsn, &model));
    println!(
        "overhead: mux ×{:.2}, bits ×{:.2}, nets ×{:.2}, area ×{:.2}",
        overhead.mux_ratio, overhead.bits_ratio, overhead.nets_ratio, overhead.area_ratio
    );

    assert!(after.avg_segments > before.avg_segments);
    Ok(())
}
