//! End-to-end ITC'02 flow: SoC description → SIB-based RSN →
//! fault-tolerant RSN → metric and area report.
//!
//! ```text
//! cargo run --release --example itc02_flow                # embedded d695
//! cargo run --release --example itc02_flow -- u226        # embedded SoC
//! cargo run --release --example itc02_flow -- path/to.soc # real .soc file
//! ```

use std::env;
use std::fs;

use ftrsn::fault::{analyze, HardeningProfile};
use ftrsn::itc02::{by_name, parse_soc, Soc};
use ftrsn::sib::{generate, stats};
use ftrsn::synth::area::{costs, AreaModel, Overhead};
use ftrsn::synth::{synthesize, SynthesisOptions};

fn load(arg: Option<&str>) -> Result<Soc, Box<dyn std::error::Error>> {
    match arg {
        None => Ok(by_name("d695").expect("embedded d695")),
        Some(name) => {
            if let Some(soc) = by_name(name) {
                return Ok(soc);
            }
            let text = fs::read_to_string(name)?;
            Ok(parse_soc(&text)?)
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = env::args().skip(1).collect();
    let soc = load(args.first().map(String::as_str))?;
    println!(
        "SoC {}: {} modules, {} chains, {} payload bits, depth {}",
        soc.name,
        soc.modules.len(),
        soc.total_chains(),
        soc.payload_bits(),
        soc.depth()
    );

    let rsn = generate(&soc)?;
    let st = stats(&rsn, &soc);
    println!(
        "SIB-RSN: {} SIBs, {} leaves, {} top registers, {} bits, {} levels",
        st.sibs, st.leaves, st.top_registers, st.bits, st.levels
    );

    let before = analyze(&rsn, HardeningProfile::unhardened());
    println!("original accessibility: {before}");

    let result = synthesize(&rsn, &SynthesisOptions::new())?;
    println!(
        "synthesized: +{} edges, +{} muxes, +{} bits",
        result.report.added_edges, result.report.added_muxes, result.report.added_bits,
    );

    let after = analyze(&result.rsn, HardeningProfile::hardened());
    println!("fault-tolerant accessibility: {after}");

    let model = AreaModel::default();
    let o = Overhead::between(&costs(&rsn, &model), &costs(&result.rsn, &model));
    println!(
        "overhead: mux ×{:.2}, bits ×{:.2}, nets ×{:.2}, area ×{:.2}",
        o.mux_ratio, o.bits_ratio, o.nets_ratio, o.area_ratio
    );
    Ok(())
}
