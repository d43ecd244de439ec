//! The whole stack, no shortcuts: a network converging over real waveforms.
//!
//! Every slot here is physically played out — jittered PIE beacon edges,
//! per-tag clock-drifted demodulation, FM0 backscatter waveforms superposed
//! on the acoustic channel, the reader's DSP chain and IQ-cluster collision
//! detector — with the distributed slot-allocation MAC closing the loop.
//! Contrast with `quickstart`, which uses the (10⁵× faster) slot-level
//! abstraction.
//!
//! Run: `cargo run --release --example waveform_network`

use arachnet_core::mac::MacState;
use arachnet_core::slot::Period;
use arachnet_sim::cosim::CoSim;

fn main() {
    let p = |v| Period::new(v).unwrap();
    // Four tags around the reader: periods 2/4/8/8 (the Table 1 mix) on
    // deployment sites 8, 7, 5, 6.
    let tags = vec![(8, p(2)), (7, p(4)), (5, p(8)), (6, p(8))];
    let mut sim = CoSim::new(tags, 21);

    println!("slot | TX tags    | reader saw          | settled");
    println!("-----+------------+---------------------+--------");
    let mut converged_at = None;
    let mut clean = 0u32;
    for slot in 1..=120u64 {
        let s = sim.step();
        let saw = if s.collision {
            format!("COLLISION ({} IQ clusters)", s.clusters)
        } else if let Some(pkt) = s.rx.packet {
            format!("packet tid={} ok", pkt.tid())
        } else {
            "-".to_string()
        };
        if slot <= 25 || !s.transmitters.is_empty() && slot % 10 == 0 {
            println!(
                "{slot:4} | {:10} | {saw:19} | {}",
                format!("{:?}", s.transmitters),
                sim.settled()
            );
        }
        if s.collision {
            clean = 0;
        } else {
            clean += 1;
        }
        if clean >= 8 && sim.settled() == 4 && converged_at.is_none() {
            converged_at = Some(slot);
            break;
        }
    }

    match converged_at {
        Some(at) => println!("\nconverged after {at} fully-simulated waveform slots."),
        None => println!("\nno convergence within 120 slots (increase the budget)"),
    }
    println!("final states:");
    for (tid, state, offset) in sim.tag_states() {
        let s = match state {
            MacState::Settle => "SETTLE",
            MacState::Migrate => "MIGRATE",
        };
        println!("  tag {tid}: {s} at offset {offset}");
    }
    assert!(converged_at.is_some());
}
