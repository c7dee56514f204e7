//! Figure 13 — memory footprint: each baseline alone vs NuevoMatch's
//! remainder + RQ-RMI when that baseline indexes the remainder.
//!
//! Paper (500K geomean): NuevoMatch compresses the index 4.9× / 8× / 82× vs
//! CutSplit / NeuroCuts / TupleMerge; the remainder fits L1/L2 while the
//! stand-alone indexes spill to L3. Footprints count index structures only
//! (rules excluded) — §5.2.1.

use crate::{nc_config, nm_cs, nm_nc, nm_tm, suite, Ctx, Outcome};
use nm_analysis::{geomean, Table};
use nm_common::memsize::human_bytes;
use nm_common::Classifier;
use nm_cutsplit::{CutSplit, NeuroCuts};
use nm_tuplemerge::TupleMerge;

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let s = &ctx.scale;
    out.say(format!("Figure 13 — index memory, geomean over {} apps per size\n", s.apps));
    let mut table = Table::new(&[
        "rules",
        "cs",
        "nm-rem+rmi (cs)",
        "nc",
        "nm-rem+rmi (nc)",
        "tm",
        "nm-rem+rmi (tm)",
        "x-cs",
        "x-nc",
        "x-tm",
    ]);

    for &n in &s.sizes {
        let mut bytes: Vec<Vec<f64>> = vec![Vec::new(); 6];
        for (_, set) in suite(n, s) {
            let cs = CutSplit::build(&set);
            let nmcs = nm_cs(&set);
            let nc = NeuroCuts::with_config(&set, nc_config(!s.full));
            let nmnc = nm_nc(&set, !s.full);
            let tm = TupleMerge::build(&set);
            let nmtm = nm_tm(&set);
            for (i, b) in [
                cs.memory_bytes(),
                nmcs.memory_bytes(),
                nc.memory_bytes(),
                nmnc.memory_bytes(),
                tm.memory_bytes(),
                nmtm.memory_bytes(),
            ]
            .into_iter()
            .enumerate()
            {
                bytes[i].push(b as f64);
            }
        }
        let gm: Vec<f64> = bytes.iter().map(|v| geomean(v)).collect();
        let mut row = vec![format!("{n}")];
        row.extend(gm.iter().map(|&b| human_bytes(b as usize)));
        row.extend(gm.chunks(2).map(|pair| format!("{:.1}x", pair[0] / pair[1])));
        table.row(row);
    }
    out.table("memory", table);
    out.say("\nPaper 500K compression: 4.9x (cs), 8x (nc), 82x (tm). L1 = 32KB, L2 = 1MB.");
    out
}
