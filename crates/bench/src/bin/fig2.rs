//! Regenerates Fig. 2: actual time-to-timeout `T_o` measured by varying
//! `C_ack` on all eight systems of Table I, with the paper's wrong-LID
//! methodology (`C_retry = 7`, `T_o = t/8`).

use ibsim_bench::{header, quick_mode, row};
use ibsim_odp::{experiment::fig2_curve, SystemProfile};

fn main() {
    let cacks: Vec<u8> = if quick_mode() {
        vec![1, 8, 12, 16, 18]
    } else {
        (1..=21).collect()
    };
    header("Fig. 2: T_o [s] vs C_ack (rows: C_ack, columns: system)");
    let systems = SystemProfile::all();
    let curves: Vec<_> = systems
        .iter()
        .map(|s| fig2_curve(s, cacks.iter().copied()))
        .collect();

    // CSV header.
    print!("cack");
    for s in &systems {
        print!(",{}", s.name.replace(',', ";"));
    }
    println!(",T_tr_theoretical,4T_tr_theoretical");
    for (i, &cack) in cacks.iter().enumerate() {
        print!("{cack}");
        for c in &curves {
            print!(",{:.4}", c[i].t_o.as_secs_f64());
        }
        let t_tr = ibsim_verbs::t_tr(cack)
            .expect("invariant: sweep range keeps cack >= 1")
            .as_secs_f64();
        println!(",{t_tr:.6},{:.6}", 4.0 * t_tr);
    }

    header("Estimated lower limits (minimum acceptable C_ack)");
    println!(
        "{}",
        row(
            &["System".into(), "floor T_o".into(), "est. c0".into()],
            &[24, 12, 8]
        )
    );
    for (s, c) in systems.iter().zip(&curves) {
        println!(
            "{}",
            row(
                &[
                    s.name.into(),
                    format!("{}", c[0].t_o),
                    s.device.min_cack.to_string(),
                ],
                &[24, 12, 8]
            )
        );
    }
    println!(
        "\nPaper reference: lower limits ~30 ms for ConnectX-5 (c0=12) and\n\
         ~500 ms for the others (c0=16); all non-HCr systems lie on almost\n\
         the same line."
    );
}
