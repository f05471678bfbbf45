//! The spec's `device=` line: one of the five RNIC profiles behind
//! Table I's eight systems, then one `field=value` token per field an
//! edit (an ablation's knockout) moved, so every profile round-trips
//! exactly: `device=cx4 damming=0`.

use ibsim_event::SimTime;
use ibsim_fabric::LinkSpec;
use ibsim_verbs::DeviceProfile;

/// The named profiles, by spec token.
const NAMES: [&str; 5] = ["cx3", "cx4", "cx4edr", "cx5", "cx6"];

/// The profile a spec token names.
fn named(token: &str) -> Option<DeviceProfile> {
    Some(match token {
        "cx3" => DeviceProfile::connectx3(),
        "cx4" => DeviceProfile::connectx4(LinkSpec::fdr()),
        "cx4edr" => DeviceProfile::connectx4(LinkSpec::edr()),
        "cx5" => DeviceProfile::connectx5(),
        "cx6" => DeviceProfile::connectx6(),
        _ => return None,
    })
}

/// One profile field as the `device=` line spells it: times in
/// nanoseconds, the flag as 0/1. `set` refuses a value the field cannot
/// hold.
struct Field {
    name: &'static str,
    get: fn(&DeviceProfile) -> u64,
    set: fn(&mut DeviceProfile, u64) -> Option<()>,
}

/// A [`Field`] for `p.<path>` spelled `name`: a `SimTime` in
/// nanoseconds (`ns`), a `u64` as is (`raw`), a narrower integer checked
/// on the way in (`narrow`).
macro_rules! field {
    ($name:literal, ns, $($f:ident).+) => {
        Field {
            name: $name,
            get: |p| p.$($f).+.as_ns(),
            set: |p, v| {
                p.$($f).+ = SimTime::from_ns(v);
                Some(())
            },
        }
    };
    ($name:literal, raw, $($f:ident).+) => {
        Field {
            name: $name,
            get: |p| p.$($f).+,
            set: |p, v| {
                p.$($f).+ = v;
                Some(())
            },
        }
    };
    ($name:literal, narrow, $($f:ident).+) => {
        Field {
            name: $name,
            get: |p| p.$($f).+.into(),
            set: |p, v| {
                p.$($f).+ = v.try_into().ok()?;
                Some(())
            },
        }
    };
}

/// Every field but the generation, which the name carries.
const FIELDS: [Field; 17] = [
    field!("link_ns", ns, link.latency),
    field!("link_gbps", raw, link.bandwidth_gbps),
    field!("min_cack", narrow, min_cack),
    field!("timeout_stretch_pm", raw, timeout_stretch_pm),
    field!("rnr_stretch_pm", raw, rnr_stretch_pm),
    Field {
        name: "damming",
        get: |p| p.damming.into(),
        set: |p, v| {
            p.damming = [false, true].get(usize::try_from(v).ok()?).copied()?;
            Some(())
        },
    },
    field!("ghost_lookback_ns", ns, ghost_lookback),
    field!("odp_client_retx_ns", ns, odp_client_retx),
    field!("fault_min_ns", ns, fault_latency_min),
    field!("fault_max_ns", ns, fault_latency_max),
    field!("resume_slots", narrow, resume_slots),
    field!("resume_cost_ns", ns, resume_cost),
    field!("irq_cost_ns", ns, irq_cost),
    field!("irq_burst", narrow, irq_burst),
    field!("send_overhead_ns", ns, send_overhead),
    field!("recv_overhead_ns", ns, recv_overhead),
    field!("timer_load_pm", raw, timer_load_coeff_pm),
];

/// Every duration field of `profile` (those spelled `*_ns`): its spec
/// name and nanoseconds.
pub(crate) fn durations(profile: &DeviceProfile) -> impl Iterator<Item = (&'static str, u64)> + '_ {
    let ns = FIELDS.iter().filter(|f| f.name.ends_with("_ns"));
    ns.map(|f| (f.name, (f.get)(profile)))
}

/// The `device=` value for `profile`: the first name of its generation
/// on its link (else of its generation), then every field that differs.
pub(crate) fn render(profile: &DeviceProfile) -> String {
    let same_model = |t: &&str| named(t).is_some_and(|p| p.model == profile.model);
    let on_link = |t: &&str| named(t).is_some_and(|p| p.link == profile.link);
    let name = NAMES
        .into_iter()
        .filter(same_model)
        .find(on_link)
        .or_else(|| NAMES.into_iter().find(same_model))
        .unwrap_or_else(|| unreachable!("invariant: every DeviceModel has a name"));
    let base = named(name).unwrap_or_else(|| unreachable!("invariant: NAMES are named"));
    let mut out = name.to_owned();
    for f in FIELDS.iter().filter(|f| (f.get)(profile) != (f.get)(&base)) {
        out.push_str(&format!(" {}={}", f.name, (f.get)(profile)));
    }
    out
}

/// Parses a `device=` value produced by [`render`].
pub(crate) fn parse(value: &str) -> Result<DeviceProfile, String> {
    let mut tokens = value.split(' ');
    let name = tokens.next().unwrap_or_default();
    let mut profile = named(name).ok_or_else(|| format!("unknown device {name:?}"))?;
    for token in tokens {
        let (key, v) = token
            .split_once('=')
            .ok_or_else(|| format!("bad device field {token:?}"))?;
        let field = FIELDS
            .iter()
            .find(|f| f.name == key)
            .ok_or_else(|| format!("unknown device field {key:?}"))?;
        let n = v.parse().map_err(|_| format!("bad number {v:?}"))?;
        (field.set)(&mut profile, n).ok_or_else(|| format!("device {key}={v} out of range"))?;
    }
    Ok(profile)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_renders_as_itself() {
        for name in NAMES {
            let p = named(name).expect("named");
            assert_eq!(render(&p), name);
            assert_eq!(parse(name), Ok(p));
        }
    }

    /// `ablation`'s four knockouts, and an edit of every field at once.
    #[test]
    fn edited_profiles_round_trip_exactly() {
        let cx4 = DeviceProfile::connectx4(LinkSpec::fdr());
        let knockouts = [
            DeviceProfile {
                damming: false,
                ..cx4.clone()
            },
            DeviceProfile {
                rnr_stretch_pm: 1000,
                ..cx4.clone()
            },
            DeviceProfile {
                resume_slots: 1024,
                ..cx4.clone()
            },
            DeviceProfile {
                irq_burst: 1,
                ..cx4.clone()
            },
        ];
        assert_eq!(render(&knockouts[0]), "cx4 damming=0");
        let mut all = DeviceProfile::connectx5();
        for f in &FIELDS {
            let v = (f.get)(&all) ^ 1;
            (f.set)(&mut all, v).expect("fits");
        }
        for p in knockouts.iter().chain([&all]) {
            assert_eq!(parse(&render(p)).as_ref(), Ok(p), "{}", render(p));
        }
    }

    #[test]
    fn hostile_device_lines_are_errors() {
        for line in [
            "cx7",
            "",
            "cx4 damming=2",
            "cx4 min_cack=256",
            "cx4 irq_burst=4294967296",
            "cx4 link_gbps=-1",
            "cx4 colour=1",
            "cx4 damming",
        ] {
            assert!(parse(line).is_err(), "{line:?} parsed");
        }
        let p = parse("cx4 link_gbps=0").expect("parses");
        assert!(p.link.validate().is_err(), "Scenario::validate refuses it");
    }
}
