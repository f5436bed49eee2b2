//! JSON-lines serialization of [`IntervalStats`] — the wire format of the
//! `JsonLinesSink` telemetry sink.
//!
//! One flat JSON object per monitoring interval, one interval per line.
//! Numbers are written with Rust's shortest-round-trip `f64` formatting,
//! so `parse → serialize` reproduces the original line byte for byte; the
//! reverse direction (`serialize → parse`) recovers every field exactly.
//! Lines are written and read through the crate's flat-JSON codec
//! ([`crate::json`]), the same one the sweep store's journal uses.

use hipster_platform::{CoreConfig, Frequency, PowerBreakdown};

use crate::engine::{IntervalStats, MachineConfig};
use crate::json::{JsonObj, ObjWriter};

/// Serializes one interval as a single JSON line (no trailing newline).
///
/// Key order is fixed, so equal stats always produce identical bytes.
/// Non-finite numbers (which the engine never produces, but a custom model
/// could) serialize as `null` and parse back as NaN, keeping every emitted
/// line valid JSON.
pub fn interval_to_jsonl(s: &IntervalStats) -> String {
    let mut w = ObjWriter::with_capacity(512);
    w.num("index", s.index as f64);
    w.num("start_s", s.start_s);
    w.num("duration_s", s.duration_s);
    w.num("n_big", s.config.lc.n_big as f64);
    w.num("n_small", s.config.lc.n_small as f64);
    w.num("lc_big_mhz", f64::from(s.config.lc.big_freq.as_mhz()));
    w.num("lc_small_mhz", f64::from(s.config.lc.small_freq.as_mhz()));
    w.num("big_mhz", f64::from(s.config.big_freq.as_mhz()));
    w.num("small_mhz", f64::from(s.config.small_freq.as_mhz()));
    w.bool("batch_enabled", s.config.batch_enabled);
    w.num("offered_load_frac", s.offered_load_frac);
    w.num("offered_rps", s.offered_rps);
    w.num("arrivals", s.arrivals as f64);
    w.num("completions", s.completions as f64);
    w.num("timeouts", s.timeouts as f64);
    w.num("throughput_rps", s.throughput_rps);
    w.num("tail_latency_s", s.tail_latency_s);
    w.num("mean_latency_s", s.mean_latency_s);
    w.num("queue_len", s.queue_len as f64);
    w.arr("lc_busy", &s.lc_busy);
    w.num("power_big", s.power.big);
    w.num("power_small", s.power.small);
    w.num("power_rest", s.power.rest);
    w.num("energy_j", s.energy_j);
    w.num("batch_ips_big", s.batch_ips_big);
    w.num("batch_ips_small", s.batch_ips_small);
    w.bool("counters_valid", s.counters_valid);
    w.num("migrated_cores", s.migrated_cores as f64);
    w.finish()
}

/// Parses a line produced by [`interval_to_jsonl`] back into stats.
///
/// Returns `None` on malformed JSON, a missing field, or a value of the
/// wrong type — never panics.
pub fn interval_from_jsonl(line: &str) -> Option<IntervalStats> {
    let obj = JsonObj::parse(line)?;
    let num = |k: &str| obj.get_num(k);
    let count = |k: &str| -> Option<usize> {
        let x = num(k)?;
        (x.is_finite() && x >= 0.0 && x.fract() == 0.0).then_some(x as usize)
    };
    let mhz = |k: &str| -> Option<Frequency> {
        let x = num(k)?;
        (x.is_finite() && x >= 0.0 && x <= f64::from(u32::MAX))
            .then(|| Frequency::from_mhz(x as u32))
    };

    let lc = CoreConfig::new(
        count("n_big")?,
        count("n_small")?,
        mhz("lc_big_mhz")?,
        mhz("lc_small_mhz")?,
    );
    Some(IntervalStats {
        index: count("index")? as u64,
        start_s: num("start_s")?,
        duration_s: num("duration_s")?,
        config: MachineConfig {
            lc,
            big_freq: mhz("big_mhz")?,
            small_freq: mhz("small_mhz")?,
            batch_enabled: obj.get_bool("batch_enabled")?,
        },
        offered_load_frac: num("offered_load_frac")?,
        offered_rps: num("offered_rps")?,
        arrivals: count("arrivals")?,
        completions: count("completions")?,
        timeouts: count("timeouts")?,
        throughput_rps: num("throughput_rps")?,
        tail_latency_s: num("tail_latency_s")?,
        mean_latency_s: num("mean_latency_s")?,
        queue_len: count("queue_len")?,
        lc_busy: obj.get_arr("lc_busy")?.to_vec(),
        power: PowerBreakdown {
            big: num("power_big")?,
            small: num("power_small")?,
            rest: num("power_rest")?,
        },
        energy_j: num("energy_j")?,
        batch_ips_big: num("batch_ips_big")?,
        batch_ips_small: num("batch_ips_small")?,
        counters_valid: obj.get_bool("counters_valid")?,
        migrated_cores: count("migrated_cores")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(tail_ms: f64) -> IntervalStats {
        let f = Frequency::from_mhz(1150);
        let fs = Frequency::from_mhz(650);
        IntervalStats {
            index: 7,
            start_s: 7.0,
            duration_s: 1.0,
            config: MachineConfig {
                lc: CoreConfig::new(2, 1, f, fs),
                big_freq: f,
                small_freq: fs,
                batch_enabled: true,
            },
            offered_load_frac: 0.51234,
            offered_rps: 18_444.2,
            arrivals: 18_551,
            completions: 18_490,
            timeouts: 3,
            throughput_rps: 18_490.0,
            tail_latency_s: tail_ms / 1e3,
            mean_latency_s: tail_ms / 2.7e3,
            queue_len: 12,
            lc_busy: vec![0.81, 0.79, 0.33],
            power: PowerBreakdown {
                big: 1.701,
                small: 0.42,
                rest: 1.2,
            },
            energy_j: 3.321,
            batch_ips_big: 2.0e9,
            batch_ips_small: 8.25e8,
            counters_valid: false,
            migrated_cores: 1,
        }
    }

    #[test]
    fn round_trip_recovers_every_field() {
        let s = sample(9.87654321);
        let line = interval_to_jsonl(&s);
        let back = interval_from_jsonl(&line).expect("parses");
        assert_eq!(back, s);
    }

    #[test]
    fn reserialization_is_byte_identical() {
        let s = sample(1.23456);
        let line = interval_to_jsonl(&s);
        let again = interval_to_jsonl(&interval_from_jsonl(&line).unwrap());
        assert_eq!(line, again);
    }

    #[test]
    fn line_is_single_flat_json_object() {
        let line = interval_to_jsonl(&sample(1.0));
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(!line.contains('\n'));
        assert!(line.contains("\"tail_latency_s\":"));
        assert!(line.contains("\"counters_valid\":false"));
    }

    /// The exact bytes of one line: journals already on disk must stay
    /// readable, so the wire format may not drift.
    #[test]
    fn line_bytes_are_pinned() {
        let mut s = sample(2.5);
        s.tail_latency_s = f64::NAN;
        s.lc_busy[1] = f64::INFINITY;
        assert_eq!(
            interval_to_jsonl(&s),
            concat!(
                r#"{"index":7,"start_s":7,"duration_s":1,"n_big":2,"n_small":1,"#,
                r#""lc_big_mhz":1150,"lc_small_mhz":650,"big_mhz":1150,"small_mhz":650,"#,
                r#""batch_enabled":true,"offered_load_frac":0.51234,"offered_rps":18444.2,"#,
                r#""arrivals":18551,"completions":18490,"timeouts":3,"throughput_rps":18490,"#,
                r#""tail_latency_s":null,"mean_latency_s":0.000925925925925926,"queue_len":12,"#,
                r#""lc_busy":[0.81,null,0.33],"power_big":1.701,"power_small":0.42,"#,
                r#""power_rest":1.2,"energy_j":3.321,"batch_ips_big":2000000000,"#,
                r#""batch_ips_small":825000000,"counters_valid":false,"migrated_cores":1}"#,
            )
        );
    }

    #[test]
    fn malformed_lines_return_none() {
        for bad in [
            "",
            "{",
            "not json",
            "{\"index\":}",
            "{\"index\":1}",                        // missing fields
            "{\"index\":\"one\"}",                  // unsupported string value
            "[1,2,3]",                              // not an object
            "{\"index\":1,\"start_s\":0.0,} extra", // trailing garbage
        ] {
            assert!(interval_from_jsonl(bad).is_none(), "{bad:?}");
        }
    }

    #[test]
    fn non_finite_values_stay_valid_json() {
        let mut s = sample(1.0);
        s.offered_rps = f64::INFINITY;
        s.tail_latency_s = f64::NAN;
        s.lc_busy[1] = f64::NAN;
        let line = interval_to_jsonl(&s);
        assert!(!line.contains("inf") && !line.contains("NaN"), "{line}");
        assert!(line.contains("\"offered_rps\":null"));
        let back = interval_from_jsonl(&line).expect("null parses");
        assert!(back.offered_rps.is_nan());
        assert!(back.tail_latency_s.is_nan());
        // Byte-identical re-serialization still holds (null -> NaN -> null).
        assert_eq!(interval_to_jsonl(&back), line);
    }

    #[test]
    fn tolerates_whitespace() {
        let line = interval_to_jsonl(&sample(2.0))
            .replace(":", ": ")
            .replace(",\"", ", \"");
        assert_eq!(interval_from_jsonl(&line), Some(sample(2.0)));
    }
}
