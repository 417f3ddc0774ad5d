//! Output checks. Every response the benchmark receives passes one
//! of these; a failure counts against `error_rate`.

use crate::json::Value;
use crate::WM_LEN;

type Check = Result<(), String>;

/// The envelope is `{"ok":true,…}`.
pub fn ok(resp: &Value) -> Check {
    match resp.bool_of("ok") {
        Some(true) => Ok(()),
        _ => Err(format!("error envelope: {}", resp.str_of("error").unwrap_or("no \"ok\":true"))),
    }
}

/// What a detection must report: the mark a whole-relation decode of
/// the same marked bytes gives, and how many of the claim's bits it
/// matches.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    pub mark: String,
    pub matched: usize,
}

fn bits(resp: &Value, matched: usize) -> Check {
    let got = (resp.num_of("matched_bits"), resp.num_of("total_bits"));
    if got == (Some(matched as f64), Some(WM_LEN as f64)) {
        Ok(())
    } else {
        Err(format!("matched {:?} of {:?} bits, expected {matched}/{WM_LEN}", got.0, got.1))
    }
}

/// `detect_at`: the decoded mark and its match against the claim are
/// those of a whole-relation decode of the version's bytes. With
/// `evidence`, the response carries a bundle.
pub fn detect(resp: &Value, want: &Expected, evidence: bool) -> Check {
    ok(resp)?;
    if resp.str_of("mark") != Some(want.mark.as_str()) {
        return Err(format!("decoded mark {:?}, expected {}", resp.str_of("mark"), want.mark));
    }
    bits(resp, want.matched)?;
    if evidence && resp.str_of("evidence").is_none_or(str::is_empty) {
        return Err("detect_at with evidence returned no bundle".into());
    }
    Ok(())
}

/// `verify_evidence`: verified, with the mark and match of the
/// `detect_at` that produced the bundle, and the claim it was asked.
pub fn verify(resp: &Value, claim: &str, want: &Expected) -> Check {
    ok(resp)?;
    if resp.bool_of("verified") != Some(true) {
        return Err("bundle not verified".into());
    }
    if resp.str_of("mark") != Some(want.mark.as_str()) || resp.str_of("claimed") != Some(claim) {
        return Err(format!(
            "bundle pins mark {:?} for claim {:?}, expected {} for {claim}",
            resp.str_of("mark"),
            resp.str_of("claimed"),
            want.mark
        ));
    }
    bits(resp, want.matched)
}

/// `update`: one dirty segment, no full fallback, every row returned.
pub fn update(resp: &Value, rows: usize) -> Check {
    ok(resp)?;
    if resp.num_of("dirty_segments") != Some(1.0) || resp.bool_of("full_fallback") != Some(false) {
        return Err(format!(
            "update re-marked {:?} dirty segments (fallback {:?}), expected 1 and none",
            resp.num_of("dirty_segments"),
            resp.bool_of("full_fallback")
        ));
    }
    let got = resp.str_of("csv").map_or(0, |csv| csv.lines().count().saturating_sub(1));
    if got != rows {
        return Err(format!("update returned {got} rows, expected {rows}"));
    }
    Ok(())
}

/// `trace`: the ranking — buyers in order, with their matched bits —
/// is the one an in-process trace of the same leaked copy gives.
pub fn trace(resp: &Value, want: &[(String, usize)]) -> Check {
    ok(resp)?;
    let results = resp.arr_of("results").ok_or("trace returned no results")?;
    let got: Vec<(Option<&str>, Option<f64>)> =
        results.iter().map(|r| (r.str_of("buyer"), r.num_of("matched_bits"))).collect();
    let expected: Vec<(Option<&str>, Option<f64>)> =
        want.iter().map(|(b, m)| (Some(b.as_str()), Some(*m as f64))).collect();
    if got == expected {
        Ok(())
    } else {
        Err(format!("trace ranked {got:?}, expected {expected:?}"))
    }
}

/// `mark_delta`: a non-empty hex delta blob.
pub fn mark_delta(resp: &Value) -> Check {
    ok(resp)?;
    match resp.str_of("delta") {
        Some(hex) if !hex.is_empty() => Ok(()),
        _ => Err("mark_delta returned no delta".into()),
    }
}

/// `catmark decode --claim`: the claim matches in full.
pub fn cli_decode(stdout: &str, claim: &str) -> Check {
    let want = format!("claim match      {WM_LEN}/{WM_LEN} bits");
    if stdout.contains(&want) && stdout.contains(&format!("decoded mark     {claim}")) {
        Ok(())
    } else {
        Err(format!("decode did not report {claim} at {WM_LEN}/{WM_LEN}: {stdout:?}"))
    }
}

/// `catmark verify-evidence`: verified, decoding the claimed mark.
pub fn cli_verify(stdout: &str, claim: &str) -> Check {
    let claim_line = format!("claim           {claim} — {WM_LEN}/{WM_LEN} bits match");
    if stdout.contains("evidence bundle VERIFIED")
        && stdout.contains(&format!("decoded         {claim}"))
        && stdout.contains(&claim_line)
    {
        Ok(())
    } else {
        Err(format!("verify-evidence did not verify {claim}: {stdout:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn want(mark: &str, matched: usize) -> Expected {
        Expected { mark: mark.into(), matched }
    }

    const GOOD_DETECT: &str =
        r#"{"ok":true,"mark":"1011001110","matched_bits":10,"total_bits":10,"evidence":"434d"}"#;

    #[test]
    fn detect_accepts_the_expected_decode_and_rejects_a_wrong_mark() {
        let good = parse(GOOD_DETECT).unwrap();
        assert!(detect(&good, &want("1011001110", 10), true).is_ok());
        assert!(detect(&good, &want("1011001111", 10), false).is_err());
        assert!(detect(&good, &want("1011001110", 9), false).is_err());
        let partial =
            parse(r#"{"ok":true,"mark":"1011001110","matched_bits":9,"total_bits":10}"#).unwrap();
        assert!(detect(&partial, &want("1011001110", 10), false).is_err());
        assert!(detect(&partial, &want("1011001110", 9), false).is_ok());
        assert!(detect(&partial, &want("1011001110", 9), true).is_err(), "no bundle");
    }

    #[test]
    fn error_envelopes_fail_every_check() {
        let err = parse(r#"{"ok":false,"error":"unknown version 9"}"#).unwrap();
        assert!(ok(&err).unwrap_err().contains("unknown version 9"));
        assert!(detect(&err, &want("1011001110", 10), false).is_err());
        assert!(verify(&err, "1011001110", &want("1011001110", 10)).is_err());
        assert!(update(&err, 0).is_err());
        assert!(trace(&err, &[]).is_err());
        assert!(mark_delta(&err).is_err());
    }

    #[test]
    fn verify_rejects_unverified_and_foreign_bundles() {
        let text = r#"{"ok":true,"verified":true,"mark":"1011001110","claimed":"1011001110","matched_bits":10,"total_bits":10}"#;
        let good = parse(text).unwrap();
        assert!(verify(&good, "1011001110", &want("1011001110", 10)).is_ok());
        assert!(verify(&good, "0000000000", &want("1011001110", 10)).is_err());
        assert!(verify(&good, "1011001110", &want("0000000000", 10)).is_err());
        let unverified = parse(&text.replace("\"verified\":true", "\"verified\":false")).unwrap();
        assert!(verify(&unverified, "1011001110", &want("1011001110", 10)).is_err());
    }

    #[test]
    fn update_and_trace_checks() {
        let upd = parse(
            r#"{"ok":true,"dirty_segments":1,"full_fallback":false,"csv":"k,v\n1,2\n3,4\n"}"#,
        )
        .unwrap();
        assert!(update(&upd, 2).is_ok());
        assert!(update(&upd, 3).is_err());
        let fallback =
            parse(r#"{"ok":true,"dirty_segments":6,"full_fallback":true,"csv":""}"#).unwrap();
        assert!(update(&fallback, 0).is_err());

        let ranked = parse(
            r#"{"ok":true,"results":[
              {"buyer":"b1","matched_bits":10,"total_bits":10,"false_positive":0.001},
              {"buyer":"b2","matched_bits":6,"total_bits":10,"false_positive":0.37}]}"#,
        )
        .unwrap();
        let expected = [("b1".to_string(), 10), ("b2".to_string(), 6)];
        assert!(trace(&ranked, &expected).is_ok());
        assert!(trace(&ranked, &[expected[1].clone(), expected[0].clone()]).is_err());
        assert!(trace(&ranked, &[("b1".to_string(), 9), expected[1].clone()]).is_err());
        assert!(trace(&ranked, &expected[..1]).is_err());
    }

    #[test]
    fn cli_checks() {
        let decoded = "decoded mark     1011001110\nclaim match      10/10 bits\n";
        assert!(cli_decode(decoded, "1011001110").is_ok());
        assert!(cli_decode(decoded, "1011001111").is_err());
        assert!(cli_decode(
            "decoded mark     1011001110\nclaim match      9/10 bits\n",
            "1011001110"
        )
        .is_err());
        let verified = "b: evidence bundle VERIFIED\ndecoded         1011001110\nclaim           1011001110 — 10/10 bits match, chance odds 9.77e-4";
        assert!(cli_verify(verified, "1011001110").is_ok());
        assert!(cli_verify(&verified.replace("VERIFIED", "REJECTED"), "1011001110").is_err());
    }
}
