//! Hot-frame edit goldens.
//!
//! `tests/golden/hot_frame_edits.txt` holds what `decode_request` and
//! `decode_response` make of every single-byte edit and every truncation
//! of two sample hot frames: an eval request and an eval answer whose
//! report carries `"NaN"`, `"inf"`, `"-inf"` and `-0.0`.  An edit deletes
//! the byte at an offset, or inserts or replaces it with one of the probe
//! bytes; a truncation keeps the bytes before an offset.  Each line of the
//! fixture names a run of edits, comma-separated, and their one outcome:
//!
//! * `<edits>\tok =` — each edited line decodes to the sample frame's
//!   value (its re-encoding is the sample line);
//! * `<edits>\tok ~` — each decodes to a value that re-encodes to the
//!   edited line itself;
//! * `<edits>\tok <line>` — each decodes to a value that re-encodes to
//!   `<line>`;
//! * `<edits>\t<kind>\t<detail>` — each decodes to that error frame.
//!
//! Edits are `t<at>` (truncate), `d<at>` (delete), `i<at>+<hex>` (insert)
//! and `r<at>=<hex>` (replace), listed offset by offset; an edit that gives
//! a line an earlier edit of the same frame gave is left out.  The fixture was blessed with the
//! codec that decoded through a `Json` tree, so it pins this codec's
//! values, error kinds and detail texts, "invalid JSON" texts included, to
//! that independent decoder's.
//!
//! To regenerate after an *intentional* change to what a frame decodes to:
//!
//! ```sh
//! CROSSLIGHT_GOLDEN_BLESS=1 cargo test -p crosslight-server --test hot_frame_edits
//! ```

use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::PathBuf;

use crosslight_server::wire::{
    decode_request, decode_response, encode_request, encode_response, ErrorFrame,
};

/// The two sample frames, each exactly as the encoders write it.
const REQUEST: &str = r#"{"v":1,"id":7,"op":"eval","config":{"variant":"Cross_opt_TED","dims":[20,150,100,60],"resolution_bits":16},"model":"lenet5_sign_mnist"}"#;
const ANSWER: &str = r#"{"v":1,"id":12,"ok":{"type":"eval","cache_hit":true,"worker":1,"report":{"power_mw":{"laser":"NaN","tuning":"inf","detection":"-inf","conversion":-0.0,"control":3600.0},"area_mm2":{"mr_banks":1.2,"arm_devices":6.4,"unit_electronics":14.399999999999999},"metrics":{"conv_time_s":0.00002,"fc_time_s":0.5,"electronic_time_s":0.0000003,"fps":1250.75,"energy_per_inference_pj":2.5,"energy_per_bit_pj":0.125,"kfps_per_watt":7.0,"power_w":19.5},"resolution_bits":16}}}"#;

/// The bytes an edit inserts or replaces with.
const PROBES: &[u8; 12] = b" \"\\,:}]09-.e";

/// Every single-byte edit and truncation of `line`, each with its name,
/// a line at most once.
fn edits(line: &str) -> Vec<(String, String)> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    let mut push = |name: String, edited: Vec<u8>| {
        // A byte edit may split a UTF-8 character; the sample lines are
        // ASCII, so every edited line is still a `str`.
        let edited = String::from_utf8(edited).expect("the sample lines are ASCII");
        if seen.insert(edited.clone()) {
            out.push((name, edited));
        }
    };
    for at in 0..=bytes.len() {
        let (head, tail) = bytes.split_at(at);
        push(format!("t{at}"), head.to_vec());
        if !tail.is_empty() {
            push(format!("d{at}"), [head, &tail[1..]].concat());
        }
        for &probe in PROBES {
            push(
                format!("i{at}+{probe:02x}"),
                [head, &[probe], tail].concat(),
            );
            if !tail.is_empty() {
                push(
                    format!("r{at}={probe:02x}"),
                    [head, &[probe], &tail[1..]].concat(),
                );
            }
        }
    }
    out
}

/// What decoding `edited` gives, as a fixture line's outcome.
fn outcome(sample: &str, edited: &str, decoded: Result<String, ErrorFrame>) -> String {
    match decoded {
        Ok(line) if line == sample => "ok =".to_string(),
        Ok(line) if line == edited => "ok ~".to_string(),
        Ok(line) => format!("ok {line}"),
        Err(frame) => format!("{}\t{}", frame.kind.as_str(), frame.detail.escape_debug()),
    }
}

fn render() -> String {
    let mut out = String::from("hot_frame_edits/v1\n");
    for (sample, is_request) in [(REQUEST, true), (ANSWER, false)] {
        let _ = writeln!(out, "→ {sample}");
        let mut runs: Vec<(Vec<String>, String)> = Vec::new();
        for (name, edited) in edits(sample) {
            let decoded = if is_request {
                decode_request(&edited).map(|r| encode_request(&r))
            } else {
                decode_response(&edited).map(|r| encode_response(&r))
            };
            let outcome = outcome(sample, &edited, decoded);
            match runs.last_mut() {
                Some((names, last)) if *last == outcome => names.push(name),
                _ => runs.push((vec![name], outcome)),
            }
        }
        for (names, outcome) in runs {
            let _ = writeln!(out, "{}\t{outcome}", names.join(","));
        }
    }
    out
}

#[test]
fn every_single_byte_edit_of_the_sample_hot_frames_decodes_as_the_fixture_says() {
    assert_eq!(
        decode_request(REQUEST)
            .map(|r| encode_request(&r))
            .as_deref(),
        Ok(REQUEST)
    );
    assert_eq!(
        decode_response(ANSWER)
            .map(|r| encode_response(&r))
            .as_deref(),
        Ok(ANSWER)
    );
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/hot_frame_edits.txt");
    let rendered = render();
    if std::env::var_os("CROSSLIGHT_GOLDEN_BLESS").is_some() {
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|err| {
        panic!("missing golden fixture {path:?} ({err}); run with CROSSLIGHT_GOLDEN_BLESS=1")
    });
    // Line by line, so a drift names its edit rather than dumping the file.
    for (i, (actual, expected)) in rendered.lines().zip(expected.lines()).enumerate() {
        assert_eq!(actual, expected, "fixture line {}", i + 1);
    }
    assert_eq!(rendered.lines().count(), expected.lines().count());
}
