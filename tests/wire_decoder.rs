//! Differential tests of the one-pass job decoder.
//!
//! `hdp::service::parse_job` reads a submission line in one pass of
//! the pull scanner, with `stimulus.cycles` going straight into rows.
//! It must return exactly what the tree decoder it replaced returns
//! (`tree_decoder`, frozen): the same case and options, or the same
//! error variant, path and detail, on every input. The corpora are
//! the wire format's own fuzz corpora (every truncation, byte
//! mutations, every byte deletion) plus hand-written edge cases.

mod tree_decoder;

use hdp::conform::json::MAX_DEPTH;
use hdp::conform::wire::{job_to_json, repro_to_json};
use hdp::conform::{Case, Divergence, Stimulus};
use hdp::metagen::sampler::sample_spec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tree_decoder::assert_same_decode;

fn sample_case(seed: u64, cycles: usize) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = sample_spec(&mut rng);
    let netlist = spec.instantiate().unwrap();
    let stimulus = Stimulus::sample(&netlist, cycles, &mut rng);
    Case { spec, stimulus }
}

/// A job line with an `options` member appended.
fn with_options(job: &str, options: &str) -> String {
    format!("{},\"options\":{options}}}", job.strip_suffix('}').unwrap())
}

/// The deterministic generator of the wire format's mutation fuzz.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn repro_text() -> String {
    let divergence = Divergence {
        cycle: 1,
        port: Some("q".into()),
        details: vec![("full_sweep".into(), "\"0\"".into())],
    };
    repro_to_json(13, &sample_case(13, 4), &divergence)
}

#[test]
fn every_truncation_decodes_as_the_tree_decoder_does() {
    let job = with_options(
        &job_to_json(&sample_case(13, 4)),
        "{\"mode\":\"full_sweep\",\"vcd\":true,\"span\":false}",
    );
    for text in [repro_text(), job] {
        for end in 0..=text.len() {
            if text.is_char_boundary(end) {
                assert_same_decode(&text[..end]);
            }
        }
    }
}

#[test]
fn byte_mutations_decode_as_the_tree_decoder_does() {
    let job = job_to_json(&sample_case(17, 3));
    let with_opts = with_options(&job, "{\"mode\":\"lowered\",\"telemetry\":true}");
    let mut lcg = Lcg(0x5eed);
    let mut decoded = 0;
    for text in [job, with_opts] {
        let bytes = text.as_bytes();
        for _ in 0..3000 {
            let mut mutated = bytes.to_vec();
            let idx = (lcg.next() as usize) % mutated.len();
            mutated[idx] = (lcg.next() & 0xff) as u8;
            // Printable replacements keep more of the corpus UTF-8.
            if mutated[idx] >= 0x80 {
                mutated[idx] = b' ' + mutated[idx] % 95;
            }
            if let Ok(s) = String::from_utf8(mutated) {
                assert_same_decode(&s);
                decoded += 1;
            }
        }
    }
    assert_eq!(decoded, 6000);
}

#[test]
fn byte_deletions_decode_as_the_tree_decoder_does() {
    let job = job_to_json(&sample_case(19, 2));
    let with_opts = with_options(&job, "{\"verify\":true,\"span\":true}");
    for text in [job, with_opts] {
        for i in 0..text.len() {
            let mut mutated = text.as_bytes().to_vec();
            mutated.remove(i);
            if let Ok(s) = String::from_utf8(mutated) {
                assert_same_decode(&s);
            }
        }
    }
}

#[test]
fn edge_cases_decode_as_the_tree_decoder_does() {
    let job = job_to_json(&sample_case(23, 3));
    let doc = hdp::conform::Json::parse(&job).unwrap();
    let member = |key: &str| doc.get(key).unwrap().to_string();
    let (design, stimulus) = (member("design"), member("stimulus"));
    let stim = doc.get("stimulus").unwrap();
    let (inputs, cycles) = (
        stim.get("inputs").unwrap().to_string(),
        stim.get("cycles").unwrap().to_string(),
    );
    let schema = "\"schema\":\"hdp-conform-repro-v1\"";
    let row_of = |value: &str| {
        let width = stim.get("inputs").unwrap().as_arr().unwrap().len();
        format!("[{}]", vec![value; width].join(","))
    };
    let with_cycles = |cycles: &str| {
        format!(
            "{{{schema},\"design\":{design},\"stimulus\":{{\"inputs\":{inputs},\"cycles\":{cycles}}}}}"
        )
    };
    let mut cases = vec![
        job.clone(),
        // Members in any order, `cycles` before `inputs`.
        format!("{{\"stimulus\":{stimulus},\"design\":{design},{schema}}}"),
        format!(
            "{{\"design\":{design},\"stimulus\":{{\"cycles\":{cycles},\"extra\":[1,{{}}],\"inputs\":{inputs}}},{schema}}}"
        ),
        // Duplicate keys: the first wins, the rest are still read.
        format!("{{{schema},{schema},\"design\":{design},\"stimulus\":{stimulus},\"stimulus\":7}}"),
        format!("{{\"schema\":\"other\",{schema},\"design\":{design},\"stimulus\":{stimulus}}}"),
        format!("{{{schema},\"design\":{design},\"design\":{{}},\"stimulus\":{stimulus}}}"),
        format!(
            "{{{schema},\"design\":{design},\"stimulus\":{{\"inputs\":{inputs},\"cycles\":{cycles},\"cycles\":[[\"x\"]],\"inputs\":3}}}}"
        ),
        format!(
            "{{{schema},\"design\":{design},\"stimulus\":{{\"inputs\":{inputs},\"cycles\":[[\"x\"]],\"cycles\":{cycles}}}}}"
        ),
        format!("{{{schema},\"design\":{design},\"stimulus\":{stimulus},\"stimulus\":[1,]}}"),
        // Stimulus and cycles of the wrong shape.
        format!("{{{schema},\"design\":{design},\"stimulus\":[{stimulus}]}}"),
        format!("{{{schema},\"design\":{design},\"stimulus\":{{\"inputs\":{inputs}}}}}"),
        format!("{{{schema},\"design\":{design},\"stimulus\":{{\"cycles\":{cycles}}}}}"),
        format!("{{{schema},\"design\":{design}}}"),
        format!("{{{schema},\"stimulus\":{stimulus}}}"),
        with_cycles("{}"),
        with_cycles("7"),
        with_cycles("[]"),
        with_cycles("[7]"),
        with_cycles("[[]]"),
        with_cycles("[{\"a\":1}]"),
        with_cycles(&format!("[{},\"row\"]", row_of("1"))),
        // Nested arrays, floats and other non-integers inside a row.
        with_cycles(&format!("[{}]", row_of("[1]"))),
        with_cycles(&format!("[{}]", row_of("[[[]]]"))),
        with_cycles(&format!("[{}]", row_of("1.5"))),
        with_cycles(&format!("[{}]", row_of("-1"))),
        with_cycles(&format!("[{}]", row_of("1e3"))),
        with_cycles(&format!("[{}]", row_of("1e400"))),
        with_cycles(&format!("[{}]", row_of("null"))),
        with_cycles(&format!("[{}]", row_of("\"1\""))),
        with_cycles(&format!("[{}]", row_of("{}"))),
        with_cycles(&format!("[{},[1.5],{}]", row_of("0"), row_of("[2]"))),
        with_cycles(&format!("[{},[{}]]", row_of("0"), "[".repeat(MAX_DEPTH))),
        // The integer range: u64::MAX fits, one more does not.
        with_cycles(&format!("[{}]", row_of("18446744073709551615"))),
        with_cycles(&format!("[{}]", row_of("18446744073709551616"))),
        with_cycles(&format!("[{}]", row_of("00000000000000000000000001"))),
        with_cycles(&format!("[{}]", row_of("99999999999999999999.5"))),
        // Ragged rows and rows after an error.
        with_cycles(&format!("[{},[]]", row_of("0"))),
        with_cycles(&format!("[[\"x\"],{},[]]", row_of("0"))),
        // Whitespace everywhere the grammar allows it.
        job.replace(',', " ,\n\t").replace(':', "\r: "),
        format!("  {job}  \n"),
        format!("{job} x"),
        // Options of every shape.
        with_options(&job, "{\"mode\":\"full_sweep\",\"vcd\":false,\"telemetry\":true,\"verify\":false,\"span\":true}"),
        with_options(&job, "{\"mode\":\"warp\"}"),
        with_options(&job, "{\"mode\":7}"),
        with_options(&job, "{\"vcd\":1}"),
        with_options(&job, "{\"span\":\"yes\"}"),
        with_options(&job, "[]"),
        with_options(&job, "{\"mode\":\"lowered\"},\"options\":{\"mode\":\"warp\"}"),
        with_options(&job, "{\"mode\":\"warp\"},\"options\":{\"mode\":\"lowered\"}"),
        with_options(&job, "{\"mode\":\"full_sweep\",\"mode\":\"warp\"}"),
        // Escapes in keys and strings.
        job.replacen("\"design\"", "\"de\\u0073ign\"", 1),
        job.replacen("\"schema\"", "\"sch\\u00e9ma\"", 1),
        job.replacen("hdp-conform-repro-v1", "hdp-conform-repro-v1\\/", 1),
        format!("{{\"schema\":\"\\u+041\",{}", &job[1..]),
        format!("{{\"schema\":\"\\q\",{}", &job[1..]),
        format!("{{\"schema\":\"caf\u{e9}\\u12\u{e9}\",{}", &job[1..]),
        // Not objects at all.
        String::new(),
        " ".into(),
        "[]".into(),
        "\"hdp-conform-repro-v1\"".into(),
        "null".into(),
        "-".into(),
        "{".into(),
        "{}".into(),
        "{\"schema\"}".into(),
        "{\"schema\":}".into(),
        "{,}".into(),
        "{\"a\":1,}".into(),
        "[1,]".into(),
        "[,1]".into(),
        "tru".into(),
        "\u{e9}".into(),
        // Nesting at, and one past, the bound; and 100 000 `[`.
        format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH)),
        format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1)),
        format!(
            "{}1{}",
            "{\"k\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        ),
        "[".repeat(100_000),
        format!("{{{schema},\"design\":{design},\"stimulus\":{}", "[".repeat(100_000)),
    ];
    cases.push(format!(
        "{{{schema},\"seed\":{},\"design\":{design},\"stimulus\":{stimulus}}}",
        "[".repeat(MAX_DEPTH)
    ));
    for text in &cases {
        assert_same_decode(text);
    }
    // The corpus reaches the decoder's successes and each error kind.
    let results: Vec<_> = cases.iter().map(|t| hdp::service::parse_job(t)).collect();
    assert!(results.iter().any(Result::is_ok));
    for path in [
        "stimulus.cycles",
        "stimulus.inputs",
        "options.mode",
        "design",
    ] {
        assert!(
            results.iter().any(|r| matches!(
                r,
                Err(hdp::conform::WireError::Field { path: p, .. }) if p == path
            )),
            "no case reached {path}"
        );
    }
}
