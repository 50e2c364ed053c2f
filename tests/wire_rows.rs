//! Differential tests of the stimulus-row fast path.
//!
//! The wire decoder reads a row of plain integers in one byte loop and
//! hands the rest of the row to the token path at the first element
//! that loop does not take: a sign, a fraction or an exponent, a
//! value past `u64::MAX`, anything but a number, or a separator other
//! than `,` and `]`. `hdp::service::parse_job` must still return what
//! the frozen tree decoder (`tree_decoder`) returns, errors and byte
//! offsets included, on inputs next to every such exit.

mod tree_decoder;

use hdp::conform::wire::job_to_json;
use hdp::conform::{Case, Stimulus, WireError};
use hdp::metagen::sampler::sample_spec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tree_decoder::assert_same_decode;

/// A sampled job with at least three inputs, so every row has a first,
/// a middle and a last element.
fn wide_case(cycles: usize) -> Case {
    (0..)
        .find_map(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let spec = sample_spec(&mut rng);
            let netlist = spec.instantiate().unwrap();
            let stimulus = Stimulus::sample(&netlist, cycles, &mut rng);
            (stimulus.inputs.len() >= 3).then_some(Case { spec, stimulus })
        })
        .unwrap()
}

/// A job line split around its `cycles` value, the last member of the
/// document's last member.
struct Line {
    head: String,
    rows: Vec<Vec<String>>,
}

impl Line {
    fn new(case: &Case) -> Self {
        let job = job_to_json(case);
        let at = job.rfind("\"cycles\":").unwrap() + "\"cycles\":".len();
        assert!(job.ends_with("]}}"), "`cycles` closes the document");
        let rows = case
            .stimulus
            .cycles
            .iter()
            .map(|row| row.iter().map(u64::to_string).collect())
            .collect();
        Self {
            head: job[..at].to_owned(),
            rows,
        }
    }

    /// The line with `cycles` written from `rows`, each row's elements
    /// joined by `sep`.
    fn render(&self, rows: &[Vec<String>], sep: &str) -> String {
        let rows: Vec<String> = rows
            .iter()
            .map(|row| format!("[{}]", row.join(sep)))
            .collect();
        format!("{}[{}]}}}}", self.head, rows.join(","))
    }

    fn text(&self) -> String {
        self.render(&self.rows, ",")
    }

    /// The line with element `k` of row `r` replaced by `token`.
    fn with_element(&self, r: usize, k: usize, token: &str) -> String {
        let mut rows = self.rows.clone();
        rows[r][k] = token.to_owned();
        self.render(&rows, ",")
    }

    /// The line with row `r` replaced by the raw text `row`.
    fn with_row(&self, r: usize, row: &str) -> String {
        let mut rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| format!("[{}]", row.join(",")))
            .collect();
        rows[r] = row.to_owned();
        format!("{}[{}]}}}}", self.head, rows.join(","))
    }
}

#[test]
fn a_long_line_decodes_as_the_tree_decoder_does() {
    let case = wide_case(1024);
    let line = Line::new(&case);
    let text = line.text();
    assert_same_decode(&text);
    let (decoded, _) = hdp::service::parse_job(&text).unwrap();
    assert_eq!(decoded.stimulus, case.stimulus);

    // Whitespace around every token of the rows, then of the document.
    let spaced = format!(
        "{}[ {} ]}}}}",
        line.head,
        line.rows
            .iter()
            .map(|row| format!("\t[ {} \r]\n", row.join(" ,\n ")))
            .collect::<Vec<_>>()
            .join(" , ")
    );
    assert_same_decode(&spaced);
    assert_eq!(
        hdp::service::parse_job(&spaced).unwrap().0.stimulus,
        case.stimulus
    );
    assert_same_decode(&text.replace(',', " ,\n\t").replace(':', "\r: "));
}

#[test]
fn every_exit_of_the_row_loop_decodes_as_the_tree_decoder_does() {
    let line = Line::new(&wide_case(8));
    let width = line.rows[0].len();
    let tokens = [
        // Numbers the loop takes, at the edges of its range.
        "0",
        "007",
        "000000000000000000001",
        "18446744073709551615",
        // Numbers it hands to the token path.
        "18446744073709551616",
        "123456789012345678901",
        "99999999999999999999.5",
        "-0",
        "-1",
        "1.0",
        "1e3",
        "1E3",
        "1.",
        "1e",
        "-",
        // Values that are not numbers.
        "null",
        "true",
        "\"7\"",
        "[1]",
        "[]",
        "{}",
        // A separator the loop does not know, and whitespace.
        "1 2",
        "1;2",
        " 5 ",
        "\t\n5\r",
    ];
    let mut results = Vec::new();
    for r in [0, line.rows.len() / 2, line.rows.len() - 1] {
        for k in [0, width / 2, width - 1] {
            for token in tokens {
                let text = line.with_element(r, k, token);
                assert_same_decode(&text);
                results.push(hdp::service::parse_job(&text));
            }
        }
        for row in [
            "[1,]", "[,1]", "[1 2]", "[1,,2]", "[]", "[ ]", "[1", "[1,", "7", "null",
        ] {
            let text = line.with_row(r, row);
            assert_same_decode(&text);
            results.push(hdp::service::parse_job(&text));
        }
    }
    // The corpus reaches the decoder's successes, the field errors of
    // a bad row and the syntax errors of a bad separator.
    assert!(results.iter().any(Result::is_ok));
    assert!(results
        .iter()
        .any(|r| matches!(r, Err(WireError::Field { path, .. }) if path == "stimulus.cycles")));
    assert!(results
        .iter()
        .any(|r| matches!(r, Err(WireError::Syntax { .. }))));
}

#[test]
fn every_truncation_of_a_64_row_line_decodes_as_the_tree_decoder_does() {
    let text = Line::new(&wide_case(64)).text();
    for end in 0..=text.len() {
        if text.is_char_boundary(end) {
            assert_same_decode(&text[..end]);
        }
    }
}
