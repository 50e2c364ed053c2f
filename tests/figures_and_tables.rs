//! Reproduction of the paper's figures and qualitative tables.
//!
//! * **Figure 2** — the iterator pattern structure (type-level).
//! * **Figure 3** — the pattern-based model of the example.
//! * **Figure 4** — the `rbuffer_fifo` entity, golden-text compare.
//! * **Figure 5** — the `rbuffer_sram` implementation interface.
//! * **Table 1** — container classification conformance.
//! * **Table 2** — iterator operation conformance.

use hdp::hdl::vhdl;
use hdp::metagen::container_gen::{rbuffer_fifo, rbuffer_sram, ContainerParams};
use hdp::metagen::ops::OpSet;
use hdp::pattern::classify::{ContainerKind, IterKind, IterOp, Traversal};
use hdp::pattern::golden::PixelOp;
use hdp::pattern::model::{Algorithm, VideoPipelineModel};
use hdp::pattern::pixel::PixelFormat;
use hdp::pattern::spec::PhysicalTarget;

#[test]
fn figure4_rbuffer_fifo_vhdl_golden() {
    let nl = rbuffer_fifo(ContainerParams::paper_default(), OpSet::figure4()).unwrap();
    let text = vhdl::emit_entity(nl.entity());
    // The paper's Figure 4, port for port.
    let expected = "\
entity rbuffer_fifo is
  port (
    -- methods
    m_empty : in std_logic;
    m_size : in std_logic;
    m_pop : in std_logic;
    -- params
    data : out std_logic_vector(7 downto 0);
    done : out std_logic;
    -- implementation interface
    p_empty : in std_logic;
    p_read : out std_logic;
    p_data : in std_logic_vector(7 downto 0)
  );
end rbuffer_fifo;
";
    assert_eq!(text, expected);
}

#[test]
fn figure5_rbuffer_sram_implementation_interface() {
    let nl = rbuffer_sram(ContainerParams::paper_default(), OpSet::figure4()).unwrap();
    let text = vhdl::emit_entity(nl.entity());
    // Figure 5 shows "only the differences (the implementation
    // interface)": p_addr[15:0], p_data[7:0], req, ack.
    assert!(text.contains("p_addr : out std_logic_vector(15 downto 0)"));
    assert!(text.contains("p_data : in std_logic_vector(7 downto 0)"));
    assert!(text.contains("req : out std_logic"));
    assert!(text.contains("ack : in std_logic"));
    assert!(text.contains("end rbuffer_sram;"));
    // The functional interface is unchanged from Figure 4.
    assert!(text.contains("m_pop : in std_logic"));
    assert!(text.contains("data : out std_logic_vector(7 downto 0)"));
}

#[test]
fn figure5_architecture_is_a_little_fsm_with_pointers() {
    // "the architecture encloses a little finite state machine that
    // controls memory access, as well as a few registers to store the
    // begin and end pointers of the queue".
    let nl = rbuffer_sram(ContainerParams::paper_default(), OpSet::figure4()).unwrap();
    let arch = vhdl::emit_architecture(&nl, "generated").unwrap();
    assert!(arch.contains("process")); // the FSM case process
    assert!(arch.contains("rising_edge(clk)")); // pointer registers
}

#[test]
fn figure2_iterator_pattern_structure() {
    // The pattern's participants exist with the documented operation
    // split: every iterator kind exposes a subset of the Table 2
    // operation set, and concrete iterators exist per container (the
    // supported_iterators relation).
    for kind in IterKind::ALL {
        let ops = kind.operations();
        assert!(!ops.is_empty());
        assert!(
            ops.iter().all(|op| kind.supports(*op)),
            "{kind} operations consistent"
        );
    }
    for container in ContainerKind::ALL {
        for kind in container.supported_iterators() {
            // A concrete iterator for this (container, kind) pair is
            // constructible: the movement ops it offers are a subset
            // of what the container's traversal classification allows.
            let c = container.classification();
            let trav = c.sequential_input.union(c.sequential_output);
            if kind.supports(IterOp::Inc) && kind != IterKind::Random {
                assert!(trav.allows_forward(), "{container}/{kind}");
            }
            if kind.supports(IterOp::Dec) && kind != IterKind::Random {
                assert!(trav.allows_backward(), "{container}/{kind}");
            }
        }
    }
}

#[test]
fn figure3_model_builds_and_validates() {
    // rbuffer + rbuffer_it + copy + wbuffer_it + wbuffer over FIFO
    // implementations, as drawn.
    let model = VideoPipelineModel::new(
        "figure3",
        PixelFormat::Gray8,
        16,
        8,
        Algorithm::Transform(PixelOp::Identity),
    )
    .unwrap();
    model.validate().unwrap();
    assert_eq!(model.input_target(), PhysicalTarget::FifoCore);
    assert_eq!(model.output_target(), PhysicalTarget::FifoCore);
}

#[test]
fn table1_container_classification() {
    use Traversal::{Backward, Both, Forward, None as NoTrav};
    // The six rows of Table 1, verbatim.
    let expected = [
        (ContainerKind::Stack, false, false, Forward, Backward),
        (ContainerKind::Queue, false, false, Forward, Forward),
        (ContainerKind::ReadBuffer, false, false, Forward, NoTrav),
        (ContainerKind::WriteBuffer, false, false, NoTrav, Forward),
        (ContainerKind::Vector, true, true, Both, Both),
        (ContainerKind::AssocArray, true, true, NoTrav, NoTrav),
    ];
    for (kind, ri, ro, si, so) in expected {
        let c = kind.classification();
        assert_eq!(c.random_input, ri, "{kind} random input");
        assert_eq!(c.random_output, ro, "{kind} random output");
        assert_eq!(c.sequential_input, si, "{kind} sequential input");
        assert_eq!(c.sequential_output, so, "{kind} sequential output");
    }
}

#[test]
fn table2_iterator_operations() {
    // Table 2 rows: operation, meaning, applicability.
    assert_eq!(IterOp::Inc.meaning(), "move forward");
    assert_eq!(IterOp::Dec.meaning(), "move backwards");
    assert_eq!(IterOp::Read.meaning(), "get the element");
    assert_eq!(IterOp::Write.meaning(), "put the element");
    assert_eq!(IterOp::Index.meaning(), "set the current position");
    // inc: F / F,B (and random); dec: B / F,B (and random).
    assert!(IterKind::Forward.supports(IterOp::Inc));
    assert!(IterKind::Bidirectional.supports(IterOp::Inc));
    assert!(!IterKind::Backward.supports(IterOp::Inc));
    assert!(IterKind::Backward.supports(IterOp::Dec));
    assert!(IterKind::Bidirectional.supports(IterOp::Dec));
    assert!(!IterKind::Forward.supports(IterOp::Dec));
    // index: random only.
    for kind in IterKind::ALL {
        assert_eq!(kind.supports(IterOp::Index), kind == IterKind::Random);
    }
}

#[test]
fn pruned_variants_shrink_the_interface() {
    // §3.4: the generator includes "only those resources that are
    // really used by the selected operations".
    use hdp::metagen::ops::MethodOp;
    let full = rbuffer_fifo(ContainerParams::paper_default(), OpSet::figure4()).unwrap();
    let pruned = rbuffer_fifo(
        ContainerParams::paper_default(),
        OpSet::of(&[MethodOp::Pop]),
    )
    .unwrap();
    assert!(pruned.entity().ports().len() < full.entity().ports().len());
    let full_cost = hdp::synth::map_resources(&hdp::synth::dissolve_wrappers(&full).unwrap());
    let pruned_cost = hdp::synth::map_resources(&hdp::synth::dissolve_wrappers(&pruned).unwrap());
    assert!(pruned_cost.luts <= full_cost.luts);
}

#[test]
fn committed_bench_artifacts_parse_and_name_their_schema() {
    use hdp::prelude::Json;

    /// Checks every timed figure (`{median, q1, q3, n}`) under `doc`
    /// for `q1 <= median <= q3` and returns how many there are.
    fn timed_figures(doc: &Json, at: &str) -> usize {
        match doc {
            Json::Obj(members) if doc.get("median").is_some() => {
                let stat = |key: &str| {
                    doc.get(key)
                        .and_then(Json::as_f64)
                        .unwrap_or_else(|| panic!("{at}.{key}"))
                };
                let (q1, median, q3) = (stat("q1"), stat("median"), stat("q3"));
                assert!(q1 <= median && median <= q3, "{at}: {q1} {median} {q3}");
                assert!(doc.get("n").and_then(Json::as_u64).is_some_and(|n| n > 0));
                assert_eq!(members.len(), 4, "{at}");
                1
            }
            Json::Obj(members) => members
                .iter()
                .map(|(key, value)| timed_figures(value, &format!("{at}.{key}")))
                .sum(),
            Json::Arr(items) => items.iter().map(|item| timed_figures(item, at)).sum(),
            _ => 0,
        }
    }

    for (file, schema, figures) in [
        ("BENCH_sched_modes.json", "hdp-bench-sched-modes-v3", 8),
        ("BENCH_profile.json", "hdp-bench-profile-v2", 0),
        ("BENCH_conform.json", "hdp-bench-conform-v5", 0),
        ("BENCH_service.json", "hdp-service-bench-v2", 4),
        ("BENCH_chardb.json", "hdp-bench-chardb-v1", 0),
    ] {
        let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(schema),
            "{file}"
        );
        assert_eq!(timed_figures(&doc, file), figures, "{file}");
    }
}
