//! Generated associative-array container: the last Table 1 row as a
//! metamodel specialisation.
//!
//! A direct-mapped store over on-chip block RAM with a tag compare —
//! the realistic silicon form of associative access. The random
//! iterator's `pos` operand carries the key; `index`+`write` binds it,
//! `index`+`read` looks it up, with a `found` result pin beside
//! `done`.

use crate::container_gen::ContainerParams;
use crate::fsm::{state_bits, Rtl};
use crate::ops::{MethodOp, OpSet};
use hdp_hdl::prim::{CmpKind, Prim};
use hdp_hdl::{Entity, HdlError, Netlist, PortDir};

/// Generates the associative array over block RAM.
///
/// The store holds `depth` slots of `1 (valid) + key + value` bits;
/// the slot index is the key modulo the (power-of-two) depth, i.e.
/// the key's low bits — a slice, free in hardware. Writes evict any
/// previous occupant of the slot; reads compare the stored tag and
/// report hit/miss on `found`, both with the one-cycle latency of the
/// synchronous RAM.
///
/// # Errors
///
/// Propagates netlist-construction failures; rejects an op set
/// without both `read` and `write` (an associative array you can
/// neither fill nor query has no interface), and key widths that do
/// not fit the 64-bit slot word.
pub fn assoc_bram(
    params: ContainerParams,
    key_width: usize,
    ops: OpSet,
) -> Result<Netlist, HdlError> {
    if !ops.contains(MethodOp::Read) && !ops.contains(MethodOp::Write) {
        return Err(HdlError::Unconnected {
            context: "assoc_bram needs read and/or write".into(),
        });
    }
    let w = params.data_width;
    let aw = state_bits(params.depth.next_power_of_two().max(2));
    if key_width < aw {
        return Err(HdlError::InvalidWidth { width: key_width });
    }
    if key_width + w + 1 > 64 {
        // Key, value and valid bit must share one 64-bit slot word.
        return Err(HdlError::InvalidWidth {
            width: key_width + w + 1,
        });
    }
    let tag_width = key_width - aw; // high key bits stored as the tag
    let slot_width = 1 + tag_width.max(1) + w; // valid + tag + value
    let mut builder = Entity::builder("assoc_bram").group("methods");
    for op in [MethodOp::Read, MethodOp::Write] {
        if ops.contains(op) {
            builder = builder.port(op.port_name(), PortDir::In, 1)?;
        }
    }
    let entity = builder
        .group("params")
        .port("key", PortDir::In, key_width)?
        .port("wdata", PortDir::In, w)?
        .port("data", PortDir::Out, w)?
        .port("found", PortDir::Out, 1)?
        .port("done", PortDir::Out, 1)?
        .build()?;
    let mut nl = Netlist::new(entity);
    let key = nl.add_net("key", key_width)?;
    let wdata = nl.add_net("wdata", w)?;
    let data = nl.add_net("data", w)?;
    let found = nl.add_net("found", 1)?;
    let done = nl.add_net("done", 1)?;
    for (p, n) in [
        ("key", key),
        ("wdata", wdata),
        ("data", data),
        ("found", found),
        ("done", done),
    ] {
        nl.bind_port(p, n)?;
    }
    let method = |nl: &mut Netlist, op: MethodOp| -> Result<Option<hdp_hdl::NetId>, HdlError> {
        if ops.contains(op) {
            let n = nl.add_net(op.port_name(), 1)?;
            nl.bind_port(op.port_name(), n)?;
            Ok(Some(n))
        } else {
            Ok(None)
        }
    };
    let m_read = method(&mut nl, MethodOp::Read)?;
    let m_write = method(&mut nl, MethodOp::Write)?;
    let mut rtl = Rtl::new(&mut nl);
    let zero1 = rtl.constant(0, 1)?;
    let read = m_read.unwrap_or(zero1);
    let write = m_write.unwrap_or(zero1);
    // Slot index: the low key bits. Tag: the high bits (or a constant
    // 0 bit when the key exactly covers the index).
    let slot = rtl.slice(key, 0, aw)?;
    let tag = if tag_width > 0 {
        rtl.slice(key, aw, tag_width)?
    } else {
        rtl.constant(0, 1)?
    };
    // Slot word to write: valid=1 & tag & value.
    let one1 = rtl.constant(1, 1)?;
    let word_in = rtl.concat(&[one1, tag, wdata])?;
    let word_out = rtl.wire("word_out", slot_width)?;
    rtl.netlist().add_cell(
        "u_bram",
        Prim::BlockRam {
            addr_width: aw,
            data_width: slot_width,
        },
        vec![write, slot, word_in, slot],
        vec![word_out],
    )?;
    // Read-side compare, one cycle after the strobe (synchronous RAM):
    // delay the looked-up tag's reference alongside.
    let stored_value = rtl.slice(word_out, 0, w)?;
    let stored_tag = rtl.slice(word_out, w, tag_width.max(1))?;
    let stored_valid = rtl.slice(word_out, w + tag_width.max(1), 1)?;
    let tag_d = rtl.reg(tag, None, 0)?;
    let read_d = rtl.reg(read, None, 0)?;
    let write_d = rtl.reg(write, None, 0)?;
    let tag_match = rtl.cmp(CmpKind::Eq, stored_tag, tag_d)?;
    let hit = rtl.and(tag_match, stored_valid)?;
    rtl.buf_into(found, hit)?;
    rtl.buf_into(data, stored_value)?;
    let done_expr = rtl.or(read_d, write_d)?;
    rtl.buf_into(done, done_expr)?;
    hdp_hdl::validate::check(&nl)?;
    Ok(nl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdp_sim::{NetlistComponent, SignalId, Simulator};

    struct Rig {
        sim: Simulator,
        m_read: SignalId,
        m_write: SignalId,
        key: SignalId,
        wdata: SignalId,
        data: SignalId,
        found: SignalId,
        done: SignalId,
    }

    fn rig(depth: usize, key_width: usize) -> Rig {
        let params = ContainerParams {
            data_width: 8,
            depth,
            addr_width: 16,
        };
        let nl = assoc_bram(
            params,
            key_width,
            OpSet::of(&[MethodOp::Read, MethodOp::Write]),
        )
        .unwrap();
        let mut sim = Simulator::new();
        let m_read = sim.add_signal("m_read", 1).unwrap();
        let m_write = sim.add_signal("m_write", 1).unwrap();
        let key = sim.add_signal("key", key_width).unwrap();
        let wdata = sim.add_signal("wdata", 8).unwrap();
        let data = sim.add_signal("data", 8).unwrap();
        let found = sim.add_signal("found", 1).unwrap();
        let done = sim.add_signal("done", 1).unwrap();
        let dut = NetlistComponent::new(
            "assoc",
            nl,
            sim.bus(),
            &[
                ("m_read", m_read),
                ("m_write", m_write),
                ("key", key),
                ("wdata", wdata),
                ("data", data),
                ("found", found),
                ("done", done),
            ],
        )
        .unwrap();
        sim.add_component(dut);
        for s in [m_read, m_write, key, wdata] {
            sim.poke(s, 0).unwrap();
        }
        sim.reset().unwrap();
        Rig {
            sim,
            m_read,
            m_write,
            key,
            wdata,
            data,
            found,
            done,
        }
    }

    fn write(r: &mut Rig, key: u64, value: u64) {
        r.sim.poke(r.m_write, 1).unwrap();
        r.sim.poke(r.key, key).unwrap();
        r.sim.poke(r.wdata, value).unwrap();
        r.sim.step().unwrap();
        r.sim.poke(r.m_write, 0).unwrap();
        r.sim.step().unwrap();
    }

    fn read(r: &mut Rig, key: u64) -> (Option<u64>, bool) {
        r.sim.poke(r.m_read, 1).unwrap();
        r.sim.poke(r.key, key).unwrap();
        r.sim.step().unwrap();
        assert_eq!(r.sim.peek(r.done).unwrap().to_u64(), Some(1));
        let hit = r.sim.peek(r.found).unwrap().to_u64() == Some(1);
        let v = r.sim.peek(r.data).unwrap().to_u64();
        r.sim.poke(r.m_read, 0).unwrap();
        r.sim.step().unwrap();
        (v, hit)
    }

    #[test]
    fn insert_and_lookup() {
        let mut r = rig(16, 8);
        write(&mut r, 0x35, 0xAB);
        let (v, hit) = read(&mut r, 0x35);
        assert!(hit);
        assert_eq!(v, Some(0xAB));
    }

    #[test]
    fn tag_mismatch_is_a_miss() {
        let mut r = rig(16, 8);
        write(&mut r, 0x35, 0xAB);
        // Same slot (low 4 bits 0x5), different tag.
        let (_, hit) = read(&mut r, 0x45);
        assert!(!hit);
    }

    #[test]
    fn eviction_matches_golden_model() {
        let mut r = rig(4, 8);
        write(&mut r, 1, 100);
        write(&mut r, 5, 200); // 5 % 4 == 1: evicts key 1
        let (_, hit1) = read(&mut r, 1);
        assert!(!hit1);
        let (v5, hit5) = read(&mut r, 5);
        assert!(hit5);
        assert_eq!(v5, Some(200));
        let mut golden = hdp_core::golden::AssocArray::new(4);
        golden.insert(1, 100);
        golden.insert(5, 200);
        assert_eq!(golden.lookup(1), None);
        assert_eq!(golden.lookup(5), Some(200));
    }

    #[test]
    fn unwritten_slot_is_a_miss() {
        let mut r = rig(16, 8);
        let (_, hit) = read(&mut r, 0x77);
        assert!(!hit);
    }

    #[test]
    fn parameter_validation() {
        let params = ContainerParams {
            data_width: 8,
            depth: 16,
            addr_width: 16,
        };
        // Key narrower than the slot index.
        assert!(assoc_bram(params, 2, OpSet::of(&[MethodOp::Read, MethodOp::Write])).is_err());
        // No operations.
        assert!(assoc_bram(params, 8, OpSet::new()).is_err());
        // Key too wide for the slot word.
        assert!(assoc_bram(params, 60, OpSet::of(&[MethodOp::Read, MethodOp::Write])).is_err());
    }
}
