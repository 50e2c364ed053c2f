//! Signals: the wires connecting simulated components.

use crate::SimError;
use hdp_hdl::LogicVector;

/// Identifier of a signal inside one [`crate::Simulator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SignalId(pub(crate) usize);

impl SignalId {
    /// The raw index of the signal.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Driver tag for a value poked from the testbench (vs. a component
/// index).
pub(crate) const DRIVER_POKE: usize = usize::MAX;

/// Signal read/drive access as seen from [`crate::Component::eval`].
///
/// The simulator hands every scheduler's evaluations its one
/// [`SignalBus`] through this trait, so component implementations
/// written against it run unchanged under every scheduling mode.
pub trait BusAccess {
    /// Reads the current value of a signal.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownSignal`] for a stale id.
    fn read(&self, id: SignalId) -> Result<LogicVector, SimError>;

    /// Reads a signal as a defined integer, treating undefined values
    /// as a protocol error attributed to `component`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Protocol`] if the value contains `X`/`Z`.
    fn read_u64(&self, id: SignalId, component: &str) -> Result<u64, SimError>;

    /// Drives a signal with a new value.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SignalWidth`] on width mismatch or
    /// [`SimError::UnknownSignal`] for a stale id.
    fn drive(&mut self, id: SignalId, value: LogicVector) -> Result<(), SimError>;

    /// Drives a signal with a defined integer value.
    ///
    /// # Errors
    ///
    /// As [`BusAccess::drive`], plus width overflow from the value.
    fn drive_u64(&mut self, id: SignalId, value: u64) -> Result<(), SimError>;

    /// The width of a signal.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownSignal`] for a stale id.
    fn width(&self, id: SignalId) -> Result<usize, SimError>;

    /// The name of a signal.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownSignal`] for a stale id.
    fn name(&self, id: SignalId) -> Result<&str, SimError>;
}

#[derive(Debug, Clone)]
struct Slot {
    name: String,
    value: LogicVector,
    /// The settled value at the start of the current pass (snapshotted
    /// on the pass's first write). A signal counts as *changed* only if
    /// its pass-final resolved value differs from this — transient
    /// intra-pass states (a tri-state driver writing `Z` before the
    /// active driver resolves over it) are not changes, mirroring
    /// VHDL's one-update-per-delta signal semantics.
    prev_value: LogicVector,
    /// Whether any component wrote the signal during the current
    /// settle iteration (used for multi-driver resolution).
    written_this_pass: bool,
    /// Whether the value currently differs from `prev_value`.
    changed: bool,
    /// Whether this slot was already queued on the dirty list this
    /// pass (avoids duplicates when `changed` toggles).
    queued_dirty: bool,
    /// The driver (component index or [`DRIVER_POKE`]) whose drive
    /// last changed the value — names the culprit in non-convergence
    /// reports.
    last_changer: usize,
    /// Every distinct driver ever seen on this signal. Nearly always
    /// one entry; growing past one flags the signal as shared so the
    /// rank walk can keep all its drivers co-evaluated.
    drivers: Vec<usize>,
    /// Telemetry: settled-value changes (counted once per pass, at
    /// pass end, so transient intra-pass states never count).
    toggles: u64,
    /// Telemetry: accepted `drive` calls.
    drives: u64,
}

/// The set of signal values visible to components.
///
/// Components receive a `&mut SignalBus` in [`crate::Component::eval`]
/// and [`crate::Component::tick`]; they read inputs with
/// [`SignalBus::read`] and drive outputs with [`SignalBus::drive`].
///
/// Driving follows VHDL resolution semantics per settle iteration: the
/// first drive of an iteration replaces the value, later drives of the
/// same iteration resolve against it bit by bit (so several tri-state
/// drivers can legally share a bus by driving `'Z'` when inactive).
#[derive(Debug, Default)]
pub struct SignalBus {
    slots: Vec<Slot>,
    /// Slots written during the current pass (cleared by `begin_pass`,
    /// keeping pass bookkeeping proportional to activity, not to the
    /// total signal count).
    touched: Vec<usize>,
    /// Slots that at some point this pass differed from their
    /// pass-start value — what the rank walk wakes readers of. Filter
    /// by each slot's `changed` flag for settled changes: a later
    /// resolve may have restored the original value.
    dirty: Vec<usize>,
    /// Slots that newly gained a second distinct driver and have not
    /// yet been reported to the scheduler.
    new_shared: Vec<usize>,
    /// Total `(slot, component)` pairs ever recorded; testbench pokes
    /// do not count, since no rank order depends on them. The lowered
    /// scheduler compares this against the count its rank schedule
    /// was built from to detect newly discovered drivers cheaply.
    driver_links: usize,
    /// The driver tag recorded for subsequent `drive` calls.
    current_driver: usize,
    /// Whether per-slot telemetry counters (toggles, drives) are
    /// collected. Off by default; the only cost when off is one branch
    /// per `drive`.
    telemetry: bool,
}

impl SignalBus {
    pub(crate) fn add(
        &mut self,
        name: impl Into<String>,
        width: usize,
    ) -> Result<SignalId, SimError> {
        let name = name.into();
        if self.slots.iter().any(|s| s.name == name) {
            return Err(SimError::DuplicateSignal { name });
        }
        let value = LogicVector::unknown(width).map_err(SimError::from)?;
        self.slots.push(Slot {
            name,
            value,
            prev_value: value,
            written_this_pass: false,
            changed: false,
            queued_dirty: false,
            last_changer: DRIVER_POKE,
            drivers: Vec::new(),
            toggles: 0,
            drives: 0,
        });
        Ok(SignalId(self.slots.len() - 1))
    }

    /// The number of signals.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no signals exist.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The name of a signal.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownSignal`] for a stale id.
    pub fn name(&self, id: SignalId) -> Result<&str, SimError> {
        self.slots
            .get(id.0)
            .map(|s| s.name.as_str())
            .ok_or(SimError::UnknownSignal { index: id.0 })
    }

    /// The width of a signal.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownSignal`] for a stale id.
    pub fn width(&self, id: SignalId) -> Result<usize, SimError> {
        self.slots
            .get(id.0)
            .map(|s| s.value.width())
            .ok_or(SimError::UnknownSignal { index: id.0 })
    }

    /// Reads the current value of a signal.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownSignal`] for a stale id.
    pub fn read(&self, id: SignalId) -> Result<LogicVector, SimError> {
        self.slots
            .get(id.0)
            .map(|s| s.value)
            .ok_or(SimError::UnknownSignal { index: id.0 })
    }

    /// Reads a signal as a defined integer, treating undefined values
    /// as a protocol error attributed to `component`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Protocol`] if the value contains `X`/`Z`.
    pub fn read_u64(&self, id: SignalId, component: &str) -> Result<u64, SimError> {
        let v = self.read(id)?;
        v.to_u64().ok_or_else(|| SimError::Protocol {
            component: component.to_owned(),
            message: format!("signal `{}` is undefined ({v})", self.slots[id.0].name),
        })
    }

    /// Drives a signal with a new value.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SignalWidth`] on width mismatch or
    /// [`SimError::UnknownSignal`] for a stale id.
    pub fn drive(&mut self, id: SignalId, value: LogicVector) -> Result<(), SimError> {
        let driver = self.current_driver;
        let telemetry = self.telemetry;
        let slot = self
            .slots
            .get_mut(id.0)
            .ok_or(SimError::UnknownSignal { index: id.0 })?;
        if telemetry {
            slot.drives += 1;
        }
        if slot.value.width() != value.width() {
            return Err(SimError::SignalWidth {
                signal: slot.name.clone(),
                expected: slot.value.width(),
                found: value.width(),
            });
        }
        if !slot.drivers.contains(&driver) {
            slot.drivers.push(driver);
            self.driver_links += usize::from(driver != DRIVER_POKE);
            if slot.drivers.len() == 2 {
                self.new_shared.push(id.0);
            }
        }
        let new = if slot.written_this_pass {
            slot.value.resolve(&value).map_err(SimError::from)?
        } else {
            self.touched.push(id.0);
            slot.prev_value = slot.value;
            value
        };
        if new != slot.value {
            slot.value = new;
            slot.last_changer = driver;
        }
        slot.changed = slot.value != slot.prev_value;
        if slot.changed && !slot.queued_dirty {
            slot.queued_dirty = true;
            self.dirty.push(id.0);
        }
        slot.written_this_pass = true;
        Ok(())
    }

    /// Drives a signal with a defined integer value.
    ///
    /// # Errors
    ///
    /// As [`SignalBus::drive`], plus width overflow from the value.
    pub fn drive_u64(&mut self, id: SignalId, value: u64) -> Result<(), SimError> {
        let width = self.width(id)?;
        let v = LogicVector::from_u64(value, width).map_err(SimError::from)?;
        self.drive(id, v)
    }

    /// Begins a settle iteration: clears per-pass write/change flags.
    pub(crate) fn begin_pass(&mut self) {
        for i in self.touched.drain(..) {
            self.slots[i].written_this_pass = false;
            self.slots[i].changed = false;
            self.slots[i].queued_dirty = false;
        }
        self.dirty.clear();
    }

    /// Undoes the current pass: every slot written since
    /// [`SignalBus::begin_pass`] gets its pass-start value back and the
    /// pass's write and change flags are cleared. Driver links and
    /// telemetry counts the pass recorded stay.
    pub(crate) fn rollback_pass(&mut self) {
        for &i in &self.touched {
            let slot = &mut self.slots[i];
            slot.value = slot.prev_value;
        }
        self.begin_pass();
    }

    /// Whether any signal's settled value changed this pass.
    pub(crate) fn any_changed(&self) -> bool {
        self.dirty.iter().any(|&i| self.slots[i].changed)
    }

    /// Every slot that differed from its pass-start value at some point
    /// this pass, in first-change order, including any a later resolve
    /// restored. Grows during a pass, so a cursor into it sees each new
    /// entry once.
    pub(crate) fn changed_this_pass(&self) -> &[usize] {
        &self.dirty
    }

    /// Slots (raw indices) whose settled value changed this pass.
    pub(crate) fn dirty_slots(&self) -> Vec<usize> {
        self.dirty
            .iter()
            .copied()
            .filter(|&i| self.slots[i].changed)
            .collect()
    }

    /// Tags subsequent [`SignalBus::drive`] calls with their driver
    /// (component index, or [`DRIVER_POKE`] for testbench pokes).
    pub(crate) fn set_driver(&mut self, driver: usize) {
        self.current_driver = driver;
    }

    /// Drains the list of slots that newly became multi-driver.
    pub(crate) fn take_new_shared(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.new_shared)
    }

    /// Every distinct driver ever seen on a slot.
    pub(crate) fn slot_drivers(&self, slot: usize) -> &[usize] {
        &self.slots[slot].drivers
    }

    /// The driver whose drive last changed a slot's value.
    pub(crate) fn last_changer(&self, slot: usize) -> usize {
        self.slots[slot].last_changer
    }

    /// Total `(slot, component)` pairs ever recorded (monotonic;
    /// pokes excluded).
    pub(crate) fn driver_link_count(&self) -> usize {
        self.driver_links
    }

    /// Enables or disables per-slot telemetry counters.
    pub(crate) fn set_telemetry(&mut self, on: bool) {
        self.telemetry = on;
    }

    /// Credits one toggle to every slot whose settled value changed in
    /// the pass that just ended. The scheduler calls this once per
    /// delta pass (and once after the tick phase), so a slot's toggle
    /// count is exactly its number of settled-value changes — the
    /// switching-activity proxy — and is bit-identical across
    /// scheduling modes because the dirty set is.
    pub(crate) fn count_pass_toggles(&mut self) {
        for &i in &self.dirty {
            let slot = &mut self.slots[i];
            if slot.changed {
                slot.toggles += 1;
            }
        }
    }

    /// Telemetry snapshot of one slot: `(name, toggles, drives)`.
    pub(crate) fn slot_telemetry(&self, slot: usize) -> (&str, u64, u64) {
        let s = &self.slots[slot];
        (s.name.as_str(), s.toggles, s.drives)
    }

    /// Stores a settled value straight into a slot, outside any pass:
    /// the write of the scheduler's direct path, which settles a lone
    /// lowered unit on its planes and has no second driver to resolve
    /// against. It counts what the rank walk's pass would: one drive,
    /// and one toggle when the value changes. Returns whether it changed.
    ///
    /// # Errors
    ///
    /// As [`SignalBus::drive`]: an unknown signal or a width mismatch.
    pub(crate) fn store(
        &mut self,
        id: SignalId,
        value: LogicVector,
        driver: usize,
    ) -> Result<bool, SimError> {
        let telemetry = self.telemetry;
        let slot = self
            .slots
            .get_mut(id.0)
            .ok_or(SimError::UnknownSignal { index: id.0 })?;
        if slot.value.width() != value.width() {
            return Err(SimError::SignalWidth {
                signal: slot.name.clone(),
                expected: slot.value.width(),
                found: value.width(),
            });
        }
        let changed = slot.value != value;
        if changed {
            slot.value = value;
            slot.last_changer = driver;
        }
        if telemetry {
            slot.drives += 1;
            slot.toggles += u64::from(changed);
        }
        Ok(changed)
    }
}

impl BusAccess for SignalBus {
    fn read(&self, id: SignalId) -> Result<LogicVector, SimError> {
        SignalBus::read(self, id)
    }

    fn read_u64(&self, id: SignalId, component: &str) -> Result<u64, SimError> {
        SignalBus::read_u64(self, id, component)
    }

    fn drive(&mut self, id: SignalId, value: LogicVector) -> Result<(), SimError> {
        SignalBus::drive(self, id, value)
    }

    fn drive_u64(&mut self, id: SignalId, value: u64) -> Result<(), SimError> {
        SignalBus::drive_u64(self, id, value)
    }

    fn width(&self, id: SignalId) -> Result<usize, SimError> {
        SignalBus::width(self, id)
    }

    fn name(&self, id: SignalId) -> Result<&str, SimError> {
        SignalBus::name(self, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_read_back() {
        let mut bus = SignalBus::default();
        let a = bus.add("a", 8).unwrap();
        assert_eq!(bus.width(a).unwrap(), 8);
        assert_eq!(bus.name(a).unwrap(), "a");
        assert_eq!(bus.read(a).unwrap().to_u64(), None); // starts X
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut bus = SignalBus::default();
        bus.add("a", 1).unwrap();
        assert!(matches!(
            bus.add("a", 1),
            Err(SimError::DuplicateSignal { .. })
        ));
    }

    #[test]
    fn drive_and_change_tracking() {
        let mut bus = SignalBus::default();
        let a = bus.add("a", 8).unwrap();
        bus.begin_pass();
        assert!(!bus.any_changed());
        bus.drive_u64(a, 7).unwrap();
        assert!(bus.any_changed());
        assert_eq!(bus.dirty_slots(), &[a.index()]);
        assert_eq!(bus.read(a).unwrap().to_u64(), Some(7));
        bus.begin_pass();
        bus.drive_u64(a, 7).unwrap();
        assert!(!bus.any_changed(), "same value is not a change");
        assert!(bus.dirty_slots().is_empty());
    }

    #[test]
    fn width_mismatch_rejected() {
        let mut bus = SignalBus::default();
        let a = bus.add("a", 8).unwrap();
        let v = LogicVector::from_u64(0, 4).unwrap();
        assert!(matches!(bus.drive(a, v), Err(SimError::SignalWidth { .. })));
    }

    #[test]
    fn second_drive_in_pass_resolves() {
        let mut bus = SignalBus::default();
        let a = bus.add("a", 4).unwrap();
        bus.begin_pass();
        bus.drive(a, LogicVector::high_z(4).unwrap()).unwrap();
        bus.drive(a, LogicVector::from_u64(9, 4).unwrap()).unwrap();
        assert_eq!(bus.read(a).unwrap().to_u64(), Some(9));
        // Conflicting strong drivers resolve to X.
        bus.begin_pass();
        bus.drive(a, LogicVector::from_u64(0xF, 4).unwrap())
            .unwrap();
        bus.drive(a, LogicVector::from_u64(0x0, 4).unwrap())
            .unwrap();
        assert_eq!(bus.read(a).unwrap().to_u64(), None);
    }

    #[test]
    fn read_u64_reports_undefined_as_protocol_error() {
        let mut bus = SignalBus::default();
        let a = bus.add("a", 4).unwrap();
        let err = bus.read_u64(a, "dut").unwrap_err();
        assert!(matches!(err, SimError::Protocol { component, .. } if component == "dut"));
    }

    #[test]
    fn distinct_drivers_are_reported_once() {
        let mut bus = SignalBus::default();
        let a = bus.add("a", 4).unwrap();
        bus.begin_pass();
        bus.set_driver(0);
        bus.drive_u64(a, 1).unwrap();
        assert!(bus.take_new_shared().is_empty(), "one driver is not shared");
        bus.set_driver(1);
        bus.drive(a, LogicVector::high_z(4).unwrap()).unwrap();
        assert_eq!(bus.take_new_shared(), vec![a.index()]);
        // Re-driving by known drivers does not re-report.
        bus.begin_pass();
        bus.set_driver(0);
        bus.drive_u64(a, 2).unwrap();
        assert!(bus.take_new_shared().is_empty());
        assert_eq!(bus.slot_drivers(a.index()), &[0, 1]);
        assert_eq!(bus.last_changer(a.index()), 0);
    }
}
