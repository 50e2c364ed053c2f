//! Fixed-width logic vectors modelled after VHDL `std_logic_vector`.

use crate::{Bit, HdlError};
use std::fmt;

/// Maximum supported vector width in bits.
///
/// 64 bits comfortably covers every bus in the paper's designs: pixel
/// data is 8 or 24 bits and the external SRAM address bus of Figure 5 is
/// 16 bits.
pub const MAX_WIDTH: usize = 64;

/// A fixed-width four-state logic vector.
///
/// Values are stored as a packed pair of 64-bit masks: `value` holds the
/// `0`/`1` payload and `unknown`/`highz` flag bits that carry `X`/`Z`
/// state per position. This keeps cycle simulation of whole buses to a
/// handful of word operations while still propagating unknowns the way a
/// VHDL simulator would.
///
/// # Example
///
/// ```
/// use hdp_hdl::LogicVector;
///
/// # fn main() -> Result<(), hdp_hdl::HdlError> {
/// let a = LogicVector::from_u64(0xA5, 8)?;
/// assert_eq!(a.to_u64(), Some(0xA5));
/// assert_eq!(a.width(), 8);
/// let hi = a.slice(4, 4)?;
/// assert_eq!(hi.to_u64(), Some(0xA));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LogicVector {
    width: u8,
    value: u64,
    unknown: u64,
    highz: u64,
}

fn mask(width: usize) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

impl LogicVector {
    /// Creates a vector of the given width with every bit `'0'`.
    ///
    /// # Errors
    ///
    /// Returns [`HdlError::InvalidWidth`] if `width` is zero or exceeds
    /// [`MAX_WIDTH`].
    pub fn zeros(width: usize) -> Result<Self, HdlError> {
        Self::check_width(width)?;
        Ok(Self {
            width: width as u8,
            value: 0,
            unknown: 0,
            highz: 0,
        })
    }

    /// Creates a vector of the given width with every bit `'X'`.
    ///
    /// This is the power-on state of uninitialised storage.
    ///
    /// # Errors
    ///
    /// Returns [`HdlError::InvalidWidth`] for an unsupported width.
    pub fn unknown(width: usize) -> Result<Self, HdlError> {
        Self::check_width(width)?;
        Ok(Self {
            width: width as u8,
            value: 0,
            unknown: mask(width),
            highz: 0,
        })
    }

    /// Creates a vector of the given width with every bit `'Z'`.
    ///
    /// # Errors
    ///
    /// Returns [`HdlError::InvalidWidth`] for an unsupported width.
    pub fn high_z(width: usize) -> Result<Self, HdlError> {
        Self::check_width(width)?;
        Ok(Self {
            width: width as u8,
            value: 0,
            unknown: 0,
            highz: mask(width),
        })
    }

    /// Creates a fully-defined vector from an integer value.
    ///
    /// # Errors
    ///
    /// Returns [`HdlError::InvalidWidth`] for an unsupported width and
    /// [`HdlError::ValueOverflow`] if `value` does not fit.
    pub fn from_u64(value: u64, width: usize) -> Result<Self, HdlError> {
        Self::check_width(width)?;
        if value & !mask(width) != 0 {
            return Err(HdlError::ValueOverflow { value, width });
        }
        Ok(Self {
            width: width as u8,
            value,
            unknown: 0,
            highz: 0,
        })
    }

    /// Parses a VHDL-style bit-string such as `"10XZ"`.
    ///
    /// The leftmost character is the most significant bit, matching
    /// `std_logic_vector(n-1 downto 0)` literals.
    ///
    /// # Errors
    ///
    /// Returns [`HdlError::InvalidWidth`] for an empty or over-long
    /// string and [`HdlError::InvalidIdentifier`] if a character is not
    /// a logic literal.
    pub fn parse(text: &str) -> Result<Self, HdlError> {
        Self::check_width(text.len())?;
        let mut v = Self::zeros(text.len())?;
        for (offset, c) in text.chars().rev().enumerate() {
            let bit = Bit::from_char(c).ok_or_else(|| HdlError::InvalidIdentifier {
                name: text.to_owned(),
            })?;
            v.set(offset, bit)?;
        }
        Ok(v)
    }

    fn check_width(width: usize) -> Result<(), HdlError> {
        if width == 0 || width > MAX_WIDTH {
            return Err(HdlError::InvalidWidth { width });
        }
        Ok(())
    }

    /// The vector width in bits.
    #[must_use]
    pub fn width(&self) -> usize {
        usize::from(self.width)
    }

    /// Returns `true` if every bit is a defined `0` or `1`.
    #[must_use]
    pub fn is_defined(&self) -> bool {
        (self.unknown | self.highz) & mask(self.width()) == 0
    }

    /// The integer value, or `None` if any bit is `X` or `Z`.
    #[must_use]
    pub fn to_u64(&self) -> Option<u64> {
        if self.is_defined() {
            Some(self.value)
        } else {
            None
        }
    }

    /// Reads a single bit position (0 is least significant).
    ///
    /// # Errors
    ///
    /// Returns [`HdlError::IndexOutOfRange`] if `index >= width`.
    pub fn bit(&self, index: usize) -> Result<Bit, HdlError> {
        if index >= self.width() {
            return Err(HdlError::IndexOutOfRange {
                index,
                len: self.width(),
            });
        }
        let m = 1u64 << index;
        Ok(if self.highz & m != 0 {
            Bit::Z
        } else if self.unknown & m != 0 {
            Bit::X
        } else if self.value & m != 0 {
            Bit::One
        } else {
            Bit::Zero
        })
    }

    /// Writes a single bit position (0 is least significant).
    ///
    /// # Errors
    ///
    /// Returns [`HdlError::IndexOutOfRange`] if `index >= width`.
    pub fn set(&mut self, index: usize, bit: Bit) -> Result<(), HdlError> {
        if index >= self.width() {
            return Err(HdlError::IndexOutOfRange {
                index,
                len: self.width(),
            });
        }
        let m = 1u64 << index;
        self.value &= !m;
        self.unknown &= !m;
        self.highz &= !m;
        match bit {
            Bit::Zero => {}
            Bit::One => self.value |= m,
            Bit::X => self.unknown |= m,
            Bit::Z => self.highz |= m,
        }
        Ok(())
    }

    /// Extracts `len` bits starting at `low` (a `downto` slice).
    ///
    /// # Errors
    ///
    /// Returns [`HdlError::IndexOutOfRange`] if the slice exceeds the
    /// vector, or [`HdlError::InvalidWidth`] if `len` is zero.
    pub fn slice(&self, low: usize, len: usize) -> Result<Self, HdlError> {
        Self::check_width(len)?;
        if low + len > self.width() {
            return Err(HdlError::IndexOutOfRange {
                index: low + len - 1,
                len: self.width(),
            });
        }
        let m = mask(len);
        Ok(Self {
            width: len as u8,
            value: (self.value >> low) & m,
            unknown: (self.unknown >> low) & m,
            highz: (self.highz >> low) & m,
        })
    }

    /// Concatenates `self` (as the high part) with `low` (as the low part),
    /// matching VHDL's `self & low`.
    ///
    /// # Errors
    ///
    /// Returns [`HdlError::InvalidWidth`] if the combined width exceeds
    /// [`MAX_WIDTH`].
    pub fn concat(&self, low: &Self) -> Result<Self, HdlError> {
        let width = self.width() + low.width();
        Self::check_width(width)?;
        let shift = low.width();
        Ok(Self {
            width: width as u8,
            value: (self.value << shift) | low.value,
            unknown: (self.unknown << shift) | low.unknown,
            highz: (self.highz << shift) | low.highz,
        })
    }

    /// Zero-extends or truncates to a new width.
    ///
    /// Truncation keeps the least-significant bits, the behaviour of a
    /// VHDL resize on an unsigned value.
    ///
    /// # Errors
    ///
    /// Returns [`HdlError::InvalidWidth`] for an unsupported target width.
    pub fn resize(&self, width: usize) -> Result<Self, HdlError> {
        Self::check_width(width)?;
        let m = mask(width);
        Ok(Self {
            width: width as u8,
            value: self.value & m,
            unknown: self.unknown & m,
            highz: self.highz & m,
        })
    }

    /// Wrapping unsigned addition; any undefined input bit poisons the
    /// whole result to `X`, as in `numeric_std`.
    #[must_use]
    pub fn wrapping_add(&self, rhs: &Self) -> Self {
        let width = self.width().max(rhs.width());
        match (self.to_u64(), rhs.to_u64()) {
            (Some(a), Some(b)) => Self {
                width: width as u8,
                value: a.wrapping_add(b) & mask(width),
                unknown: 0,
                highz: 0,
            },
            _ => Self::unknown(width).expect("width already validated"),
        }
    }

    /// IEEE 1164 resolution of two drivers on the same bus.
    ///
    /// Computed word-level on the packed planes — `Z` yields to the
    /// other driver, agreement keeps the value, conflict or any `X`
    /// produces `X` — so resolving a whole vector costs a handful of
    /// plane ops rather than a bit-at-a-time fold. The planes are
    /// mutually exclusive per bit (the invariant [`LogicVector::set`]
    /// maintains), which is what lets each term below intersect them
    /// directly.
    ///
    /// # Errors
    ///
    /// Returns [`HdlError::WidthMismatch`] if the widths differ.
    pub fn resolve(&self, other: &Self) -> Result<Self, HdlError> {
        if self.width != other.width {
            return Err(HdlError::WidthMismatch {
                context: "bus resolution".into(),
                expected: self.width(),
                found: other.width(),
            });
        }
        let (va, ua, za) = self.raw_masks();
        let (vb, ub, zb) = other.raw_masks();
        let both = !za & !zb;
        let highz = za & zb;
        let unknown = (za & ub) | (zb & ua) | (both & (ua | ub | (va ^ vb)));
        let value = ((za & vb) | (zb & va) | (both & va & vb)) & !unknown;
        Ok(Self {
            width: self.width,
            value,
            unknown,
            highz,
        })
    }

    /// Iterates over bits from least significant to most significant.
    pub fn iter(&self) -> impl Iterator<Item = Bit> + '_ {
        (0..self.width()).map(|i| self.bit(i).expect("index within width"))
    }

    /// The raw packed bit planes `(value, unknown, highz)`.
    ///
    /// This is the vector's storage representation: bit `i` of the
    /// vector is `Z` if `highz` has bit `i` set, else `X` if `unknown`
    /// has it set, else the `0`/`1` payload in `value`. Intended for
    /// bulk storage layers (e.g. the lowered engine's net planes) that want to
    /// move whole vectors with word operations; round-trips through
    /// [`LogicVector::from_raw_masks`].
    #[must_use]
    pub fn raw_masks(&self) -> (u64, u64, u64) {
        (self.value, self.unknown, self.highz)
    }

    /// Rebuilds a vector from raw bit planes (see
    /// [`LogicVector::raw_masks`]). Plane bits above `width` are
    /// masked off; within the width, `highz` takes precedence over
    /// `unknown`, which takes precedence over `value`, matching the
    /// storage invariant `set` maintains.
    ///
    /// # Errors
    ///
    /// Returns [`HdlError::InvalidWidth`] for an unsupported width.
    pub fn from_raw_masks(
        width: usize,
        value: u64,
        unknown: u64,
        highz: u64,
    ) -> Result<Self, HdlError> {
        Self::check_width(width)?;
        let m = mask(width);
        let highz = highz & m;
        let unknown = unknown & m & !highz;
        Ok(Self {
            width: width as u8,
            value: value & m & !unknown & !highz,
            unknown,
            highz,
        })
    }
}

impl LogicVector {
    /// Renders the bare bit-string, MSB first: exactly the characters
    /// [`fmt::Display`] prints between its quotes. One `String`
    /// allocation, no formatter machinery. To check a vector against
    /// a rendered string, compare it with `==`, which allocates
    /// nothing.
    #[must_use]
    pub fn to_bit_string(&self) -> String {
        (0..self.width()).rev().map(|i| self.bit_char(i)).collect()
    }

    /// The character of bit `i`: `Z`, `X`, `1` or `0`.
    fn bit_char(&self, i: usize) -> char {
        let m = 1u64 << i;
        if self.highz & m != 0 {
            'Z'
        } else if self.unknown & m != 0 {
            'X'
        } else if self.value & m != 0 {
            '1'
        } else {
            '0'
        }
    }
}

/// A vector equals the MSB-first bit-string it renders as
/// ([`LogicVector::to_bit_string`]), compared without allocating.
impl PartialEq<String> for LogicVector {
    fn eq(&self, other: &String) -> bool {
        other.len() == self.width()
            && other
                .bytes()
                .zip((0..self.width()).rev())
                .all(|(b, i)| char::from(b) == self.bit_char(i))
    }
}

impl fmt::Display for LogicVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "\"{}\"", self.to_bit_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_width_is_rejected() {
        assert_eq!(
            LogicVector::zeros(0),
            Err(HdlError::InvalidWidth { width: 0 })
        );
        assert_eq!(
            LogicVector::zeros(65),
            Err(HdlError::InvalidWidth { width: 65 })
        );
    }

    #[test]
    fn value_overflow_is_rejected() {
        assert_eq!(
            LogicVector::from_u64(256, 8),
            Err(HdlError::ValueOverflow {
                value: 256,
                width: 8
            })
        );
        assert!(LogicVector::from_u64(255, 8).is_ok());
    }

    #[test]
    fn full_width_values_work() {
        let v = LogicVector::from_u64(u64::MAX, 64).unwrap();
        assert_eq!(v.to_u64(), Some(u64::MAX));
    }

    #[test]
    fn equals_the_bit_string_it_renders_as() {
        let bits = [Bit::Zero, Bit::One, Bit::X, Bit::Z];
        for width in [1, 63, 64] {
            for seed in 0..16u64 {
                let mut v = LogicVector::zeros(width).unwrap();
                for i in 0..width {
                    let pick = (seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (i % 61)) as usize;
                    v.set(i, bits[(pick + i) % 4]).unwrap();
                }
                let text = v.to_bit_string();
                assert!(v == text, "{text}");
                // One flipped character, one character short or long.
                let flipped: String = text
                    .chars()
                    .enumerate()
                    .map(|(i, c)| match (i == seed as usize % width, c) {
                        (true, '0') => '1',
                        (true, _) => '0',
                        (false, c) => c,
                    })
                    .collect();
                assert!(v != flipped, "{flipped}");
                assert!(v != text[1..].to_owned());
                assert!(v != format!("{text}0"));
            }
        }
        assert!(LogicVector::parse("10XZ").unwrap() == "10XZ".to_owned());
        assert!(LogicVector::parse("10XZ").unwrap() != "10xz".to_owned());
    }

    #[test]
    fn parse_and_display_round_trip() {
        let v = LogicVector::parse("10XZ").unwrap();
        assert_eq!(v.to_string(), "\"10XZ\"");
        assert_eq!(v.bit(0).unwrap(), Bit::Z);
        assert_eq!(v.bit(3).unwrap(), Bit::One);
        assert_eq!(v.to_u64(), None);
    }

    #[test]
    fn slice_extracts_expected_bits() {
        let v = LogicVector::from_u64(0xABCD, 16).unwrap();
        assert_eq!(v.slice(8, 8).unwrap().to_u64(), Some(0xAB));
        assert_eq!(v.slice(0, 4).unwrap().to_u64(), Some(0xD));
        assert!(v.slice(12, 8).is_err());
    }

    #[test]
    fn concat_orders_high_then_low() {
        let hi = LogicVector::from_u64(0xA, 4).unwrap();
        let lo = LogicVector::from_u64(0x5, 4).unwrap();
        assert_eq!(hi.concat(&lo).unwrap().to_u64(), Some(0xA5));
    }

    #[test]
    fn concat_overflow_is_rejected() {
        let a = LogicVector::zeros(40).unwrap();
        let b = LogicVector::zeros(40).unwrap();
        assert!(a.concat(&b).is_err());
    }

    #[test]
    fn resize_truncates_low_bits() {
        let v = LogicVector::from_u64(0x1FF, 9).unwrap();
        assert_eq!(v.resize(8).unwrap().to_u64(), Some(0xFF));
        assert_eq!(v.resize(12).unwrap().to_u64(), Some(0x1FF));
    }

    #[test]
    fn wrapping_add_wraps_at_width() {
        let a = LogicVector::from_u64(0xFF, 8).unwrap();
        let b = LogicVector::from_u64(1, 8).unwrap();
        assert_eq!(a.wrapping_add(&b).to_u64(), Some(0));
    }

    #[test]
    fn wrapping_add_poisons_on_unknown() {
        let a = LogicVector::unknown(8).unwrap();
        let b = LogicVector::from_u64(1, 8).unwrap();
        assert_eq!(a.wrapping_add(&b).to_u64(), None);
    }

    #[test]
    fn resolution_of_z_bus_yields_driver() {
        let z = LogicVector::high_z(8).unwrap();
        let d = LogicVector::from_u64(0x5A, 8).unwrap();
        assert_eq!(z.resolve(&d).unwrap(), d);
        assert_eq!(d.resolve(&z).unwrap(), d);
    }

    #[test]
    fn conflicting_drivers_resolve_to_x() {
        let a = LogicVector::from_u64(0xFF, 8).unwrap();
        let b = LogicVector::from_u64(0x00, 8).unwrap();
        let r = a.resolve(&b).unwrap();
        assert!(!r.is_defined());
        assert_eq!(r.bit(0).unwrap(), Bit::X);
    }

    #[test]
    fn word_level_resolve_matches_bit_level_resolve() {
        // Exhaustive over every 2-bit four-state pair: the plane
        // computation must agree with Bit::resolve on each bit and
        // leave the planes in the canonical (mutually exclusive)
        // form `set` produces.
        let bits = [Bit::Zero, Bit::One, Bit::X, Bit::Z];
        let vectors: Vec<LogicVector> = bits
            .iter()
            .flat_map(|&hi| bits.iter().map(move |&lo| (hi, lo)))
            .map(|(hi, lo)| {
                let mut v = LogicVector::zeros(2).unwrap();
                v.set(0, lo).unwrap();
                v.set(1, hi).unwrap();
                v
            })
            .collect();
        for a in &vectors {
            for b in &vectors {
                let word = a.resolve(b).unwrap();
                let mut bitwise = LogicVector::zeros(2).unwrap();
                for i in 0..2 {
                    bitwise
                        .set(i, a.bit(i).unwrap().resolve(b.bit(i).unwrap()))
                        .unwrap();
                }
                assert_eq!(word, bitwise, "{a} resolve {b}");
            }
        }
    }

    #[test]
    fn set_and_bit_round_trip() {
        let mut v = LogicVector::zeros(4).unwrap();
        v.set(2, Bit::One).unwrap();
        v.set(3, Bit::Z).unwrap();
        assert_eq!(v.bit(2).unwrap(), Bit::One);
        assert_eq!(v.bit(3).unwrap(), Bit::Z);
        v.set(3, Bit::Zero).unwrap();
        assert_eq!(v.bit(3).unwrap(), Bit::Zero);
        assert!(v.set(4, Bit::One).is_err());
    }

    #[test]
    fn raw_masks_round_trip() {
        for text in ["10XZ", "0000", "ZZZZ", "X1Z0"] {
            let v = LogicVector::parse(text).unwrap();
            let (value, unknown, highz) = v.raw_masks();
            let back = LogicVector::from_raw_masks(v.width(), value, unknown, highz).unwrap();
            assert_eq!(back, v, "{text}");
        }
    }

    #[test]
    fn from_raw_masks_normalises_overlapping_planes() {
        // Z wins over X wins over the payload, and bits above the
        // width are dropped — the same invariants `set` maintains.
        let v = LogicVector::from_raw_masks(4, 0xFF, 0b0010, 0b0011).unwrap();
        assert_eq!(v.to_string(), "\"11ZZ\"");
        assert_eq!(v.bit(0).unwrap(), Bit::Z);
        assert_eq!(v.bit(1).unwrap(), Bit::Z);
        assert_eq!(v.bit(2).unwrap(), Bit::One);
        assert_eq!(v.bit(3).unwrap(), Bit::One);
        assert!(LogicVector::from_raw_masks(0, 0, 0, 0).is_err());
    }

    #[test]
    fn iter_yields_lsb_first() {
        let v = LogicVector::from_u64(0b01, 2).unwrap();
        let bits: Vec<Bit> = v.iter().collect();
        assert_eq!(bits, vec![Bit::One, Bit::Zero]);
    }

    #[test]
    fn bit_string_matches_display_without_quotes() {
        for text in ["10XZ", "0", "Z", "X1Z0", "1111000010100101"] {
            let v = LogicVector::parse(text).unwrap();
            assert_eq!(v.to_bit_string(), text);
            assert_eq!(v.to_string(), format!("\"{text}\""));
        }
    }
}
